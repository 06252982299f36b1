package xydiff_test

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var toolRow = regexp.MustCompile("^\\| `(\\w+)")

// TestReadmeToolTableNamesEveryCommand: README's tool table names
// exactly the directories under cmd/, once each, so a deleted command
// cannot leave its documentation behind and a new one cannot go
// undocumented.
func TestReadmeToolTableNamesEveryCommand(t *testing.T) {
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, e := range entries {
		if e.IsDir() {
			want = append(want, e.Name())
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "\n| tool | purpose |\n")
	if !ok {
		t.Fatal("README.md has no `| tool | purpose |` table")
	}
	var got []string
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		if m := toolRow.FindStringSubmatch(line); m != nil {
			got = append(got, m[1])
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("README tool table names %v; cmd/ holds %v", got, want)
	}
}
