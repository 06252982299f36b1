package xydiff_test

import (
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"xydiff/internal/crawl"
	"xydiff/internal/retry"
	"xydiff/internal/server"
	"xydiff/internal/vstore"
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

var fieldRow = regexp.MustCompile("^\\s*\\| `([\\w.]+)` \\| kept")

// TestConfigFieldsDocumented: the field table of DESIGN.md's "A daemon
// with fewer knobs" marks as kept exactly the exported fields of the
// structs a program configures the daemon's parts through, so a field
// cannot come back without its reason, nor go without its row.
func TestConfigFieldsDocumented(t *testing.T) {
	var want []string
	for _, v := range []any{crawl.Config{}, server.Config{}, vstore.Config{}, vstore.ScrubConfig{}, retry.Policy{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				want = append(want, typ.String()+"."+f.Name)
			}
		}
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, entry, ok := strings.Cut(string(design), "* **A daemon with fewer knobs**")
	if !ok {
		t.Fatal(`DESIGN.md has no "A daemon with fewer knobs" entry`)
	}
	entry, _, _ = strings.Cut(entry, "\n* **")
	_, table, ok := strings.Cut(entry, "| field | kept for, or the constant it became |\n")
	if !ok {
		t.Fatal("the knobs entry has no `| field | kept for, or the constant it became |` table")
	}
	var got []string
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "|") {
			break
		}
		if m := fieldRow.FindStringSubmatch(line); m != nil {
			got = append(got, m[1])
		}
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("DESIGN.md keeps fields %v; the structs export %v", got, want)
	}
}
