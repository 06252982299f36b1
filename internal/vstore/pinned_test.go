package vstore

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
)

// TestStoredFilesPinned: what a store writes does not depend on how it
// holds its history in memory. A fixed script — two versions of three
// documents, Checkpoint, a third version of each, Close — leaves segment
// and snapshot files whose SHA-256 digests are pinned here. One document
// carries ROADMAP item 1's pattern (a deleted element whose middle child
// moves away), so its snapshot holds a delta whose pruned subtree has
// two adjacent texts. A change of any digest is a change of the on-disk
// format.
func TestStoredFilesPinned(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, diff.Options{}, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(48))
	catalog := []*dom.Node{changesim.Catalog(rng, 3, 4)}
	page := []*dom.Node{changesim.HTMLPage(rng, 3)}
	for len(catalog) < 3 {
		res, err := changesim.Simulate(catalog[len(catalog)-1], changesim.Uniform(0.15, rng.Int63()))
		if err != nil {
			t.Fatal(err)
		}
		catalog = append(catalog, res.New)
		html, err := changesim.SimulateHTML(page[len(page)-1], changesim.UniformHTML(0.1, rng.Int63()))
		if err != nil {
			t.Fatal(err)
		}
		page = append(page, html.New)
	}
	var broken []*dom.Node
	for _, src := range []string{
		`<r><p>a<x>a heavy payload</x>b</p><q/></r>`,
		`<r><q><x>a heavy payload</x></q></r>`,
		`<r><q><x>a heavy payload</x></q><p>c</p></r>`,
	} {
		doc, err := dom.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		broken = append(broken, doc)
	}
	put := func(v int) {
		t.Helper()
		for _, p := range []struct {
			id      string
			doc     *dom.Node
			matcher diff.Matcher
		}{
			{"catalog", catalog[v-1], diff.MatcherBULD},
			{"page", page[v-1], diff.MatcherSFTM},
			{"broken", broken[v-1], diff.MatcherBULD},
		} {
			if got, _, err := s.PutMatcherContext(context.Background(), p.id, p.doc, p.matcher); err != nil || got != v {
				t.Fatalf("put %s v%d: version %d, %v", p.id, v, got, err)
			}
		}
	}
	put(1)
	put(2)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	put(3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	got := map[string]string{}
	err = filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil || !strings.HasPrefix(rel, "shard-") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		got[filepath.ToSlash(rel)] = fmt.Sprintf("%x", sha256.Sum256(data))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"shard-000/docs/broken/delta-0001.xml":  "ce09144d18e6aa769cafed37ee603ee12d5494f6fb7ecb4b173169da6b3e2aad",
		"shard-000/docs/broken/sums":            "1cab6bd7daea6e361b8fd627e9b26b368ce8184fe22bca448364dda3b3998e89",
		"shard-000/docs/broken/v1.xml":          "34f370d63b66ba24a8ecc49cbeb641c0dd63383abaa651c7e61616105350c117",
		"shard-000/docs/broken/versions":        "d4735e3a265e16eee03f59718b9b5d03019c07d8b6c51f90da3a666eec13ab35",
		"shard-000/docs/catalog/delta-0001.xml": "905c451889e0cbca129041e1c2b9b631024977f804233188d322c90b40cce418",
		"shard-000/docs/catalog/sums":           "44d4872ac247223693dd92db6c308ba4427b4f2257d25914130ba72a572b52dc",
		"shard-000/docs/catalog/v1.xml":         "9062b89d5b2d0d2d5a7a7626c1a49b3654c17729c169026a657d34abf8944589",
		"shard-000/docs/catalog/versions":       "d4735e3a265e16eee03f59718b9b5d03019c07d8b6c51f90da3a666eec13ab35",
		"shard-000/docs/page/delta-0001.xml":    "0fd0397265089fe96f1e98663429b1c2753eb8c343cc2af4cf65a1bfa0cc99ab",
		"shard-000/docs/page/sums":              "e563448f854d14b50a6785667dd6ead7894967bf5c8925e74f1c10dd0b7caa0b",
		"shard-000/docs/page/v1.xml":            "0db7c3772050ab0ef5dba6d4dc7be193c360ec8f8703995cb13b914b117836d0",
		"shard-000/docs/page/versions":          "d4735e3a265e16eee03f59718b9b5d03019c07d8b6c51f90da3a666eec13ab35",
		"shard-000/seg-00000002.log":            "129ba521543601d30ef584ee67a57a5d642f191f896f8044caa00e5567cf5073",
	}
	if len(got) != len(want) {
		t.Errorf("%d files, want %d", len(got), len(want))
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var table strings.Builder
	for _, name := range names {
		fmt.Fprintf(&table, "\t\t%q: %q,\n", name, got[name])
		if got[name] != want[name] {
			t.Errorf("%s: sha256 %s, want %s", name, got[name], want[name])
		}
	}
	if t.Failed() {
		t.Logf("digests of this run:\n%s", table.String())
	}
}
