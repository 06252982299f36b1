package vstore

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/xpathlite"
)

// chainXML is st's history as the XML the store writes: version 1 and
// each stored delta, rendered from their frames.
func chainXML(tb testing.TB, st *docState) (base []byte, deltas [][]byte) {
	tb.Helper()
	base, err := st.base.xml(baseXML)
	if err != nil {
		tb.Fatal(err)
	}
	for i, p := range st.deltas {
		d, err := p.xml(deltaXML)
		if err != nil {
			tb.Fatalf("delta %d: %v", i+1, err)
		}
		deltas = append(deltas, d)
	}
	return base, deltas
}

// settleAll decodes every part of st, as the walks that first cross them
// do.
func settleAll(t testing.TB, st *docState) {
	t.Helper()
	st.mu.RLock()
	defer st.mu.RUnlock()
	if _, err := st.baseTree(); err != nil {
		t.Fatal(err)
	}
	for i, p := range st.deltas {
		if p.form.Load().frame {
			continue
		}
		if _, err := st.delta(i); err != nil {
			t.Fatal(err)
		}
	}
}

// storedXML is stored delta i (0-based) of st as the XML the store
// writes for it.
func storedXML(tb testing.TB, st *docState, i int) []byte {
	tb.Helper()
	d, err := st.deltas[i].xml(deltaXML)
	if err != nil {
		tb.Fatalf("delta %d: %v", i+1, err)
	}
	return d
}

// TestUndecodableStoredDeltaStaysLocal: a delta whose XML does not read
// back — ROADMAP item 1's <Price>a<x/>b</Price> deleted while <x/>
// moves, which leaves two adjacent texts in the pruned subtree — is
// walked through from its frame by the store that built it, while the
// reads that hand that delta out fail with the decode error of its XML,
// as they do once the store reopens. Reopened from the segment that
// holds its XML, and again from a snapshot, the store opens, serves
// every version before that delta and every read that does not cross
// it, and fails only the reads that do, with the decode error.
func TestUndecodableStoredDeltaStaysLocal(t *testing.T) {
	bodies := []string{
		`<Catalog><Item><Name>lamp</Name></Item><Price>a<x>a heavy payload</x>b</Price><Stock/></Catalog>`,
		`<Catalog><Item><Name>desk lamp</Name></Item><Price>a<x>a heavy payload</x>b</Price><Stock/></Catalog>`,
		`<Catalog><Item><Name>desk lamp</Name></Item><Stock><x>a heavy payload</x></Stock></Catalog>`,
		`<Catalog><Item><Name>floor lamp</Name></Item><Stock><x>a heavy payload</x></Stock></Catalog>`,
	}
	const broken = 2 // the delta from version 2 to 3
	dir := t.TempDir()
	s, err := Open(dir, diff.Options{}, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	putStrings(t, s, "doc", bodies)
	if _, err := delta.ParseBytes(storedXML(t, s.shardFor("doc").lookup("doc"), broken-1)); err == nil {
		t.Fatalf("delta %d's XML decodes: the chain no longer holds the reproducer", broken)
	}
	type read struct {
		name     string
		crosses  bool // whether the read needs the broken delta once reopened
		handsOut bool // whether the read hands the broken delta out
		do       func(s *Store) error
	}
	var reads []read
	for v := 1; v <= len(bodies); v++ {
		reads = append(reads, read{fmt.Sprintf("Version(%d)", v), v > broken, false, func(s *Store) error {
			got, _, err := viewXML(s, "doc", v, false)
			if err == nil && string(got) != parse(t, bodies[v-1]).String() {
				t.Errorf("Version(%d) = %s, want %s", v, got, bodies[v-1])
			}
			return err
		}})
	}
	for _, r := range [][2]int{{1, 2}, {2, 1}, {3, 4}, {4, 3}, {2, 3}, {3, 2}, {1, 4}, {4, 1}} {
		one := r[1]-r[0] == 1 || r[0]-r[1] == 1
		crosses := min(r[0], r[1]) <= broken && max(r[0], r[1]) > broken || !one && max(r[0], r[1]) > broken
		reads = append(reads, read{fmt.Sprintf("Aggregate(%d, %d)", r[0], r[1]), crosses, one && crosses, func(s *Store) error {
			_, err := s.Aggregate("doc", r[0], r[1])
			return err
		}})
	}
	reads = append(reads, read{"Timeline", true, false, func(s *Store) error {
		_, err := s.Timeline("doc", xpathlite.MustCompile("//Name"))
		return err
	}})
	decodeError := fmt.Sprintf("vstore: parse stored delta %d: ", broken)
	for _, r := range reads {
		err := r.do(s)
		switch {
		case !r.handsOut && err != nil:
			t.Errorf("before the restart, %s: %v", r.name, err)
		case r.handsOut && (err == nil || !strings.Contains(err.Error(), decodeError)):
			t.Errorf("before the restart, %s: %v, want the decode error of delta %d", r.name, err, broken)
		}
	}
	var put []*dom.Node
	for _, b := range bodies {
		put = append(put, parse(t, b))
	}
	checkFrameWalks(t, s, "doc", put)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for _, from := range []string{"segment", "snapshot"} {
		s, err := Open(dir, diff.Options{}, Config{Shards: 1})
		if err != nil {
			t.Fatalf("reopen from the %s: %v", from, err)
		}
		for _, r := range reads {
			err := r.do(s)
			switch {
			case !r.crosses && err != nil:
				t.Errorf("reopened from the %s, %s: %v", from, r.name, err)
			case r.crosses && (err == nil || !strings.Contains(err.Error(), decodeError)):
				t.Errorf("reopened from the %s, %s: %v, want the decode error of delta %d", from, r.name, err, broken)
			}
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPartThatDoesNotWriteBackStaysXML: a stored delta whose XML parses
// but is not what the decoded delta writes — here a space between its
// ops, which ParseBytes skips — keeps its XML when a walk decodes it,
// while version 1 beside it becomes a frame, so what the store renders
// for it, and the scrubber compares with its snapshot file, is still
// the XML it read.
func TestPartThatDoesNotWriteBackStaysXML(t *testing.T) {
	src, err := Open("", diff.Options{}, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	putStrings(t, src, "doc", []string{`<r><a>1</a><b>x</b></r>`, `<r><a>2</a><c>y</c></r>`})
	base, deltas := chainXML(t, src.shardFor("doc").lookup("doc"))
	spaced := []byte(strings.Replace(string(deltas[0]), "><", "> <", 1))
	if _, err := delta.ParseBytes(spaced); err != nil {
		t.Fatalf("setup: %s does not parse: %v", spaced, err)
	}
	dir := t.TempDir()
	s, err := Open(dir, diff.Options{}, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.importChain("doc", base, [][]byte{spaced}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, diff.Options{}, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for v := 1; v <= 2; v++ {
		if _, err := s.Version("doc", v); err != nil {
			t.Fatal(err)
		}
	}
	st := s.shardFor("doc").lookup("doc")
	if f := st.base.form.Load(); !f.frame {
		t.Error("version 1 is still XML after a walk decoded it")
	}
	if f := st.deltas[0].form.Load(); f.frame || !f.xmlOnly || string(f.b) != string(spaced) {
		t.Errorf("delta 1 holds %q (frame %v, staying XML %v), want its XML, staying", f.b, f.frame, f.xmlOnly)
	}
	if ss := s.StorageStats(); ss.HistoryXMLBytes != int64(len(spaced)) {
		t.Errorf("%d history bytes counted as XML, want the delta's %d", ss.HistoryXMLBytes, len(spaced))
	}
	rep, err := s.ScrubPass(context.Background())
	if err != nil || rep.Found != 0 || rep.SnapshotsScanned != 1 {
		t.Errorf("scrub: %+v, %v; want one clean snapshot", rep, err)
	}
}
