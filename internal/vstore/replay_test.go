package vstore

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/xid"
	"xydiff/internal/xpathlite"
)

// renderWithXIDs is a version's bytes followed by its XIDs in document
// order: two versions render the same iff they are the same tree with
// the same identifiers.
func renderWithXIDs(doc *dom.Node) string {
	var b strings.Builder
	b.WriteString(doc.String())
	dom.WalkPre(doc, func(n *dom.Node) bool {
		fmt.Fprintf(&b, " %d", n.XID)
		return true
	})
	return b.String()
}

// stepwise takes doc from version from to version to one delta at a
// time, as every replay did before Replay: a fresh decode, an inverted
// copy on the way back, and Apply with its own index and clones.
func stepwise(t *testing.T, st *docState, doc *dom.Node, from, to int) {
	t.Helper()
	for v := from; v != to; {
		next := v + 1
		i := v - 1 // the delta from v to v+1
		if to < from {
			next, i = v-1, v-2
		}
		d, err := delta.ParseBytes(storedXML(t, st, i))
		if err != nil {
			t.Fatal(err)
		}
		if to < from {
			if d, err = d.Invert(); err != nil {
				t.Fatal(err)
			}
		}
		if err := delta.Apply(doc, d); err != nil {
			t.Fatalf("stepwise %d -> %d: %v", v, next, err)
		}
		v = next
	}
}

// putChains stores a versions-long BULD catalog chain under "buld" and
// an SFTM page chain under "sftm".
func putChains(t *testing.T, s *Store, versions int) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(25))
	chains := []struct {
		matcher diff.Matcher
		next    func(cur *dom.Node) (*dom.Node, error)
	}{
		{diff.MatcherBULD, func(cur *dom.Node) (*dom.Node, error) {
			if cur == nil {
				return changesim.Catalog(rng, 3, 4), nil
			}
			res, err := changesim.Simulate(cur, changesim.Uniform(0.12, rng.Int63()))
			if err != nil {
				return nil, err
			}
			return res.New, nil
		}},
		{diff.MatcherSFTM, func(cur *dom.Node) (*dom.Node, error) {
			if cur == nil {
				return changesim.HTMLPage(rng, 4), nil
			}
			res, err := changesim.SimulateHTML(cur, changesim.UniformHTML(0.08, rng.Int63()))
			if err != nil {
				return nil, err
			}
			return res.New, nil
		}},
	}
	var ids []string
	for _, c := range chains {
		var cur *dom.Node
		for v := 1; v <= versions; v++ {
			var err error
			if cur, err = c.next(cur); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.PutMatcherContext(context.Background(), string(c.matcher), cur, c.matcher); err != nil {
				t.Fatalf("%s v%d: %v", c.matcher, v, err)
			}
		}
		ids = append(ids, string(c.matcher))
	}
	return ids
}

// TestReplayMatchesStepwise: for a seven-version chain under each
// matcher, going from any version to any other through one Replay —
// forward, or backward through the inverses — gives byte for byte and
// XID for XID the version that stepping one Apply(Invert(ParseBytes))
// at a time gives; so do the store's own Version, Timeline and
// NodeHistory, which replay. Live and after the store comes back from
// its files with a one-document cache, so materialising replays too.
func TestReplayMatchesStepwise(t *testing.T) {
	const versions = 7
	dir := t.TempDir()
	s, err := Open(dir, diff.Options{}, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ids := putChains(t, s, versions)
	check := func(s *Store, label string) {
		t.Helper()
		for _, id := range ids {
			st := s.shardFor(id).lookup(id)
			xml, _ := chainXML(t, st)
			base, err := dom.ParseBytes(xml, snapshotLoadOptions())
			if err != nil {
				t.Fatal(err)
			}
			xid.Assign(base)
			want := make([]string, versions+1)
			for v := 1; v <= versions; v++ {
				doc := base.Clone()
				stepwise(t, st, doc, 1, v)
				want[v] = renderWithXIDs(doc)
				got, err := s.Version(id, v)
				if err != nil {
					t.Fatalf("%s: %s Version(%d): %v", label, id, v, err)
				}
				if renderWithXIDs(got) != want[v] {
					t.Fatalf("%s: %s Version(%d) differs from the stepwise replay", label, id, v)
				}
			}
			for from := 1; from <= versions; from++ {
				for to := 1; to <= versions; to++ {
					doc := base.Clone()
					stepwise(t, st, doc, 1, from)
					r := delta.NewReplay(doc)
					for v := from; v != to; {
						var err error
						if to > from {
							var d *delta.Delta
							if d, err = delta.ParseBytes(storedXML(t, st, v-1)); err == nil {
								err = r.Step(d, false, nil)
							}
							v++
						} else {
							err = st.step(r, v-1, true)
							v--
						}
						if err != nil {
							t.Fatalf("%s: %s replay %d..%d: %v", label, id, from, to, err)
						}
					}
					if renderWithXIDs(doc) != want[to] {
						t.Fatalf("%s: %s replay %d..%d differs from the stepwise replay", label, id, from, to)
					}
				}
			}
			history, err := s.NodeHistory(id, 2)
			if err != nil {
				t.Fatal(err)
			}
			expr := xpathlite.MustCompile("/*")
			timeline, err := s.Timeline(id, expr)
			if err != nil {
				t.Fatal(err)
			}
			for v, ns := range history {
				doc, err := s.Version(id, v+1)
				if err != nil {
					t.Fatal(err)
				}
				if n := dom.FindByXID(doc, 2); (n != nil) != ns.Present || n != nil && n.Path() != ns.Path {
					t.Fatalf("%s: %s NodeHistory at version %d: %+v", label, id, v+1, ns)
				}
				if got := timeline[v]; !got.Found || got.Value != expr.SelectFirst(doc).TextContent() {
					t.Fatalf("%s: %s Timeline at version %d: %+v", label, id, v+1, got)
				}
			}
		}
	}
	check(s, "live")
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir, diff.Options{}, Config{Shards: 2, CacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	check(reopened, "reopened")
}

// chainStore holds the same versions under each of ids.
func chainStore(tb testing.TB, cfg Config, versions []*dom.Node, ids ...string) *Store {
	s, err := Open(tb.TempDir(), diff.Options{}, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for _, doc := range versions {
		for _, id := range ids {
			if _, _, err := s.Put(id, doc); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return s
}

// catalogChain is a catalog of about size bytes and then n-1 steps of
// 10% churn, which shrinks it.
func catalogChain(tb testing.TB, size, n int) []*dom.Node {
	out := []*dom.Node{changesim.CatalogOfSize(rand.New(rand.NewSource(7)), size)}
	for v := 2; v <= n; v++ {
		res, err := changesim.Simulate(out[v-2], changesim.Uniform(0.10, int64(v)))
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, res.New)
	}
	return out
}

// flipChain is n versions alternating between a catalog of about size
// bytes and one 10%-churn revision of it: deltas of the usual size on a
// document that, unlike catalogChain's, keeps its size.
func flipChain(tb testing.TB, size, n int) []*dom.Node {
	pair := catalogChain(tb, size, 2)
	out := make([]*dom.Node, n)
	for i := range out {
		out[i] = pair[i%2]
	}
	return out
}

// TestRewindAllocations keeps a four-step replay at what the replay
// itself costs: the copy of the cached latest version (backward) or the
// stored base parsed (forward), and four deltas' inserts, deletes and
// ops — no delta document, no inverted copy, no per-step index, no
// subtree clones. (With those, once per step, the backward walk took
// 5 157 allocations; with the Replay and the token decoder, 1 979; with
// the index a map and each step's attachments grouped in another,
// 1 770 backward and 2 185 forward; with the XID table and one sorted
// attachment list, 1 591 and 2 055; with frames thawed in place of XML,
// 516 and 483; with one op struct, whose ops are one slab, and each
// attaching parent grown to exactly what it needs, 140 and 107; with
// every step in line, no decode-ahead indirection, 140 and 106; with
// a step building only the subtrees it attaches, its thawer on the
// stack, and comparing those it detaches in the frame, 140 and 103.)
// It
// runs the walk executor on each plan, whatever the planner would pick
// for the read. A count, not a timing, so it can gate go test.
func TestRewindAllocations(t *testing.T) {
	s := chainStore(t, Config{Shards: 1}, catalogChain(t, 7000, 5), "doc")
	defer s.Close()
	st := s.shardFor("doc").lookup("doc")
	st.mu.RLock()
	defer st.mu.RUnlock()
	latest, err := s.materializeLocked("doc", st)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name        string
		target, fwd int
	}{
		{"backward from version 5 to 1", 1, 0},
		{"forward from version 1 to 5", 5, 1},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := st.walk(latest, []int{c.target}, c.fwd, func(int, *dom.Node, bool) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations", c.name, allocs)
		if allocs > 144 {
			t.Errorf("walking %s allocates %.0f times, want at most 144", c.name, allocs)
		}
	}
}

// BenchmarkReadWalk reads an old, a middle and a recent version of
// twelve of a ~150 KB catalog with the latest version cached: the
// first forward from the stored base, the last backward from the
// latest.
func BenchmarkReadWalk(b *testing.B) {
	s := chainStore(b, Config{Shards: 1}, flipChain(b, 130000, 12), "doc")
	defer s.Close()
	for _, v := range []int{2, 6, 11} {
		b.Run(fmt.Sprintf("version=%d", v), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Version("doc", v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWalkCosts prices what the read walk's planner weighs, on a
// ~150 KB catalog and one 10%-churn delta: version 1 thawed from its
// frame ("base"), and version 1 thawed and stepped forward through the
// delta's frame as a walk steps, thawing the inserts and comparing the
// deletes in place ("step", the base included: the step's cost is the
// difference). A backward walk starts from a copy of the cached latest
// version instead ("clone"), and steps back through the delta's frame,
// thawing the deletes and comparing the inserts in place
// ("step=frame-backward", the copy included). The xml cases do the same
// from the parts' XML, as a walk's first decode after a reopen does.
// SetBytes is the base's bytes, the latest version's XML length for the
// copy, or the delta's in step cases, in the form the case reads.
// DESIGN.md has the rates.
func BenchmarkWalkCosts(b *testing.B) {
	s := chainStore(b, Config{Shards: 1}, catalogChain(b, 130000, 2), "doc")
	defer s.Close()
	st := s.shardFor("doc").lookup("doc")
	baseXML, deltasXML := chainXML(b, st)
	// A Put keeps version 1 as its XML until a walk settles it into a
	// frame: settle both parts before taking their frames.
	st.mu.RLock()
	_, errBase := st.baseTree()
	_, errDelta := st.delta(0)
	st.mu.RUnlock()
	if errBase != nil || errDelta != nil {
		b.Fatal(errBase, errDelta)
	}
	baseForm, deltaForm := st.base.form.Load(), st.deltas[0].form.Load()
	if !baseForm.frame || !deltaForm.frame {
		b.Fatalf("version 1 (frame %v) or the delta (frame %v) did not settle into a frame", baseForm.frame, deltaForm.frame)
	}
	baseFrame, deltaFrame := baseForm.b, deltaForm.b
	latest, _, err := s.Latest("doc")
	if err != nil {
		b.Fatal(err)
	}
	thawBase := func() *dom.Node {
		doc, err := thaw(baseFrame)
		if err != nil {
			b.Fatal(err)
		}
		return doc
	}
	parseBase := func() *dom.Node {
		doc, err := dom.ParseBytes(baseXML, snapshotLoadOptions())
		if err != nil {
			b.Fatal(err)
		}
		xid.Assign(doc)
		return doc
	}
	step := func(doc *dom.Node, d *delta.Delta, err error) {
		if err == nil {
			err = delta.NewReplay(doc).Step(d, false, nil)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range []struct {
		name  string
		bytes int
		op    func()
	}{
		{"base=frame", len(baseFrame), func() { thawBase() }},
		{"step=frame", len(deltaFrame), func() {
			if err := stepInPlace(delta.NewReplay(thawBase()), deltaFrame, false); err != nil {
				b.Fatal(err)
			}
		}},
		{"clone=latest", int(latest.EncodedLen()), func() { latest.Clone() }},
		{"step=frame-backward", len(deltaFrame), func() {
			if err := stepInPlace(delta.NewReplay(latest.Clone()), deltaFrame, true); err != nil {
				b.Fatal(err)
			}
		}},
		{"base=xml", len(baseXML), func() { parseBase() }},
		{"step=xml", len(deltasXML[0]), func() { d, err := delta.ParseBytes(deltasXML[0]); step(parseBase(), d, err) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(c.bytes))
			b.ReportAllocs()
			for range b.N {
				c.op()
			}
		})
	}
}
