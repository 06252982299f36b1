package vstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/xid"
)

// The engine must be observationally identical to the repository's
// definition: same deltas, same reconstructions, byte for byte, over a
// changesim-driven golden corpus — including after a checkpoint and a
// reopen, where vstore's lazily-materialized trees come from replay
// instead of from the diff that created them. The oracle, model, is a
// deliberately small independent implementation, not a second engine.

func renderDelta(t *testing.T, d *delta.Delta) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// model keeps each document as its first version plus the deltas
// diff.Diff computed between consecutive versions; version n is the
// first version with n-1 deltas applied.
type model map[string]*modelDoc

type modelDoc struct {
	base, latest *dom.Node // XIDs assigned
	deltas       []*delta.Delta
}

func (m model) Put(id string, doc *dom.Node) (int, *delta.Delta, error) {
	md := m[id]
	if md == nil {
		base := doc.Clone()
		xid.Assign(base)
		m[id] = &modelDoc{base: base, latest: base.Clone()}
		return 1, nil, nil
	}
	next := doc.Clone()
	d, err := diff.Diff(md.latest, next, diff.Options{})
	if err != nil {
		return 0, nil, err
	}
	md.deltas = append(md.deltas, d)
	md.latest = next
	return len(md.deltas) + 1, d, nil
}

func (m model) Version(id string, n int) (*dom.Node, error) {
	doc := m[id].base.Clone()
	for _, d := range m[id].deltas[:n-1] {
		if err := delta.Apply(doc, d); err != nil {
			return nil, err
		}
	}
	return doc, nil
}

func (m model) Delta(id string, n int) (*delta.Delta, error) { return m[id].deltas[n-1], nil }

func (m model) Aggregate(id string, from, to int) (*delta.Delta, error) {
	base, err := m.Version(id, from)
	if err != nil {
		return nil, err
	}
	return diff.Compose(base, m[id].deltas[from-1:to-1]...)
}

func TestDifferentialAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	oracle := model{}
	dir := t.TempDir()
	engine, err := Open(dir, diff.Options{}, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()

	type docRun struct {
		id       string
		versions int
	}
	var runs []docRun
	for d := 0; d < 4; d++ {
		id := fmt.Sprintf("doc-%d", d)
		doc := changesim.Catalog(rng, 3, 4)
		cur := doc
		const versions = 5
		for v := 0; v < versions; v++ {
			vWant, dWant, errWant := oracle.Put(id, cur)
			vGot, dGot, errGot := engine.Put(id, cur)
			if (errWant == nil) != (errGot == nil) {
				t.Fatalf("%s v%d: model err=%v engine err=%v", id, v+1, errWant, errGot)
			}
			if vWant != vGot {
				t.Fatalf("%s: version numbers diverge (%d vs %d)", id, vWant, vGot)
			}
			if (dWant == nil) != (dGot == nil) {
				t.Fatalf("%s v%d: delta nilness diverges", id, v+1)
			}
			if dWant != nil && renderDelta(t, dWant) != renderDelta(t, dGot) {
				t.Fatalf("%s v%d: deltas differ:\nmodel  %s\nengine %s",
					id, v+1, renderDelta(t, dWant), renderDelta(t, dGot))
			}
			res, err := changesim.Simulate(cur, changesim.Uniform(0.12, rng.Int63()))
			if err != nil {
				t.Fatal(err)
			}
			cur = res.New
		}
		runs = append(runs, docRun{id: id, versions: versions})
	}

	compare := func(eng *Store, label string) {
		t.Helper()
		for _, run := range runs {
			for v := 1; v <= run.versions; v++ {
				wantDoc, err := oracle.Version(run.id, v)
				if err != nil {
					t.Fatal(err)
				}
				gotDoc, err := eng.Version(run.id, v)
				if err != nil {
					t.Fatalf("%s: %s v%d: %v", label, run.id, v, err)
				}
				if gotDoc.String() != wantDoc.String() {
					t.Fatalf("%s: %s v%d reconstruction differs", label, run.id, v)
				}
				if v < run.versions {
					wantD, err := oracle.Delta(run.id, v)
					if err != nil {
						t.Fatal(err)
					}
					gotD, err := eng.Aggregate(run.id, v, v+1)
					if err != nil {
						t.Fatalf("%s: %s delta %d: %v", label, run.id, v, err)
					}
					if renderDelta(t, gotD) != renderDelta(t, wantD) {
						t.Fatalf("%s: %s delta %d differs", label, run.id, v)
					}
				}
			}
			wantAgg, err := oracle.Aggregate(run.id, 1, run.versions)
			if err != nil {
				t.Fatal(err)
			}
			gotAgg, err := eng.Aggregate(run.id, 1, run.versions)
			if err != nil {
				t.Fatalf("%s: aggregate %s: %v", label, run.id, err)
			}
			if renderDelta(t, gotAgg) != renderDelta(t, wantAgg) {
				t.Fatalf("%s: %s aggregate differs", label, run.id)
			}
		}
	}
	compare(engine, "live")

	// A checkpoint folds everything into snapshots; correctness must
	// not depend on where the bytes live.
	if err := engine.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	compare(engine, "after checkpoint")

	// Reopen: trees now come from replaying persisted bytes, and the
	// version chains must still match the model exactly.
	if err := engine.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir, diff.Options{}, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	compare(reopened, "reopened")

	// And diffs taken AFTER a reopen must still match: the replayed
	// latest tree carries the same XIDs the diff-produced tree had.
	for _, run := range runs {
		latest, err := oracle.Version(run.id, run.versions)
		if err != nil {
			t.Fatal(err)
		}
		mut, err := changesim.Simulate(latest, changesim.Uniform(0.15, 7))
		if err != nil {
			t.Fatal(err)
		}
		_, dWant, errWant := oracle.Put(run.id, mut.New)
		_, dGot, errGot := reopened.Put(run.id, mut.New)
		if errWant != nil || errGot != nil {
			t.Fatalf("%s post-reopen put: model=%v engine=%v", run.id, errWant, errGot)
		}
		if renderDelta(t, dWant) != renderDelta(t, dGot) {
			t.Fatalf("%s: post-reopen deltas differ:\nmodel  %s\nengine %s",
				run.id, renderDelta(t, dWant), renderDelta(t, dGot))
		}
	}
}

// TestSerializationRoundTrip pins the property the byte-resident
// design leans on: parse(serialize(tree)) + xid.Assign reproduces a
// tree that serializes identically.
func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	doc := changesim.Site(rng, 5)
	body := doc.AppendXML(nil)
	back, err := dom.ParseWithOptions(bytes.NewReader(body), snapshotLoadOptions())
	if err != nil {
		t.Fatal(err)
	}
	body2 := back.AppendXML(nil)
	if !bytes.Equal(body, body2) {
		t.Fatal("serialize→parse→serialize is not a fixed point")
	}
}
