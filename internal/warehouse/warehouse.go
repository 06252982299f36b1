// Package warehouse holds the consumer half of the paper's Figure 1 and
// the library that assembles the whole of it. When a new version of a
// document arrives (from a crawler or a user), the versioned repository
// installs it and the diff computes its delta; Pipeline then consumes
// that delta once — statistics, alerter and, where there is one, the
// full-text index. The xydiffd server installs a Pipeline without an
// index on its store; Warehouse installs one with an index on an
// in-memory store.
//
// Warehouse is the "downstream user" API: one Load call runs everything
// the paper's architecture diagram shows.
package warehouse

import (
	"context"
	"sync"

	"xydiff/internal/alert"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/index"
	"xydiff/internal/stats"
	"xydiff/internal/store"
	"xydiff/internal/vstore"
	"xydiff/internal/xpathlite"
)

// Pipeline consumes each stored version: it is the body of a store
// observer. Alerter and Stats are required; Index is optional.
type Pipeline struct {
	Alerter *alert.Alerter
	Stats   *stats.Collector
	Index   *index.Index
}

// Observe resolves the observation's delta against its two versions
// once, then feeds the statistics, the alerter and the index, in that
// order, and returns the alerts raised. Like any observer it keeps no
// pointer into the trees: the collector keeps counts, the index keeps
// words, and alerts name their op by version, kind and XID.
func (p Pipeline) Observe(o store.Observation) []alert.Alert {
	t := delta.Resolve(o.Result.Delta, o.Old, o.New)
	p.Stats.ObserveResolved(t, o.DeltaBytes)
	alerts := p.Alerter.NotifyResolved(o.ID, o.Version, t)
	if p.Index != nil {
		p.Index.ApplyDelta(o.ID, o.Result.Delta)
	}
	return alerts
}

// Warehouse is the integrated change-control system. All methods are
// safe for concurrent use; two concurrent Loads of the *same* document
// should still be serialized by the caller, because a first version is
// indexed after its Put returns.
type Warehouse struct {
	store    *vstore.Store
	pipeline Pipeline

	// raised holds the alerts the pipeline raised for a version until
	// the Load that stored it collects them.
	mu     sync.Mutex
	raised map[slot][]alert.Alert
}

type slot struct {
	id      string
	version int
}

// New returns an empty warehouse whose diffs run with opts. Its
// repository keeps the version chains in memory (a vstore opened without
// a directory), so the warehouse holds nothing that needs closing.
func New(opts diff.Options) *Warehouse {
	repo, _ := vstore.Open("", opts, vstore.Config{}) // touches no file, cannot fail
	w := &Warehouse{
		store:    repo,
		pipeline: Pipeline{Alerter: alert.New(), Stats: stats.NewCollector(), Index: index.New()},
		raised:   make(map[slot][]alert.Alert),
	}
	repo.SetObserver(w.observe)
	return w
}

// observe runs under the document's write lock inside Load's Put.
func (w *Warehouse) observe(o store.Observation) {
	alerts := w.pipeline.Observe(o)
	w.mu.Lock()
	w.raised[slot{o.ID, o.Version}] = alerts
	w.mu.Unlock()
}

// LoadResult reports what one document installation did.
type LoadResult struct {
	Version int
	Delta   *delta.Delta // nil for the first version
	Alerts  []alert.Alert
}

// Load installs a new version of the document: repository, diff,
// statistics, alerter and index in one step (the Figure 1 data flow).
// doc stays the caller's; the store keeps a copy. A first version is
// indexed whole and is not a transition, so it raises no alert and
// adds nothing to the statistics.
func (w *Warehouse) Load(docID string, doc *dom.Node) (*LoadResult, error) {
	r, err := w.store.PutDetailed(context.Background(), docID, doc.Clone(), "")
	if err != nil {
		return nil, err
	}
	res := &LoadResult{Version: r.Version, Delta: r.Delta}
	if r.Delta == nil {
		cur, _, err := w.store.Latest(docID)
		if err != nil {
			return nil, err
		}
		w.pipeline.Index.AddDocument(docID, cur)
		return res, nil
	}
	k := slot{docID, r.Version}
	w.mu.Lock()
	res.Alerts = w.raised[k]
	delete(w.raised, k)
	w.mu.Unlock()
	return res, nil
}

// Subscribe registers a subscription with the alerter.
func (w *Warehouse) Subscribe(s alert.Subscription) { w.pipeline.Alerter.Subscribe(s) }

// Unsubscribe removes subscriptions by ID.
func (w *Warehouse) Unsubscribe(id string) bool { return w.pipeline.Alerter.Unsubscribe(id) }

// Search returns the documents containing all the given words, via the
// incrementally maintained index.
func (w *Warehouse) Search(words ...string) []string { return w.pipeline.Index.SearchDocs(words...) }

// SearchPostings returns structural postings for one word.
func (w *Warehouse) SearchPostings(word string) []index.Posting { return w.pipeline.Index.Search(word) }

// Latest returns the current version of a document.
func (w *Warehouse) Latest(docID string) (*dom.Node, int, error) { return w.store.Latest(docID) }

// Version reconstructs a past version.
func (w *Warehouse) Version(docID string, n int) (*dom.Node, error) {
	return w.store.Version(docID, n)
}

// Versions reports how many versions of docID are stored.
func (w *Warehouse) Versions(docID string) int { return w.store.Versions(docID) }

// Timeline evaluates an expression across all versions.
func (w *Warehouse) Timeline(docID string, expr *xpathlite.Expr) ([]store.VersionValue, error) {
	return w.store.Timeline(docID, expr)
}

// ChangesMatching greps the delta chain for matching operations.
func (w *Warehouse) ChangesMatching(docID string, from, to int, pattern *xpathlite.Expr, kinds ...delta.Kind) ([]store.ChangeHit, error) {
	return w.store.ChangesMatching(docID, from, to, pattern, kinds...)
}

// Aggregate composes the deltas between two versions into one.
func (w *Warehouse) Aggregate(docID string, from, to int) (*delta.Delta, error) {
	return w.store.Aggregate(docID, from, to)
}

// Stats snapshots the accumulated change statistics.
func (w *Warehouse) Stats() stats.Report { return w.pipeline.Stats.Report() }
