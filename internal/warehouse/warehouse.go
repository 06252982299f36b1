// Package warehouse assembles the full Xyleme change-control pipeline
// of the paper's Figure 1: when a new version of a document arrives
// (from a crawler or a user), it is installed in the versioned
// repository, the diff computes its delta, the alerter matches the
// delta against subscriptions, the full-text index is maintained
// incrementally from the delta, and change statistics accumulate.
//
// It is the "downstream user" API: one Load call runs everything the
// paper's architecture diagram shows.
package warehouse

import (
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

// Warehouse is the integrated change-control system. All methods are
// safe for concurrent use (each component locks internally; Load's
// pipeline holds no cross-component lock, so two concurrent Loads of
// the *same* document should be serialized by the caller).
type Warehouse struct {
	store   *vstore.Store
	alerter *alert.Alerter
	index   *index.Index
	stats   *stats.Collector
}

// New returns an empty warehouse whose diffs run with opts. Its
// repository keeps the version chains in memory (a vstore opened without
// a directory), so the warehouse holds nothing that needs closing.
func New(opts diff.Options) *Warehouse {
	repo, _ := vstore.Open("", opts, vstore.Config{}) // touches no file, cannot fail
	return &Warehouse{
		store:   repo,
		alerter: alert.New(),
		index:   index.New(),
		stats:   stats.NewCollector(),
	}
}

// LoadResult reports what one document installation did.
type LoadResult struct {
	Version int
	Delta   *delta.Delta // nil for the first version
	Alerts  []alert.Alert
}

// Load installs a new version of the document: repository, diff,
// alerter, index and statistics in one step (the Figure 1 data flow).
func (w *Warehouse) Load(docID string, doc *dom.Node) (*LoadResult, error) {
	// Keep the pre-version for alerting/statistics before Put replaces it.
	var prev *dom.Node
	if w.store.Versions(docID) > 0 {
		var err error
		prev, _, err = w.store.Latest(docID)
		if err != nil {
			return nil, err
		}
	}
	version, d, err := w.store.Put(docID, doc)
	if err != nil {
		return nil, err
	}
	cur, _, err := w.store.Latest(docID)
	if err != nil {
		return nil, err
	}
	res := &LoadResult{Version: version, Delta: d}
	if d == nil {
		// First version: full indexing, occurrence statistics only.
		w.index.AddDocument(docID, cur)
		w.stats.Observe(cur, cur, &delta.Delta{})
		return res, nil
	}
	res.Alerts = w.alerter.Notify(docID, version, prev, cur, d)
	w.index.ApplyDelta(docID, d)
	w.stats.Observe(prev, cur, d)
	return res, nil
}

// Subscribe registers a subscription with the alerter.
func (w *Warehouse) Subscribe(s alert.Subscription) { w.alerter.Subscribe(s) }

// Unsubscribe removes subscriptions by ID.
func (w *Warehouse) Unsubscribe(id string) bool { return w.alerter.Unsubscribe(id) }

// Search returns the documents containing all the given words, via the
// incrementally maintained index.
func (w *Warehouse) Search(words ...string) []string { return w.index.SearchDocs(words...) }

// SearchPostings returns structural postings for one word.
func (w *Warehouse) SearchPostings(word string) []index.Posting { return w.index.Search(word) }

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
func (w *Warehouse) Stats() stats.Report { return w.stats.Report() }

// Store exposes the underlying repository.
func (w *Warehouse) Store() *vstore.Store { return w.store }
