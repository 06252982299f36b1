// Package alert implements the subscription system of the Xyleme
// architecture (the paper's Section 2 and Figure 1): when a new version
// of a document arrives and its delta is computed, the alerter scans
// the delta for patterns of interest — "a new product has been added to
// a catalog" — and raises alerts for the matching subscriptions.
package alert

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"xydiff/internal/delta"
	"xydiff/internal/dom"
	"xydiff/internal/xpathlite"
)

// Subscription describes a pattern of interest over deltas.
type Subscription struct {
	// ID names the subscription in alerts.
	ID string
	// DocID restricts the subscription to one stored document; empty
	// matches every document.
	DocID string
	// Path is a label path the affected node must match, e.g.
	// "/Catalog/Category/Product" (anchored at the root) or
	// "Category/Product" (suffix match). Position predicates like [2]
	// are ignored; "*" matches any single label. Empty matches any
	// node.
	Path string
	// Query, when non-nil, replaces Path with a full xpathlite
	// expression evaluated against the affected node in its document —
	// e.g. //Product[Price>500] alerts only on expensive products.
	Query *xpathlite.Expr
	// Kinds restricts the operation kinds of interest; empty means all.
	Kinds []delta.Kind
	// Contains, when non-empty, requires the operation's content (the
	// inserted or deleted subtree's text, or the new value of an
	// update) to contain the substring.
	Contains string
}

// Alert reports that one delta operation matched one subscription. It
// names the operation rather than holding it: the op is Ops[OpIndex] of
// the delta that produced Version (stored delta Version-1), of kind Kind
// about node XID. So an alert, however long it is kept, pins no subtree
// of the delta; a caller that wants the op's content reads that delta.
type Alert struct {
	SubID   string
	DocID   string
	Version int
	Kind    delta.Kind
	// OpIndex is the operation's position in the delta's Ops. An int32
	// fits beside Kind, so naming the op exactly costs an alert no bytes.
	OpIndex int32
	// XID is the operation's target, delta.Op.XID.
	XID int64
	// Path locates the affected node (in the new version when it still
	// exists, in the old version for deletions).
	Path string
}

func (a Alert) String() string {
	return fmt.Sprintf("[%s] %s v%d: %s at %s", a.SubID, a.DocID, a.Version, a.Kind, a.Path)
}

// Alerter evaluates subscriptions against deltas. It is safe for
// concurrent use.
type Alerter struct {
	mu    sync.Mutex               // serializes Subscribe/Unsubscribe
	state atomic.Pointer[snapshot] // what Notify reads; replaced, never modified
}

// snapshot is the alerter's configuration at one instant, in the form
// Notify evaluates: published copy-on-write, so a Notify in flight
// keeps the list it started with while writers install the next one.
type snapshot struct {
	subs  []Subscription // registration order
	plans []plan         // plans[i] compiles subs[i]
	// byKind[k] lists, in registration order, the plans whose Kinds
	// admit operation kind k; a kind beyond the table is admitted only
	// by the plans with no kind filter, anyKind.
	byKind  [][]*plan
	anyKind []*plan
	queries int // how many plans carry a Query
}

// plan is one subscription compiled for evaluation.
type plan struct {
	id, docID, contains string
	// segs is Path split into labels (position predicates dropped);
	// anchored says the pattern began with "/" and must match the whole
	// label path rather than a suffix. Meaningful when hasPath.
	hasPath  bool
	anchored bool
	segs     []string
	// query replaces the path filter; queryIdx numbers the plans with a
	// query, for the per-Notify table of evaluated node sets.
	query    *xpathlite.Expr
	queryIdx int
}

// numKinds is how many operation kinds package delta defines.
const numKinds = int(delta.KindUpdateAttr) + 1

func compile(subs []Subscription) *snapshot {
	c := &snapshot{subs: subs, plans: make([]plan, len(subs))}
	kinds := numKinds
	for _, s := range subs {
		for _, k := range s.Kinds {
			kinds = max(kinds, int(k)+1)
		}
	}
	c.byKind = make([][]*plan, kinds)
	for i, s := range subs {
		p := &c.plans[i]
		*p = plan{
			id: s.ID, docID: s.DocID, contains: s.Contains,
			hasPath: s.Path != "", anchored: strings.HasPrefix(s.Path, "/"), segs: segments(s.Path),
			query: s.Query,
		}
		if s.Query != nil {
			p.queryIdx = c.queries
			c.queries++
		}
		if len(s.Kinds) == 0 {
			c.anyKind = append(c.anyKind, p)
		}
		for k := range c.byKind {
			if kindMatches(s.Kinds, delta.Kind(k)) {
				c.byKind[k] = append(c.byKind[k], p)
			}
		}
	}
	return c
}

// New returns an Alerter with the given initial subscriptions.
func New(subs ...Subscription) *Alerter {
	a := &Alerter{}
	a.state.Store(compile(append([]Subscription(nil), subs...)))
	return a
}

// Subscribe adds a subscription.
func (a *Alerter) Subscribe(s Subscription) {
	a.mu.Lock()
	defer a.mu.Unlock()
	cur := a.state.Load()
	subs := append(append(make([]Subscription, 0, len(cur.subs)+1), cur.subs...), s)
	a.state.Store(compile(subs))
}

// Unsubscribe removes all subscriptions with the given ID, reporting
// whether any existed. A Notify that starts after Unsubscribe returns
// raises no alert for them.
func (a *Alerter) Unsubscribe(id string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	cur := a.state.Load()
	kept := make([]Subscription, 0, len(cur.subs))
	for _, s := range cur.subs {
		if s.ID != id {
			kept = append(kept, s)
		}
	}
	if len(kept) == len(cur.subs) {
		return false
	}
	a.state.Store(compile(kept))
	return true
}

// Subscriptions returns a snapshot of the registered subscriptions.
func (a *Alerter) Subscriptions() []Subscription {
	return append([]Subscription(nil), a.state.Load().subs...)
}

// Notify evaluates every subscription against the delta that produced
// version newVersion of document docID. oldDoc and newDoc are the
// versions before and after; they are used to resolve the paths of
// affected nodes (XIDs must be consistent with the delta, which is the
// case for documents coming out of diff.Diff or vstore.Store). Matches
// are returned; delivering them is the caller's business.
// Stored versions reach the alerter through warehouse.Pipeline instead;
// Notify serves callers that hold two versions outside any store.
func (a *Alerter) Notify(docID string, newVersion int, oldDoc, newDoc *dom.Node, d *delta.Delta) []Alert {
	if d.Empty() || len(a.state.Load().subs) == 0 {
		return nil
	}
	return a.NotifyResolved(docID, newVersion, delta.Resolve(d, oldDoc, newDoc))
}

// NotifyResolved is Notify for a caller that has already resolved the
// delta against its two versions (warehouse.Pipeline shares one
// resolution between the statistics collector and the alerter). The
// list is allocated once, at its final length: a first pass counts the
// matches, a second fills them in, and each query's match sets are
// built at most once per version across both.
func (a *Alerter) NotifyResolved(docID string, newVersion int, t *delta.Targets) []Alert {
	c := a.state.Load()
	if t.Delta.Empty() || len(c.subs) == 0 {
		return nil
	}
	e := evaluation{c: c, docID: docID, t: t}
	n := 0
	e.each(func(int, *plan, *dom.Node) { n++ })
	if n == 0 {
		return nil
	}
	alerts := make([]Alert, 0, n)
	// paths renders the paths in both versions, ranking each wide
	// parent's children once for every op of the delta; an op's path is
	// rendered once, for its first alert.
	var paths dom.Pather
	last, path := -1, ""
	e.each(func(i int, p *plan, at *dom.Node) {
		if i != last {
			last, path = i, paths.Path(at)
		}
		op := &t.Delta.Ops[i]
		alerts = append(alerts, Alert{SubID: p.id, DocID: docID, Version: newVersion, Kind: op.Kind, XID: op.XID, OpIndex: int32(i), Path: path})
	})
	return alerts
}

// evaluation is one NotifyResolved's matching of a delta's operations
// against the compiled subscriptions.
type evaluation struct {
	c     *snapshot
	docID string
	t     *delta.Targets
	// sets[q] holds plan q's query evaluated against the old and the
	// new version, each built when the first operation needs it.
	sets [][2]*xpathlite.MatchSet
}

// each calls match for every operation and subscription plan that
// match, in operation order, with the node the alert's path names: the
// operation's node, or its element when that is a text node.
func (e *evaluation) each(match func(i int, p *plan, at *dom.Node)) {
	for i := range e.t.Delta.Ops {
		op := &e.t.Delta.Ops[i]
		kind := op.Kind
		plans := e.c.anyKind
		if int(kind) < len(e.c.byKind) {
			plans = e.c.byKind[kind]
		}
		if len(plans) == 0 {
			continue
		}
		// The operation is about a node of the new version when it
		// still exists there; deletes are about the old version.
		node, side, doc := e.t.New[i], 1, e.t.NewDoc
		if node == nil || kind == delta.KindDelete {
			node, side, doc = e.t.Old[i], 0, e.t.OldDoc
		}
		// A text node's value belongs, for subscribers, to its element:
		// an update of <Price>'s character data should match
		// "Product/Price".
		at := node
		if node != nil && node.Type == dom.Text && node.Parent != nil {
			at = node.Parent
		}
		for _, p := range plans {
			if p.docID != "" && p.docID != e.docID {
				continue
			}
			if p.query != nil {
				if node == nil {
					continue
				}
				if e.sets == nil {
					e.sets = make([][2]*xpathlite.MatchSet, e.c.queries)
				}
				set := e.sets[p.queryIdx][side]
				if set == nil {
					set = p.query.MatchSet(doc)
					e.sets[p.queryIdx][side] = set
				}
				// at is node, or its element when node is text.
				if !set.Matches(node) && !(at != node && set.Matches(at)) {
					continue
				}
			} else if p.hasPath && !p.pathMatches(at) {
				continue
			}
			if p.contains != "" && !contentContains(op, node, p.contains) {
				continue
			}
			match(i, p, at)
		}
	}
}

func kindMatches(kinds []delta.Kind, k delta.Kind) bool {
	if len(kinds) == 0 {
		return true
	}
	for _, want := range kinds {
		if want == k {
			return true
		}
	}
	return false
}

// pathMatches compares the subscription's label pattern against the
// label path of n, read off n's ancestors (no path string is built):
// an anchored pattern must match the full path, otherwise a suffix
// suffices; "*" matches any single label. A nil n matches nothing.
func (p *plan) pathMatches(n *dom.Node) bool {
	if n == nil {
		return false
	}
	for i := len(p.segs) - 1; i >= 0; i-- {
		if n == nil || n.Type == dom.Document {
			return false // the pattern is longer than the path
		}
		if p.segs[i] != "*" && p.segs[i] != pathLabel(n) {
			return false
		}
		n = n.Parent
	}
	return !p.anchored || len(p.segs) == 0 || n == nil || n.Type == dom.Document
}

// pathLabel is n's step in dom.Node.Path, without the position
// predicate.
func pathLabel(n *dom.Node) string {
	switch n.Type {
	case dom.Text:
		return "text()"
	case dom.Comment:
		return "comment()"
	case dom.ProcInst:
		return "processing-instruction()"
	default:
		return n.Name
	}
}

// segments splits a label path on "/", dropping empty steps and
// position predicates.
func segments(p string) []string {
	var out []string
	for _, s := range strings.Split(p, "/") {
		if s == "" {
			continue
		}
		if i := strings.IndexByte(s, '['); i >= 0 {
			s = s[:i]
		}
		out = append(out, s)
	}
	return out
}

// contentContains checks the operation's payload for a substring.
func contentContains(op *delta.Op, node *dom.Node, substr string) bool {
	switch op.Kind {
	case delta.KindInsert, delta.KindDelete:
		return op.Subtree != nil && strings.Contains(op.Subtree.TextContent(), substr)
	case delta.KindMove:
		return node != nil && strings.Contains(node.TextContent(), substr)
	default: // an update's or an attribute op's values
		return strings.Contains(op.New, substr) || strings.Contains(op.Old, substr)
	}
}
