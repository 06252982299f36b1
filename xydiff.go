// Package xydiff is a Go implementation of the XyDiff algorithm from
// "Detecting Changes in XML Documents" (Cobéna, Abiteboul, Marian;
// ICDE 2002): a quasi-linear-time diff for XML trees that detects
// insertions, deletions, updates, attribute changes and — unusually for
// tree diffs — subtree moves, and represents them as completed,
// invertible deltas addressed by persistent node identifiers (XIDs).
//
// # Quick start
//
//	oldDoc, _ := xydiff.ParseString(`<cat><p>old</p></cat>`)
//	newDoc, _ := xydiff.ParseString(`<cat><p>new</p></cat>`)
//	d, _ := xydiff.Diff(oldDoc, newDoc)
//	fmt.Print(d)                        // human-readable ops
//	xml, _ := d.MarshalText()           // the delta as an XML document
//	v2, _ := xydiff.ApplyClone(oldDoc, d)          // == newDoc
//	inv, _ := d.Invert()                           // d itself, inverted in place
//	v1, _ := xydiff.ApplyClone(v2, inv)            // == oldDoc
//
// The facade re-exports the building blocks; richer APIs live in the
// internal packages: internal/diff (the BULD algorithm and options),
// internal/delta (the change model), internal/vstore (the versioned
// repository, in memory or on disk), internal/alert (delta
// subscriptions), and internal/changesim (the paper's change
// simulator).
package xydiff

import (
	"io"

	"xydiff/internal/alert"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/dom/domio"
	"xydiff/internal/htmlize"
	"xydiff/internal/merge"
	"xydiff/internal/warehouse"
	"xydiff/internal/xpathlite"
)

// Node is one node of an ordered XML tree; Document nodes wrap whole
// documents. See internal/dom for the full API.
type Node = dom.Node

// Delta is a set of change operations between two document versions.
type Delta = delta.Delta

// Op is one elementary change operation: a Kind and the fields that
// kind uses (see delta.Op). An insert built by hand must carry an XID on
// every node of its Subtree, none repeated and none already in the
// document, or Apply refuses it; the diff's inserts always do.
type Op = delta.Op

// Options tune the diff; the zero value reproduces the paper's
// configuration.
type Options = diff.Options

// Result is the detailed diff outcome, with per-phase timings.
type Result = diff.Result

// Parse reads an XML document.
func Parse(r io.Reader) (*Node, error) { return dom.Parse(r) }

// ParseString parses an XML document held in a string.
func ParseString(s string) (*Node, error) { return dom.ParseString(s) }

// ParseFile parses the XML document stored at path.
func ParseFile(path string) (*Node, error) { return domio.ParseFile(path) }

// Equal reports whether two trees are isomorphic (attribute order
// ignored, child order significant).
func Equal(a, b *Node) bool { return dom.Equal(a, b) }

// Diff computes the completed delta that transforms oldDoc into
// newDoc using the BULD algorithm. Persistent identifiers are assigned
// as a side effect: oldDoc receives post-order XIDs if it has none, and
// newDoc's nodes inherit XIDs through the matching.
func Diff(oldDoc, newDoc *Node, opts ...Options) (*Delta, error) {
	return diff.Diff(oldDoc, newDoc, first(opts))
}

// DiffDetailed is Diff plus per-phase timings and matching statistics.
func DiffDetailed(oldDoc, newDoc *Node, opts ...Options) (*Result, error) {
	return diff.DiffDetailed(oldDoc, newDoc, first(opts))
}

// Apply transforms doc in place by the delta. XIDs on doc must be
// consistent with the delta (documents coming out of Diff, or given
// canonical post-order XIDs, are).
func Apply(doc *Node, d *Delta) error { return delta.Apply(doc, d) }

// ApplyClone applies the delta to a deep copy of doc and returns it.
func ApplyClone(doc *Node, d *Delta) (*Node, error) { return delta.ApplyClone(doc, d) }

// ParseDelta reads a delta from its XML serialization.
func ParseDelta(r io.Reader) (*Delta, error) { return delta.Parse(r) }

// ParseDeltaString reads a delta from a string.
func ParseDeltaString(s string) (*Delta, error) { return delta.ParseString(s) }

func first(opts []Options) Options {
	if len(opts) > 0 {
		return opts[0]
	}
	return Options{}
}

// ParseHTML converts HTML text into a well-formed XML document tree
// ("XMLizing", paper Section 1), ready for Diff.
func ParseHTML(html string) *Node { return htmlize.Parse(html) }

// Compose aggregates a chain of deltas into a single equivalent delta
// against the base document (the paper's delta aggregation). Moves
// within one parent are minimized by the rule Diff uses with default
// options: exactly for child lists of up to 50 nodes, by the paper's
// block heuristic beyond. So a chain of one delta Diff produced
// composes to that delta.
func Compose(base *Node, deltas ...*Delta) (*Delta, error) {
	return diff.Compose(base, deltas...)
}

// MergeResult is the outcome of a three-way synchronization merge.
type MergeResult = merge.Result

// MergeConflict reports a colliding operation found during Merge.
type MergeConflict = merge.Conflict

// Merge reconciles two deltas computed independently against the same
// base document (offline synchronization, paper Section 2). ours wins
// conflicts; the result lists them.
func Merge(base *Node, ours, theirs *Delta) (*MergeResult, error) {
	return merge.ThreeWay(base, ours, theirs)
}

// Warehouse is the integrated change-control pipeline of the paper's
// Figure 1: repository + diff + alerter + full-text index + statistics.
type Warehouse = warehouse.Warehouse

// NewWarehouse returns an empty warehouse.
func NewWarehouse(opts ...Options) *Warehouse { return warehouse.New(first(opts)) }

// Subscription describes a pattern of interest over deltas for the
// warehouse's alerter.
type Subscription = alert.Subscription

// Alert reports a delta operation matching a subscription. It names the
// operation by the version it produced and its index in that version's
// delta, with its kind and target XID; the operation itself is in that
// delta, which Warehouse.Load returns beside the alerts.
type Alert = alert.Alert

// Query is a compiled path expression (an XPath subset) usable against
// documents, past versions and delta documents.
type Query = xpathlite.Expr

// CompileQuery compiles a path expression such as
// //Product[Price>500]/Name.
func CompileQuery(src string) (*Query, error) { return xpathlite.Compile(src) }

// MustCompileQuery is CompileQuery, panicking on error.
func MustCompileQuery(src string) *Query { return xpathlite.MustCompile(src) }
