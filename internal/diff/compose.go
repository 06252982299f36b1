package diff

import (
	"fmt"

	"xydiff/internal/delta"
	"xydiff/internal/dom"
	"xydiff/internal/xid"
)

// Compose aggregates a chain of deltas into a single delta with the
// same effect: applying the result to base equals applying the chain
// in order. This is the paper's delta aggregation ("we can aggregate
// and inverse deltas"), implemented through the persistent
// identification: the chain is replayed on a scratch copy and
// ComposeVersions turns the two end points into the aggregate.
// Intermediate churn — a node inserted by one delta and deleted by a
// later one, a value updated twice, a subtree moved repeatedly —
// collapses away.
//
// base must be the document the first delta applies to (XIDs
// consistent with it); base itself is not modified. ComposeVersions
// takes both documents it is given, so Compose hands it a second copy
// of base, besides the one the chain is replayed on: the aggregate's
// deleted content is cut from that copy.
func Compose(base *dom.Node, deltas ...*delta.Delta) (*delta.Delta, error) {
	if base == nil || base.Type != dom.Document {
		return nil, fmt.Errorf("diff: compose needs the base Document")
	}
	if needsXIDs(base) {
		xid.Assign(base)
	}
	final := base.Clone()
	for i, d := range deltas {
		if err := delta.Apply(final, d); err != nil {
			return nil, fmt.Errorf("diff: compose: delta %d: %w", i+1, err)
		}
	}
	return ComposeVersions(base.Clone(), final)
}

// ComposeVersions is the second half of Compose, for a caller that
// already holds both ends of the chain: base and final are two
// versions of one document, every node carrying the XID the chain
// between them gave it. The XIDs the versions share define the
// matching — a node survives the chain iff its XID appears in final —
// and the standard delta constructor emits the aggregate, minimizing
// intra-parent moves with the rule every Diff uses (DefaultLISWindow).
//
// ComposeVersions consumes both documents: each insert's and delete's
// content is the unmatched subtree of final or base itself, with its
// matched descendants unlinked, rather than a copy, and XIDs in final
// are rewritten with the values they already have. The caller must
// not read or change either document afterwards, and must give it
// trees no other goroutine reads — private copies, as a store's read
// walk makes them.
func ComposeVersions(base, final *dom.Node) (*delta.Delta, error) {
	// The move rule is the one a stored delta was built with, so the
	// two ends of one stored delta compose back to that delta byte for
	// byte (same matching, trees, weights and constructor), and a store
	// may serve a one-step aggregate as the delta itself. keepNewXIDs
	// makes the aggregate assign the same identifiers the chain did.
	return composeVersions(base, final, Options{DisableIDAttributes: true, keepNewXIDs: true, takeSubtrees: true})
}

// composeVersions is ComposeVersions under opts; the tests compose with
// takeSubtrees off, recording copies, to check what taking records.
func composeVersions(base, final *dom.Node, opts Options) (*delta.Delta, error) {
	if err := checkDocuments(base, final); err != nil {
		return nil, err
	}
	m := newMatcher(base, final, opts, false)
	defer m.release()
	m.setMatch(m.old.root(), m.new.root())
	var at xid.Table[int32] // XID -> index in final, plus one
	at.Expect(len(m.new.nodes))
	for i, n := range m.new.nodes {
		if n.XID != 0 {
			at.Set(n.XID, int32(i)+1)
		}
	}
	for oi, o := range m.old.nodes {
		if ni := int(at.Get(o.XID)) - 1; ni >= 0 && m.compatible(oi, ni) {
			m.setMatch(oi, ni)
		}
	}
	return m.buildDelta(), nil
}

// needsXIDs reports whether any node of doc lacks an XID.
func needsXIDs(doc *dom.Node) bool {
	missing := false
	dom.WalkPre(doc, func(n *dom.Node) bool {
		if n.XID == 0 {
			missing = true
			return false
		}
		return true
	})
	return missing
}
