package optdelta

import "xydiff/internal/delta"

// ScriptCost charges a computed delta the way the oracle's cost model
// does: structural inserts and deletes pay per node of the carried
// subtree (that is what the delta serializes), while updates, moves
// and attribute operations pay one each (a move never carries its
// subtree). With this alignment, Optimal(...).Cost ≤ ScriptCost(d)
// holds for every correct delta d over the same pair of documents —
// the soundness invariant TestQualityPinned and FuzzOptDeltaSound hold.
//
//xyvet:allow testonly,localexport -- the oracle's cost model applied to a computed delta, the other side of Optimal's comparison
func ScriptCost(d *delta.Delta) int {
	if d == nil {
		return 0
	}
	cost := 0
	for _, op := range d.Ops {
		switch o := op.(type) {
		case delta.Insert:
			cost += o.Subtree.Size()
		case delta.Delete:
			cost += o.Subtree.Size()
		default:
			cost++
		}
	}
	return cost
}
