package xpathlite

import (
	"sort"
	"strconv"
	"strings"

	"xydiff/internal/dom"
)

// Select evaluates the expression with n as the context node and
// returns the matching nodes in document order, without duplicates.
// Absolute expressions first climb to n's root.
func (e *Expr) Select(n *dom.Node) []*dom.Node {
	if n == nil {
		return nil
	}
	if len(e.alts) == 1 {
		return sortDocOrder(selectAlt(n, e.alts[0]))
	}
	var out []*dom.Node
	seen := make(map[*dom.Node]bool)
	for _, alt := range e.alts {
		for _, got := range selectAlt(n, alt) {
			if !seen[got] {
				seen[got] = true
				out = append(out, got)
			}
		}
	}
	return sortDocOrder(out)
}

// sortDocOrder puts a result set into document order. Steps collect
// matches context node by context node, and with descendant axes a
// later context can contribute an earlier node (//*/x visits the
// deeper context after its ancestor), so the concatenated output is
// not inherently ordered. Found by the xptest differential harness:
// SelectFirst(`//*/x`) returned the later of two matches.
func sortDocOrder(nodes []*dom.Node) []*dom.Node {
	if len(nodes) < 2 {
		return nodes
	}
	sort.SliceStable(nodes, func(i, j int) bool { return docLess(nodes[i], nodes[j]) })
	return nodes
}

// docLess reports whether a precedes b in document (pre-)order. Both
// must belong to the same tree; an ancestor precedes its descendants.
func docLess(a, b *dom.Node) bool {
	if a == b {
		return false
	}
	pa := ancestorChain(a)
	pb := ancestorChain(b)
	i, j := len(pa)-1, len(pb)-1
	for i >= 0 && j >= 0 && pa[i] == pb[j] {
		i--
		j--
	}
	if i < 0 {
		return true // a is an ancestor of b
	}
	if j < 0 {
		return false // b is an ancestor of a
	}
	// pa[i] and pb[j] are distinct siblings under the common ancestor.
	return pa[i].Index() < pb[j].Index()
}

// ancestorChain returns [n, parent, ..., root].
func ancestorChain(n *dom.Node) []*dom.Node {
	var chain []*dom.Node
	for ; n != nil; n = n.Parent {
		chain = append(chain, n)
	}
	return chain
}

func selectAlt(n *dom.Node, alt pathAlt) []*dom.Node {
	ctx := []*dom.Node{n}
	if alt.absolute {
		root := n
		for root.Parent != nil {
			root = root.Parent
		}
		ctx = []*dom.Node{root}
	}
	for _, s := range alt.steps {
		ctx = applyStep(ctx, s)
		if len(ctx) == 0 {
			return nil
		}
	}
	return ctx
}

// SelectFirst returns the first match in document order, or nil.
func (e *Expr) SelectFirst(n *dom.Node) *dom.Node {
	out := e.Select(n)
	if len(out) == 0 {
		return nil
	}
	return out[0]
}

// Matches reports whether node n itself is selected by the expression
// when evaluated from n's document root. It is the building block the
// alerter uses to test "is this changed node interesting".
func (e *Expr) Matches(n *dom.Node) bool {
	if n == nil {
		return false
	}
	for _, got := range e.Select(n) {
		if got == n {
			return true
		}
	}
	return false
}

// MatchSet is an expression evaluated against one tree for testing
// many of its nodes: Matches(n) answers what e.Matches(n) would, but
// the expression's absolute alternatives — whose result is the same
// for every node of the tree — are selected once, when the set is
// built, instead of once per node tested. It is valid for as long as
// the tree is not modified.
type MatchSet struct {
	e   *Expr
	abs map[*dom.Node]struct{}
}

// MatchSet evaluates the absolute alternatives of e from n's root.
func (e *Expr) MatchSet(n *dom.Node) *MatchSet {
	m := &MatchSet{e: e}
	if n == nil {
		return m
	}
	for _, alt := range e.alts {
		if !alt.absolute {
			continue
		}
		got := selectAlt(n, alt)
		if m.abs == nil {
			m.abs = make(map[*dom.Node]struct{}, len(got))
		}
		for _, g := range got {
			m.abs[g] = struct{}{}
		}
	}
	return m
}

// Matches reports whether the expression selects n, a node of the tree
// the set was built on. A relative alternative selects relative to the
// node tested, so it is still evaluated per node.
func (m *MatchSet) Matches(n *dom.Node) bool {
	if n == nil {
		return false
	}
	if _, ok := m.abs[n]; ok {
		return true
	}
	for _, alt := range m.e.alts {
		if alt.absolute {
			continue
		}
		for _, got := range selectAlt(n, alt) {
			if got == n {
				return true
			}
		}
	}
	return false
}

// Value evaluates the expression and returns the text content of the
// first match ("" when nothing matches).
func (e *Expr) Value(n *dom.Node) string {
	first := e.SelectFirst(n)
	if first == nil {
		return ""
	}
	return first.TextContent()
}

// applyStep takes one step from every node of ctx, which holds no node
// twice, and returns the nodes reached, each once.
func applyStep(ctx []*dom.Node, s step) []*dom.Node {
	var out []*dom.Node
	// Two context nodes reach the same node only by going up, or down
	// more than one level: the children (and selves) of distinct nodes
	// are distinct. So only those axes, from more than one context
	// node, pay for a seen-set.
	var seen map[*dom.Node]bool
	if len(ctx) > 1 && (s.axis == axisParent || s.axis == axisDescendantOrSelf) {
		seen = make(map[*dom.Node]bool)
	}
	// Candidates per axis, then node test, then predicates. The node
	// set for predicates with positions is the per-context list of
	// candidates passing the node test, matching XPath's semantics of
	// [n] applying within each context node's children.
	add := func(n *dom.Node) {
		if seen != nil {
			if seen[n] {
				return
			}
			seen[n] = true
		}
		out = append(out, n)
	}
	var matched []*dom.Node
	test := func(cand *dom.Node) bool {
		switch {
		case !nodeTestOK(cand, s):
		case len(s.preds) == 0:
			add(cand)
		default:
			matched = append(matched, cand)
		}
		return true
	}
	for _, c := range ctx {
		switch s.axis {
		case axisSelf:
			test(c)
		case axisParent:
			if c.Parent != nil {
				test(c.Parent)
			}
		case axisChild:
			for _, ch := range c.Children {
				test(ch)
			}
		case axisDescendantOrSelf:
			dom.WalkPre(c, test)
		}
		selected := matched
		for _, p := range s.preds {
			selected = filterPred(selected, p)
		}
		for _, m := range selected {
			add(m)
		}
		matched = matched[:0]
	}
	return out
}

func nodeTestOK(n *dom.Node, s step) bool {
	switch s.test {
	case testName:
		return n.Type == dom.Element && n.Name == s.name
	case testAnyElement:
		return n.Type == dom.Element
	case testText:
		return n.Type == dom.Text
	case testComment:
		return n.Type == dom.Comment
	case testAnyNode:
		return true
	default:
		return false
	}
}

func filterPred(nodes []*dom.Node, p pred) []*dom.Node {
	switch pr := p.(type) {
	case positionPred:
		if pr.last {
			if len(nodes) == 0 {
				return nil
			}
			return nodes[len(nodes)-1:]
		}
		if pr.n > len(nodes) {
			return nil
		}
		return nodes[pr.n-1 : pr.n]
	default:
		var out []*dom.Node
		for _, n := range nodes {
			if evalBool(n, p) {
				out = append(out, n)
			}
		}
		return out
	}
}

func evalBool(n *dom.Node, p pred) bool {
	switch pr := p.(type) {
	case boolPred:
		if pr.op == tokAnd {
			return evalBool(n, pr.l) && evalBool(n, pr.r)
		}
		return evalBool(n, pr.l) || evalBool(n, pr.r)
	case comparePred:
		values, exists := evalValue(n, pr.lhs)
		if pr.op == tokEOF {
			return exists
		}
		for _, v := range values {
			if compare(v, pr) {
				return true // XPath: a node-set comparison is existential
			}
		}
		return false
	case funcPred:
		values, _ := evalValue(n, pr.lhs)
		for _, v := range values {
			switch pr.fn {
			case "contains":
				if strings.Contains(v, pr.arg) {
					return true
				}
			case "starts-with":
				if strings.HasPrefix(v, pr.arg) {
					return true
				}
			}
		}
		return false
	case positionPred:
		// Position inside a boolean context is not supported (XPath
		// would need the context position); treat as non-matching.
		return false
	default:
		return false
	}
}

// evalValue returns the candidate string values of a value expression
// and whether the expression selected anything at all.
func evalValue(n *dom.Node, ve valueExpr) ([]string, bool) {
	if ve.attr != "" {
		if v, ok := n.Attribute(ve.attr); ok {
			return []string{v}, true
		}
		return nil, false
	}
	ctx := []*dom.Node{n}
	for _, s := range ve.path {
		ctx = applyStep(ctx, s)
	}
	if ve.text {
		var texts []string
		for _, c := range ctx {
			for _, ch := range c.Children {
				if ch.Type == dom.Text {
					texts = append(texts, ch.Value)
				}
			}
			if c.Type == dom.Text {
				texts = append(texts, c.Value)
			}
		}
		// A bare text() step on the context node itself.
		if len(ve.path) == 0 {
			texts = nil
			for _, ch := range n.Children {
				if ch.Type == dom.Text {
					texts = append(texts, ch.Value)
				}
			}
		}
		return texts, len(texts) > 0
	}
	if len(ctx) == 0 {
		return nil, false
	}
	var out []string
	for _, c := range ctx {
		out = append(out, c.TextContent())
	}
	return out, true
}

func compare(v string, pr comparePred) bool {
	if pr.rhsIsNum {
		lv, err := strconv.ParseFloat(strings.TrimSpace(stripCurrency(v)), 64)
		if err != nil {
			return false
		}
		switch pr.op {
		case tokEq:
			return lv == pr.rhsNumber
		case tokNeq:
			return lv != pr.rhsNumber
		case tokLt:
			return lv < pr.rhsNumber
		case tokLe:
			return lv <= pr.rhsNumber
		case tokGt:
			return lv > pr.rhsNumber
		case tokGe:
			return lv >= pr.rhsNumber
		}
		return false
	}
	switch pr.op {
	case tokEq:
		return v == pr.rhs
	case tokNeq:
		return v != pr.rhs
	case tokLt:
		return v < pr.rhs
	case tokLe:
		return v <= pr.rhs
	case tokGt:
		return v > pr.rhs
	case tokGe:
		return v >= pr.rhs
	}
	return false
}

// stripCurrency lets numeric predicates work over values like "$499",
// which the catalog documents of the paper's examples use.
func stripCurrency(s string) string {
	s = strings.TrimSpace(s)
	for _, prefix := range []string{"$", "€", "£"} {
		s = strings.TrimPrefix(s, prefix)
	}
	return s
}
