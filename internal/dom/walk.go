package dom

// Visit is a callback invoked for each node during a traversal. Return
// false from a pre-order visit to skip the node's subtree; the return
// value is ignored for post-order visits.
type Visit func(n *Node) bool

// WalkPre traverses the subtree rooted at n in pre-order (document
// order). If v returns false for a node, its children are skipped.
func WalkPre(n *Node, v Visit) {
	if !v(n) {
		return
	}
	for _, c := range n.Children {
		WalkPre(c, v)
	}
}

// WalkPost traverses the subtree rooted at n in post-order: children
// first, then the node itself. This is the order in which the paper
// assigns postfix positions (and initial XIDs).
func WalkPost(n *Node, v Visit) {
	for _, c := range n.Children {
		WalkPost(c, v)
	}
	v(n)
}

// Postorder returns all nodes of the subtree in post-order.
func Postorder(n *Node) []*Node {
	nodes := make([]*Node, 0, 64)
	WalkPost(n, func(x *Node) bool {
		nodes = append(nodes, x)
		return true
	})
	return nodes
}

// Preorder returns all nodes of the subtree in document order.
func Preorder(n *Node) []*Node {
	nodes := make([]*Node, 0, 64)
	WalkPre(n, func(x *Node) bool {
		nodes = append(nodes, x)
		return true
	})
	return nodes
}

// FindByXID returns the node with the given XID in the subtree rooted
// at n, or nil. It is a linear scan; the delta apply engine builds a
// map instead.
func FindByXID(n *Node, xid int64) *Node {
	var found *Node
	WalkPre(n, func(x *Node) bool {
		if found != nil {
			return false
		}
		if x.XID == xid {
			found = x
			return false
		}
		return true
	})
	return found
}

// Select returns the nodes matching a simple slash-separated label path
// relative to n, e.g. "Category/Product/Name". A step of "*" matches
// any element; a step of "text()" matches text nodes. The empty path
// selects n itself.
func Select(n *Node, path string) []*Node {
	if path == "" {
		return []*Node{n}
	}
	steps := splitPath(path)
	cur := []*Node{n}
	for _, step := range steps {
		var next []*Node
		for _, c := range cur {
			for _, ch := range c.Children {
				if matchStep(ch, step) {
					next = append(next, ch)
				}
			}
		}
		cur = next
		if len(cur) == 0 {
			break
		}
	}
	return cur
}

func splitPath(p string) []string {
	var steps []string
	start := 0
	for i := 0; i <= len(p); i++ {
		if i == len(p) || p[i] == '/' {
			if i > start {
				steps = append(steps, p[start:i])
			}
			start = i + 1
		}
	}
	return steps
}

func matchStep(n *Node, step string) bool {
	switch step {
	case "*":
		return n.Type == Element
	case "text()":
		return n.Type == Text
	default:
		return n.Type == Element && n.Name == step
	}
}
