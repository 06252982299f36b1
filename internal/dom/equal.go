package dom

import (
	"fmt"
	"strings"
)

// Equal reports whether two subtrees are isomorphic: same node types,
// labels, values, attribute sets (order-insensitive) and recursively
// equal child lists (order-sensitive — this is the ordered-tree model).
// XIDs, Parent pointers and a Document's DOCTYPE are ignored.
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Type != b.Type || a.Name != b.Name || !valuesEqual(a, b) {
		return false
	}
	if !attrsEqual(a, b) {
		return false
	}
	if len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// valuesEqual compares the values of two nodes of one type. A
// Document's value is its DOCTYPE, which is not content.
func valuesEqual(a, b *Node) bool {
	return a.Value == b.Value || a.Type == Document
}

func attrsEqual(a, b *Node) bool {
	if len(a.Attrs) != len(b.Attrs) {
		return false
	}
	if len(a.Attrs) == 0 {
		return true
	}
	sa, sb := a.SortedAttrs(), b.SortedAttrs()
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}

// Diagnose returns a human-readable description of the first
// difference between two trees, or "" when they are Equal. It exists
// for tests and debugging, not for the diff algorithm.
func Diagnose(a, b *Node) string {
	return diagnose(a, b, a.Path())
}

func diagnose(a, b *Node, at string) string {
	if a == nil || b == nil {
		return fmt.Sprintf("%s: one side nil", at)
	}
	if a.Type != b.Type {
		return fmt.Sprintf("%s: type %v vs %v", at, a.Type, b.Type)
	}
	if a.Name != b.Name {
		return fmt.Sprintf("%s: name %q vs %q", at, a.Name, b.Name)
	}
	if !valuesEqual(a, b) {
		return fmt.Sprintf("%s: value %q vs %q", at, clip(a.Value), clip(b.Value))
	}
	if !attrsEqual(a, b) {
		return fmt.Sprintf("%s: attributes %v vs %v", at, a.SortedAttrs(), b.SortedAttrs())
	}
	if len(a.Children) != len(b.Children) {
		return fmt.Sprintf("%s: %d children vs %d", at, len(a.Children), len(b.Children))
	}
	for i := range a.Children {
		c := a.Children[i]
		if d := diagnose(c, b.Children[i], at+"/"+c.step()); d != "" {
			return d
		}
	}
	return ""
}

func clip(s string) string {
	s = strings.ReplaceAll(s, "\n", `\n`)
	if len(s) > 40 {
		return s[:37] + "..."
	}
	return s
}
