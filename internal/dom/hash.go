package dom

// Hash64 is a streaming FNV-1a hash over the byte content of nodes.
// The diff's subtree signatures are built from it; keeping the mixing
// primitives here (next to the serializer that defines what a node's
// bytes are) lets every layer hash node content without concatenating
// strings or allocating a hash.Hash64 per node.
type Hash64 uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// NewHash64 returns the FNV-1a offset basis.
func NewHash64() Hash64 { return fnvOffset }

// mixByte folds one byte into the hash.
func (h *Hash64) mixByte(b byte) {
	*h = (*h ^ Hash64(b)) * fnvPrime
}

// mixString folds a string into the hash, followed by a terminator so
// that ("ab","c") and ("a","bc") mix differently.
func (h *Hash64) mixString(s string) {
	x := uint64(*h)
	for i := 0; i < len(s); i++ {
		x = (x ^ uint64(s[i])) * fnvPrime
	}
	x = (x ^ 0x1f) * fnvPrime
	*h = Hash64(x)
}

// MixUint64 folds a 64-bit value into the hash byte by byte, low byte
// first.
func (h *Hash64) MixUint64(v uint64) {
	x := uint64(*h)
	for s := 0; s < 64; s += 8 {
		x = (x ^ (v >> s & 0xff)) * fnvPrime
	}
	*h = Hash64(x)
}

// Sum returns the current hash value.
func (h Hash64) Sum() uint64 { return uint64(h) }

// HashNodeScratch mixes the shallow content of n — type, label, value
// and sorted attributes, but not children — into h. It is the per-node
// step of a subtree signature; callers mix child signatures themselves
// (see the diff's annotation phase). buf is a reusable attribute-sort
// buffer, for hot loops that hash millions of nodes: the (possibly
// grown) buffer is returned so the caller can pass it to the next call
// and amortize the sort copy to zero allocations.
func (h *Hash64) HashNodeScratch(n *Node, buf []Attr) []Attr {
	h.mixByte(byte(n.Type))
	h.mixString(n.Name)
	switch n.Type {
	case Element, Document:
		attrs := n.Attrs
		if len(attrs) >= 2 {
			buf = append(buf[:0], attrs...)
			for i := 1; i < len(buf); i++ { // insertion sort: attr lists are tiny
				for j := i; j > 0 && buf[j].Name < buf[j-1].Name; j-- {
					buf[j], buf[j-1] = buf[j-1], buf[j]
				}
			}
			attrs = buf
		}
		for _, a := range attrs {
			h.mixString(a.Name)
			h.mixByte(0x1)
			h.mixString(a.Value)
			h.mixByte(0x2)
		}
	default:
		h.mixString(n.Value)
	}
	return buf
}
