package main

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"
)

// The host this benchmark has to run on changes speed under it: other
// tenants make every computation 15–25% slower for minutes at a time,
// CPU time included, which no amount of repetition inside a 30-second
// run averages out. A fixed reference computation, sampled every 20 ms
// between the ops of a pass, slows down with the program: in a probe
// the 25-second medians of a parse+diff loop varied by 7.5% (range 20%)
// while their ratio to the interleaved reference varied by 2.2% (range
// 7%). Timings are therefore reported in milliseconds of a host on
// which the reference takes refNominal; on such a host they are plain
// milliseconds. `harness.host_factor` says how far from it a run's host
// was. What the reference computes matters: one that only chased
// pointers through preallocated memory slowed down by 55% while the
// program slowed down by 20%.

// refNominal is what one reference sample takes on the quiet 2-vCPU
// host the workloads were sized on.
const refNominal = 550 * time.Microsecond

// refPace is how much pass time goes by between two reference samples.
const refPace = 20 * time.Millisecond

type refNode struct {
	name string
	text string
	kids []*refNode
}

// reference is a fixed mix of what the program does, written against
// the standard library only so that no change to the program can move
// it: tokenize a fixed XML document with encoding/xml, build a tree of
// small nodes, walk it hashing names and text into a map, sort the
// keys. It allocates like the program does; the harness keeps its
// allocations and CPU out of the program's accounts.
type reference struct {
	doc     []byte
	sink    uint64
	samples []time.Duration
	// alloc is what one sample allocates (the same every time).
	alloc uint64
}

func newReference() *reference {
	rng := rand.New(rand.NewSource(1))
	var b strings.Builder
	b.WriteString("<list>")
	for i := 0; i < 120; i++ {
		fmt.Fprintf(&b, `<item id="i%d" kind="k%d"><name>item %d</name><value>%d</value><note>`, i, rng.Intn(7), i, rng.Intn(100000))
		for w := 0; w < 8+rng.Intn(8); w++ {
			fmt.Fprintf(&b, "w%d ", rng.Intn(500))
		}
		b.WriteString("</note></item>")
	}
	b.WriteString("</list>")
	r := &reference{doc: []byte(b.String())}
	before := allocated()
	r.sample()
	r.alloc = allocated() - before
	r.samples = r.samples[:0]
	return r
}

// sample runs the reference once and records how long it took.
func (r *reference) sample() {
	start := time.Now()
	dec := xml.NewDecoder(bytes.NewReader(r.doc))
	root := &refNode{}
	stack := []*refNode{root}
	for {
		tok, err := dec.Token()
		if err != nil {
			break // io.EOF: the document is fixed and well-formed
		}
		top := stack[len(stack)-1]
		switch t := tok.(type) {
		case xml.StartElement:
			n := &refNode{name: t.Name.Local}
			for _, a := range t.Attr {
				n.text += a.Value
			}
			top.kids = append(top.kids, n)
			stack = append(stack, n)
		case xml.EndElement:
			stack = stack[:len(stack)-1]
		case xml.CharData:
			top.text += string(t)
		}
	}
	seen := make(map[uint64]*refNode)
	var keys []uint64
	var walk func(n *refNode, h uint64)
	walk = func(n *refNode, h uint64) {
		for _, s := range [2]string{n.name, n.text} {
			for i := 0; i < len(s); i++ {
				h = (h ^ uint64(s[i])) * 1099511628211
			}
		}
		seen[h] = n
		keys = append(keys, h)
		for _, k := range n.kids {
			walk(k, h)
		}
	}
	walk(root, 14695981039346656037)
	slices.Sort(keys)
	for _, k := range keys {
		r.sink += uint64(len(seen[k].text))
	}
	r.samples = append(r.samples, time.Since(start))
}

// factor returns how much slower than nominal the host was over the
// samples taken since the last call, and forgets them.
func (r *reference) factor() float64 {
	xs := make([]float64, len(r.samples))
	for i, s := range r.samples {
		xs[i] = float64(s)
	}
	r.samples = r.samples[:0]
	if len(xs) == 0 {
		return 1
	}
	return percentile(xs, 0.10) / float64(refNominal)
}
