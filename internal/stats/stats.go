// Package stats gathers change statistics over delta streams — the
// measurement program of the paper's conclusion ("gather statistics on
// change frequency, patterns of changes in a document, in a web site")
// and the learning hook of Section 5.2: the schema "is an excellent
// structure to record statistical information ... e.g. learn that a
// price node is more likely to change than a description node."
//
// A Collector observes (oldDoc, newDoc, delta) triples — typically at
// the time a store Put installs a version — and accumulates per-element-label change frequencies
// and per-version delta size ratios.
package stats

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"xydiff/internal/delta"
	"xydiff/internal/dom"
)

// LabelStats accumulates change counts for one element label.
type LabelStats struct {
	Label       string
	Occurrences int // element instances seen across observed versions
	Updates     int // value updates under the element (direct text)
	Inserts     int // subtrees of this label inserted
	Deletes     int // subtrees of this label deleted
	Moves       int
	AttrChanges int
}

// Changes totals all change kinds.
func (l LabelStats) Changes() int {
	return l.Updates + l.Inserts + l.Deletes + l.Moves + l.AttrChanges
}

// Rate is changes per occurrence (the "likelihood to change" the paper
// wants to learn); zero occurrences yield zero.
func (l LabelStats) Rate() float64 {
	if l.Occurrences == 0 {
		return 0
	}
	return float64(l.Changes()) / float64(l.Occurrences)
}

// Collector accumulates statistics; safe for concurrent use.
type Collector struct {
	mu        sync.Mutex
	labels    map[string]*LabelStats
	versions  int
	ops       delta.Counts
	deltaSize int64
	docSize   int64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{labels: make(map[string]*LabelStats)}
}

// Observe records one version transition. oldDoc is the version the
// delta applies to and newDoc its result; XIDs must be consistent with
// the delta (as produced by diff.Diff or a vstore Put). Stored versions
// reach the collector through warehouse.Pipeline, which has resolved
// the delta and knows its encoded size, and calls ObserveResolved.
func (c *Collector) Observe(oldDoc, newDoc *dom.Node, d *delta.Delta) {
	size := 0
	if !d.Empty() {
		size = d.Size()
	}
	c.ObserveResolved(delta.Resolve(d, oldDoc, newDoc), size)
}

// ObserveResolved records the version transition t describes, whose
// delta encodes to deltaBytes bytes of XML. The transition is tallied
// without the collector's lock, which is held only to merge the tally:
// concurrent Puts do not queue behind each other's document walks.
func (c *Collector) ObserveResolved(t *delta.Targets, deltaBytes int) {
	// Occurrences: count elements of the new version (the population at
	// risk for the next change).
	tally := make(map[string]*LabelStats)
	label := func(name string) *LabelStats {
		ls := tally[name]
		if ls == nil {
			ls = &LabelStats{}
			tally[name] = ls
		}
		return ls
	}
	dom.WalkPre(t.NewDoc, func(n *dom.Node) bool {
		if n.Type == dom.Element {
			label(n.Name).Occurrences++
		}
		return true
	})
	d := t.Delta
	var cnt delta.Counts
	var docBytes int64
	if !d.Empty() {
		cnt = d.Count()
		// The new version's size, counted without serializing it.
		docBytes = t.NewDoc.EncodedLen()
		for i, op := range d.Ops {
			if n := changedElement(t, i); n != nil {
				label(n.Name).count(op.Kind)
			}
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.versions++
	for name, add := range tally {
		ls := c.labels[name]
		if ls == nil {
			ls = &LabelStats{Label: name}
			c.labels[name] = ls
		}
		ls.Occurrences += add.Occurrences
		ls.Updates += add.Updates
		ls.Inserts += add.Inserts
		ls.Deletes += add.Deletes
		ls.Moves += add.Moves
		ls.AttrChanges += add.AttrChanges
	}
	if d.Empty() {
		return
	}
	c.ops.Inserts += cnt.Inserts
	c.ops.Deletes += cnt.Deletes
	c.ops.Updates += cnt.Updates
	c.ops.Moves += cnt.Moves
	c.ops.AttrOps += cnt.AttrOps
	c.deltaSize += int64(deltaBytes)
	c.docSize += docBytes
}

// changedElement returns the element operation i of t counts against:
// deletes are about the old version, everything else about the new
// one, either falling back to the other side; a change to a text node
// counts against its element. nil means there is no such element.
func changedElement(t *delta.Targets, i int) *dom.Node {
	n, other := t.New[i], t.Old[i]
	if t.Delta.Ops[i].Kind == delta.KindDelete {
		n, other = other, n
	}
	if n == nil {
		n = other
	}
	if n == nil {
		return nil
	}
	if n.Type != dom.Element && n.Parent != nil {
		n = n.Parent
	}
	if n.Type != dom.Element || n.Name == "" {
		return nil
	}
	return n
}

func (l *LabelStats) count(k delta.Kind) {
	switch k {
	case delta.KindUpdate:
		l.Updates++
	case delta.KindInsert:
		l.Inserts++
	case delta.KindDelete:
		l.Deletes++
	case delta.KindMove:
		l.Moves++
	default:
		l.AttrChanges++
	}
}

// Report is a snapshot of the accumulated statistics.
type Report struct {
	Versions  int
	Ops       delta.Counts
	DeltaSize int64 // total bytes of observed deltas
	DocSize   int64 // total bytes of observed (new) versions
	// Labels sorted by descending change rate, then by label.
	Labels []LabelStats
}

// DeltaRatio is total delta bytes over total document bytes — the
// paper's "delta size is usually less than the size of one version".
func (r Report) DeltaRatio() float64 {
	if r.DocSize == 0 {
		return 0
	}
	return float64(r.DeltaSize) / float64(r.DocSize)
}

// Report snapshots the collector.
func (c *Collector) Report() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := Report{Versions: c.versions, Ops: c.ops, DeltaSize: c.deltaSize, DocSize: c.docSize}
	for _, ls := range c.labels {
		r.Labels = append(r.Labels, *ls)
	}
	sort.Slice(r.Labels, func(i, j int) bool {
		ri, rj := r.Labels[i].Rate(), r.Labels[j].Rate()
		if ri != rj {
			return ri > rj
		}
		return r.Labels[i].Label < r.Labels[j].Label
	})
	return r
}

// WriteTable renders the per-label change-frequency table.
func (r Report) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# change statistics over %d version(s): %s; delta/doc ratio %.3f\n",
		r.Versions, r.Ops, r.DeltaRatio())
	fmt.Fprintf(w, "%-16s %8s %8s %8s %8s %8s %8s %8s\n",
		"label", "occur", "upd", "ins", "del", "mov", "attr", "rate")
	for _, l := range r.Labels {
		fmt.Fprintf(w, "%-16s %8d %8d %8d %8d %8d %8d %8.4f\n",
			l.Label, l.Occurrences, l.Updates, l.Inserts, l.Deletes, l.Moves, l.AttrChanges, l.Rate())
	}
}
