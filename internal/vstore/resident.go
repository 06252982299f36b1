package vstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"xydiff/internal/delta"
	"xydiff/internal/dom"
	"xydiff/internal/xid"
)

// Resident history: a document holds version 1 and each stored delta —
// its parts — in memory as frames (frame.go), which a read walk thaws
// instead of parsing XML. Every byte the store writes stays XML: a Put
// appends its part's XML to the segment journal and freezes the delta
// it has just built; compaction and the scrubber render XML from frames.
// Version 1 as a first Put keeps it, and a part loaded from a segment
// or a snapshot, stay the XML they were written or read as until the
// first walk decodes them, so a first Put freezes nothing and opening a
// store decodes no history; that walk swaps in the part's frame when
// the frame renders back to the same XML. XML that does not decode
// stays XML and fails only the reads that cross it; XML whose frame
// would render other bytes stays XML and is parsed by every walk.

// A part is one part of a document's resident history, version 1 or a
// delta. Its form changes at most once, from XML to frame, under the
// document's read lock, so it is swapped atomically.
type part struct{ form atomic.Pointer[partForm] }

// partForm is what a part holds: its XML, or its frame and the
// checksum and length of the XML that frame renders.
type partForm struct {
	b     []byte
	frame bool
	// xmlOnly marks XML that a walk decoded and found no frame for: it
	// stays XML and is not tried again.
	xmlOnly bool
	sum     uint32
	size    int
}

// xmlPart is a part held as its XML.
func xmlPart(b []byte) *part {
	p := &part{}
	p.form.Store(&partForm{b: b})
	return p
}

// putPart is the part a Put keeps for what it built: frame, which
// renders xml, or kept, the record's copy of xml, when what it built
// would not freeze (ok false).
func putPart(frame []byte, ok bool, xml, kept []byte) *part {
	if !ok {
		return xmlPart(kept)
	}
	p := &part{}
	p.form.Store(&partForm{b: frame, frame: true, sum: checksum(xml), size: len(xml)})
	return p
}

// xmlLen is the length of the part's XML.
func (p *part) xmlLen() int {
	f := p.form.Load()
	if f.frame {
		return f.size
	}
	return len(f.b)
}

// sum returns the checksum and length of the part's XML: the snapshot
// manifest's entry for it.
func (p *part) sum() (uint32, int) {
	f := p.form.Load()
	if f.frame {
		return f.sum, f.size
	}
	return checksum(f.b), len(f.b)
}

// xml returns the part's XML: the bytes it holds, or its frame rendered
// by render (baseXML or deltaXML).
func (p *part) xml(render func([]byte) ([]byte, error)) ([]byte, error) {
	f := p.form.Load()
	if !f.frame {
		return f.b, nil
	}
	return render(f.b)
}

// baseXML is the XML of a frozen version.
func baseXML(frame []byte) ([]byte, error) {
	doc, err := thaw(frame)
	if err != nil {
		return nil, err
	}
	return doc.AppendXML(nil), nil
}

// deltaXML is the XML of a stored delta frame.
func deltaXML(frame []byte) ([]byte, error) {
	d, _, err := thawDelta(frame)
	if err != nil {
		return nil, err
	}
	return d.MarshalText()
}

// historyBytes counts the bytes of resident history by form, store-wide.
type historyBytes struct{ xml, frame atomic.Int64 }

// add counts p's bytes in their form.
func (h *historyBytes) add(p *part) {
	if f := p.form.Load(); f.frame {
		h.frame.Add(int64(len(f.b)))
	} else {
		h.xml.Add(int64(len(f.b)))
	}
}

// keep counts p as history of st and returns it.
func (st *docState) keep(p *part) *part {
	if st.hist != nil {
		st.hist.add(p)
	}
	return p
}

// countHistory makes st, a document loaded outside the store, count its
// parts in h.
func (st *docState) countHistory(h *historyBytes) {
	st.hist = h
	if st.base != nil {
		h.add(st.base)
	}
	for _, p := range st.deltas {
		h.add(p)
	}
}

// baseTree returns version 1 as a tree of its own, with its XIDs: the
// base frame thawed, or the base XML parsed by the first walk that
// needs it.
func (st *docState) baseTree() (*dom.Node, error) {
	f := st.base.form.Load()
	if f.frame {
		doc, err := thaw(f.b)
		if err != nil {
			return nil, fmt.Errorf("base: %w", err)
		}
		return doc, nil
	}
	doc, err := dom.ParseBytes(f.b, snapshotLoadOptions())
	if err != nil {
		return nil, fmt.Errorf("base: %w", err)
	}
	xid.Assign(doc)
	if !f.xmlOnly {
		frame, ok := freeze(doc)
		st.settle(st.base, f, frame, ok, doc.WriteTo)
	}
	return doc, nil
}

// delta returns stored delta i (0-based), the one from version i+1 to
// i+2, as a delta of its own: its frame thawed, or its XML parsed by the
// first walk that needs it. A read that hands the delta out (handOut
// set) gets what the delta's XML decodes to, as it does once the store
// reopens: a frame with adjacent texts, whose XML writes them as one,
// is rendered and parsed, and fails as that XML does. The caller holds
// the state lock.
func (st *docState) delta(i int, handOut bool) (*delta.Delta, error) {
	p := st.deltas[i]
	f := p.form.Load()
	xml := f.b
	if f.frame {
		d, adjacentTexts, err := thawDelta(f.b)
		if err != nil {
			return nil, fmt.Errorf("vstore: thaw stored delta %d: %w", i+1, err)
		}
		if !handOut || !adjacentTexts {
			return d, nil
		}
		if xml, err = d.MarshalText(); err != nil {
			return nil, fmt.Errorf("vstore: serialize stored delta %d: %w", i+1, err)
		}
	}
	d, err := delta.ParseBytes(xml)
	if err != nil {
		return nil, fmt.Errorf("vstore: parse stored delta %d: %w", i+1, err)
	}
	if !f.frame && !f.xmlOnly {
		frame, ok := freezeDelta(d)
		st.settle(p, f, frame, ok, d.WriteTo)
	}
	return d, nil
}

// settle replaces p's XML form f, which a walk has just decoded, by
// frame, the decoded tree or delta frozen (ok false when it would not
// freeze), when the frame renders back to f's bytes, and marks f's XML
// as staying XML otherwise. The frame is an exact image of what was
// decoded — every field, the subtrees' XIDs included (TestFreezeThawExact
// and FuzzResidentDelta check it) — so it renders
// back to f's bytes exactly when what was decoded writes them: write,
// its WriteTo, is compared with them as it goes, with nothing allocated.
// Walks that decode the same part at once each settle it; the first
// swap wins and the others change nothing.
func (st *docState) settle(p *part, f *partForm, frame []byte, ok bool, write func(io.Writer) (int64, error)) {
	if ok {
		m := matcher{want: f.b}
		_, err := write(&m)
		ok = err == nil && len(m.want) == 0
	}
	next := &partForm{b: f.b, xmlOnly: true}
	if ok {
		next = &partForm{b: frame, frame: true, sum: checksum(f.b), size: len(f.b)}
	}
	if p.form.CompareAndSwap(f, next) && ok && st.hist != nil {
		st.hist.xml.Add(-int64(len(f.b)))
		st.hist.frame.Add(int64(len(frame)))
	}
}

// matcher is a writer that takes only the bytes of want, in order.
type matcher struct{ want []byte }

// errDiffers stops a write that departs from the bytes a matcher wants.
var errDiffers = errors.New("vstore: written bytes differ")

func (m *matcher) Write(b []byte) (int, error) {
	if !bytes.HasPrefix(m.want, b) {
		return 0, errDiffers
	}
	m.want = m.want[len(b):]
	return len(b), nil
}
