// Package index implements the warehouse's full-text index and its
// delta-driven maintenance, the paper's Section 2 "Indexing"
// motivation: "we maintain a full-text index over a large volume of XML
// documents ... we store structural information for every indexed word
// ... we are considering the possibility to use the diff to maintain
// such indexes."
//
// Postings record the persistent identifier (XID) of the text node
// containing each word, so the index carries structure: a posting can
// be resolved to a path in the current version of the document. Because
// XIDs are stable across versions, a delta updates the index with work
// proportional to the *change* — moves cost nothing at all — instead of
// re-indexing the document.
package index

import (
	"sort"
	"strings"
	"sync"
	"unicode"

	"xydiff/internal/delta"
	"xydiff/internal/dom"
)

// Posting locates one occurrence set of a word: the text node
// (identified by XID) of one document.
type Posting struct {
	DocID string
	XID   int64
	Count int // occurrences of the word within that text node
}

// Index is an inverted index word -> postings. Safe for concurrent use.
type Index struct {
	mu sync.RWMutex
	// words[word][docID][xid] = occurrence count.
	words map[string]map[string]map[int64]int
	// perDoc[docID][xid][word] = count, the reverse map that makes
	// removal by subtree cheap.
	perDoc map[string]map[int64]map[string]int
}

// New returns an empty index.
func New() *Index {
	return &Index{
		words:  make(map[string]map[string]map[int64]int),
		perDoc: make(map[string]map[int64]map[string]int),
	}
}

// AddDocument indexes every text node of the document (full indexing,
// the baseline the incremental path is compared against). Any existing
// postings for docID are replaced.
func (ix *Index) AddDocument(docID string, doc *dom.Node) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeDocLocked(docID)
	dom.WalkPre(doc, func(n *dom.Node) bool {
		if n.Type == dom.Text && n.XID != 0 {
			ix.addTextLocked(docID, n.XID, n.Value)
		}
		return true
	})
}

// ApplyDelta updates the index incrementally from a delta: deleted
// subtrees lose their postings, inserted subtrees gain theirs, updates
// swap the words of one text node, and moves cost nothing because
// postings are keyed by persistent identifiers. The documents
// themselves are not needed.
func (ix *Index) ApplyDelta(docID string, d *delta.Delta) {
	if d.Empty() {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, op := range d.Ops {
		switch o := op.(type) {
		case delta.Update:
			ix.removeTextLocked(docID, o.XID)
			ix.addTextLocked(docID, o.XID, o.New)
		case delta.Delete:
			if o.Subtree != nil {
				dom.WalkPre(o.Subtree, func(n *dom.Node) bool {
					if n.Type == dom.Text && n.XID != 0 {
						ix.removeTextLocked(docID, n.XID)
					}
					return true
				})
			}
		case delta.Insert:
			if o.Subtree != nil {
				dom.WalkPre(o.Subtree, func(n *dom.Node) bool {
					if n.Type == dom.Text && n.XID != 0 {
						ix.addTextLocked(docID, n.XID, n.Value)
					}
					return true
				})
			}
			// Moves and attribute operations: nothing to do. Postings are
			// keyed by XID, which moves preserve; attributes are not
			// indexed in this model.
		}
	}
}

// Search returns the postings for a word, sorted by document then XID.
func (ix *Index) Search(word string) []Posting {
	key := normalize(word)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var out []Posting
	for docID, byXID := range ix.words[key] {
		for xid, count := range byXID {
			out = append(out, Posting{DocID: docID, XID: xid, Count: count})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DocID != out[j].DocID {
			return out[i].DocID < out[j].DocID
		}
		return out[i].XID < out[j].XID
	})
	return out
}

// SearchDocs returns the documents containing every given word.
func (ix *Index) SearchDocs(words ...string) []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var docs map[string]bool
	for _, w := range words {
		byDoc := ix.words[normalize(w)]
		if len(byDoc) == 0 {
			return nil
		}
		if docs == nil {
			docs = make(map[string]bool, len(byDoc))
			for d := range byDoc {
				docs[d] = true
			}
			continue
		}
		for d := range docs {
			if _, ok := byDoc[d]; !ok {
				delete(docs, d)
			}
		}
	}
	out := make([]string, 0, len(docs))
	for d := range docs {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Stats summarizes index contents.
type Stats struct {
	Words    int
	Postings int
	Docs     int
}

// Stats returns current index statistics.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	st := Stats{Words: len(ix.words), Docs: len(ix.perDoc)}
	for _, byDoc := range ix.words {
		for _, byXID := range byDoc {
			st.Postings += len(byXID)
		}
	}
	return st
}

// Equal reports whether two indexes hold identical postings; tests use
// it to prove incremental maintenance matches full re-indexing.
func Equal(a, b *Index) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	b.mu.RLock()
	defer b.mu.RUnlock()
	if len(a.words) != len(b.words) {
		return false
	}
	for w, aDocs := range a.words {
		bDocs := b.words[w]
		if len(aDocs) != len(bDocs) {
			return false
		}
		for d, aX := range aDocs {
			bX := bDocs[d]
			if len(aX) != len(bX) {
				return false
			}
			for x, c := range aX {
				if bX[x] != c {
					return false
				}
			}
		}
	}
	return true
}

func (ix *Index) addTextLocked(docID string, xid int64, text string) {
	for word, count := range tokenize(text) {
		byDoc := ix.words[word]
		if byDoc == nil {
			byDoc = make(map[string]map[int64]int)
			ix.words[word] = byDoc
		}
		byXID := byDoc[docID]
		if byXID == nil {
			byXID = make(map[int64]int)
			byDoc[docID] = byXID
		}
		byXID[xid] += count

		byNode := ix.perDoc[docID]
		if byNode == nil {
			byNode = make(map[int64]map[string]int)
			ix.perDoc[docID] = byNode
		}
		byWord := byNode[xid]
		if byWord == nil {
			byWord = make(map[string]int)
			byNode[xid] = byWord
		}
		byWord[word] += count
	}
}

func (ix *Index) removeTextLocked(docID string, xid int64) {
	byNode := ix.perDoc[docID]
	byWord := byNode[xid]
	for word := range byWord {
		byDoc := ix.words[word]
		if byXID := byDoc[docID]; byXID != nil {
			delete(byXID, xid)
			if len(byXID) == 0 {
				delete(byDoc, docID)
			}
		}
		if len(byDoc) == 0 {
			delete(ix.words, word)
		}
	}
	delete(byNode, xid)
	if len(byNode) == 0 {
		delete(ix.perDoc, docID)
	}
}

func (ix *Index) removeDocLocked(docID string) {
	byNode := ix.perDoc[docID]
	for xid := range byNode {
		ix.removeTextLocked(docID, xid)
	}
	delete(ix.perDoc, docID)
}

// tokenize lowercases and splits on non-letter/digit boundaries.
func tokenize(text string) map[string]int {
	out := make(map[string]int)
	start := -1
	flush := func(end int) {
		if start >= 0 {
			out[strings.ToLower(text[start:end])]++
			start = -1
		}
	}
	for i, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		flush(i)
	}
	flush(len(text))
	return out
}

func normalize(word string) string { return strings.ToLower(strings.TrimSpace(word)) }
