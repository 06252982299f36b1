package changesim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"xydiff/internal/dom"
)

// CorpusServer is a deterministic synthetic origin: an http.Handler
// serving an evolving corpus of XML documents — the "changing web" the
// paper's crawler polls — with correct HTTP revalidation semantics.
// Every document carries a strong ETag and a Last-Modified stamp from a
// synthetic clock, and conditional requests (If-None-Match /
// If-Modified-Since) answer 304 exactly when the document has not
// evolved since. Everything derives from the seed, so two servers built
// with the same seed and driven through the same Mutate/Tick sequence
// serve byte-identical corpora — crawler tests and load tests share one
// reproducible origin.
type CorpusServer struct {
	mu     sync.Mutex
	rng    *rand.Rand
	clock  time.Time
	params Params
	order  []string
	docs   map[string]*originDoc
}

// originDoc is one served document and its current validators.
type originDoc struct {
	doc      *dom.Node
	body     []byte
	etag     string
	modified time.Time
	version  int
}

// originEpoch is the synthetic clock's start; it only needs to be fixed
// (determinism) and in the past (so real-clock crawlers see sane
// Last-Modified values). The paper's submission year will do.
var originEpoch = time.Date(2002, time.February, 26, 0, 0, 0, 0, time.UTC)

// ServeCorpus builds a corpus of count documents from seed, served at
// /doc/000 .. /doc/NNN. Documents reuse the WebCorpus generators
// (catalogs, address books, articles, sites) at a few kilobytes each;
// the change process per Mutate is the light weekly touch of WebCorpus.
func ServeCorpus(seed int64, count int) (*CorpusServer, error) {
	rng := rand.New(rand.NewSource(seed))
	s := &CorpusServer{
		rng:   rng,
		clock: originEpoch,
		params: Params{
			DeleteProb: 0.01,
			UpdateProb: 0.05,
			InsertProb: 0.01,
			MoveProb:   0.05,
		},
		docs: make(map[string]*originDoc),
	}
	for i := 0; i < count; i++ {
		size := lognormalSize(rng, 4_000, 0.8)
		var doc *dom.Node
		switch rng.Intn(4) {
		case 0:
			doc = CatalogOfSize(rng, size)
		case 1:
			doc = AddressBook(rng, size/150+1)
		case 2:
			doc = Articles(rng, size/220+1)
		default:
			doc = Site(rng, size/350+1)
		}
		path := fmt.Sprintf("/doc/%03d", i)
		d := &originDoc{doc: doc, version: 1}
		s.refresh(d)
		s.order = append(s.order, path)
		s.docs[path] = d
	}
	return s, nil
}

// refresh reserializes d and renews its validators from the synthetic
// clock. Caller holds s.mu (or is still constructing s).
func (s *CorpusServer) refresh(d *originDoc) {
	d.body = []byte(d.doc.String())
	h := fnv.New64a()
	_, _ = h.Write(d.body) // fnv never fails
	d.etag = fmt.Sprintf("\"%016x-%d\"", h.Sum64(), d.version)
	d.modified = s.clock
}

// Paths returns the served document paths in corpus order.
func (s *CorpusServer) Paths() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Mutate evolves the document at path by one version (the WebCorpus
// weekly-change process) and advances the synthetic clock, so the new
// version carries a fresh ETag and a later Last-Modified.
func (s *CorpusServer) Mutate(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.docs[path]
	if d == nil {
		return fmt.Errorf("changesim: no corpus document at %q", path)
	}
	s.clock = s.clock.Add(time.Hour)
	return s.mutateLocked(path, d)
}

// mutateLocked rolls one document forward. Caller holds s.mu and has
// advanced the clock.
func (s *CorpusServer) mutateLocked(path string, d *originDoc) error {
	p := s.params
	p.Seed = s.rng.Int63()
	res, err := Simulate(d.doc, p)
	if err != nil {
		return fmt.Errorf("changesim: mutate %s: %w", path, err)
	}
	d.doc = res.New
	d.version++
	s.refresh(d)
	return nil
}

// Tick advances the corpus one epoch: the clock moves an hour and each
// document evolves with probability prob (drawn from the seeded rng, so
// the sequence of Ticks is deterministic). It returns how many
// documents changed.
//
//xyvet:allow testonly,localexport -- drives the synthetic origin for the crawler benchmarks; it advances the unexported clock and seeded rng under the lock
func (s *CorpusServer) Tick(prob float64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock = s.clock.Add(time.Hour)
	changed := 0
	for _, path := range s.order {
		if s.rng.Float64() >= prob {
			continue
		}
		if err := s.mutateLocked(path, s.docs[path]); err != nil {
			return changed, err
		}
		changed++
	}
	return changed, nil
}

// ServeHTTP implements the origin: GET/HEAD with ETag / Last-Modified
// revalidation. A request whose If-None-Match matches the current ETag
// — or, absent that header, whose If-Modified-Since is not before the
// document's Last-Modified — is answered 304 with no body, which is
// exactly the signal that lets a crawler skip the parse/diff pipeline.
func (s *CorpusServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	d := s.docs[r.URL.Path]
	var body []byte
	var etag string
	var modified time.Time
	if d != nil {
		body, etag, modified = d.body, d.etag, d.modified
	}
	s.mu.Unlock()
	if d == nil {
		http.NotFound(w, r)
		return
	}

	w.Header().Set("ETag", etag)
	w.Header().Set("Last-Modified", modified.UTC().Format(http.TimeFormat))
	if notModified(r, etag, modified) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	w.Header().Set("Content-Length", fmt.Sprint(len(body)))
	if r.Method == http.MethodHead {
		return
	}
	_, _ = w.Write(body) // a short write means the client hung up
}

// notModified decides revalidation: If-None-Match wins over
// If-Modified-Since (RFC 9110 §13.1.3).
func notModified(r *http.Request, etag string, modified time.Time) bool {
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		if inm == "*" || inm == etag {
			return true
		}
		return false
	}
	if ims := r.Header.Get("If-Modified-Since"); ims != "" {
		if t, err := http.ParseTime(ims); err == nil {
			// HTTP dates have second granularity; truncate before comparing.
			return !modified.Truncate(time.Second).After(t)
		}
	}
	return false
}
