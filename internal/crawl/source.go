package crawl

import (
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"sort"
	"sync"
	"time"

	"xydiff/internal/diff"
	"xydiff/internal/faultfs"
)

// Source is one registered acquisition target: a URL polled on the
// adaptive schedule, feeding one document id in the store. All fields
// are persisted with the registry so a restarted crawler resumes with
// its learned rates, intervals and validators instead of re-fetching
// the world.
type Source struct {
	// ID is the document id the fetched versions are installed under.
	ID string `json:"id"`
	// URL is the polled HTTP(S) location.
	URL string `json:"url"`

	// Matcher names the diff matcher used for this source's versions
	// ("buld" or "sftm"; empty = store default). Crawled HTML pages
	// usually want "sftm": no DTD IDs, unstable attributes, text
	// rewritten in place.
	Matcher string `json:"matcher,omitempty"`

	// ChangeRate is the EWMA of the visits that found the document
	// changed: 0 static .. 1 changing every visit, and the unknown 0.5
	// until the first visit. It sets Interval.
	ChangeRate float64 `json:"changeRate"`
	// Interval is the current adaptive revisit interval.
	Interval time.Duration `json:"interval"`
	// NextFetch is when the source is next due.
	NextFetch time.Time `json:"nextFetch"`

	// ETag and LastModified are the validators from the last 200
	// response, replayed as If-None-Match / If-Modified-Since so an
	// unchanged document costs one conditional GET and no parse/diff.
	ETag         string `json:"etag,omitempty"`
	LastModified string `json:"lastModified,omitempty"`

	// Failures counts consecutive failed fetch cycles; reaching the
	// circuit threshold opens the circuit until CircuitOpenUntil.
	Failures         int       `json:"failures,omitempty"`
	CircuitOpenUntil time.Time `json:"circuitOpenUntil,omitempty"`

	// Lifetime counters, kept for /sources introspection.
	Fetches     int64 `json:"fetches"`
	NotModified int64 `json:"notModified"`
	Changes     int64 `json:"changes"`
	Errors      int64 `json:"errors"`
}

// unknownRate is the change rate of a source never visited: halfway
// between static and volatile, so a new source starts in the middle of
// the interval range.
const unknownRate = 0.5

// rateWeight is the EWMA weight of the newest visit: heavy enough that
// a few visits move the rate decisively (a crawler should adapt within
// a handful of revisits), light enough that one odd visit does not
// erase the history.
const rateWeight = 0.5

// observeVisit counts one completed visit and folds it into the change
// rate: changed reports whether it produced a new version (the first
// fetch included), so a 304 and a byte-identical refetch both count as
// unchanged. The first visit sets the rate outright.
func (s *Source) observeVisit(changed bool) {
	obs := 0.0
	if changed {
		obs = 1
	}
	if s.Fetches == 0 {
		s.ChangeRate = obs
	} else {
		s.ChangeRate = rateWeight*obs + (1-rateWeight)*s.ChangeRate
	}
	s.Fetches++
}

// UnmarshalJSON reads a registry entry. An entry without a changeRate,
// written before the rate was saved, reads the unknown rate whatever
// its Fetches.
func (s *Source) UnmarshalJSON(data []byte) error {
	type plain Source // without this method, so the decode does not recurse
	p := plain{ChangeRate: unknownRate}
	err := json.Unmarshal(data, &p)
	*s = Source(p)
	return err
}

// CircuitOpen reports whether the source's circuit is open at now.
func (s Source) CircuitOpen(now time.Time) bool {
	return s.CircuitOpenUntil.After(now)
}

// Registry is the persisted set of sources — the crawler's counterpart
// of the store's document table, saved alongside it. All methods are
// safe for concurrent use. Mutations happen through the registry so the
// crawler, the HTTP endpoints, and persistence always see one state.
// Add and Remove are durable when they return; learned schedule state
// (change rates, intervals, validators, counters) is written by Save,
// or by the next Add or Remove.
type Registry struct {
	mu   sync.Mutex
	path string // "" = memory-only
	srcs map[string]*Source
}

// NewRegistry returns an empty, memory-only registry.
func NewRegistry() *Registry {
	return &Registry{srcs: make(map[string]*Source)}
}

// OpenRegistry loads the registry persisted at path, or returns an
// empty one bound to path when the file does not exist yet. Save writes
// back to the same path.
func OpenRegistry(path string) (*Registry, error) {
	r := NewRegistry()
	r.path = path
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return r, nil
	}
	if err != nil {
		return nil, fmt.Errorf("crawl: read registry: %w", err)
	}
	var list []Source
	if err := json.Unmarshal(data, &list); err != nil {
		return nil, fmt.Errorf("crawl: parse registry %s: %w", path, err)
	}
	for i := range list {
		s := list[i]
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("crawl: registry %s: %w", path, err)
		}
		r.srcs[s.ID] = &s
	}
	return r, nil
}

// Validate reports whether s can be registered: an id, an http(s) URL
// with a host, and a known matcher name.
func (s Source) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("source needs an id")
	}
	u, err := url.Parse(s.URL)
	if err != nil {
		return fmt.Errorf("source %s: parse url: %w", s.ID, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("source %s: url must be http or https, got %q", s.ID, s.URL)
	}
	if u.Host == "" {
		return fmt.Errorf("source %s: url %q has no host", s.ID, s.URL)
	}
	if _, err := diff.ParseMatcher(s.Matcher); err != nil {
		return fmt.Errorf("source %s: %w", s.ID, err)
	}
	return nil
}

// add registers src (replacing any source with the same id), saves the
// registry, and returns the stored copy. A failed save leaves the
// registry as it was. A zero Interval or NextFetch means "let the
// scheduler decide" — the crawler fills them on first fetch — and a
// source with no Fetches starts at the unknown change rate, whatever
// an earlier source of its id learned.
func (r *Registry) add(src Source) (Source, error) {
	if err := src.Validate(); err != nil {
		return Source{}, fmt.Errorf("crawl: %w", err)
	}
	if src.Fetches == 0 {
		src.ChangeRate = unknownRate
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old, had := r.srcs[src.ID]
	r.srcs[src.ID] = &src
	if err := r.save(); err != nil {
		if had {
			r.srcs[src.ID] = old
		} else {
			delete(r.srcs, src.ID)
		}
		return Source{}, err
	}
	return src, nil
}

// Remove deletes the source and saves the registry, reporting whether
// the source existed. A failed save leaves the source registered.
func (r *Registry) Remove(id string) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, ok := r.srcs[id]
	if !ok {
		return false, nil
	}
	delete(r.srcs, id)
	if err := r.save(); err != nil {
		r.srcs[id] = old
		return false, err
	}
	return true, nil
}

// Get returns a copy of the source.
func (r *Registry) Get(id string) (Source, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.srcs[id]
	if !ok {
		return Source{}, false
	}
	return *s, true
}

// List returns copies of all sources, sorted by id.
func (r *Registry) List() []Source {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Source, 0, len(r.srcs))
	for _, s := range r.srcs {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len reports how many sources are registered.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.srcs)
}

// openCircuits counts sources whose circuit is open at now.
func (r *Registry) openCircuits(now time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.srcs {
		if s.CircuitOpenUntil.After(now) {
			n++
		}
	}
	return n
}

// update applies f to the live source under the registry lock,
// reporting whether the source still exists (it may have been removed
// while a fetch was in flight).
func (r *Registry) update(id string, f func(*Source)) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.srcs[id]
	if !ok {
		return false
	}
	f(s)
	return true
}

// Save persists the registry to its path (no-op when memory-only) with
// the store's crash-safe idiom: temp file, fsync, rename.
func (r *Registry) Save() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.save()
}

// save is Save with r.mu held, so saves are written in the order their
// states were made.
func (r *Registry) save() error {
	path := r.path
	if path == "" {
		return nil
	}
	list := make([]Source, 0, len(r.srcs))
	for _, s := range r.srcs {
		list = append(list, *s)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })
	data, err := json.MarshalIndent(list, "", "  ")
	if err != nil {
		return fmt.Errorf("crawl: encode registry: %w", err)
	}
	if err := faultfs.WriteAtomic(faultfs.OS{}, path, data); err != nil {
		return fmt.Errorf("crawl: save registry: %w", err)
	}
	return nil
}
