package vstore

import (
	"container/list"
	"sync"
	"sync/atomic"

	"xydiff/internal/dom"
)

// versionCache holds each document's latest version in one of two
// forms, never both. The bounded LRU keeps materialized trees, so hot
// documents pay reconstruction once per residency instead of once per
// read. A tree the LRU evicts leaves a keyframe behind: the tree
// frozen into one byte slice, its shape, names, values and XIDs
// (frame.go). A miss thaws the tree from the keyframe, one pass and a
// few allocations, instead of replaying base + deltas; only a document
// with no current keyframe (not evicted since the store opened) or one
// whose keyframe does not thaw replays its chain. Trees and keyframes
// are keyed by document id and validated against the version count, so
// a stale one is never served. Keyframes live in memory only.
//
// The cached tree is shared between the store and readers that Clone
// it; PutDetailed hands the cached old version to the diff, which never
// mutates its left input. mu guards the list and the maps alone:
// freezing an evicted tree and thawing a keyframe run outside it.
type versionCache struct {
	mu         sync.Mutex
	max        int
	ll         *list.List // front = most recently used
	items      map[string]*list.Element
	frames     map[string]keyframe
	frameBytes int64 // bytes the frames hold: shape, names and values

	restores, fallbacks atomic.Int64
}

type cacheEntry struct {
	id       string
	doc      *dom.Node
	versions int
}

// keyframe is an evicted latest version, frozen: what a restore thaws.
type keyframe struct {
	body     []byte
	versions int
}

func newVersionCache(max int) *versionCache {
	return &versionCache{max: max, ll: list.New(), items: make(map[string]*list.Element), frames: make(map[string]keyframe)}
}

// get returns the cached tree for id when it is current at the given
// version count, nil otherwise.
func (c *versionCache) get(id string, versions int) *dom.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.items[id]
	if e == nil {
		return nil
	}
	ent := e.Value.(*cacheEntry)
	if ent.versions != versions {
		// Stale (the entry lost a race with a newer Put); drop it.
		c.ll.Remove(e)
		delete(c.items, id)
		return nil
	}
	c.ll.MoveToFront(e)
	return ent.doc
}

// put installs (or refreshes) the tree for id at the given version
// count, dropping id's keyframe, and turns the least-recently-used
// trees beyond the cap into keyframes.
func (c *versionCache) put(id string, doc *dom.Node, versions int) {
	for _, ent := range c.insert(id, doc, versions) {
		c.keep(ent)
	}
}

// insert is put's work under the lock; it returns the evicted entries.
func (c *versionCache) insert(id string, doc *dom.Node, versions int) []*cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.items[id]; e != nil {
		ent := e.Value.(*cacheEntry)
		if versions < ent.versions {
			return nil // never replace a newer tree with an older one
		}
		ent.doc, ent.versions = doc, versions
		c.ll.MoveToFront(e)
		return nil
	}
	c.dropFrame(id)
	c.items[id] = c.ll.PushFront(&cacheEntry{id: id, doc: doc, versions: versions})
	var evicted []*cacheEntry
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		ent := back.Value.(*cacheEntry)
		delete(c.items, ent.id)
		evicted = append(evicted, ent)
	}
	return evicted
}

// keep makes an evicted tree its document's keyframe, unless the tree
// came back into the LRU meanwhile or a newer keyframe is already kept.
func (c *versionCache) keep(ent *cacheEntry) {
	body, ok := freeze(ent.doc)
	if !ok {
		return // without a keyframe the next miss replays the chain
	}
	f := keyframe{body: body, versions: ent.versions}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.items[ent.id] != nil {
		return
	}
	if old, ok := c.frames[ent.id]; ok {
		if old.versions >= f.versions {
			return
		}
		c.dropFrame(ent.id)
	}
	c.frames[ent.id] = f
	c.frameBytes += int64(len(f.body))
}

// dropFrame forgets id's keyframe; the caller holds mu.
func (c *versionCache) dropFrame(id string) {
	if f, ok := c.frames[id]; ok {
		c.frameBytes -= int64(len(f.body))
		delete(c.frames, id)
	}
}

// restore rebuilds id's latest version from its keyframe when one is
// current at the given version count; a stale keyframe is dropped. A
// keyframe that does not thaw is counted as a fallback, dropped and
// never served, so the next miss replays the chain without trying it
// again. restore returns nil whenever the caller must replay the chain
// instead; the tree it returns is not in the LRU yet.
func (c *versionCache) restore(id string, versions int) *dom.Node {
	c.mu.Lock()
	f, ok := c.frames[id]
	if ok && f.versions != versions {
		c.dropFrame(id)
		ok = false
	}
	c.mu.Unlock()
	if !ok {
		return nil
	}
	doc, err := thaw(f.body)
	if err != nil {
		c.fallbacks.Add(1)
		c.mu.Lock()
		if cur, ok := c.frames[id]; ok && cur.versions == f.versions {
			c.dropFrame(id) // the frame tried, not a newer one kept meanwhile
		}
		c.mu.Unlock()
		return nil
	}
	c.restores.Add(1)
	return doc
}

// len reports how many trees are resident.
func (c *versionCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// keyframeBytes reports the bytes the resident keyframes hold.
func (c *versionCache) keyframeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frameBytes
}
