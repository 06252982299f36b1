package vstore

import "testing"

// evictedDoc stores the same chain of versions under "doc" and "other"
// behind a one-slot cache, so "doc"'s latest version is a keyframe.
func evictedDoc(t *testing.T, versions int) *Store {
	t.Helper()
	s := chainStore(t, Config{Shards: 1, CacheSize: 1}, flipChain(t, 2000, versions), "doc", "other")
	t.Cleanup(func() { s.Close() })
	if f, ok := s.cache.frames["doc"]; !ok || f.versions != versions {
		t.Fatalf("doc's keyframe: present %v, version %d; want version %d", ok, f.versions, versions)
	}
	return s
}

// readMatches reads version v of "doc" and fails unless it is what
// step-by-step Apply from the stored base gives.
func readMatches(t *testing.T, s *Store, v int) {
	t.Helper()
	got, err := s.Version("doc", v)
	if err != nil {
		t.Fatal(err)
	}
	want := stepwiseVersions(t, s.shardFor("doc").lookup("doc"))[v]
	if renderWithXIDs(got) != renderWithXIDs(want) {
		t.Fatalf("Version(%d) differs from the stepwise replay", v)
	}
}

// TestKeyframeFallback: a keyframe that does not restore — its bytes
// swapped for a tree with a different node count, or for bytes that do
// not parse — is never served. The read falls back to the chain and
// answers what step-by-step Apply gives, and the fallback is counted.
func TestKeyframeFallback(t *testing.T) {
	for _, c := range []struct{ name, body string }{
		{"different node count", "<Catalog><Product/></Catalog>"},
		{"not XML", "<Catalog"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := evictedDoc(t, 5)
			s.cache.mu.Lock()
			f := s.cache.frames["doc"]
			f.body = []byte(c.body)
			s.cache.frames["doc"] = f
			s.cache.mu.Unlock()
			restores := s.StorageStats().KeyframeRestores
			readMatches(t, s, 3)
			ss := s.StorageStats()
			if ss.KeyframeFallbacks != 1 || ss.KeyframeRestores != restores {
				t.Errorf("%d fallbacks and %d restores, want 1 and 0", ss.KeyframeFallbacks, ss.KeyframeRestores-restores)
			}
			if _, ok := s.cache.frames["doc"]; ok {
				t.Error("the keyframe that did not restore is still resident")
			}
		})
	}
}

// TestKeyframeNeverStale: a keyframe belongs to one version count. A
// Put drops it, and one left behind by a version count that moved
// without a Put (as a replaced chain would) is dropped unserved, in
// either direction; every read answers what step-by-step Apply gives.
func TestKeyframeNeverStale(t *testing.T) {
	t.Run("put", func(t *testing.T) {
		s := evictedDoc(t, 4)
		if _, _, err := s.Put("doc", flipChain(t, 2000, 6)[5]); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.cache.frames["doc"]; ok {
			t.Fatal("a Put left the document's keyframe resident")
		}
		if _, err := s.Version("other", 1); err != nil { // evicts version 5
			t.Fatal(err)
		}
		if f := s.cache.frames["doc"]; f.versions != 5 {
			t.Fatalf("keyframe at version %d after the Put, want 5", f.versions)
		}
		readMatches(t, s, 5)
	})
	for _, c := range []struct {
		name  string
		moved func(t *testing.T, s *Store, st *docState)
	}{
		{"version count down", func(t *testing.T, s *Store, st *docState) {
			st.deltas = st.deltas[:len(st.deltas)-1]
			st.versions--
		}},
		{"version count up", func(t *testing.T, s *Store, st *docState) {
			// "other" holds the same chain, so its next delta applies.
			if _, _, err := s.Put("other", flipChain(t, 2000, 6)[5]); err != nil {
				t.Fatal(err)
			}
			st.deltas = append(st.deltas, s.shardFor("other").lookup("other").deltas[4])
			st.versions++
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := evictedDoc(t, 5)
			st := s.shardFor("doc").lookup("doc")
			st.mu.Lock()
			c.moved(t, s, st)
			st.mu.Unlock()
			if _, err := s.Version("other", 1); err != nil { // keeps doc out of the LRU
				t.Fatal(err)
			}
			if f, ok := s.cache.frames["doc"]; !ok || f.versions != 5 {
				t.Fatal("the stale keyframe is gone before the read")
			}
			before := s.StorageStats()
			readMatches(t, s, st.versions)
			after := s.StorageStats()
			restores := after.KeyframeRestores - before.KeyframeRestores
			fallbacks := after.KeyframeFallbacks - before.KeyframeFallbacks
			if restores != 0 || fallbacks != 0 {
				t.Errorf("%d restores and %d fallbacks of a stale keyframe, want none", restores, fallbacks)
			}
			if _, ok := s.cache.frames["doc"]; ok {
				t.Error("the stale keyframe is still resident")
			}
		})
	}
}
