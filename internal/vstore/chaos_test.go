package vstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"xydiff/internal/diff"
	"xydiff/internal/faultfs"
)

// The bit-rot chaos harness: every fault class the scrubber claims to
// handle (bit flip, torn record, truncated snapshot, zeroed range, read
// IO error) is injected against both targets (sealed segments,
// compressed snapshots), in both repair and quarantine-only mode, and
// the outcome is byte-compared against the pre-corruption corpus. The
// invariant under test is the strongest one the scrubber promises: a
// read NEVER returns corrupt bytes — every version is either
// byte-identical to what was acknowledged or refused with a typed
// error.

var errChaosRead = errors.New("chaos: injected read error")

// seedChaosCorpus puts two documents through the store and returns the
// ground-truth serialization of every acknowledged version.
func seedChaosCorpus(t *testing.T, s *Store) map[string][]string {
	t.Helper()
	return map[string][]string{
		"alpha": seedDoc(t, s, "alpha", 3),
		"beta":  seedDoc(t, s, "beta", 2),
	}
}

// verifyNoCorruptBytes walks the full corpus: a version either
// reconstructs byte-identically or errors — serving different bytes is
// the one unforgivable outcome. Returns how many versions errored.
func verifyNoCorruptBytes(t *testing.T, s *Store, ground map[string][]string, scenario string) int {
	t.Helper()
	lost := 0
	for id, want := range ground {
		for v := 1; v <= len(want); v++ {
			doc, err := s.Version(id, v)
			if err != nil {
				lost++
				continue
			}
			if got := doc.String(); got != want[v-1] {
				t.Errorf("%s: %s v%d served corrupt bytes:\n got %s\nwant %s", scenario, id, v, got, want[v-1])
			}
		}
	}
	return lost
}

// snapshotFile returns one on-disk snapshot content file matching the
// glob pattern (relative to the docs dirs), e.g. "v1.xml".
func snapshotFile(t *testing.T, dir, pattern string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*", docsDirName, "*", pattern))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no snapshot file matches %s: %v", pattern, err)
	}
	sort.Strings(matches)
	return matches[0]
}

func TestScrubChaosMatrix(t *testing.T) {
	type scenario struct {
		name      string
		snapshots bool // checkpoint first so the damage target is a snapshot
		inject    func(t *testing.T, dir string, armed *faultfs.Fault)
	}
	scenarios := []scenario{
		{"bit-flip/sealed-segment", false, func(t *testing.T, dir string, _ *faultfs.Fault) {
			if err := faultfs.FlipBit(faultfs.OS{}, sealedSegs(t, dir)[0], 12, 5); err != nil {
				t.Fatal(err)
			}
		}},
		{"torn-record/sealed-segment", false, func(t *testing.T, dir string, _ *faultfs.Fault) {
			// A sealed segment has no writer: losing its tail mid-record
			// is at-rest damage, not a crash artifact.
			if err := faultfs.TruncateTail(faultfs.OS{}, sealedSegs(t, dir)[1], 3); err != nil {
				t.Fatal(err)
			}
		}},
		{"read-error/sealed-segment", false, func(t *testing.T, dir string, armed *faultfs.Fault) {
			// First ReadFile of the pass is the lowest sealed segment.
			armed.Countdown = 1
		}},
		{"bit-flip/snapshot", true, func(t *testing.T, dir string, _ *faultfs.Fault) {
			if err := faultfs.FlipBit(faultfs.OS{}, snapshotFile(t, dir, "v1.xml"), 4, 2); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flip/snapshot-delta", true, func(t *testing.T, dir string, _ *faultfs.Fault) {
			if err := faultfs.FlipBit(faultfs.OS{}, snapshotFile(t, dir, "delta-*.xml"), 6, 1); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated/snapshot", true, func(t *testing.T, dir string, _ *faultfs.Fault) {
			if err := faultfs.TruncateTail(faultfs.OS{}, snapshotFile(t, dir, "v1.xml"), 5); err != nil {
				t.Fatal(err)
			}
		}},
		{"zeroed/snapshot-delta", true, func(t *testing.T, dir string, _ *faultfs.Fault) {
			if err := faultfs.ZeroRange(faultfs.OS{}, snapshotFile(t, dir, "delta-*.xml"), 12, 6); err != nil {
				t.Fatal(err)
			}
		}},
		{"read-error/snapshot", true, func(t *testing.T, dir string, armed *faultfs.Fault) {
			// Third ReadFile of the pass: the first two are the version
			// counter and the checksum manifest, the third is v1.xml.
			armed.Countdown = 3
		}},
		{"bit-flip/snapshot-earlier-delta", true, func(t *testing.T, dir string, _ *faultfs.Fault) {
			// alpha's first delta: its second is written against a chain
			// that holds it, so it must be refused with it, never decoded.
			path := filepath.Join(dir, shardDirName(0), docsDirName, "alpha", deltaFile(1))
			if err := faultfs.FlipBit(faultfs.OS{}, path, 8, 3); err != nil {
				t.Fatal(err)
			}
		}},
	}

	for _, sc := range scenarios {
		for _, noRepair := range []bool{false, true} {
			mode := "repair"
			if noRepair {
				mode = "quarantine"
			}
			t.Run(sc.name+"/"+mode, func(t *testing.T) {
				// The armed fault starts inert (Countdown 0); read-error
				// scenarios arm it after seeding so recovery and the
				// workload never trip it.
				armed := &faultfs.Fault{Op: faultfs.OpRead, Err: errChaosRead}
				dir := t.TempDir()
				cfg := scrubCfg()
				cfg.Scrub.NoRepair = noRepair
				cfg.FS = faultfs.Wrap(faultfs.OS{}, armed)
				s, err := Open(dir, diff.Options{}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				ground := seedChaosCorpus(t, s)
				if sc.snapshots {
					if err := s.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				sc.inject(t, dir, armed)

				// Detection within one cycle.
				rep, err := s.ScrubPass(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if rep.Found == 0 {
					t.Fatalf("damage not detected in one cycle: %+v", rep)
				}
				if sc.name == "bit-flip/snapshot-earlier-delta" {
					// The chain walk stops at the damaged part: the part
					// after it is refused with it, never decoded.
					for _, f := range rep.Findings {
						if !strings.Contains(f.Reason, deltaFile(1)) || strings.Contains(f.Reason, deltaFile(2)) {
							t.Fatalf("finding %q does not name the damaged %s alone", f.Reason, deltaFile(1))
						}
					}
				}
				if noRepair {
					if rep.Quarantined == 0 || rep.Repaired != 0 {
						t.Fatalf("quarantine mode outcome = %+v", rep)
					}
					if s.DegradedDocs() == 0 {
						t.Fatal("no document degraded after quarantine")
					}
					// A snapshot is one document's: quarantining it
					// degrades that document alone.
					if sc.snapshots && s.DegradedDocs() != 1 {
						t.Fatalf("%d documents degraded by one quarantined snapshot", s.DegradedDocs())
					}
				} else {
					if rep.Repaired == 0 || rep.Quarantined != 0 {
						t.Fatalf("repair mode outcome = %+v", rep)
					}
					if s.DegradedDocs() != 0 {
						t.Fatal("repair left documents degraded")
					}
					// Repair rewrites snapshots as compaction writes them.
					for _, path := range contentFiles(t, dir) {
						if data, err := os.ReadFile(path); err != nil || !bytes.HasPrefix(data, dictHeader) {
							t.Fatalf("%s after repair is not compressed as compaction writes it (%v)", path, err)
						}
					}
				}
				checkSnapshotBytes(t, s, dir)
				// While open the resident chains keep serving everything,
				// and never with corrupt bytes.
				if lost := verifyNoCorruptBytes(t, s, ground, sc.name+" open"); lost != 0 {
					t.Errorf("%d versions unreadable while the store is open", lost)
				}
				if !noRepair {
					// A repaired store is clean again on the next cycle.
					if rep2, _ := s.ScrubPass(context.Background()); rep2.Found != 0 {
						t.Fatalf("second cycle still reports damage: %+v", rep2.Findings)
					}
				}

				// Survives a reopen: repaired layouts strictly, quarantined
				// layouts degraded — either way no corrupt bytes.
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				recfg := scrubCfg()
				recfg.OpenDegraded = noRepair
				s2, err := Open(dir, diff.Options{}, recfg)
				if err != nil {
					t.Fatalf("reopen after %s: %v", mode, err)
				}
				defer s2.Close()
				lost := verifyNoCorruptBytes(t, s2, ground, sc.name+" reopened")
				if !noRepair && lost != 0 {
					t.Errorf("repaired store lost %d versions across reopen", lost)
				}
			})
		}
	}
}

// TestCrashDuringScrubRepairRewrite kills the filesystem at every
// write, sync, rename, remove and open issued by an in-flight scrub
// repair (the re-materialize → fsync → rename → retire rewrite of a
// corrupt sealed segment). Recovery must come up with either the old
// (corrupt, quarantined at open) state or the repaired one — never a
// torn hybrid that serves wrong bytes.
func TestCrashDuringScrubRepairRewrite(t *testing.T) {
	// Counting pass: how many ops does the repair itself issue? The
	// fault stays inert (Countdown 0) through seeding, so arming it
	// with k counts only scrub-time operations.
	seed := func(t *testing.T, fsys faultfs.FS) (*Store, string, map[string][]string) {
		dir := t.TempDir()
		cfg := scrubCfg()
		cfg.FS = fsys
		s, err := Open(dir, diff.Options{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ground := seedChaosCorpus(t, s)
		if err := faultfs.FlipBit(faultfs.OS{}, sealedSegs(t, dir)[0], 12, 5); err != nil {
			t.Fatal(err)
		}
		return s, dir, ground
	}

	clean := faultfs.Wrap(faultfs.OS{})
	s, _, _ := seed(t, clean)
	before := map[faultfs.Op]int{}
	ops := []faultfs.Op{faultfs.OpWrite, faultfs.OpSync, faultfs.OpRename, faultfs.OpRemove, faultfs.OpOpen}
	for _, op := range ops {
		before[op] = clean.Count(op)
	}
	if rep, err := s.ScrubPass(context.Background()); err != nil || rep.Repaired == 0 {
		t.Fatalf("counting pass did not repair: %+v, %v", rep, err)
	}
	s.Close()

	for _, op := range ops {
		total := clean.Count(op) - before[op]
		if total == 0 {
			t.Fatalf("repair issues no %s ops; matrix would be vacuous", op)
		}
		for k := 1; k <= total; k++ {
			scenario := fmt.Sprintf("crash at repair %s #%d/%d", op, k, total)
			fault := &faultfs.Fault{Op: op, Crash: true} // armed below
			s, dir, ground := seed(t, faultfs.Wrap(faultfs.OS{}, fault))
			fault.Countdown = k
			_, _ = s.ScrubPass(context.Background()) // the process "dies" somewhere in here
			_ = s.Close()                            // crashed fs: errors are the point

			// Reopen through the real filesystem. The damaged segment may
			// still be present (crash before the retire), so recovery must
			// be the degraded-tolerant open — but whatever it finds, it
			// serves either the acknowledged bytes or a refusal.
			s2, err := Open(dir, diff.Options{}, Config{
				Shards: 1, CompactSegments: -1, OpenDegraded: true,
			})
			if err != nil {
				t.Fatalf("%s: reopen: %v", scenario, err)
			}
			lost := verifyNoCorruptBytes(t, s2, ground, scenario)
			if lost > 0 && s2.DegradedDocs() == 0 {
				// Losing versions is only legitimate as declared
				// degradation from quarantining the corrupt original.
				t.Errorf("%s: %d versions lost without a degraded marker", scenario, lost)
			}
			// Leftover temp files or a half-renamed segment must not
			// resurface as damage on the next cycle after a clean repair.
			if lost == 0 {
				if rep, _ := s2.ScrubPass(context.Background()); rep.Found != 0 && rep.Repaired != rep.Found {
					t.Errorf("%s: post-crash cycle found unrepairable damage: %+v", scenario, rep.Findings)
				}
			}
			s2.Close()
			_ = os.RemoveAll(dir)
		}
	}
}
