package scrub

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// frame renders one valid CRC-framed record, the framing both storage
// engines share.
func frame(payload []byte) []byte {
	rec := make([]byte, headerLen, headerLen+len(payload))
	binary.BigEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(rec[4:8], crc32.Checksum(payload, castagnoli))
	return append(rec, payload...)
}

func TestWalkLogClean(t *testing.T) {
	var log []byte
	want := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma-with-more-bytes")}
	for _, p := range want {
		log = append(log, frame(p)...)
	}
	var got [][]byte
	var offs []int64
	if d := WalkLog(log, func(off int64, payload []byte) error {
		got = append(got, append([]byte(nil), payload...))
		offs = append(offs, off)
		return nil
	}); d != nil {
		t.Fatalf("clean log reported damage: %v", d)
	}
	if len(got) != len(want) {
		t.Fatalf("visited %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if offs[0] != 0 || offs[1] != int64(headerLen+len(want[0])) {
		t.Fatalf("bad offsets %v", offs)
	}
}

func TestWalkLogEmpty(t *testing.T) {
	if d := WalkLog(nil, nil); d != nil {
		t.Fatalf("empty log reported damage: %v", d)
	}
}

func TestWalkLogDamage(t *testing.T) {
	rec1 := frame([]byte("first-record"))
	rec2 := frame([]byte("second-record"))
	base := append(append([]byte(nil), rec1...), rec2...)

	cases := []struct {
		name     string
		mutate   func([]byte) []byte
		wantOff  int64
		wantTorn bool
		reason   string
	}{
		{
			name: "bit flip in payload",
			mutate: func(b []byte) []byte {
				b[len(rec1)+headerLen+3] ^= 0x10
				return b
			},
			wantOff: int64(len(rec1)),
			reason:  "checksum mismatch",
		},
		{
			name: "bit flip in checksum",
			mutate: func(b []byte) []byte {
				b[5] ^= 0x01
				return b
			},
			wantOff: 0,
			reason:  "checksum mismatch",
		},
		{
			name: "torn tail mid-payload",
			mutate: func(b []byte) []byte {
				return b[:len(rec1)+headerLen+4]
			},
			wantOff:  int64(len(rec1)),
			wantTorn: true,
			reason:   "torn record",
		},
		{
			name: "torn tail mid-header",
			mutate: func(b []byte) []byte {
				return b[:len(rec1)+3]
			},
			wantOff:  int64(len(rec1)),
			wantTorn: true,
			reason:   "torn header",
		},
		{
			name: "zeroed length field",
			mutate: func(b []byte) []byte {
				copy(b[0:4], []byte{0, 0, 0, 0})
				return b
			},
			wantOff: 0,
			reason:  "implausible record length",
		},
		{
			name: "absurd length field",
			mutate: func(b []byte) []byte {
				binary.BigEndian.PutUint32(b[0:4], 1<<31)
				return b
			},
			wantOff: 0,
			reason:  "implausible record length",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), base...))
			d := WalkLog(data, nil)
			if d == nil {
				t.Fatal("damage not detected")
			}
			if d.Offset != tc.wantOff {
				t.Fatalf("damage at offset %d, want %d (%v)", d.Offset, tc.wantOff, d)
			}
			if d.Torn != tc.wantTorn {
				t.Fatalf("Torn = %v, want %v (%v)", d.Torn, tc.wantTorn, d)
			}
			if !strings.Contains(d.Reason, tc.reason) {
				t.Fatalf("reason %q does not mention %q", d.Reason, tc.reason)
			}
		})
	}
}

func TestWalkLogVisitError(t *testing.T) {
	log := append(frame([]byte("ok")), frame([]byte("bad-per-decoder"))...)
	d := WalkLog(log, func(off int64, payload []byte) error {
		if string(payload) != "ok" {
			return fmt.Errorf("decoder rejected %q", payload)
		}
		return nil
	})
	if d == nil {
		t.Fatal("visit error not surfaced as damage")
	}
	if d.Offset != int64(headerLen+2) {
		t.Fatalf("damage offset %d, want %d", d.Offset, headerLen+2)
	}
	if d.Torn {
		t.Fatal("decoder rejection must not read as a torn tail")
	}
}

// osRenameFS adapts package os to RenameFS for the quarantine tests.
type osRenameFS struct{}

func (osRenameFS) Rename(o, n string) error           { return os.Rename(o, n) }
func (osRenameFS) Stat(p string) (os.FileInfo, error) { return os.Stat(p) }

func TestQuarantine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-00000001.log")
	if err := os.WriteFile(path, []byte("damaged"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Quarantine(osRenameFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if got != path+QuarantineSuffix {
		t.Fatalf("quarantined to %q, want %q", got, path+QuarantineSuffix)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("original still present: %v", err)
	}
	b, err := os.ReadFile(got)
	if err != nil || string(b) != "damaged" {
		t.Fatalf("quarantined bytes = %q, %v — quarantine must preserve, never delete", b, err)
	}

	// Quarantining a new file under the same name must not clobber the
	// first quarantine.
	if err := os.WriteFile(path, []byte("damaged again"), 0o644); err != nil {
		t.Fatal(err)
	}
	got2, err := Quarantine(osRenameFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if got2 == got {
		t.Fatalf("second quarantine reused %q", got)
	}
	if b, _ := os.ReadFile(got); string(b) != "damaged" {
		t.Fatal("second quarantine clobbered the first")
	}
	if b, _ := os.ReadFile(got2); string(b) != "damaged again" {
		t.Fatalf("second quarantine content = %q", b)
	}
}

func TestThrottlePaces(t *testing.T) {
	th := NewThrottle(1000) // 1000 B/s, burst 1000
	var slept atomic.Int64
	th.sleep = func(ctx context.Context, d time.Duration) error {
		slept.Add(int64(d))
		return nil
	}
	ctx := context.Background()
	// First 1000 bytes ride the initial burst; the next 500 must wait
	// about half a second.
	if err := th.Take(ctx, 1000); err != nil {
		t.Fatal(err)
	}
	if got := slept.Load(); got != 0 {
		t.Fatalf("burst take slept %v", time.Duration(got))
	}
	if err := th.Take(ctx, 500); err != nil {
		t.Fatal(err)
	}
	got := time.Duration(slept.Load())
	if got < 400*time.Millisecond || got > 600*time.Millisecond {
		t.Fatalf("500-byte overdraft slept %v, want ~500ms", got)
	}
}

func TestThrottleNilAndCancel(t *testing.T) {
	var nilTh *Throttle
	if err := nilTh.Take(context.Background(), 1<<40); err != nil {
		t.Fatalf("nil throttle must be unlimited: %v", err)
	}
	th := NewThrottle(1) // 1 B/s: the second take must block on sleep
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := th.Take(ctx, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled take returned %v", err)
	}
}

func TestRunnerLifecycle(t *testing.T) {
	var passes atomic.Int64
	r := NewRunner(time.Millisecond, func(ctx context.Context) (Report, error) {
		passes.Add(1)
		return Report{BytesScanned: 42}, nil
	})
	go r.Run(context.Background())
	deadline := time.Now().Add(5 * time.Second)
	for passes.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if passes.Load() < 3 {
		t.Fatal("runner never cycled")
	}
	r.Stop()
	r.Stop() // idempotent
	after := passes.Load()
	time.Sleep(20 * time.Millisecond)
	if passes.Load() != after {
		t.Fatal("runner kept cycling after Stop")
	}
}

func TestReportNote(t *testing.T) {
	var r Report
	r.Note(Finding{Path: "a", Action: ActionRepaired})
	r.Note(Finding{Path: "b", Action: ActionQuarantined})
	r.Note(Finding{Path: "c", Action: ActionDetected})
	if r.Found != 3 || r.Repaired != 1 || r.Quarantined != 1 {
		t.Fatalf("counters %+v", r)
	}
	if len(r.Findings) != 3 {
		t.Fatalf("findings %d", len(r.Findings))
	}
}
