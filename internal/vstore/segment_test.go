package vstore

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// logFrame renders one valid framed record around an arbitrary
// payload, the frame encodeRecord writes.
func logFrame(payload []byte) []byte {
	rec := make([]byte, segHeaderLen, segHeaderLen+len(payload))
	binary.BigEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(rec[4:8], checksum(payload))
	return append(rec, payload...)
}

func TestWalkLogClean(t *testing.T) {
	var log []byte
	want := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma-with-more-bytes")}
	for _, p := range want {
		log = append(log, logFrame(p)...)
	}
	var got [][]byte
	var offs []int64
	if d := walkLog(log, func(off int64, payload []byte) error {
		got = append(got, append([]byte(nil), payload...))
		offs = append(offs, off)
		return nil
	}); d != nil {
		t.Fatalf("clean log reported damage: %+v", d)
	}
	if len(got) != len(want) {
		t.Fatalf("visited %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if offs[0] != 0 || offs[1] != int64(segHeaderLen+len(want[0])) {
		t.Fatalf("bad offsets %v", offs)
	}
}

func TestWalkLogEmpty(t *testing.T) {
	if d := walkLog(nil, nil); d != nil {
		t.Fatalf("empty log reported damage: %+v", d)
	}
}

// walkLogCase is a two-record log with one kind of damage, and where
// and how walkLog must report it.
type walkLogCase struct {
	name     string
	data     []byte
	wantOff  int64
	wantTorn bool
	reason   string
}

func walkLogDamageCases() []walkLogCase {
	rec1 := logFrame([]byte("first-record"))
	rec2 := logFrame([]byte("second-record"))
	base := append(append([]byte(nil), rec1...), rec2...)
	mutated := func(f func([]byte) []byte) []byte { return f(append([]byte(nil), base...)) }
	return []walkLogCase{
		{
			name:    "bit flip in payload",
			data:    mutated(func(b []byte) []byte { b[len(rec1)+segHeaderLen+3] ^= 0x10; return b }),
			wantOff: int64(len(rec1)),
			reason:  "checksum mismatch",
		},
		{
			name:    "bit flip in checksum",
			data:    mutated(func(b []byte) []byte { b[5] ^= 0x01; return b }),
			wantOff: 0,
			reason:  "checksum mismatch",
		},
		{
			name:     "torn tail mid-payload",
			data:     mutated(func(b []byte) []byte { return b[:len(rec1)+segHeaderLen+4] }),
			wantOff:  int64(len(rec1)),
			wantTorn: true,
			reason:   "torn record",
		},
		{
			name:     "torn tail mid-header",
			data:     mutated(func(b []byte) []byte { return b[:len(rec1)+3] }),
			wantOff:  int64(len(rec1)),
			wantTorn: true,
			reason:   "torn header",
		},
		{
			name:    "zeroed length field",
			data:    mutated(func(b []byte) []byte { copy(b[0:4], []byte{0, 0, 0, 0}); return b }),
			wantOff: 0,
			reason:  "implausible record length",
		},
		{
			name:    "absurd length field",
			data:    mutated(func(b []byte) []byte { binary.BigEndian.PutUint32(b[0:4], 1<<31); return b }),
			wantOff: 0,
			reason:  "implausible record length",
		},
	}
}

func TestWalkLogDamage(t *testing.T) {
	for _, tc := range walkLogDamageCases() {
		t.Run(tc.name, func(t *testing.T) {
			d := walkLog(tc.data, nil)
			if d == nil {
				t.Fatal("damage not detected")
			}
			if d.off != tc.wantOff {
				t.Fatalf("damage at offset %d, want %d (%+v)", d.off, tc.wantOff, d)
			}
			if d.torn != tc.wantTorn {
				t.Fatalf("torn = %v, want %v (%+v)", d.torn, tc.wantTorn, d)
			}
			if !strings.Contains(d.reason, tc.reason) {
				t.Fatalf("reason %q does not mention %q", d.reason, tc.reason)
			}
		})
	}
}

func TestWalkLogVisitError(t *testing.T) {
	log := append(logFrame([]byte("ok")), logFrame([]byte("bad-per-decoder"))...)
	d := walkLog(log, func(off int64, payload []byte) error {
		if string(payload) != "ok" {
			return fmt.Errorf("decoder rejected %q", payload)
		}
		return nil
	})
	if d == nil {
		t.Fatal("visit error not surfaced as damage")
	}
	if d.off != int64(segHeaderLen+2) {
		t.Fatalf("damage offset %d, want %d", d.off, segHeaderLen+2)
	}
	if d.torn {
		t.Fatal("decoder rejection must not read as a torn tail")
	}
}

// FuzzWalkLog walks arbitrary bytes as a log. It must never panic; it
// visits records back to back from offset 0, each one's payload under a
// header whose length and CRC match it; damage lies inside the data,
// right after the last record visited; and damage is torn only when
// the bad record runs past the end of the data.
func FuzzWalkLog(f *testing.F) {
	f.Add([]byte{})
	f.Add(append(logFrame([]byte("alpha")), logFrame([]byte("beta"))...))
	for _, tc := range walkLogDamageCases() {
		f.Add(tc.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := int64(0)
		d := walkLog(data, func(off int64, payload []byte) error {
			if off != next {
				t.Fatalf("record at %d, previous one ended at %d", off, next)
			}
			hdr := data[off : off+segHeaderLen]
			if int(binary.BigEndian.Uint32(hdr[0:4])) != len(payload) {
				t.Fatalf("record at %d: header says %d bytes, payload has %d", off, binary.BigEndian.Uint32(hdr[0:4]), len(payload))
			}
			if checksum(payload) != binary.BigEndian.Uint32(hdr[4:8]) {
				t.Fatalf("record at %d visited with a CRC that does not match", off)
			}
			next = off + segHeaderLen + int64(len(payload))
			return nil
		})
		if d == nil {
			if next != int64(len(data)) {
				t.Fatalf("no damage, but the records end at %d of %d bytes", next, len(data))
			}
			return
		}
		if d.off != next || d.off < 0 || d.off >= int64(len(data)) {
			t.Fatalf("damage at %d: last record ended at %d, data is %d bytes", d.off, next, len(data))
		}
		rest := data[d.off:]
		runsOut := len(rest) < segHeaderLen || uint64(len(rest)) < segHeaderLen+uint64(binary.BigEndian.Uint32(rest[0:4]))
		if d.torn && !runsOut {
			t.Fatalf("torn damage at %d, but the record fits in the data (%+v)", d.off, d)
		}
	})
}
