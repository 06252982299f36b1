package faultfs_test

// The injector's tests stay beside the seam it wraps: they drive
// faultfstest over faultfs.OS, the production filesystem.

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"xydiff/internal/faultfs"
	"xydiff/internal/faultfs/faultfstest"
)

func TestPassThroughCounts(t *testing.T) {
	dir := t.TempDir()
	fs := faultfstest.Wrap(faultfs.OS{})
	f, err := fs.OpenFile(filepath.Join(dir, "a"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := fs.ReadFile(filepath.Join(dir, "a")); string(got) != "hello" {
		t.Errorf("content %q", got)
	}
	for op, want := range map[faultfstest.Op]int{faultfstest.OpOpen: 1, faultfstest.OpWrite: 1, faultfstest.OpSync: 1, faultfstest.OpClose: 1} {
		if fs.Count(op) != want {
			t.Errorf("count(%s) = %d, want %d", op, fs.Count(op), want)
		}
	}
}

func TestShortWriteThenError(t *testing.T) {
	dir := t.TempDir()
	fs := faultfstest.Wrap(faultfs.OS{}, &faultfstest.Fault{Op: faultfstest.OpWrite, Countdown: 2, ShortBytes: 3})
	f, _ := fs.OpenFile(filepath.Join(dir, "a"), os.O_CREATE|os.O_WRONLY, 0o644)
	if _, err := f.Write([]byte("first")); err != nil {
		t.Fatalf("first write: %v", err)
	}
	n, err := f.Write([]byte("second"))
	if !errors.Is(err, faultfstest.ErrInjected) {
		t.Fatalf("second write err = %v", err)
	}
	if n != 3 {
		t.Fatalf("short write persisted %d bytes, want 3", n)
	}
	f.Close()
	got, _ := os.ReadFile(filepath.Join(dir, "a"))
	if string(got) != "firstsec" {
		t.Errorf("on disk %q, want %q", got, "firstsec")
	}
}

func TestSyncFault(t *testing.T) {
	dir := t.TempDir()
	want := errors.New("disk on fire")
	fs := faultfstest.Wrap(faultfs.OS{}, &faultfstest.Fault{Op: faultfstest.OpSync, Countdown: 1, Err: want})
	f, _ := fs.OpenFile(filepath.Join(dir, "a"), os.O_CREATE|os.O_WRONLY, 0o644)
	defer f.Close()
	if err := f.Sync(); !errors.Is(err, want) {
		t.Fatalf("sync err = %v", err)
	}
}

func TestCrashStopsEverything(t *testing.T) {
	dir := t.TempDir()
	fs := faultfstest.Wrap(faultfs.OS{}, &faultfstest.Fault{Op: faultfstest.OpWrite, Countdown: 1, ShortBytes: 2, Crash: true})
	f, _ := fs.OpenFile(filepath.Join(dir, "a"), os.O_CREATE|os.O_WRONLY, 0o644)
	if _, err := f.Write([]byte("abcdef")); !errors.Is(err, faultfstest.ErrCrashed) {
		t.Fatalf("crashing write err = %v", err)
	}
	if !fs.Crashed() {
		t.Fatal("not crashed")
	}
	// All later operations fail, on any file or path.
	if _, err := f.Write([]byte("x")); !errors.Is(err, faultfstest.ErrCrashed) {
		t.Errorf("post-crash write err = %v", err)
	}
	if err := f.Sync(); !errors.Is(err, faultfstest.ErrCrashed) {
		t.Errorf("post-crash sync err = %v", err)
	}
	if _, err := fs.OpenFile(filepath.Join(dir, "b"), os.O_CREATE|os.O_WRONLY, 0o644); !errors.Is(err, faultfstest.ErrCrashed) {
		t.Errorf("post-crash open err = %v", err)
	}
	if err := fs.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "c")); !errors.Is(err, faultfstest.ErrCrashed) {
		t.Errorf("post-crash rename err = %v", err)
	}
	// Only the pre-crash prefix made it to disk.
	f.Close()
	got, _ := os.ReadFile(filepath.Join(dir, "a"))
	if string(got) != "ab" {
		t.Errorf("on disk %q, want %q", got, "ab")
	}
}

func TestRenameFault(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "a"), []byte("x"), 0o644)
	fs := faultfstest.Wrap(faultfs.OS{}, &faultfstest.Fault{Op: faultfstest.OpRename, Countdown: 1, Crash: true})
	err := fs.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "b"))
	if !errors.Is(err, faultfstest.ErrCrashed) {
		t.Fatalf("rename err = %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "a")); err != nil {
		t.Error("source vanished despite faulted rename")
	}
}

func TestReadFault(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a")
	os.WriteFile(path, []byte("healthy"), 0o644)
	fs := faultfstest.Wrap(faultfs.OS{}, &faultfstest.Fault{Op: faultfstest.OpRead, Countdown: 2})
	if got, err := fs.ReadFile(path); err != nil || string(got) != "healthy" {
		t.Fatalf("first read = %q, %v", got, err)
	}
	if _, err := fs.ReadFile(path); !errors.Is(err, faultfstest.ErrInjected) {
		t.Fatalf("second read err = %v, want injected fault", err)
	}
	if got, err := fs.ReadFile(path); err != nil || string(got) != "healthy" {
		t.Fatalf("third read = %q, %v — fault must fire exactly once", got, err)
	}
	if fs.Count(faultfstest.OpRead) != 3 {
		t.Fatalf("count(read) = %d, want 3", fs.Count(faultfstest.OpRead))
	}
}

func TestFlipBit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a")
	os.WriteFile(path, []byte{0x00, 0xff, 0x0f}, 0o644)
	if err := faultfstest.FlipBit(faultfs.OS{}, path, 1, 3); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if want := []byte{0x00, 0xf7, 0x0f}; string(got) != string(want) {
		t.Fatalf("after flip: %x, want %x", got, want)
	}
	// Negative offset counts from the end; flipping twice restores.
	if err := faultfstest.FlipBit(faultfs.OS{}, path, -1, 0); err != nil {
		t.Fatal(err)
	}
	if err := faultfstest.FlipBit(faultfs.OS{}, path, -1, 0); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if want := []byte{0x00, 0xf7, 0x0f}; string(got) != string(want) {
		t.Fatalf("double flip not identity: %x, want %x", got, want)
	}
	if err := faultfstest.FlipBit(faultfs.OS{}, path, 99, 0); err == nil {
		t.Fatal("offset beyond EOF must fail")
	}
	if err := faultfstest.FlipBit(faultfs.OS{}, path, 0, 8); err == nil {
		t.Fatal("bit index 8 must fail")
	}
}

func TestZeroRangeAndTruncateTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a")
	os.WriteFile(path, []byte("abcdefgh"), 0o644)
	if err := faultfstest.ZeroRange(faultfs.OS{}, path, 2, 3); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if want := "ab\x00\x00\x00fgh"; string(got) != want {
		t.Fatalf("after zero: %q, want %q", got, want)
	}
	if err := faultfstest.ZeroRange(faultfs.OS{}, path, 6, 5); err == nil {
		t.Fatal("range beyond EOF must fail")
	}
	if err := faultfstest.TruncateTail(faultfs.OS{}, path, 3); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if want := "ab\x00\x00\x00"; string(got) != want {
		t.Fatalf("after truncate: %q, want %q", got, want)
	}
	// Cutting more than the file holds leaves an empty file, not an error.
	if err := faultfstest.TruncateTail(faultfs.OS{}, path, 100); err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(path); fi.Size() != 0 {
		t.Fatalf("size %d after over-truncate", fi.Size())
	}
}
