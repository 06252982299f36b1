// Package faultfstest wraps a faultfs.FS with deterministic
// fault injection for crash-recovery tests: short writes, fsync
// failures, write errors after N matching operations, and crash points
// after which every operation fails — the moral equivalent of the
// process dying mid-syscall, so tests can reopen the directory and
// assert what recovery reconstructs. It also corrupts bytes already at
// rest (corrupt.go) for the scrubber's bit-rot harness.
package faultfstest

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"xydiff/internal/faultfs"
)

// Op names a filesystem operation class for matching and counting.
type Op string

// Operation classes the wrapper distinguishes.
const (
	OpOpen     Op = "open" // OpenFile and CreateTemp
	OpWrite    Op = "write"
	OpSync     Op = "sync"
	OpClose    Op = "close"
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
	OpTruncate Op = "truncate"
	OpRead     Op = "read" // whole-file ReadFile
)

// Injection errors. A crashed filesystem fails everything with
// ErrCrashed; a fault without an explicit Err fails with ErrInjected.
var (
	ErrInjected = errors.New("faultfs: injected fault")
	ErrCrashed  = errors.New("faultfs: filesystem crashed")
)

// Fault is one injection rule. It fires on the Countdown-th operation
// (1-based) matching Op, counting across the whole filesystem.
type Fault struct {
	// Op selects which operation class the rule watches.
	Op Op
	// Countdown is how many matching operations complete normally
	// before the fault fires; 1 fires on the first match.
	Countdown int
	// ShortBytes, for write faults, is how many leading bytes of the
	// buffer still reach the underlying filesystem before the error —
	// a torn write. Zero persists nothing.
	ShortBytes int
	// Err is the error returned to the caller (ErrInjected if nil).
	Err error
	// Crash, when set, flips the filesystem into the crashed state as
	// the fault fires: every subsequent operation fails with
	// ErrCrashed, like a process that died mid-run.
	Crash bool
}

// Faulty wraps a faultfs.FS with deterministic fault injection and per-op
// counters. The zero value is not usable; use Wrap.
type Faulty struct {
	base faultfs.FS

	mu      sync.Mutex
	faults  []*Fault
	counts  map[Op]int
	crashed bool
}

// Wrap returns a fault-injecting filesystem over base with the given
// rules. With no rules it is a pure pass-through that counts
// operations, which lets a test measure a workload's op counts before
// replaying it with a crash at each point.
func Wrap(base faultfs.FS, faults ...*Fault) *Faulty {
	return &Faulty{base: base, faults: faults, counts: make(map[Op]int)}
}

// Count returns how many operations of class op have been attempted.
func (f *Faulty) Count(op Op) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[op]
}

// Crashed reports whether a crash fault has fired.
func (f *Faulty) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// step counts one operation and decides its fate: it returns the fault
// that fires on this operation (nil for none) and whether the
// filesystem is already crashed.
func (f *Faulty) step(op Op) (*Fault, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	f.counts[op]++
	for _, rule := range f.faults {
		if rule.Op != op || rule.Countdown <= 0 {
			continue
		}
		rule.Countdown--
		if rule.Countdown == 0 {
			if rule.Crash {
				f.crashed = true
			}
			return rule, nil
		}
	}
	return nil, nil
}

func (rule *Fault) err() error {
	if rule.Err != nil {
		return rule.Err
	}
	if rule.Crash {
		return ErrCrashed
	}
	return ErrInjected
}

// OpenFile implements faultfs.FS.
func (f *Faulty) OpenFile(path string, flag int, perm os.FileMode) (faultfs.File, error) {
	rule, err := f.step(OpOpen)
	if err != nil {
		return nil, err
	}
	if rule != nil {
		return nil, rule.err()
	}
	file, err := f.base.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultyFile{fs: f, f: file}, nil
}

// CreateTemp implements faultfs.FS.
func (f *Faulty) CreateTemp(dir, pattern string) (faultfs.File, error) {
	rule, err := f.step(OpOpen)
	if err != nil {
		return nil, err
	}
	if rule != nil {
		return nil, rule.err()
	}
	file, err := f.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultyFile{fs: f, f: file}, nil
}

// ReadFile implements faultfs.FS. Read faults (OpRead) model a disk whose
// sectors fail on access — the scrubber must classify such a file as
// damaged without ever seeing its bytes. Recovery reads through a
// fresh OS, so write-path crash tests are unaffected by the counting.
func (f *Faulty) ReadFile(path string) ([]byte, error) {
	rule, err := f.step(OpRead)
	if err != nil {
		return nil, err
	}
	if rule != nil {
		return nil, rule.err()
	}
	return f.base.ReadFile(path)
}

// ReadDir implements faultfs.FS.
func (f *Faulty) ReadDir(path string) ([]os.DirEntry, error) {
	if f.Crashed() {
		return nil, ErrCrashed
	}
	return f.base.ReadDir(path)
}

// Stat implements faultfs.FS.
func (f *Faulty) Stat(path string) (os.FileInfo, error) {
	if f.Crashed() {
		return nil, ErrCrashed
	}
	return f.base.Stat(path)
}

// MkdirAll implements faultfs.FS.
func (f *Faulty) MkdirAll(path string, perm os.FileMode) error {
	if f.Crashed() {
		return ErrCrashed
	}
	return f.base.MkdirAll(path, perm)
}

// Rename implements faultfs.FS.
func (f *Faulty) Rename(oldPath, newPath string) error {
	rule, err := f.step(OpRename)
	if err != nil {
		return err
	}
	if rule != nil {
		return rule.err()
	}
	return f.base.Rename(oldPath, newPath)
}

// Remove implements faultfs.FS.
func (f *Faulty) Remove(path string) error {
	rule, err := f.step(OpRemove)
	if err != nil {
		return err
	}
	if rule != nil {
		return rule.err()
	}
	return f.base.Remove(path)
}

// Truncate implements faultfs.FS.
func (f *Faulty) Truncate(path string, size int64) error {
	rule, err := f.step(OpTruncate)
	if err != nil {
		return err
	}
	if rule != nil {
		return rule.err()
	}
	return f.base.Truncate(path, size)
}

// faultyFile routes file writes and syncs back through the wrapper's
// rules. A write fault may persist a prefix of the buffer (ShortBytes)
// before failing — the torn write recovery must cope with.
type faultyFile struct {
	fs *Faulty
	f  faultfs.File
}

func (ff *faultyFile) Name() string { return ff.f.Name() }

func (ff *faultyFile) Write(b []byte) (int, error) {
	rule, err := ff.fs.step(OpWrite)
	if err != nil {
		return 0, err
	}
	if rule != nil {
		n := 0
		if rule.ShortBytes > 0 {
			short := rule.ShortBytes
			if short > len(b) {
				short = len(b)
			}
			n, _ = ff.f.Write(b[:short])
		}
		return n, rule.err()
	}
	return ff.f.Write(b)
}

func (ff *faultyFile) Sync() error {
	rule, err := ff.fs.step(OpSync)
	if err != nil {
		return err
	}
	if rule != nil {
		return rule.err()
	}
	return ff.f.Sync()
}

func (ff *faultyFile) Close() error {
	rule, err := ff.fs.step(OpClose)
	if err != nil {
		// Even a crashed filesystem lets the handle go; the underlying
		// file must not leak in long test runs. The injected error is
		// the one the test wants to see.
		_ = ff.f.Close()
		return err
	}
	if rule != nil {
		_ = ff.f.Close()
		return rule.err()
	}
	return ff.f.Close()
}

var _ faultfs.FS = (*Faulty)(nil)

// String renders the rule for test failure messages.
func (rule *Fault) String() string {
	return fmt.Sprintf("fault{%s #%d short=%d crash=%v}", rule.Op, rule.Countdown, rule.ShortBytes, rule.Crash)
}
