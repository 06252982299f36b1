package store

import (
	"errors"
	"fmt"
)

// Sentinel errors callers (notably the HTTP server) can test with
// errors.Is to distinguish "not found" from internal failures.
var (
	// ErrUnknownDocument reports that no document with the given
	// identifier is stored.
	ErrUnknownDocument = errors.New("unknown document")
	// ErrNoSuchVersion reports a version or delta index outside the
	// stored range.
	ErrNoSuchVersion = errors.New("no such version")
	// ErrCorrupt reports that on-disk store data (a snapshot file or a
	// journal segment) failed validation. Match with errors.Is; the
	// concrete *CorruptError names the file and offset.
	ErrCorrupt = errors.New("corrupt store data")
)

// CorruptError describes exactly where persisted data failed
// validation, so an operator can inspect or excise the damage instead
// of guessing. It matches ErrCorrupt under errors.Is.
type CorruptError struct {
	// File is the path of the damaged snapshot or journal file.
	File string
	// Offset is the byte offset of the damage within File, or -1 when
	// the failure concerns the file as a whole (unparseable snapshot,
	// bad version counter).
	Offset int64
	// Reason says what check failed.
	Reason string
	// Err is the underlying error, if any.
	Err error
}

// Error implements error.
func (e *CorruptError) Error() string {
	msg := fmt.Sprintf("store: corrupt data in %s", e.File)
	if e.Offset >= 0 {
		msg += fmt.Sprintf(" at offset %d", e.Offset)
	}
	if e.Reason != "" {
		msg += ": " + e.Reason
	}
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Is makes errors.Is(err, ErrCorrupt) true for any CorruptError.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// Unwrap exposes the underlying error to errors.Is/As chains.
func (e *CorruptError) Unwrap() error { return e.Err }
