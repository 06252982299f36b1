package dom

import (
	"errors"
	"fmt"
)

// ErrLimit reports that parsing stopped because the input exceeded a
// configured ParseLimits bound. Match with errors.Is; the concrete
// *LimitError says which bound tripped.
var ErrLimit = errors.New("parse limit exceeded")

// LimitError is the concrete error returned when a ParseLimits bound is
// exceeded. It matches ErrLimit under errors.Is.
type LimitError struct {
	// What names the exceeded bound: "depth", "bytes" or "tokens".
	What string
	// Limit is the configured bound that was exceeded.
	Limit int64
}

// Error implements error.
func (e *LimitError) Error() string {
	return fmt.Sprintf("dom: input exceeds %s limit (%d)", e.What, e.Limit)
}

// Is makes errors.Is(err, ErrLimit) true for any LimitError.
func (e *LimitError) Is(target error) bool { return target == ErrLimit }

// ParseLimits bounds resource use while parsing untrusted input. Each
// zero field means unlimited; the zero value imposes no limits at all.
// Exceeding a bound aborts the parse with an error matching ErrLimit.
type ParseLimits struct {
	// MaxDepth caps element nesting depth (a 10000-deep document is an
	// attack on recursive consumers, not data).
	MaxDepth int
	// MaxBytes caps how many input bytes the parser will consume.
	MaxBytes int64
	// MaxTokens caps the number of XML tokens (elements, text runs,
	// comments, ...) — a bound on node count independent of byte size.
	MaxTokens int64
}
