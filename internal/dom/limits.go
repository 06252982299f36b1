package dom

import (
	"errors"
	"fmt"
)

// errLimit reports that parsing stopped because the input exceeded a
// configured ParseLimits bound. Match with errors.Is; the concrete
// *LimitError says which bound tripped.
var errLimit = errors.New("parse limit exceeded")

// LimitError is the concrete error returned when a ParseLimits bound is
// exceeded. It matches errLimit under errors.Is.
type LimitError struct {
	// What names the exceeded bound: "depth", "bytes" or "tokens".
	What string
	// limit is the configured bound that was exceeded.
	limit int64
}

// Error implements error.
func (e *LimitError) Error() string {
	return fmt.Sprintf("dom: input exceeds %s limit (%d)", e.What, e.limit)
}

// Is makes errors.Is(err, errLimit) true for any LimitError.
func (e *LimitError) Is(target error) bool { return target == errLimit }

// ParseLimits bounds resource use while parsing untrusted input. Each
// zero field means unlimited; the zero value imposes no limits at all.
// Exceeding a bound aborts the parse with an error matching errLimit.
type ParseLimits struct {
	// MaxDepth caps element nesting depth (a 10000-deep document is an
	// attack on recursive consumers, not data).
	MaxDepth int
	// maxBytes caps how many input bytes the parser will consume.
	maxBytes int64
	// MaxTokens caps the number of XML tokens (elements, text runs,
	// comments, ...) — a bound on node count independent of byte size.
	MaxTokens int64
}
