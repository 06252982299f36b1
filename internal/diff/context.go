package diff

import (
	"context"
	"errors"

	"xydiff/internal/dom"
)

// errCanceled is the sentinel the phases return when Options.done
// fires; DiffDetailedContext translates it into the context's own error.
var errCanceled = errors.New("diff: canceled")

// DiffDetailedContext is DiffDetailed honouring context cancellation:
// a long diff aborts between phases — and inside the Phase 3 matching
// loop, where large documents spend most of their time — as soon as ctx
// is done. The returned error is ctx.Err() in that case. Both documents
// may have received partial XID annotations by then and should be
// discarded by the caller.
func DiffDetailedContext(ctx context.Context, oldDoc, newDoc *dom.Node, opts Options) (*Result, error) {
	opts.done = ctx.Done()
	r, err := DiffDetailed(oldDoc, newDoc, opts)
	if err != nil {
		if errors.Is(err, errCanceled) && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	return r, nil
}

// canceled reports whether the options' done channel has fired.
func (o Options) canceled() bool {
	if o.done == nil {
		return false
	}
	select {
	case <-o.done:
		return true
	default:
		return false
	}
}
