package dom

import (
	"errors"
	"strings"
	"testing"
)

func parseLimited(t *testing.T, input string, limits ParseLimits) error {
	t.Helper()
	opts := DefaultParseOptions()
	opts.Limits = limits
	_, err := ParseWithOptions(strings.NewReader(input), opts)
	return err
}

func TestLimitDepth(t *testing.T) {
	deep := strings.Repeat("<a>", 50) + "x" + strings.Repeat("</a>", 50)
	if err := parseLimited(t, deep, ParseLimits{MaxDepth: 100}); err != nil {
		t.Fatalf("depth 50 under limit 100: %v", err)
	}
	err := parseLimited(t, deep, ParseLimits{MaxDepth: 10})
	var le *LimitError
	if !errors.As(err, &le) || le.What != "depth" || le.limit != 10 {
		t.Fatalf("depth 50 over limit 10: got %v, want the LimitError for that bound", err)
	}
}

func TestLimitBytes(t *testing.T) {
	doc := "<r>" + strings.Repeat("<p>hello</p>", 100) + "</r>"
	if err := parseLimited(t, doc, ParseLimits{maxBytes: int64(len(doc))}); err != nil {
		t.Fatalf("exact byte limit: %v", err)
	}
	err := parseLimited(t, doc, ParseLimits{maxBytes: 64})
	var le *LimitError
	if !errors.As(err, &le) || le.What != "bytes" {
		t.Fatalf("byte limit 64: got %v, want the LimitError for that bound", err)
	}
}

func TestLimitTokens(t *testing.T) {
	doc := "<r>" + strings.Repeat("<p>hello</p>", 100) + "</r>"
	if err := parseLimited(t, doc, ParseLimits{MaxTokens: 10_000}); err != nil {
		t.Fatalf("generous token limit: %v", err)
	}
	err := parseLimited(t, doc, ParseLimits{MaxTokens: 20})
	var le *LimitError
	if !errors.As(err, &le) || le.What != "tokens" || le.limit != 20 {
		t.Fatalf("token limit 20: got %v, want the LimitError for that bound", err)
	}
}

func TestZeroLimitsUnbounded(t *testing.T) {
	deep := strings.Repeat("<a>", 500) + strings.Repeat("</a>", 500)
	if err := parseLimited(t, deep, ParseLimits{}); err != nil {
		t.Fatalf("zero limits should not bound parsing: %v", err)
	}
}
