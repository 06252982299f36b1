// Package domio is the filesystem shell around the dom core: the
// helpers that open and create files so internal/dom itself never
// imports os. The split is what makes the diff core wasm-clean — dom
// parses io.Readers and serializes to io.Writers, and everything that
// names a path lives here or in the commands. The depbound analyzer
// enforces the boundary (its diff-core scope matches internal/dom
// exactly, not this subpackage, which is the sanctioned home for the
// core's I/O).
package domio

import (
	"fmt"
	"os"

	"xydiff/internal/dom"
)

// ParseFile parses the XML document stored at path with
// dom.DefaultParseOptions.
func ParseFile(path string) (*dom.Node, error) {
	return parseFileWithOptions(path, dom.DefaultParseOptions())
}

// parseFileWithOptions parses the XML document stored at path.
func parseFileWithOptions(path string, opts dom.ParseOptions) (*dom.Node, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	doc, err := dom.ParseWithOptions(f, opts)
	if err != nil {
		return nil, fmt.Errorf("dom: parse %s: %w", path, err)
	}
	return doc, nil
}

// WriteFile serializes the document to path.
func WriteFile(path string, n *dom.Node) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := n.WriteTo(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}
