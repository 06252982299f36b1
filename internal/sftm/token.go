package sftm

import (
	"slices"
	"unicode"
	"unicode/utf8"

	"xydiff/internal/dom"
)

// Tokens are FNV-1a hashes of namespaced strings ("t:" tag, "a:"
// attribute name, "v:" attribute name=value, "c:" class token, "w:"
// text word, "s:" word bigram shingle, "k:" word of a direct text
// child, "d:" tag of an element child). A collision merely nudges one
// similarity score, which a heuristic matcher tolerates by
// construction. The hashes live only as long as one node's scratch
// slice: the matcher interns them into dense ids (matcher.tokenize).

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashSeed returns the FNV-1a hash of the namespace prefix, ready to
// be extended with hashString.
func hashSeed(ns string) uint64 {
	return hashString(fnvOffset, ns)
}

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func hashByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime
	return h
}

var (
	seedTag   = hashSeed("t:")
	seedAttr  = hashSeed("a:")
	seedValue = hashSeed("v:")
	seedClass = hashSeed("c:")
	seedWord  = hashSeed("w:")
	seedPair  = hashByte(hashSeed("s:"), 0)
	seedKid   = hashSeed("k:")
	seedChild = hashSeed("d:")
)

// tokenizeNode appends the node's tokens to dst and returns the
// extended slice, sorted and deduplicated (set semantics: repeating a
// word in a text node must not double its weight).
func tokenizeNode(n *dom.Node, dst []uint64) []uint64 {
	switch n.Type {
	case dom.Element:
		dst = append(dst, hashString(seedTag, n.Name))
		for _, a := range n.Attrs {
			dst = append(dst, hashString(seedAttr, a.Name))
			if a.Name == "class" || a.Name == "rel" {
				// Multi-valued attributes: one token per entry so a
				// single added class keeps the rest of the overlap.
				dst = appendWords(dst, seedClass, a.Value, false)
			} else {
				h := hashString(seedValue, a.Name)
				h = hashByte(h, '=')
				dst = append(dst, hashString(h, a.Value))
			}
		}
		// Direct text children lend their words, and element children
		// their tags, each under a separate namespace. Repeated id-less
		// elements (li, p, a) are otherwise token-identical, and a true
		// partner missing from the top-k candidate list at selection
		// time is unrecoverable; the child-tag outline also separates a
		// freshly inserted wrapper div (one div child) from the section
		// div it wraps (heading, paragraphs, list).
		for _, ch := range n.Children {
			switch ch.Type {
			case dom.Text:
				dst = appendWords(dst, seedKid, ch.Value, false)
			case dom.Element:
				dst = append(dst, hashString(seedChild, ch.Name))
			}
		}
	case dom.Text, dom.Comment:
		dst = appendWords(dst, seedWord, n.Value, true)
	case dom.ProcInst:
		dst = append(dst, hashString(seedTag, n.Name))
		dst = appendWords(dst, seedWord, n.Value, false)
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}

// appendWords splits s on spaces/punctuation and appends one token per
// word (lower-cased, so "Price" and "price" overlap across re-renders).
// With shingles, consecutive-word bigrams are added too: they preserve
// enough ordering signal to tell two short text nodes apart when their
// vocabularies overlap.
//
// A rune contributes the low two bytes of its lower-case form to the
// word's hash. ASCII bytes are classified inline; only bytes ≥ 0x80
// are decoded and go through package unicode.
func appendWords(dst []uint64, seed uint64, s string, shingles bool) []uint64 {
	var prev uint64
	hasPrev := false
	h, inWord := seed, false
	// One position past the end is scanned too, as a separator that
	// closes a word running to the end of s.
	for i := 0; i <= len(s); {
		lower, size := rune(-1), 1 // -1: not a word rune
		if i < len(s) {
			switch c := s[i]; {
			case 'a' <= c && c <= 'z', '0' <= c && c <= '9':
				lower = rune(c)
			case 'A' <= c && c <= 'Z':
				lower = rune(c) + 'a' - 'A'
			case c >= utf8.RuneSelf:
				lower, size = lowerWordRune(s[i:])
			}
		}
		i += size
		if lower >= 0 {
			h = hashByte(hashByte(h, byte(lower)), byte(lower>>8))
			inWord = true
			continue
		}
		if !inWord {
			continue
		}
		dst = append(dst, h)
		if shingles {
			if hasPrev {
				p := seedPair
				p ^= prev
				p *= fnvPrime
				p ^= h
				p *= fnvPrime
				dst = append(dst, p)
			}
			prev, hasPrev = h, true
		}
		h, inWord = seed, false
	}
	return dst
}

// lowerWordRune decodes the first rune of s and returns its lower-case
// form if it is a letter or digit, -1 otherwise (an invalid byte
// decodes as U+FFFD, width 1, which is neither).
func lowerWordRune(s string) (lower rune, size int) {
	r, size := utf8.DecodeRuneInString(s)
	if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
		return -1, size
	}
	return unicode.ToLower(r), size
}
