// Package text implements the keyword pipeline the paper's engine depends
// on: tokenization, stopword filtering and word stemming ("over 5 million
// keywords after stopping word filtering and word stemming", §II), plus the
// inverted keyword → node index that seeds each BFS instance with its source
// set T_i.
package text

import (
	"strings"
	"unicode"
)

// Tokenize lower-cases s and splits it into maximal runs of letters and
// digits. Everything else (punctuation, CJK-less symbol noise, whitespace)
// is a separator.
func Tokenize(s string) []string {
	return appendTokens(nil, s)
}

// appendTokens appends s's tokens (see Tokenize) to out, so a caller
// tokenizing many strings reuses one slice.
func appendTokens(out []string, s string) []string {
	start := -1
	lower := strings.ToLower(s)
	for i, r := range lower {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			out = append(out, lower[start:i])
			start = -1
		}
	}
	if start >= 0 {
		out = append(out, lower[start:])
	}
	return out
}

// Normalize runs the full pipeline on raw text: tokenize, drop stopwords,
// stem. The result is the keyword-term sequence used for both indexing and
// querying, so the two always agree.
func Normalize(s string) []string {
	toks := Tokenize(s)
	out := toks[:0]
	for _, t := range toks {
		if IsStopword(t) {
			continue
		}
		t = Stem(t)
		if t == "" {
			continue
		}
		out = append(out, t)
	}
	return out
}
