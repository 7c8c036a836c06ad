package lexer

import (
	"testing"
	"testing/quick"

	"lyra/internal/lang/token"
)

// TestLexerNeverPanics: arbitrary byte soup must tokenize (possibly with
// errors) without panicking or looping.
func TestLexerNeverPanics(t *testing.T) {
	f := func(src []byte) bool {
		toks, _ := ScanAll("fuzz", string(src))
		// EOF is excluded; token count is bounded by input length + 1.
		return len(toks) <= len(src)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLexerPositionsMonotone: token positions never go backwards.
func TestLexerPositionsMonotone(t *testing.T) {
	f := func(src []byte) bool {
		toks, _ := ScanAll("fuzz", string(src))
		prevLine, prevCol := 1, 0
		for _, tk := range toks {
			if tk.Pos.Line < prevLine {
				return false
			}
			if tk.Pos.Line == prevLine && tk.Pos.Col < prevCol {
				return false
			}
			prevLine, prevCol = tk.Pos.Line, tk.Pos.Col
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestIdentRoundTrip: every identifier-shaped string lexes to itself.
func TestIdentRoundTrip(t *testing.T) {
	f := func(n uint8) bool {
		name := "v"
		for i := 0; i < int(n%20); i++ {
			name += string(rune('a' + i%26))
		}
		toks, errs := ScanAll("t", name)
		if len(errs) != 0 || len(toks) != 1 {
			return false
		}
		return toks[0].Kind == token.IDENT && toks[0].Lit == name ||
			toks[0].Kind != token.IDENT // keywords lex as keywords
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
