// Package p4check implements a parser and semantic validator for the
// P4_14 subset that Lyra's back-end emits. It stands in for the front half
// of a vendor P4 compiler: generated artifacts are parsed back from text
// and every reference (header fields, actions, tables, registers, parser
// states) is resolved, so "the synthesized code compiles" (§7.1) is checked
// against the actual program text rather than trusted.
package p4check

import "fmt"

type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tNumber
	tLBrace
	tRBrace
	tLParen
	tRParen
	tSemi
	tColon
	tComma
	tDot
)

type tok struct {
	kind tokKind
	text string
	line int
	pos  int // offset of text in the source
}

func (t tok) String() string {
	switch t.kind {
	case tEOF:
		return "EOF"
	case tIdent, tNumber:
		return t.text
	}
	return t.text
}

// lexer tokenizes P4_14 source one token at a time, skipping comments.
type lexer struct {
	src  string
	i    int
	line int
	err  error // the first lexical error; the token stream ends there
}

// next returns the next token: tEOF at the end of the source and after a
// lexical error.
func (lx *lexer) next() tok {
	src, n := lx.src, len(lx.src)
	for lx.i < n && lx.err == nil {
		c := src[lx.i]
		switch {
		case c == '\n':
			lx.line++
			lx.i++
		case c == ' ' || c == '\t' || c == '\r':
			lx.i++
		case c == '/' && lx.i+1 < n && src[lx.i+1] == '/':
			for lx.i < n && src[lx.i] != '\n' {
				lx.i++
			}
		case c == '/' && lx.i+1 < n && src[lx.i+1] == '*':
			lx.i += 2
			for lx.i+1 < n && !(src[lx.i] == '*' && src[lx.i+1] == '/') {
				if src[lx.i] == '\n' {
					lx.line++
				}
				lx.i++
			}
			if lx.i+1 >= n {
				lx.err = fmt.Errorf("line %d: unterminated comment", lx.line)
				continue
			}
			lx.i += 2
		case isIdentStart(c):
			start := lx.i
			for lx.i < n && isIdentPart(src[lx.i]) {
				lx.i++
			}
			return tok{tIdent, src[start:lx.i], lx.line, start}
		case c >= '0' && c <= '9':
			start := lx.i
			for lx.i < n && isIdentPart(src[lx.i]) { // hex digits, 0x prefix
				lx.i++
			}
			return tok{tNumber, src[start:lx.i], lx.line, start}
		default:
			// Operators inside control if-conditions (==, !=, <, &&) and
			// action arguments are tokenized as opaque punctuation.
			k := tIdent
			switch c {
			case '{':
				k = tLBrace
			case '}':
				k = tRBrace
			case '(':
				k = tLParen
			case ')':
				k = tRParen
			case ';':
				k = tSemi
			case ':':
				k = tColon
			case ',':
				k = tComma
			case '.':
				k = tDot
			}
			lx.i++
			return tok{k, src[lx.i-1 : lx.i], lx.line, lx.i - 1}
		}
	}
	return tok{kind: tEOF, line: lx.line, pos: lx.i}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9') || c == 'x' || c == 'X'
}
