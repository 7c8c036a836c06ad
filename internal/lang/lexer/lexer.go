// Package lexer implements the scanner for the Lyra language.
package lexer

import (
	"fmt"

	"lyra/internal/lang/token"
)

// Lexer scans Lyra source text into tokens. It reads the source as a string,
// so every literal it returns is a substring of it, not a copy.
type Lexer struct {
	src       string
	file      string
	pos       int // current byte offset
	line      int
	col       int
	lineStart bool // at start of line (only whitespace seen)
	errs      []error
}

// New returns a lexer over src. The file name is used in positions.
func New(file string, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1, col: 1, lineStart: true}
}

// Errors returns the scan errors encountered so far.
func (lx *Lexer) Errors() []error { return lx.errs }

func (lx *Lexer) errorf(pos token.Position, format string, args ...any) {
	lx.errs = append(lx.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (lx *Lexer) peek() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *Lexer) peekAt(off int) byte {
	if lx.pos+off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+off]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
		lx.lineStart = true
	} else {
		lx.col++
		if !isSpace(c) {
			lx.lineStart = false
		}
	}
	return c
}

func (lx *Lexer) here() token.Position {
	return token.Position{File: lx.file, Line: lx.line, Col: lx.col}
}

func isSpace(c byte) bool  { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }
func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isHex(c byte) bool    { return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') }
func isLetter(c byte) bool { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }

// Next returns the next token, skipping whitespace and comments.
func (lx *Lexer) Next() token.Token {
	for {
		// Skip whitespace.
		for lx.pos < len(lx.src) && isSpace(lx.peek()) {
			lx.advance()
		}
		if lx.pos >= len(lx.src) {
			return token.Token{Kind: token.EOF, Pos: lx.here()}
		}
		pos := lx.here()
		c := lx.peek()

		// Comments.
		if c == '/' && lx.peekAt(1) == '/' {
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
			continue
		}
		if c == '/' && lx.peekAt(1) == '*' {
			lx.advance()
			lx.advance()
			closed := false
			for lx.pos < len(lx.src) {
				if lx.peek() == '*' && lx.peekAt(1) == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				lx.errorf(pos, "unterminated block comment")
			}
			continue
		}

		// Section markers: a '>' at the start of a line followed by an
		// upper-case word and ':' (e.g. ">HEADER:"). These organize Lyra
		// sources (Figure 4) but carry no semantics.
		if c == '>' && lx.lineStart && lx.peekAt(1) >= 'A' && lx.peekAt(1) <= 'Z' {
			start := lx.pos
			lx.advance() // >
			for lx.pos < len(lx.src) && (isLetter(lx.peek()) || isDigit(lx.peek())) {
				lx.advance()
			}
			if lx.peek() == ':' {
				lx.advance()
				return token.Token{Kind: token.SectionMarker, Lit: lx.src[start:lx.pos], Pos: pos}
			}
			// Not a marker after all: rewind is impossible, but '>' followed
			// by a word without ':' is not valid Lyra anyway.
			lx.errorf(pos, "malformed section marker %q", lx.src[start:lx.pos])
			return token.Token{Kind: token.ILLEGAL, Lit: lx.src[start:lx.pos], Pos: pos}
		}

		// Identifiers and keywords.
		if isLetter(c) {
			start := lx.pos
			for lx.pos < len(lx.src) && (isLetter(lx.peek()) || isDigit(lx.peek())) {
				lx.advance()
			}
			lit := lx.src[start:lx.pos]
			if k, ok := token.Keywords[lit]; ok {
				return token.Token{Kind: k, Lit: lit, Pos: pos}
			}
			return token.Token{Kind: token.IDENT, Lit: lit, Pos: pos}
		}

		// Numbers.
		if isDigit(c) {
			start := lx.pos
			lx.advance()
			if c == '0' && (lx.peek() == 'x' || lx.peek() == 'X') {
				lx.advance()
				if !isHex(lx.peek()) {
					lx.errorf(pos, "malformed hex literal")
				}
				for lx.pos < len(lx.src) && isHex(lx.peek()) {
					lx.advance()
				}
			} else {
				for lx.pos < len(lx.src) && isDigit(lx.peek()) {
					lx.advance()
				}
			}
			return token.Token{Kind: token.INT, Lit: lx.src[start:lx.pos], Pos: pos}
		}

		lx.advance()
		two := func(next byte, k2 token.Kind, k1 token.Kind) token.Token {
			if lx.peek() == next {
				lx.advance()
				return token.Token{Kind: k2, Pos: pos}
			}
			return token.Token{Kind: k1, Pos: pos}
		}
		switch c {
		case '{':
			return token.Token{Kind: token.LBrace, Pos: pos}
		case '}':
			return token.Token{Kind: token.RBrace, Pos: pos}
		case '(':
			return token.Token{Kind: token.LParen, Pos: pos}
		case ')':
			return token.Token{Kind: token.RParen, Pos: pos}
		case '[':
			return token.Token{Kind: token.LBracket, Pos: pos}
		case ']':
			return token.Token{Kind: token.RBracket, Pos: pos}
		case ';':
			return token.Token{Kind: token.Semicolon, Pos: pos}
		case ',':
			return token.Token{Kind: token.Comma, Pos: pos}
		case ':':
			return token.Token{Kind: token.Colon, Pos: pos}
		case '.':
			return token.Token{Kind: token.Dot, Pos: pos}
		case '?':
			return token.Token{Kind: token.Question, Pos: pos}
		case '=':
			return two('=', token.Eq, token.Assign)
		case '!':
			return two('=', token.NotEq, token.Not)
		case '<':
			if lx.peek() == '<' {
				lx.advance()
				return token.Token{Kind: token.Shl, Pos: pos}
			}
			return two('=', token.LtEq, token.Lt)
		case '>':
			if lx.peek() == '>' {
				lx.advance()
				return token.Token{Kind: token.Shr, Pos: pos}
			}
			return two('=', token.GtEq, token.Gt)
		case '&':
			return two('&', token.AndAnd, token.Amp)
		case '|':
			return two('|', token.OrOr, token.Pipe)
		case '^':
			return token.Token{Kind: token.Caret, Pos: pos}
		case '+':
			return token.Token{Kind: token.Plus, Pos: pos}
		case '-':
			return two('>', token.Arrow, token.Minus)
		case '*':
			return token.Token{Kind: token.Star, Pos: pos}
		case '/':
			return token.Token{Kind: token.Slash, Pos: pos}
		case '%':
			return token.Token{Kind: token.Percent, Pos: pos}
		}
		lx.errorf(pos, "illegal character %q", c)
		return token.Token{Kind: token.ILLEGAL, Lit: string(c), Pos: pos}
	}
}

// ScanAll tokenizes the whole input (excluding EOF).
func ScanAll(file string, src string) ([]token.Token, []error) {
	lx := New(file, src)
	// Lyra source runs at four to five and a half bytes per token; sized for
	// the dense end, the slice does not regrow on ordinary programs.
	out := make([]token.Token, 0, len(src)/4+16)
	for {
		t := lx.Next()
		if t.Kind == token.EOF {
			break
		}
		out = append(out, t)
	}
	return out, lx.Errors()
}
