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

// lex tokenizes P4_14 source, skipping comments.
func lex(src string) ([]tok, error) {
	// Emitted P4 runs at about one token per four bytes; sizing the slice up
	// front replaces a dozen doublings per program.
	out := make([]tok, 0, len(src)/4)
	line := 1
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			i += 2
			for i+1 < n && !(src[i] == '*' && src[i+1] == '/') {
				if src[i] == '\n' {
					line++
				}
				i++
			}
			if i+1 >= n {
				return nil, fmt.Errorf("line %d: unterminated comment", line)
			}
			i += 2
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(src[i]) {
				i++
			}
			out = append(out, tok{tIdent, src[start:i], line})
		case c >= '0' && c <= '9':
			start := i
			for i < n && (isIdentPart(src[i])) { // hex digits, 0x prefix
				i++
			}
			out = append(out, tok{tNumber, src[start:i], line})
		default:
			var k tokKind
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
			default:
				// Operators inside control if-conditions (==, !=, <, &&)
				// and action arguments are tokenized as opaque punctuation.
				out = append(out, tok{kind: tIdent, text: string(c), line: line})
				i++
				continue
			}
			out = append(out, tok{kind: k, text: string(c), line: line})
			i++
		}
	}
	out = append(out, tok{kind: tEOF, line: line})
	return out, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9') || c == 'x' || c == 'X'
}
