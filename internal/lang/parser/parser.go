// Package parser implements a recursive-descent parser for the Lyra
// language following the Figure 6 grammar.
package parser

import (
	"fmt"
	"strconv"

	"lyra/internal/lang/ast"
	"lyra/internal/lang/lexer"
	"lyra/internal/lang/token"
)

// Parse parses a complete Lyra source file held in bytes; see ParseString.
func Parse(file string, src []byte) (*ast.Program, error) { return ParseString(file, string(src)) }

// ParseString parses a complete Lyra source file. A scan error anywhere in
// the source is reported in preference to a parse error. The names and
// literals of the program it returns are substrings of src.
func ParseString(file string, src string) (*ast.Program, error) {
	p := &parser{lx: lexer.New(file, src), lastPos: token.Position{File: file, Line: 1, Col: 1}}
	prog, err := p.parseProgram()
	for err != nil && !p.at(token.EOF) {
		p.next()
	}
	if errs := p.lx.Errors(); len(errs) > 0 {
		return nil, errs[0]
	}
	if err != nil {
		return nil, err
	}
	return prog, nil
}

// parser reads tokens straight off the lexer with one token of lookahead
// (two after splitAngle).
type parser struct {
	lx    *lexer.Lexer
	ahead []token.Token // the current token first; empty until peeked
	buf   [2]token.Token
	// lastPos is the position of the last token scanned, which the EOF token
	// carries.
	lastPos token.Position
}

type parseError struct {
	pos token.Position
	msg string
}

func (e *parseError) Error() string { return fmt.Sprintf("%s: %s", e.pos, e.msg) }

func (p *parser) errf(pos token.Position, format string, args ...any) error {
	return &parseError{pos: pos, msg: fmt.Sprintf(format, args...)}
}

func (p *parser) peek() token.Token {
	if len(p.ahead) == 0 {
		p.scan()
	}
	return p.ahead[0]
}

// scan reads the next token off the lexer as the current one.
func (p *parser) scan() {
	t := p.lx.Next()
	if t.Kind == token.EOF {
		t.Pos = p.lastPos
	} else {
		p.lastPos = t.Pos
	}
	p.ahead = append(p.buf[:0], t)
}

func (p *parser) at(k token.Kind) bool {
	if len(p.ahead) == 0 {
		p.scan()
	}
	return p.ahead[0].Kind == k
}

func (p *parser) next() token.Token {
	t := p.peek()
	if t.Kind != token.EOF {
		p.ahead = p.ahead[1:]
	}
	return t
}

func (p *parser) expect(k token.Kind) (token.Token, error) {
	t := p.peek()
	if t.Kind != k {
		return t, p.errf(t.Pos, "expected %s, found %s", k, t)
	}
	return p.next(), nil
}

func (p *parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *parser) parseProgram() (*ast.Program, error) {
	prog := &ast.Program{}
	for !p.at(token.EOF) {
		t := p.peek()
		switch t.Kind {
		case token.SectionMarker:
			p.next()
		case token.KwHeaderType:
			h, err := p.parseHeaderType()
			if err != nil {
				return nil, err
			}
			prog.Headers = append(prog.Headers, h)
		case token.KwHeader:
			h, err := p.parseHeaderInstance()
			if err != nil {
				return nil, err
			}
			prog.Instances = append(prog.Instances, h)
		case token.KwPacket:
			pk, err := p.parsePacket()
			if err != nil {
				return nil, err
			}
			prog.Packets = append(prog.Packets, pk)
		case token.KwParserNode:
			n, err := p.parseParserNode()
			if err != nil {
				return nil, err
			}
			prog.Parsers = append(prog.Parsers, n)
		case token.KwPipeline:
			pl, err := p.parsePipeline()
			if err != nil {
				return nil, err
			}
			prog.Pipelines = append(prog.Pipelines, pl)
		case token.KwAlgorithm:
			a, err := p.parseAlgorithm()
			if err != nil {
				return nil, err
			}
			prog.Algorithms = append(prog.Algorithms, a)
		case token.KwFunc:
			f, err := p.parseFunc()
			if err != nil {
				return nil, err
			}
			prog.Funcs = append(prog.Funcs, f)
		default:
			return nil, p.errf(t.Pos, "unexpected %s at top level", t)
		}
	}
	return prog, nil
}

// parseType parses bit[N] or bool, with an optional extra [len] array
// suffix when array is true.
func (p *parser) parseType(array bool) (ast.Type, error) {
	t := p.peek()
	switch t.Kind {
	case token.KwBool:
		p.next()
		return ast.Type{Bits: 1, Bool: true}, nil
	case token.KwBit:
		p.next()
		if _, err := p.expect(token.LBracket); err != nil {
			return ast.Type{}, err
		}
		w, err := p.parseIntConst()
		if err != nil {
			return ast.Type{}, err
		}
		if _, err := p.expect(token.RBracket); err != nil {
			return ast.Type{}, err
		}
		typ := ast.Type{Bits: int(w)}
		if array && p.at(token.LBracket) {
			p.next()
			n, err := p.parseIntConst()
			if err != nil {
				return ast.Type{}, err
			}
			if _, err := p.expect(token.RBracket); err != nil {
				return ast.Type{}, err
			}
			typ.ArrayLen = int(n)
		}
		return typ, nil
	}
	return ast.Type{}, p.errf(t.Pos, "expected type, found %s", t)
}

func (p *parser) parseIntConst() (uint64, error) {
	t, err := p.expect(token.INT)
	if err != nil {
		return 0, err
	}
	v, perr := strconv.ParseUint(t.Lit, 0, 64)
	if perr != nil {
		return 0, p.errf(t.Pos, "bad integer %q: %v", t.Lit, perr)
	}
	return v, nil
}

// parseFieldList parses "type name; type name; ..." until '}'.
func (p *parser) parseFieldList() ([]ast.Field, error) {
	var out []ast.Field
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		pos := p.peek().Pos
		typ, err := p.parseType(false)
		if err != nil {
			return nil, err
		}
		name, err := p.expect(token.IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.Semicolon); err != nil {
			return nil, err
		}
		out = append(out, ast.Field{Type: typ, Name: name.Lit, At: pos})
	}
	return out, nil
}

// parseHeaderType parses:
//
//	header_type name { [fields {] type f; ... [}] }
func (p *parser) parseHeaderType() (*ast.HeaderType, error) {
	kw := p.next() // header_type
	name, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LBrace); err != nil {
		return nil, err
	}
	wrapped := false
	if p.at(token.KwFields) {
		p.next()
		if _, err := p.expect(token.LBrace); err != nil {
			return nil, err
		}
		wrapped = true
	}
	fields, err := p.parseFieldList()
	if err != nil {
		return nil, err
	}
	if wrapped {
		if _, err := p.expect(token.RBrace); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(token.RBrace); err != nil {
		return nil, err
	}
	return &ast.HeaderType{Name: name.Lit, Fields: fields, At: kw.Pos}, nil
}

func (p *parser) parseHeaderInstance() (*ast.HeaderInstance, error) {
	kw := p.next() // header
	typ, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	name, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Semicolon); err != nil {
		return nil, err
	}
	return &ast.HeaderInstance{TypeName: typ.Lit, Name: name.Lit, At: kw.Pos}, nil
}

func (p *parser) parsePacket() (*ast.Packet, error) {
	kw := p.next() // packet
	name, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LBrace); err != nil {
		return nil, err
	}
	wrapped := false
	if p.at(token.KwFields) {
		p.next()
		if _, err := p.expect(token.LBrace); err != nil {
			return nil, err
		}
		wrapped = true
	}
	fields, err := p.parseFieldList()
	if err != nil {
		return nil, err
	}
	if wrapped {
		if _, err := p.expect(token.RBrace); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(token.RBrace); err != nil {
		return nil, err
	}
	return &ast.Packet{Name: name.Lit, Fields: fields, At: kw.Pos}, nil
}

// parseParserNode parses:
//
//	parser_node name {
//	  extract(hdr);
//	  select(hdr.field) { 0x800: next; default: accept; }
//	}
func (p *parser) parseParserNode() (*ast.ParserNode, error) {
	kw := p.next() // parser_node
	name, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	node := &ast.ParserNode{Name: name.Lit, At: kw.Pos}
	if _, err := p.expect(token.LBrace); err != nil {
		return nil, err
	}
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		switch p.peek().Kind {
		case token.KwExtract:
			p.next()
			if _, err := p.expect(token.LParen); err != nil {
				return nil, err
			}
			h, err := p.expect(token.IDENT)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.RParen); err != nil {
				return nil, err
			}
			if _, err := p.expect(token.Semicolon); err != nil {
				return nil, err
			}
			node.Extracts = append(node.Extracts, h.Lit)
		case token.KwSelect:
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			node.Select = sel
		default:
			return nil, p.errf(p.peek().Pos, "expected extract or select in parser_node, found %s", p.peek())
		}
	}
	if _, err := p.expect(token.RBrace); err != nil {
		return nil, err
	}
	return node, nil
}

func (p *parser) parseSelect() (*ast.SelectStmt, error) {
	kw := p.next() // select
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	key, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LBrace); err != nil {
		return nil, err
	}
	sel := &ast.SelectStmt{Key: key, At: kw.Pos}
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		if p.accept(token.KwDefault) {
			if _, err := p.expect(token.Colon); err != nil {
				return nil, err
			}
			nxt, err := p.expect(token.IDENT)
			if err != nil {
				return nil, err
			}
			sel.Default = nxt.Lit
			if _, err := p.expect(token.Semicolon); err != nil {
				return nil, err
			}
			continue
		}
		v, err := p.parseIntConst()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.Colon); err != nil {
			return nil, err
		}
		nxt, err := p.expect(token.IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.Semicolon); err != nil {
			return nil, err
		}
		sel.Cases = append(sel.Cases, ast.SelectCase{Value: v, Next: nxt.Lit})
	}
	if _, err := p.expect(token.RBrace); err != nil {
		return nil, err
	}
	return sel, nil
}

// parsePipeline parses: pipeline[NAME]{a -> b -> c};
func (p *parser) parsePipeline() (*ast.Pipeline, error) {
	kw := p.next() // pipeline
	if _, err := p.expect(token.LBracket); err != nil {
		return nil, err
	}
	name, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RBracket); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LBrace); err != nil {
		return nil, err
	}
	pl := &ast.Pipeline{Name: name.Lit, At: kw.Pos}
	for {
		a, err := p.expect(token.IDENT)
		if err != nil {
			return nil, err
		}
		pl.Algorithms = append(pl.Algorithms, a.Lit)
		if !p.accept(token.Arrow) {
			break
		}
	}
	if _, err := p.expect(token.RBrace); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Semicolon); err != nil {
		return nil, err
	}
	return pl, nil
}

func (p *parser) parseAlgorithm() (*ast.Algorithm, error) {
	kw := p.next() // algorithm
	name, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &ast.Algorithm{Name: name.Lit, Body: body, At: kw.Pos}, nil
}

func (p *parser) parseFunc() (*ast.Func, error) {
	kw := p.next() // func
	name, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	var params []ast.Field
	for !p.at(token.RParen) {
		pos := p.peek().Pos
		typ, err := p.parseType(false)
		if err != nil {
			return nil, err
		}
		pn, err := p.expect(token.IDENT)
		if err != nil {
			return nil, err
		}
		params = append(params, ast.Field{Type: typ, Name: pn.Lit, At: pos})
		if !p.accept(token.Comma) {
			break
		}
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &ast.Func{Name: name.Lit, Params: params, Body: body, At: kw.Pos}, nil
}

// parseBlock parses '{' stmt* '}'.
func (p *parser) parseBlock() ([]ast.Stmt, error) {
	if _, err := p.expect(token.LBrace); err != nil {
		return nil, err
	}
	var out []ast.Stmt
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if _, err := p.expect(token.RBrace); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) parseStmt() (ast.Stmt, error) {
	t := p.peek()
	switch t.Kind {
	case token.KwGlobal:
		p.next()
		typ, err := p.parseType(true)
		if err != nil {
			return nil, err
		}
		name, err := p.expect(token.IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.Semicolon); err != nil {
			return nil, err
		}
		return &ast.VarDecl{Type: typ, Name: name.Lit, Global: true, At: t.Pos}, nil

	case token.KwExtern:
		return p.parseExtern()

	case token.KwBit, token.KwBool:
		typ, err := p.parseType(false)
		if err != nil {
			return nil, err
		}
		name, err := p.expect(token.IDENT)
		if err != nil {
			return nil, err
		}
		d := &ast.VarDecl{Type: typ, Name: name.Lit, At: t.Pos}
		if p.accept(token.Assign) {
			d.Init, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(token.Semicolon); err != nil {
			return nil, err
		}
		return d, nil

	case token.KwIf:
		return p.parseIf()
	}

	// Assignment or call statement.
	lhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.accept(token.Assign) {
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.Semicolon); err != nil {
			return nil, err
		}
		return &ast.Assign{LHS: lhs, RHS: rhs, At: t.Pos}, nil
	}
	if _, err := p.expect(token.Semicolon); err != nil {
		return nil, err
	}
	if _, ok := lhs.(*ast.Call); !ok {
		return nil, p.errf(t.Pos, "expression statement must be a call")
	}
	return &ast.ExprStmt{X: lhs, At: t.Pos}, nil
}

func (p *parser) parseIf() (ast.Stmt, error) {
	kw := p.next() // if
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	node := &ast.If{Cond: cond, Then: then, At: kw.Pos}
	if p.accept(token.KwElse) {
		if p.at(token.KwIf) {
			sub, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			node.Else = []ast.Stmt{sub}
		} else {
			node.Else, err = p.parseBlock()
			if err != nil {
				return nil, err
			}
		}
	}
	return node, nil
}

// splitAngle turns a leading '<<' (or '>>') token into two single angle
// tokens so extern tuple types like dict<<bit[32] a, bit[32] b>, ...>
// parse correctly despite shift-operator tokenization.
func (p *parser) splitAngle() {
	t := p.peek()
	half := token.Lt
	switch t.Kind {
	case token.Shl:
	case token.Shr:
		half = token.Gt
	default:
		return
	}
	// The current token is the only one ahead: a split leaves the second half
	// current, which is not a shift.
	p.ahead = append(p.buf[:0], token.Token{Kind: half, Pos: t.Pos}, token.Token{Kind: half, Pos: t.Pos})
}

// parseExtern parses:
//
//	extern list<bit[32] ip>[1024] known_ip;
//	extern dict<bit[32] hash, bit[32] ip>[1024] conn_table;
//	extern dict<<bit[32] src, bit[32] dst>, bit[8] p>[1024] route;
func (p *parser) parseExtern() (ast.Stmt, error) {
	kw := p.next() // extern
	var kind ast.ExternKind
	switch p.peek().Kind {
	case token.KwDict:
		kind = ast.ExternDict
	case token.KwList:
		kind = ast.ExternList
	default:
		return nil, p.errf(p.peek().Pos, "expected dict or list after extern, found %s", p.peek())
	}
	p.next()
	p.splitAngle()
	if _, err := p.expect(token.Lt); err != nil {
		return nil, err
	}
	keys, err := p.parseExternGroup()
	if err != nil {
		return nil, err
	}
	var values []ast.Field
	if kind == ast.ExternDict {
		if _, err := p.expect(token.Comma); err != nil {
			return nil, err
		}
		values, err = p.parseExternGroup()
		if err != nil {
			return nil, err
		}
	}
	p.splitAngle()
	if _, err := p.expect(token.Gt); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LBracket); err != nil {
		return nil, err
	}
	size, err := p.parseIntConst()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RBracket); err != nil {
		return nil, err
	}
	name, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Semicolon); err != nil {
		return nil, err
	}
	return &ast.ExternDecl{
		Kind: kind, Keys: keys, Values: values,
		Size: int(size), Name: name.Lit, At: kw.Pos,
	}, nil
}

// parseExternGroup parses one typed field or a tuple of fields in angle
// brackets: bit[32] ip, or <bit[32] src, bit[32] dst>.
func (p *parser) parseExternGroup() ([]ast.Field, error) {
	p.splitAngle()
	if p.accept(token.Lt) {
		var out []ast.Field
		for {
			pos := p.peek().Pos
			typ, err := p.parseType(false)
			if err != nil {
				return nil, err
			}
			name, err := p.expect(token.IDENT)
			if err != nil {
				return nil, err
			}
			out = append(out, ast.Field{Type: typ, Name: name.Lit, At: pos})
			if !p.accept(token.Comma) {
				break
			}
		}
		p.splitAngle()
		if _, err := p.expect(token.Gt); err != nil {
			return nil, err
		}
		return out, nil
	}
	pos := p.peek().Pos
	typ, err := p.parseType(false)
	if err != nil {
		return nil, err
	}
	name, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	return []ast.Field{{Type: typ, Name: name.Lit, At: pos}}, nil
}

// ---- Expressions (precedence climbing) ----

// Binding powers, loosest to tightest:
// || ; && ; | ; ^ ; & ; == != in ; < <= > >= ; << >> ; + - ; * / % ; unary.
func (p *parser) parseExpr() (ast.Expr, error) { return p.parseBin(0) }

type opInfo struct {
	op   ast.Op
	prec int
}

func binOp(k token.Kind) (opInfo, bool) {
	switch k {
	case token.OrOr:
		return opInfo{ast.OpLOr, 1}, true
	case token.AndAnd:
		return opInfo{ast.OpLAnd, 2}, true
	case token.Pipe:
		return opInfo{ast.OpOr, 3}, true
	case token.Caret:
		return opInfo{ast.OpXor, 4}, true
	case token.Amp:
		return opInfo{ast.OpAnd, 5}, true
	case token.Eq:
		return opInfo{ast.OpEq, 6}, true
	case token.NotEq:
		return opInfo{ast.OpNe, 6}, true
	case token.Lt:
		return opInfo{ast.OpLt, 7}, true
	case token.LtEq:
		return opInfo{ast.OpLe, 7}, true
	case token.Gt:
		return opInfo{ast.OpGt, 7}, true
	case token.GtEq:
		return opInfo{ast.OpGe, 7}, true
	case token.Shl:
		return opInfo{ast.OpShl, 8}, true
	case token.Shr:
		return opInfo{ast.OpShr, 8}, true
	case token.Plus:
		return opInfo{ast.OpAdd, 9}, true
	case token.Minus:
		return opInfo{ast.OpSub, 9}, true
	case token.Star:
		return opInfo{ast.OpMul, 10}, true
	case token.Slash:
		return opInfo{ast.OpDiv, 10}, true
	case token.Percent:
		return opInfo{ast.OpMod, 10}, true
	}
	return opInfo{}, false
}

func (p *parser) parseBin(minPrec int) (ast.Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		// Membership test binds like equality.
		if t.Kind == token.KwIn && 6 >= minPrec {
			p.next()
			tbl, err := p.expect(token.IDENT)
			if err != nil {
				return nil, err
			}
			lhs = &ast.InExpr{Key: lhs, Table: tbl.Lit, At: t.Pos}
			continue
		}
		info, ok := binOp(t.Kind)
		if !ok || info.prec < minPrec {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseBin(info.prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &ast.Binary{Op: info.op, X: lhs, Y: rhs, At: t.Pos}
	}
}

func (p *parser) parseUnary() (ast.Expr, error) {
	t := p.peek()
	switch t.Kind {
	case token.Not:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: ast.OpLNot, X: x, At: t.Pos}, nil
	case token.Minus:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: ast.OpNeg, X: x, At: t.Pos}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (ast.Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek().Kind {
		case token.Dot:
			dot := p.next()
			name, err := p.expect(token.IDENT)
			if err != nil {
				return nil, err
			}
			x = &ast.FieldAccess{X: x, Name: name.Lit, At: dot.Pos}
		case token.LBracket:
			lb := p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.RBracket); err != nil {
				return nil, err
			}
			x = &ast.Index{X: x, Index: idx, At: lb.Pos}
		default:
			return x, nil
		}
	}
}

func (p *parser) parsePrimary() (ast.Expr, error) {
	t := p.peek()
	switch t.Kind {
	case token.INT:
		p.next()
		v, err := strconv.ParseUint(t.Lit, 0, 64)
		if err != nil {
			return nil, p.errf(t.Pos, "bad integer %q: %v", t.Lit, err)
		}
		return &ast.IntLit{Value: v, Text: t.Lit, At: t.Pos}, nil
	case token.KwTrue:
		p.next()
		return &ast.BoolLit{Value: true, At: t.Pos}, nil
	case token.KwFalse:
		p.next()
		return &ast.BoolLit{Value: false, At: t.Pos}, nil
	case token.IDENT:
		p.next()
		if p.at(token.LParen) {
			p.next()
			var args []ast.Expr
			for !p.at(token.RParen) {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.accept(token.Comma) {
					break
				}
			}
			if _, err := p.expect(token.RParen); err != nil {
				return nil, err
			}
			return &ast.Call{Name: t.Lit, Args: args, At: t.Pos}, nil
		}
		return &ast.Ident{Name: t.Lit, At: t.Pos}, nil
	case token.LParen:
		p.next()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, p.errf(t.Pos, "expected expression, found %s", t)
}
