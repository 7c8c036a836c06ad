package p4check

import (
	"bytes"
	"fmt"
	"slices"
)

// Program is a parsed P4_14 compilation unit (the emitted subset).
type Program struct {
	HeaderTypes    map[string][]string      // type -> field names
	Instances      map[string]string        // header/metadata instance -> type
	Registers      map[string]bool          // register names
	FieldLists     map[string][]string      // field_list -> refs
	FieldCalcs     map[string]string        // calculation -> input field list
	Actions        map[string]*Action       // action name -> body
	Tables         map[string]*Table        // table name -> decl
	Controls       map[string][]ControlStep // control name -> applies
	ParserExtracts []string                 // extracted instances in parser
}

// Action is one action declaration.
type Action struct {
	Name       string
	Params     []string
	Primitives []Primitive
}

// Primitive is one primitive call inside an action.
type Primitive struct {
	Name string
	Args []string // raw argument expressions (field refs, numbers, params)
	Line int
}

// Table is one table declaration.
type Table struct {
	Name    string
	Reads   []string // match field references
	Actions []string
	Size    string
	Line    int
}

// ControlStep is one apply (possibly nested under conditions, which are
// flattened — nesting depth does not affect validation).
type ControlStep struct {
	Table string
	Line  int
}

// parser reads the token stream with one token of lookahead, straight off
// the lexer.
type parser struct {
	lx  lexer
	tok tok    // the current token
	arg []byte // a primitive argument being put together
}

func (p *parser) cur() tok  { return p.tok }
func (p *parser) next() tok { t := p.tok; p.tok = p.lx.next(); return t }

func (p *parser) expect(k tokKind, what string) (tok, error) {
	t := p.cur()
	if t.kind != k {
		return t, fmt.Errorf("line %d: expected %s, found %q", t.line, what, t.String())
	}
	return p.next(), nil
}

func (p *parser) expectIdent(text string) error {
	t := p.cur()
	if t.kind != tIdent || t.text != text {
		return fmt.Errorf("line %d: expected %q, found %q", t.line, text, t.String())
	}
	p.next()
	return nil
}

// skipBalanced consumes a brace-balanced block, assuming the opening brace
// was just consumed.
func (p *parser) skipBalanced() error {
	depth := 1
	for depth > 0 {
		t := p.next()
		switch t.kind {
		case tLBrace:
			depth++
		case tRBrace:
			depth--
		case tEOF:
			return fmt.Errorf("unexpected EOF in block")
		}
	}
	return nil
}

// Parse parses P4_14 source into a Program. A lexical error anywhere in the
// source is reported in preference to a parse error.
func Parse(src string) (*Program, error) {
	p := &parser{lx: lexer{src: src, line: 1}}
	p.tok = p.lx.next()
	prog, err := p.program()
	for err != nil && p.tok.kind != tEOF {
		p.next()
	}
	if p.lx.err != nil {
		return nil, p.lx.err
	}
	return prog, err
}

// program parses the top-level declarations.
func (p *parser) program() (*Program, error) {
	prog := &Program{
		HeaderTypes: map[string][]string{},
		Instances:   map[string]string{},
		Registers:   map[string]bool{},
		FieldLists:  map[string][]string{},
		FieldCalcs:  map[string]string{},
		Actions:     map[string]*Action{},
		Tables:      map[string]*Table{},
		Controls:    map[string][]ControlStep{},
	}
	for p.cur().kind != tEOF {
		t := p.cur()
		if t.kind != tIdent {
			return nil, fmt.Errorf("line %d: unexpected %q at top level", t.line, t.String())
		}
		switch t.text {
		case "header_type":
			if err := p.headerType(prog); err != nil {
				return nil, err
			}
		case "header", "metadata":
			if err := p.instance(prog); err != nil {
				return nil, err
			}
		case "parser":
			if err := p.parserDecl(prog); err != nil {
				return nil, err
			}
		case "register":
			if err := p.register(prog); err != nil {
				return nil, err
			}
		case "field_list":
			if err := p.fieldList(prog); err != nil {
				return nil, err
			}
		case "field_list_calculation":
			if err := p.fieldCalc(prog); err != nil {
				return nil, err
			}
		case "action":
			if err := p.action(prog); err != nil {
				return nil, err
			}
		case "table":
			if err := p.table(prog); err != nil {
				return nil, err
			}
		case "control":
			if err := p.control(prog); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("line %d: unknown declaration %q", t.line, t.text)
		}
	}
	return prog, nil
}

func (p *parser) headerType(prog *Program) error {
	p.next() // header_type
	name, err := p.expect(tIdent, "header type name")
	if err != nil {
		return err
	}
	if _, err := p.expect(tLBrace, "{"); err != nil {
		return err
	}
	if err := p.expectIdent("fields"); err != nil {
		return err
	}
	if _, err := p.expect(tLBrace, "{"); err != nil {
		return err
	}
	var fields []string
	for p.cur().kind == tIdent {
		f := p.next()
		if _, err := p.expect(tColon, ":"); err != nil {
			return err
		}
		if _, err := p.expect(tNumber, "field width"); err != nil {
			return err
		}
		if _, err := p.expect(tSemi, ";"); err != nil {
			return err
		}
		if slices.Contains(fields, f.text) {
			return fmt.Errorf("line %d: header type %s declares field %s twice", f.line, name.text, f.text)
		}
		fields = append(fields, f.text)
	}
	if _, err := p.expect(tRBrace, "}"); err != nil {
		return err
	}
	if _, err := p.expect(tRBrace, "}"); err != nil {
		return err
	}
	prog.HeaderTypes[name.text] = fields
	return nil
}

func (p *parser) instance(prog *Program) error {
	p.next() // header | metadata
	typ, err := p.expect(tIdent, "type name")
	if err != nil {
		return err
	}
	name, err := p.expect(tIdent, "instance name")
	if err != nil {
		return err
	}
	if _, err := p.expect(tSemi, ";"); err != nil {
		return err
	}
	prog.Instances[name.text] = typ.text
	return nil
}

func (p *parser) parserDecl(prog *Program) error {
	p.next() // parser
	if _, err := p.expect(tIdent, "parser state name"); err != nil {
		return err
	}
	if _, err := p.expect(tLBrace, "{"); err != nil {
		return err
	}
	for p.cur().kind == tIdent {
		t := p.next()
		switch t.text {
		case "extract":
			if _, err := p.expect(tLParen, "("); err != nil {
				return err
			}
			h, err := p.expect(tIdent, "header instance")
			if err != nil {
				return err
			}
			prog.ParserExtracts = append(prog.ParserExtracts, h.text)
			if _, err := p.expect(tRParen, ")"); err != nil {
				return err
			}
			if _, err := p.expect(tSemi, ";"); err != nil {
				return err
			}
		case "return":
			tgt, err := p.expect(tIdent, "return target")
			if err != nil {
				return err
			}
			if tgt.text == "select" {
				// return select(field) { value : state; default : state; }
				if _, err := p.expect(tLParen, "("); err != nil {
					return err
				}
				if _, err := p.fieldRef(); err != nil {
					return err
				}
				if _, err := p.expect(tRParen, ")"); err != nil {
					return err
				}
				if _, err := p.expect(tLBrace, "{"); err != nil {
					return err
				}
				if err := p.skipBalanced(); err != nil {
					return err
				}
				continue
			}
			if _, err := p.expect(tSemi, ";"); err != nil {
				return err
			}
		default:
			return fmt.Errorf("line %d: unexpected %q in parser", t.line, t.text)
		}
	}
	_, err := p.expect(tRBrace, "}")
	return err
}

func (p *parser) register(prog *Program) error {
	p.next() // register
	name, err := p.expect(tIdent, "register name")
	if err != nil {
		return err
	}
	if _, err := p.expect(tLBrace, "{"); err != nil {
		return err
	}
	if err := p.skipBalanced(); err != nil {
		return err
	}
	prog.Registers[name.text] = true
	return nil
}

func (p *parser) fieldList(prog *Program) error {
	p.next() // field_list
	name, err := p.expect(tIdent, "field list name")
	if err != nil {
		return err
	}
	if _, err := p.expect(tLBrace, "{"); err != nil {
		return err
	}
	var refs []string
	for p.cur().kind == tIdent || p.cur().kind == tNumber {
		if p.cur().kind == tNumber {
			// Constants are legal field_list entries.
			refs = append(refs, p.next().text)
		} else {
			ref, err := p.fieldRef()
			if err != nil {
				return err
			}
			refs = append(refs, ref)
		}
		if _, err := p.expect(tSemi, ";"); err != nil {
			return err
		}
	}
	if _, err := p.expect(tRBrace, "}"); err != nil {
		return err
	}
	prog.FieldLists[name.text] = refs
	return nil
}

func (p *parser) fieldCalc(prog *Program) error {
	p.next() // field_list_calculation
	name, err := p.expect(tIdent, "calculation name")
	if err != nil {
		return err
	}
	if _, err := p.expect(tLBrace, "{"); err != nil {
		return err
	}
	input := ""
	for p.cur().kind == tIdent {
		k := p.next()
		switch k.text {
		case "input":
			if _, err := p.expect(tLBrace, "{"); err != nil {
				return err
			}
			in, err := p.expect(tIdent, "field list name")
			if err != nil {
				return err
			}
			input = in.text
			if _, err := p.expect(tSemi, ";"); err != nil {
				return err
			}
			if _, err := p.expect(tRBrace, "}"); err != nil {
				return err
			}
		case "algorithm", "output_width":
			if _, err := p.expect(tColon, ":"); err != nil {
				return err
			}
			p.next() // value
			if _, err := p.expect(tSemi, ";"); err != nil {
				return err
			}
		default:
			return fmt.Errorf("line %d: unknown calculation attribute %q", k.line, k.text)
		}
	}
	if _, err := p.expect(tRBrace, "}"); err != nil {
		return err
	}
	prog.FieldCalcs[name.text] = input
	return nil
}

// fieldRef parses "a" or "a.b".
func (p *parser) fieldRef() (string, error) {
	a, err := p.expect(tIdent, "identifier")
	if err != nil {
		return "", err
	}
	if p.cur().kind == tDot {
		p.next()
		b, err := p.expect(tIdent, "field name")
		if err != nil {
			return "", err
		}
		if end := b.pos + len(b.text); end-a.pos == len(a.text)+1+len(b.text) {
			return p.lx.src[a.pos:end], nil // written without spaces: the text itself
		}
		return a.text + "." + b.text, nil
	}
	return a.text, nil
}

func (p *parser) action(prog *Program) error {
	p.next() // action
	name, err := p.expect(tIdent, "action name")
	if err != nil {
		return err
	}
	act := &Action{Name: name.text}
	if _, err := p.expect(tLParen, "("); err != nil {
		return err
	}
	for p.cur().kind == tIdent {
		param := p.next()
		act.Params = append(act.Params, param.text)
		if p.cur().kind == tComma {
			p.next()
		}
	}
	if _, err := p.expect(tRParen, ")"); err != nil {
		return err
	}
	if _, err := p.expect(tLBrace, "{"); err != nil {
		return err
	}
	for p.cur().kind == tIdent {
		prim, err := p.primitive()
		if err != nil {
			return err
		}
		act.Primitives = append(act.Primitives, prim)
	}
	if _, err := p.expect(tRBrace, "}"); err != nil {
		return err
	}
	prog.Actions[act.Name] = act
	return nil
}

// primitive parses name(arg, arg, ...); with arguments as raw expressions.
func (p *parser) primitive() (Primitive, error) {
	name := p.next()
	prim := Primitive{Name: name.text, Line: name.line}
	if _, err := p.expect(tLParen, "("); err != nil {
		return prim, err
	}
	// An argument is its tokens joined by single spaces, none around dots or
	// after an opening parenthesis. Where the source spells it exactly so,
	// the argument is that stretch of the source rather than a copy.
	depth := 1
	from, to := 0, 0 // the source the argument's tokens span
	flush := func() {
		a := bytes.TrimSpace(p.arg)
		if len(a) > 0 {
			if src := p.lx.src[from:to]; string(a) == src {
				prim.Args = append(prim.Args, src)
			} else {
				prim.Args = append(prim.Args, string(a))
			}
		}
		p.arg = p.arg[:0]
	}
	write := func(t tok, s string) {
		if len(p.arg) == 0 {
			from = t.pos
		}
		p.arg = append(p.arg, s...)
		to = t.pos + len(t.text)
	}
	for depth > 0 {
		t := p.next()
		switch t.kind {
		case tLParen:
			depth++
			write(t, "(")
		case tRParen:
			depth--
			if depth > 0 {
				write(t, ")")
			}
		case tComma:
			if depth == 1 {
				flush()
			} else {
				write(t, ",")
			}
		case tDot:
			write(t, ".")
		case tEOF:
			return prim, fmt.Errorf("line %d: unexpected EOF in primitive", t.line)
		default:
			if n := len(p.arg); n > 0 && p.arg[n-1] != '.' && p.arg[n-1] != '(' {
				p.arg = append(p.arg, ' ')
			}
			write(t, t.text)
		}
	}
	flush()
	if _, err := p.expect(tSemi, ";"); err != nil {
		return prim, err
	}
	return prim, nil
}

func (p *parser) table(prog *Program) error {
	p.next() // table
	name, err := p.expect(tIdent, "table name")
	if err != nil {
		return err
	}
	tbl := &Table{Name: name.text, Line: name.line}
	if _, err := p.expect(tLBrace, "{"); err != nil {
		return err
	}
	for p.cur().kind == tIdent {
		k := p.next()
		switch k.text {
		case "reads":
			if _, err := p.expect(tLBrace, "{"); err != nil {
				return err
			}
			for p.cur().kind == tIdent {
				ref, err := p.fieldRef()
				if err != nil {
					return err
				}
				if _, err := p.expect(tColon, ":"); err != nil {
					return err
				}
				if _, err := p.expect(tIdent, "match kind"); err != nil {
					return err
				}
				if _, err := p.expect(tSemi, ";"); err != nil {
					return err
				}
				tbl.Reads = append(tbl.Reads, ref)
			}
			if _, err := p.expect(tRBrace, "}"); err != nil {
				return err
			}
		case "actions":
			if _, err := p.expect(tLBrace, "{"); err != nil {
				return err
			}
			for p.cur().kind == tIdent {
				a := p.next()
				tbl.Actions = append(tbl.Actions, a.text)
				if _, err := p.expect(tSemi, ";"); err != nil {
					return err
				}
			}
			if _, err := p.expect(tRBrace, "}"); err != nil {
				return err
			}
		case "size":
			if _, err := p.expect(tColon, ":"); err != nil {
				return err
			}
			sz, err := p.expect(tNumber, "size")
			if err != nil {
				return err
			}
			tbl.Size = sz.text
			if _, err := p.expect(tSemi, ";"); err != nil {
				return err
			}
		default:
			return fmt.Errorf("line %d: unknown table attribute %q", k.line, k.text)
		}
	}
	if _, err := p.expect(tRBrace, "}"); err != nil {
		return err
	}
	prog.Tables[tbl.Name] = tbl
	return nil
}

func (p *parser) control(prog *Program) error {
	p.next() // control
	name, err := p.expect(tIdent, "control name")
	if err != nil {
		return err
	}
	if _, err := p.expect(tLBrace, "{"); err != nil {
		return err
	}
	var steps []ControlStep
	depth := 1
	for depth > 0 {
		t := p.next()
		switch {
		case t.kind == tLBrace:
			depth++
		case t.kind == tRBrace:
			depth--
		case t.kind == tEOF:
			return fmt.Errorf("line %d: unexpected EOF in control", t.line)
		case t.kind == tIdent && t.text == "apply":
			if _, err := p.expect(tLParen, "("); err != nil {
				return err
			}
			tn, err := p.expect(tIdent, "table name")
			if err != nil {
				return err
			}
			if _, err := p.expect(tRParen, ")"); err != nil {
				return err
			}
			if _, err := p.expect(tSemi, ";"); err != nil {
				return err
			}
			steps = append(steps, ControlStep{Table: tn.text, Line: tn.line})
		}
	}
	prog.Controls[name.text] = steps
	return nil
}
