// Package checker validates the syntax-level and semantic well-formedness
// of a parsed Lyra program (§4.1). It reports duplicate declarations,
// dangling references (pipelines → algorithms, calls → functions, parser
// extracts → header instances), arity errors on user and library calls, and
// malformed types.
package checker

import (
	"fmt"
	"slices"
	"sort"

	"lyra/internal/lang/ast"
	"lyra/internal/lang/lib"
	"lyra/internal/lang/token"
)

// Error is one semantic diagnostic.
type Error struct {
	Pos token.Position
	Msg string
}

func (e Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList aggregates diagnostics; it is itself an error.
type ErrorList []Error

func (l ErrorList) Error() string {
	if len(l) == 0 {
		return "no errors"
	}
	s := l[0].Error()
	if len(l) > 1 {
		s += fmt.Sprintf(" (and %d more)", len(l)-1)
	}
	return s
}

// Check validates prog. On success it returns nil.
func Check(prog *ast.Program) error {
	c := &checker{prog: prog}
	c.collect()
	c.checkPipelines()
	c.checkParsers()
	for _, a := range prog.Algorithms {
		c.checkBlock(a.Body, map[string]bool{}, nil, 0)
	}
	for _, f := range prog.Funcs {
		scope := map[string]bool{}
		decls := make([]string, 0, len(f.Params))
		for _, p := range f.Params {
			scope[p.Name] = true
			decls = append(decls, p.Name)
		}
		c.checkBlock(f.Body, scope, decls, len(f.Params))
	}
	c.checkCallGraphAcyclic()
	if len(c.errs) == 0 {
		return nil
	}
	sort.Slice(c.errs, func(i, j int) bool {
		a, b := c.errs[i].Pos, c.errs[j].Pos
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	return c.errs
}

type checker struct {
	prog    *ast.Program
	errs    ErrorList
	headers map[string]*ast.HeaderType
	insts   map[string]*ast.HeaderInstance
	funcs   map[string]*ast.Func
	algs    map[string]*ast.Algorithm
	externs map[string]*ast.ExternDecl
	globals map[string]*ast.VarDecl
	parsers map[string]*ast.ParserNode
}

func (c *checker) errorf(pos token.Position, format string, args ...any) {
	c.errs = append(c.errs, Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (c *checker) collect() {
	c.headers = map[string]*ast.HeaderType{}
	for _, h := range c.prog.Headers {
		if _, dup := c.headers[h.Name]; dup {
			c.errorf(h.Pos(), "duplicate header_type %q", h.Name)
			continue
		}
		c.headers[h.Name] = h
		seen := map[string]bool{}
		for _, f := range h.Fields {
			if f.Type.Bits <= 0 {
				c.errorf(f.Pos(), "field %s.%s has non-positive width", h.Name, f.Name)
			}
			if seen[f.Name] {
				c.errorf(f.Pos(), "duplicate field %q in header %q", f.Name, h.Name)
			}
			seen[f.Name] = true
		}
	}
	c.insts = map[string]*ast.HeaderInstance{}
	for _, hi := range c.prog.Instances {
		if _, dup := c.insts[hi.Name]; dup {
			c.errorf(hi.Pos(), "duplicate header instance %q", hi.Name)
			continue
		}
		if _, ok := c.headers[hi.TypeName]; !ok {
			c.errorf(hi.Pos(), "header instance %q has unknown type %q", hi.Name, hi.TypeName)
		}
		c.insts[hi.Name] = hi
	}
	c.funcs = map[string]*ast.Func{}
	for _, f := range c.prog.Funcs {
		if _, dup := c.funcs[f.Name]; dup {
			c.errorf(f.Pos(), "duplicate func %q", f.Name)
			continue
		}
		if lib.IsLibrary(f.Name) {
			c.errorf(f.Pos(), "func %q shadows a predefined library function", f.Name)
		}
		c.funcs[f.Name] = f
	}
	c.algs = map[string]*ast.Algorithm{}
	for _, a := range c.prog.Algorithms {
		if _, dup := c.algs[a.Name]; dup {
			c.errorf(a.Pos(), "duplicate algorithm %q", a.Name)
			continue
		}
		c.algs[a.Name] = a
	}
	c.parsers = map[string]*ast.ParserNode{}
	for _, p := range c.prog.Parsers {
		if _, dup := c.parsers[p.Name]; dup {
			c.errorf(p.Pos(), "duplicate parser_node %q", p.Name)
			continue
		}
		c.parsers[p.Name] = p
	}
	// Externs and globals are declared inside bodies but are program-wide
	// named resources; collect them for reference checking.
	c.externs = map[string]*ast.ExternDecl{}
	c.globals = map[string]*ast.VarDecl{}
	walkAll(c.prog, func(s ast.Stmt) {
		switch d := s.(type) {
		case *ast.ExternDecl:
			if prev, dup := c.externs[d.Name]; dup && prev != d {
				c.errorf(d.Pos(), "duplicate extern %q", d.Name)
				return
			}
			if d.Size <= 0 {
				c.errorf(d.Pos(), "extern %q has non-positive size", d.Name)
			}
			c.externs[d.Name] = d
		case *ast.VarDecl:
			if d.Global {
				if prev, dup := c.globals[d.Name]; dup && prev != d {
					c.errorf(d.Pos(), "duplicate global %q", d.Name)
					return
				}
				if d.Type.ArrayLen < 0 {
					c.errorf(d.Pos(), "global %q has negative length", d.Name)
				}
				c.globals[d.Name] = d
			}
		}
	})
}

// walkAll applies fn to every statement in every algorithm and function,
// recursing into if bodies.
func walkAll(prog *ast.Program, fn func(ast.Stmt)) {
	var walk func([]ast.Stmt)
	walk = func(body []ast.Stmt) {
		for _, s := range body {
			fn(s)
			if iff, ok := s.(*ast.If); ok {
				walk(iff.Then)
				walk(iff.Else)
			}
		}
	}
	for _, a := range prog.Algorithms {
		walk(a.Body)
	}
	for _, f := range prog.Funcs {
		walk(f.Body)
	}
}

func (c *checker) checkPipelines() {
	seen := map[string]bool{}
	owned := map[string]string{}
	for _, p := range c.prog.Pipelines {
		if seen[p.Name] {
			c.errorf(p.Pos(), "duplicate pipeline %q", p.Name)
		}
		seen[p.Name] = true
		if len(p.Algorithms) == 0 {
			c.errorf(p.Pos(), "pipeline %q has no algorithms", p.Name)
		}
		for _, an := range p.Algorithms {
			if _, ok := c.algs[an]; !ok {
				c.errorf(p.Pos(), "pipeline %q references unknown algorithm %q", p.Name, an)
				continue
			}
			if prev, dup := owned[an]; dup {
				c.errorf(p.Pos(), "algorithm %q appears in pipelines %q and %q", an, prev, p.Name)
			}
			owned[an] = p.Name
		}
	}
}

func (c *checker) checkParsers() {
	for _, p := range c.prog.Parsers {
		for _, e := range p.Extracts {
			if _, ok := c.insts[e]; !ok {
				c.errorf(p.Pos(), "parser_node %q extracts unknown header instance %q", p.Name, e)
			}
		}
		if p.Select != nil {
			c.checkExpr(p.Select.Key, map[string]bool{})
			targets := append([]ast.SelectCase(nil), p.Select.Cases...)
			for _, t := range targets {
				if t.Next == "accept" || t.Next == "ingress" {
					continue
				}
				if _, ok := c.parsers[t.Next]; !ok {
					c.errorf(p.Select.At, "parser_node %q selects unknown node %q", p.Name, t.Next)
				}
			}
			if d := p.Select.Default; d != "" && d != "accept" && d != "ingress" {
				if _, ok := c.parsers[d]; !ok {
					c.errorf(p.Select.At, "parser_node %q default selects unknown node %q", p.Name, d)
				}
			}
		}
	}
	c.checkParserProgress()
}

// checkParserProgress rejects a parse-graph cycle none of whose states
// extracts a bit: a walk caught in one consumes no input and never ends. A
// cycle that does extract is legal (it parses a header stack and ends when
// the bytes run out).
func (c *checker) checkParserProgress() {
	idle := func(p *ast.ParserNode) bool {
		for _, e := range p.Extracts {
			inst := c.insts[e]
			if inst == nil || c.headers[inst.TypeName] == nil || len(c.headers[inst.TypeName].Fields) > 0 {
				return false // unknown names are reported above; don't pile on
			}
		}
		return true
	}
	const (
		unseen = iota
		onPath
		done
	)
	state := map[string]int{}
	var visit func(p *ast.ParserNode)
	visit = func(p *ast.ParserNode) {
		state[p.Name] = onPath
		if p.Select != nil {
			nexts := []string{p.Select.Default}
			for _, cs := range p.Select.Cases {
				nexts = append(nexts, cs.Next)
			}
			for _, n := range nexts {
				q := c.parsers[n]
				if q == nil || !idle(q) {
					continue
				}
				switch state[n] {
				case onPath:
					c.errorf(p.Select.At, "parser_node %q loops back to %q through nodes that extract nothing: parsing would never end", p.Name, n)
				case unseen:
					visit(q)
				}
			}
		}
		state[p.Name] = done
	}
	for _, p := range c.prog.Parsers {
		if c.parsers[p.Name] == p && idle(p) && state[p.Name] == unseen {
			visit(p)
		}
	}
}

// checkBlock checks one block of an algorithm or function body. decls names
// what is declared where the block sits: the function's params parameters
// first, then the locals of this block and the blocks enclosing it, in order.
// A local may not take a name from decls; a sibling branch's locals are not in
// it.
func (c *checker) checkBlock(body []ast.Stmt, scope map[string]bool, decls []string, params int) {
	for _, s := range body {
		switch st := s.(type) {
		case *ast.VarDecl:
			if st.Type.Bits <= 0 {
				c.errorf(st.Pos(), "variable %q has non-positive width", st.Name)
			}
			if !st.Global {
				if i := slices.Index(decls, st.Name); i >= 0 && i < params {
					c.errorf(st.Pos(), "local %q redeclares a parameter", st.Name)
				} else if i >= 0 {
					c.errorf(st.Pos(), "duplicate local %q", st.Name)
				}
				decls = append(decls, st.Name)
			}
			scope[st.Name] = true
			if st.Init != nil {
				c.checkExpr(st.Init, scope)
			}
		case *ast.ExternDecl:
			scope[st.Name] = true
		case *ast.Assign:
			c.checkLValue(st.LHS, scope)
			c.checkExpr(st.RHS, scope)
			// Assignments may introduce implicit metadata variables
			// (paper Figure 4 uses int_enable without declaration).
			if id, ok := st.LHS.(*ast.Ident); ok {
				scope[id.Name] = true
			}
		case *ast.If:
			c.checkExpr(st.Cond, scope)
			c.checkBlock(st.Then, scope, decls, params)
			c.checkBlock(st.Else, scope, decls, params)
		case *ast.ExprStmt:
			c.checkExpr(st.X, scope)
		}
	}
}

func (c *checker) checkLValue(e ast.Expr, scope map[string]bool) {
	switch x := e.(type) {
	case *ast.Ident:
		if _, isExtern := c.externs[x.Name]; isExtern {
			c.errorf(x.Pos(), "cannot assign directly to extern table %q", x.Name)
		}
	case *ast.FieldAccess:
		c.checkExpr(e, scope)
	case *ast.Index:
		base, ok := x.X.(*ast.Ident)
		if !ok {
			c.errorf(x.Pos(), "assignment target must be a variable, field, or element")
			return
		}
		_, isGlobal := c.globals[base.Name]
		_, isExtern := c.externs[base.Name]
		if !isGlobal && !isExtern {
			c.errorf(x.Pos(), "indexed assignment to %q, which is neither global nor extern", base.Name)
		}
		c.checkExpr(x.Index, scope)
	default:
		c.errorf(e.Pos(), "invalid assignment target")
	}
}

func (c *checker) checkExpr(e ast.Expr, scope map[string]bool) {
	switch x := e.(type) {
	case *ast.Ident, *ast.IntLit, *ast.BoolLit:
		// Bare identifiers may be implicit metadata; accepted.
	case *ast.FieldAccess:
		base, ok := x.X.(*ast.Ident)
		if !ok {
			c.errorf(x.Pos(), "nested field access is not supported")
			return
		}
		hi, ok := c.insts[base.Name]
		if !ok {
			// Could be a packet metadata struct; accept if a packet decl
			// has the field, else report.
			if c.packetHasField(base.Name, x.Name) {
				return
			}
			c.errorf(x.Pos(), "field access on unknown header instance %q", base.Name)
			return
		}
		ht := c.headers[hi.TypeName]
		if ht == nil {
			return // already reported
		}
		for _, f := range ht.Fields {
			if f.Name == x.Name {
				return
			}
		}
		c.errorf(x.Pos(), "header %q has no field %q", hi.TypeName, x.Name)
	case *ast.Index:
		if base, ok := x.X.(*ast.Ident); ok {
			_, isGlobal := c.globals[base.Name]
			ext, isExtern := c.externs[base.Name]
			if !isGlobal && !isExtern {
				c.errorf(x.Pos(), "index into %q, which is neither global nor extern", base.Name)
			}
			if isExtern {
				if ext.Kind == ast.ExternList {
					c.errorf(x.Pos(), "extern list %q has no values; use membership ('in') instead of lookup", base.Name)
				}
				if len(ext.Keys) > 1 {
					c.errorf(x.Pos(), "extern %q has a tuple key; single-expression lookup cannot address it", base.Name)
				}
			}
		} else {
			c.errorf(x.Pos(), "index base must be a named table or array")
		}
		c.checkExpr(x.Index, scope)
	case *ast.Binary:
		c.checkExpr(x.X, scope)
		c.checkExpr(x.Y, scope)
	case *ast.Unary:
		c.checkExpr(x.X, scope)
	case *ast.InExpr:
		ext, ok := c.externs[x.Table]
		if !ok {
			c.errorf(x.Pos(), "membership test against unknown extern %q", x.Table)
		} else if len(ext.Keys) > 1 {
			c.errorf(x.Pos(), "extern %q has a tuple key; single-expression membership cannot address it", x.Table)
		}
		c.checkExpr(x.Key, scope)
	case *ast.Call:
		c.checkCall(x, scope)
	}
}

// packetHasField reports whether a packet declaration named base has a
// metadata field named field.
func (c *checker) packetHasField(base, field string) bool {
	for _, p := range c.prog.Packets {
		if p.Name != base {
			continue
		}
		for _, f := range p.Fields {
			if f.Name == field {
				return true
			}
		}
	}
	return false
}

func (c *checker) checkCall(x *ast.Call, scope map[string]bool) {
	for _, a := range x.Args {
		c.checkExpr(a, scope)
	}
	if lf, ok := lib.Lookup(x.Name); ok {
		if len(x.Args) < lf.MinArgs {
			c.errorf(x.Pos(), "%s requires at least %d argument(s), got %d", x.Name, lf.MinArgs, len(x.Args))
		}
		if lf.MaxArgs >= 0 && len(x.Args) > lf.MaxArgs {
			c.errorf(x.Pos(), "%s accepts at most %d argument(s), got %d", x.Name, lf.MaxArgs, len(x.Args))
		}
		if lf.Kind == lib.KindHeaderOp && len(x.Args) == 1 {
			if id, ok := x.Args[0].(*ast.Ident); !ok {
				c.errorf(x.Pos(), "%s requires a header instance argument", x.Name)
			} else if _, ok := c.insts[id.Name]; !ok {
				c.errorf(x.Pos(), "%s: unknown header instance %q", x.Name, id.Name)
			}
		}
		return
	}
	f, ok := c.funcs[x.Name]
	if !ok {
		c.errorf(x.Pos(), "call to undefined function %q", x.Name)
		return
	}
	if len(x.Args) != len(f.Params) {
		c.errorf(x.Pos(), "func %q takes %d argument(s), got %d", x.Name, len(f.Params), len(x.Args))
	}
}

// checkCallGraphAcyclic rejects (mutually) recursive functions: data plane
// programs cannot loop, and the preprocessor inlines all calls (§4.2).
func (c *checker) checkCallGraphAcyclic() {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(name string, f *ast.Func) bool
	callees := func(body []ast.Stmt) []string {
		var out []string
		var walkE func(e ast.Expr)
		walkE = func(e ast.Expr) {
			switch x := e.(type) {
			case *ast.Call:
				if !lib.IsLibrary(x.Name) {
					out = append(out, x.Name)
				}
				for _, a := range x.Args {
					walkE(a)
				}
			case *ast.Binary:
				walkE(x.X)
				walkE(x.Y)
			case *ast.Unary:
				walkE(x.X)
			case *ast.Index:
				walkE(x.Index)
			case *ast.InExpr:
				walkE(x.Key)
			case *ast.FieldAccess:
				walkE(x.X)
			}
		}
		var walkS func([]ast.Stmt)
		walkS = func(ss []ast.Stmt) {
			for _, s := range ss {
				switch st := s.(type) {
				case *ast.Assign:
					walkE(st.LHS)
					walkE(st.RHS)
				case *ast.ExprStmt:
					walkE(st.X)
				case *ast.VarDecl:
					if st.Init != nil {
						walkE(st.Init)
					}
				case *ast.If:
					walkE(st.Cond)
					walkS(st.Then)
					walkS(st.Else)
				}
			}
		}
		walkS(body)
		return out
	}
	visit = func(name string, f *ast.Func) bool {
		color[name] = gray
		for _, callee := range callees(f.Body) {
			cf, ok := c.funcs[callee]
			if !ok {
				continue // already reported as undefined
			}
			switch color[callee] {
			case gray:
				c.errorf(f.Pos(), "recursive call cycle through %q", callee)
				return false
			case white:
				if !visit(callee, cf) {
					return false
				}
			}
		}
		color[name] = black
		return true
	}
	for name, f := range c.funcs {
		if color[name] == white {
			visit(name, f)
		}
	}
}
