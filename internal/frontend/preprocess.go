// Package frontend implements Lyra's front-end (§4): the preprocessor that
// turns a checked AST into straight-line, guarded, SSA-form IR (§4.2), and
// the code analyzer that annotates it with instruction dependencies (§4.3).
//
// The preprocessor performs the paper's five steps:
//
//  1. Function inlining — every call to a user-defined function is replaced
//     by its body, with parameters aliased to the caller's arguments.
//  2. Branch removal — each if-else condition becomes a predicate applied to
//     the instructions of its body; afterwards each algorithm is a
//     straight-line code block. Variables written divergently in two arms
//     are reconciled with an explicit select instruction.
//  3. Single-operator tuning — compound expressions are flattened so each
//     instruction carries one operator.
//  4. SSA conversion — each variable assignment creates a new version,
//     leaving only read-after-write dependencies.
//  5. Variable type inference — widths are inferred from function calls,
//     operators, and table lookups.
package frontend

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"lyra/internal/ir"
	"lyra/internal/lang/ast"
	"lyra/internal/lang/lib"
	"lyra/internal/lang/token"
)

// Preprocess lowers a checked program into context-aware IR. The input must
// already have passed checker.Check.
func Preprocess(prog *ast.Program) (*ir.Program, error) {
	out := &ir.Program{
		Source:     prog,
		Pipelines:  prog.Pipelines,
		HeaderBits: map[string]int{},
	}
	n := 0
	for _, inst := range prog.Instances {
		if ht := prog.Header(inst.TypeName); ht != nil {
			n += len(ht.Fields)
		}
	}
	for _, pk := range prog.Packets {
		n += len(pk.Fields)
	}
	out.Fields = make([]ir.Field, 0, n)
	for _, inst := range prog.Instances {
		ht := prog.Header(inst.TypeName)
		if ht == nil {
			return nil, fmt.Errorf("%s: unknown header type %q", inst.Pos(), inst.TypeName)
		}
		out.HeaderBits[inst.Name] = ht.Width()
		for _, f := range ht.Fields {
			out.Fields = append(out.Fields, ir.Field{Hdr: inst.Name, Name: f.Name, Bits: f.Type.Bits})
		}
	}
	for _, pk := range prog.Packets {
		w := 0
		for _, f := range pk.Fields {
			out.Fields = append(out.Fields, ir.Field{Hdr: pk.Name, Name: f.Name, Bits: f.Type.Bits})
			w += f.Type.Bits
		}
		out.HeaderBits[pk.Name] = w
	}
	lw := &lowerer{src: prog, irp: out, syms: map[string]int32{}}
	for _, a := range prog.Algorithms {
		la, err := lw.algorithm(a)
		if err != nil {
			return nil, err
		}
		lw.eliminateDead(la)
		out.Algorithms = append(out.Algorithms, la)
	}
	inferWidths(out)
	return out, nil
}

// eliminateDead removes instructions whose only effect is defining an SSA
// variable nobody reads (classic DCE). Branch reconciliation emits select
// merges for every divergent variable; those feeding no later read would
// otherwise synthesize into needless tables.
func (lw *lowerer) eliminateDead(a *ir.Algorithm) {
	live := lw.live[:0]
	// Roots: observable effects, plus writes to user-named variables. Only
	// compiler artifacts — select merges and temporaries — may die.
	for _, in := range a.Instrs {
		root := false
		switch in.Op {
		case ir.IHeaderAdd, ir.IHeaderRemove, ir.IPacketOp, ir.IGlobalWrite, ir.IExternInsert:
			root = true
		default:
			if in.Dest.Kind == ir.DestField || in.Dest.Kind == ir.DestGlobal {
				root = true
			}
			if v := in.WritesVar(); v != nil && in.Op != ir.ISelect && !lw.temp[v.ID] {
				root = true
			}
		}
		live = append(live, root)
	}
	// defOf holds, by the variables' lowering ids, the index of the
	// instruction defining each.
	defOf := slices.Grow(lw.defOf[:0], len(lw.vars))[:len(lw.vars)]
	for i := range defOf {
		defOf[i] = -1
	}
	for i, in := range a.Instrs {
		if v := in.WritesVar(); v != nil {
			defOf[v.ID] = int32(i)
		}
	}
	// Backward propagation to a fixpoint: a definition is live if any live
	// instruction reads it (as an argument or guard).
	changed := true
	mark := func(v *ir.Var) {
		if d := defOf[v.ID]; d >= 0 && !live[d] {
			live[d] = true
			changed = true
		}
	}
	for changed {
		changed = false
		for i, in := range a.Instrs {
			if live[i] {
				in.EachRead(mark)
			}
		}
	}
	lw.live, lw.defOf = live, defOf
	// Compact in place and renumber densely; dependency analysis runs
	// afterwards.
	kept := a.Instrs[:0]
	for i, in := range a.Instrs {
		if live[i] {
			in.ID = len(kept)
			kept = append(kept, in)
		}
	}
	clear(a.Instrs[len(kept):])
	a.Instrs = kept
}

// isCompilerTemp reports whether a base name has the shape the lowerer gives
// its temporaries: "v<digits>".
func isCompilerTemp(name string) bool {
	if len(name) < 2 || name[0] != 'v' {
		return false
	}
	for i := 1; i < len(name); i++ {
		if name[i] < '0' || name[i] > '9' {
			return false
		}
	}
	return true
}

// lowerer holds lowering state: per program, the scratch it reuses, and per
// algorithm, the rest.
//
// The source's names resolve to symbols — an algorithm-level name to one
// symbol, a local of an inlined function or a parameter bound to a value to a
// symbol of its own per inline site — and the environment, the versions and
// the declared widths are kept per symbol. Compiler temporaries are not
// symbols: nothing reads them by name, so no source name can reach one.
type lowerer struct {
	src *ast.Program
	irp *ir.Program
	alg *ir.Algorithm

	syms map[string]int32 // algorithm-level name -> symbol
	sym  []symbol
	// tempShaped lists the symbols named like a temporary ("v<digits>"), which
	// a temporary of that name shares a version counter with.
	tempShaped []int32
	// vars lists the variables minted, by their lowering ids; temp says which
	// are temporaries.
	vars []*ir.Var
	temp []bool

	guard     ir.Guard
	inlineSeq int
	// seq numbers temporaries "v<seq>": the instructions emitted so far plus
	// one per temporary minted in the arms of each if already merged. The
	// extra count keeps the temporaries' names, which printed programs and
	// the goldens carry, where they were when every such temporary was
	// merged by a select of its own.
	seq, temps int

	// arms counts the if-arms open. While one is, bind logs the bindings it
	// replaces, innermost arm last, so the arm can be rolled back; sets holds
	// what the arms of ifs being lowered left bound (see ifStmt).
	arms      int
	log, sets []binding
	stamp     int32
	merge     []int32

	live  []bool
	defOf []int32
}

// symbol is a variable of the source after resolution.
type symbol struct {
	name  string     // what its variables are called
	op    ir.Operand // its current binding, when bound
	bound bool
	decl  int // declared width, 0 when undeclared
	// ctr is the symbol whose version counter this one uses: its own, or
	// that of an earlier symbol of the same name, so their variables differ.
	ctr  int32
	seen int32 // stamp of the last rollback that listed it
	ver  int
}

// binding is a symbol's binding: what it is bound to, and whether it is.
type binding struct {
	sym int32
	op  ir.Operand
	had bool
}

// bind binds symbol s to op, logging the binding it replaces in an open arm.
func (lw *lowerer) bind(s int32, op ir.Operand) {
	sym := &lw.sym[s]
	if lw.arms > 0 {
		lw.log = append(lw.log, binding{s, sym.op, sym.bound})
	}
	sym.op, sym.bound = op, true
}

// rollback undoes the bindings logged since mark, restoring the environment
// the arm started from, and appends to sets what the arm left bound: every
// symbol it bound, once, with its binding at the end of the arm.
func (lw *lowerer) rollback(mark int) {
	lw.stamp++
	for i := len(lw.log) - 1; i >= mark; i-- {
		b := lw.log[i]
		sym := &lw.sym[b.sym]
		if sym.seen != lw.stamp {
			sym.seen = lw.stamp
			lw.sets = append(lw.sets, binding{b.sym, sym.op, true})
		}
		sym.op, sym.bound = b.op, b.had
	}
	lw.log = lw.log[:mark]
}

func (lw *lowerer) algorithm(a *ast.Algorithm) (alg *ir.Algorithm, err error) {
	lw.alg = &ir.Algorithm{Name: a.Name}
	clear(lw.syms)
	lw.sym, lw.tempShaped, lw.vars, lw.temp = lw.sym[:0], lw.tempShaped[:0], lw.vars[:0], lw.temp[:0]
	lw.guard, lw.inlineSeq, lw.seq, lw.temps = nil, 0, 0, 0
	defer func() {
		if r := recover(); r != nil {
			if le, ok := r.(*lowerError); ok {
				err = le.err
				return
			}
			panic(r)
		}
	}()
	lw.block(a.Body, nil)
	return lw.alg, nil
}

type lowerError struct{ err error }

func (lw *lowerer) fail(pos token.Position, format string, args ...any) {
	panic(&lowerError{fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...))})
}

// resolved is what a source name stands for: a variable symbol, or (sym < 0)
// the algorithm-level name — a variable, a header instance or a table.
type resolved struct {
	name string
	sym  int32
}

// scope maps the names of an inlined function's body to what they stand for:
// a parameter aliases what the caller's argument names, and a parameter bound
// to a value or a local is a symbol of its own. Other names are the
// algorithm's.
type scope struct {
	sub []subst
}

type subst struct {
	name string
	to   resolved
}

// resolve is nil-safe: outside any function, every name is the algorithm's.
func (s *scope) resolve(name string) resolved {
	if s != nil {
		for _, x := range s.sub {
			if x.name == name {
				return x.to
			}
		}
	}
	return resolved{name, -1}
}

func (s *scope) set(name string, to resolved) {
	for i := range s.sub {
		if s.sub[i].name == name {
			s.sub[i].to = to
			return
		}
	}
	s.sub = append(s.sub, subst{name, to})
}

// symbol returns the symbol of an algorithm-level name, making it on first
// use.
func (lw *lowerer) symbol(name string) int32 {
	if s, ok := lw.syms[name]; ok {
		return s
	}
	s := lw.newSymbol(name)
	lw.syms[name] = s
	return s
}

// varSym returns the symbol a resolved name stands for as a variable.
func (lw *lowerer) varSym(r resolved) int32 {
	if r.sym >= 0 {
		return r.sym
	}
	return lw.symbol(r.name)
}

// newSymbol makes a symbol named name. Two symbols can share a name — an
// algorithm's own "x__i1" and an inlined local so renamed — and so can a
// symbol and a temporary; they share one version counter, so every variable
// emitted still has a name and version of its own.
func (lw *lowerer) newSymbol(name string) int32 {
	s := int32(len(lw.sym))
	sym := symbol{name: name, ctr: s}
	if temp := isCompilerTemp(name); temp || strings.Contains(name, "__i") {
		shared := false
		for i := range lw.sym {
			if lw.sym[i].name == name {
				sym.ctr, shared = lw.sym[i].ctr, true
				break
			}
		}
		if temp && !shared {
			for _, v := range lw.vars {
				if lw.temp[v.ID] && v.Name == name {
					sym.ver = max(sym.ver, v.Ver)
				}
			}
			lw.tempShaped = append(lw.tempShaped, s)
		}
	}
	lw.sym = append(lw.sym, sym)
	return s
}

// nextVer returns the next SSA version of symbol s's name.
func (lw *lowerer) nextVer(s int32) int {
	c := &lw.sym[lw.sym[s].ctr]
	c.ver++
	return c.ver
}

func (lw *lowerer) emit(in *ir.Instr) *ir.Instr {
	in.ID = len(lw.alg.Instrs)
	lw.seq++
	in.Alg = lw.alg.Name
	in.Guard = lw.guard[:len(lw.guard):len(lw.guard)] // never written in place: shared by the arm
	lw.alg.Instrs = append(lw.alg.Instrs, in)
	return in
}

// mint makes a variable and gives it its lowering id.
func (lw *lowerer) mint(name string, ver, bits int, boolv, decl, temp bool) *ir.Var {
	v := &ir.Var{Name: name, Ver: ver, Bits: bits, ID: int32(len(lw.vars)), Bool: boolv, Decl: decl}
	lw.vars = append(lw.vars, v)
	lw.temp = append(lw.temp, temp)
	return v
}

// newVar mints and binds the next SSA version of symbol s.
func (lw *lowerer) newVar(s int32, bits int, boolv bool) *ir.Var {
	decl := lw.sym[s].decl
	if decl > 0 {
		bits = decl
	}
	v := lw.mint(lw.sym[s].name, lw.nextVer(s), bits, boolv, decl > 0, false)
	lw.bind(s, ir.VarOp(v))
	return v
}

// newTemp mints a fresh compiler temporary.
func (lw *lowerer) newTemp(bits int, boolv bool) *ir.Var {
	lw.temps++
	name := "v" + strconv.Itoa(lw.seq)
	ver := 1
	for _, s := range lw.tempShaped {
		if lw.sym[s].name == name {
			ver = lw.nextVer(s)
			break
		}
	}
	return lw.mint(name, ver, bits, boolv, false, true)
}

// read resolves a name to its current operand; names never written read as
// constant zero (implicit metadata default).
func (lw *lowerer) read(r resolved) ir.Operand {
	s := r.sym
	if s < 0 {
		var ok bool
		if s, ok = lw.syms[r.name]; !ok {
			return ir.ConstOp(0)
		}
	}
	if sym := &lw.sym[s]; sym.bound {
		return sym.op
	}
	return ir.ConstOp(0)
}

// field resolves hdr.name to its id and width, failing on an unknown field.
func (lw *lowerer) field(pos token.Position, hdr, name string) (int32, int) {
	id := lw.irp.FieldID(hdr, name)
	if id < 0 {
		lw.fail(pos, "unknown field %s.%s", hdr, name)
	}
	return id, lw.irp.Fields[id].Bits
}

func (lw *lowerer) block(body []ast.Stmt, sc *scope) {
	for _, s := range body {
		lw.stmt(s, sc)
	}
}

func (lw *lowerer) stmt(s ast.Stmt, sc *scope) {
	switch st := s.(type) {
	case *ast.VarDecl:
		if st.Global {
			lw.alg.Globals = append(lw.alg.Globals, &ir.GlobalDecl{
				Name: st.Name, Bits: st.Type.Bits, Len: max(st.Type.ArrayLen, 1), Alg: lw.alg.Name,
			})
			return
		}
		var sym int32
		if sc != nil {
			// Function-local declaration: a symbol of its own per inline site,
			// unless the body already has one of that name (a parameter bound
			// to a value, or the local declared again), which it stays.
			name := st.Name + "__i" + strconv.Itoa(lw.inlineSeq)
			if r := sc.resolve(st.Name); r.sym >= 0 && r.name == name {
				sym = r.sym
			} else {
				sym = lw.newSymbol(name)
				sc.set(st.Name, resolved{name, sym})
			}
		} else {
			sym = lw.symbol(st.Name)
		}
		lw.sym[sym].decl = st.Type.Bits
		if st.Init != nil {
			lw.assignTo(sym, st.Init, sc, st.Pos())
		}
	case *ast.ExternDecl:
		lw.alg.Externs = append(lw.alg.Externs, &ir.ExternDecl{
			Name: st.Name, Kind: st.Kind, Keys: st.Keys, Values: st.Values,
			Size: st.Size, Alg: lw.alg.Name,
		})
	case *ast.Assign:
		lw.assign(st, sc)
	case *ast.If:
		lw.ifStmt(st, sc)
	case *ast.ExprStmt:
		call, ok := st.X.(*ast.Call)
		if !ok {
			lw.fail(st.Pos(), "expression statement must be a call")
		}
		lw.callStmt(call, sc)
	}
}

// assign lowers "lhs = rhs".
func (lw *lowerer) assign(st *ast.Assign, sc *scope) {
	switch lhs := st.LHS.(type) {
	case *ast.Ident:
		lw.assignTo(lw.varSym(sc.resolve(lhs.Name)), st.RHS, sc, st.Pos())
	case *ast.FieldAccess:
		base := lhs.X.(*ast.Ident)
		hdr := sc.resolve(base.Name).name
		id, bits := lw.field(lhs.Pos(), hdr, lhs.Name)
		dest := ir.Dest{Kind: ir.DestField, FieldID: id, Hdr: hdr, Field: lhs.Name}
		lw.exprInto(dest, bits, st.RHS, sc)
	case *ast.Index:
		base := lhs.X.(*ast.Ident)
		name := sc.resolve(base.Name).name
		if g := lw.findGlobal(name); g != nil {
			idx := lw.expr(lhs.Index, sc)
			val := lw.expr(st.RHS, sc)
			lw.emit(&ir.Instr{Op: ir.IGlobalWrite, Table: name, Args: []ir.Operand{idx, val}, Pos: st.Pos()})
			return
		}
		lw.fail(st.Pos(), "cannot write extern table %q from the data plane; use insert()", name)
	default:
		lw.fail(st.Pos(), "invalid assignment target")
	}
}

// assignTo lowers "name = rhs" creating a new SSA version of symbol s. The
// RHS is lowered with the new version as its target so single-operator
// expressions land directly in it.
func (lw *lowerer) assignTo(s int32, rhs ast.Expr, sc *scope, pos token.Position) {
	lw.exprIntoVar(s, lw.sym[s].decl, rhs, sc, pos)
}

// exprIntoVar evaluates rhs into a fresh version of symbol s.
func (lw *lowerer) exprIntoVar(s int32, bits int, rhs ast.Expr, sc *scope, pos token.Position) {
	op, direct := lw.exprOp(rhs, sc)
	if direct != nil {
		v := lw.newVar(s, direct.bits, direct.boolv)
		direct.instr.Dest = ir.Dest{Kind: ir.DestVar, Var: v}
		return
	}
	v := lw.newVar(s, operandBits(op, bits), isBoolOperand(op))
	lw.emit(&ir.Instr{Op: ir.IAssign, Dest: ir.Dest{Kind: ir.DestVar, Var: v}, Args: []ir.Operand{op}, Pos: pos})
}

// exprInto evaluates rhs into an explicit destination (header field or
// global element).
func (lw *lowerer) exprInto(dest ir.Dest, bits int, rhs ast.Expr, sc *scope) {
	op, direct := lw.exprOp(rhs, sc)
	if direct != nil {
		direct.instr.Dest = dest
		return
	}
	lw.emit(&ir.Instr{Op: ir.IAssign, Dest: dest, Args: []ir.Operand{op}, Pos: rhs.Pos()})
}

// pending describes an instruction just emitted whose destination the
// caller may claim (avoids a temporary for top-level operations).
type pending struct {
	instr *ir.Instr
	bits  int
	boolv bool
}

// exprOp lowers an expression. If the top of the expression is an operation
// that produced an instruction whose destination can be redirected, it is
// returned as pending (with a temp destination already assigned that the
// caller may override); otherwise a plain operand is returned.
func (lw *lowerer) exprOp(e ast.Expr, sc *scope) (ir.Operand, *pending) {
	switch x := e.(type) {
	case *ast.Binary:
		if x.Op == ast.OpLAnd || x.Op == ast.OpLOr {
			a := lw.expr(x.X, sc)
			b := lw.expr(x.Y, sc)
			in := lw.emit(&ir.Instr{Op: ir.IBin, BinOp: x.Op, Args: []ir.Operand{a, b}, Pos: x.Pos()})
			return ir.Operand{}, &pending{instr: in, bits: 1, boolv: true}
		}
		a := lw.expr(x.X, sc)
		b := lw.expr(x.Y, sc)
		bits := max(operandBits(a, 0), operandBits(b, 0))
		boolv := x.Op.IsComparison()
		if boolv {
			bits = 1
		}
		in := lw.emit(&ir.Instr{Op: ir.IBin, BinOp: x.Op, Args: []ir.Operand{a, b}, Pos: x.Pos()})
		return ir.Operand{}, &pending{instr: in, bits: bits, boolv: boolv}
	case *ast.Unary:
		if x.Op == ast.OpLNot {
			a := lw.expr(x.X, sc)
			in := lw.emit(&ir.Instr{Op: ir.INot, Args: []ir.Operand{a}, Pos: x.Pos()})
			return ir.Operand{}, &pending{instr: in, bits: 1, boolv: true}
		}
		// Unary minus: 0 - x.
		a := lw.expr(x.X, sc)
		in := lw.emit(&ir.Instr{Op: ir.IBin, BinOp: ast.OpSub, Args: []ir.Operand{ir.ConstOp(0), a}, Pos: x.Pos()})
		return ir.Operand{}, &pending{instr: in, bits: operandBits(a, 0)}
	case *ast.Call:
		return lw.callExpr(x, sc)
	case *ast.Index:
		base := x.X.(*ast.Ident)
		name := sc.resolve(base.Name).name
		idx := lw.expr(x.Index, sc)
		if g := lw.findGlobal(name); g != nil {
			in := lw.emit(&ir.Instr{Op: ir.IGlobalRead, Table: name, Args: []ir.Operand{idx}, Pos: x.Pos()})
			return ir.Operand{}, &pending{instr: in, bits: g.Bits}
		}
		ex := lw.findExtern(name)
		if ex == nil {
			lw.fail(x.Pos(), "index into unknown table %q", name)
		}
		bits := 0
		if len(ex.Values) > 0 {
			bits = ex.Values[0].Type.Bits
		}
		in := lw.emit(&ir.Instr{Op: ir.ILookup, Table: name, Args: []ir.Operand{idx}, Pos: x.Pos()})
		return ir.Operand{}, &pending{instr: in, bits: bits}
	case *ast.InExpr:
		name := sc.resolve(x.Table).name
		ex := lw.findExtern(name)
		if ex == nil {
			lw.fail(x.Pos(), "membership test on unknown extern %q", name)
		}
		key := lw.expr(x.Key, sc)
		in := lw.emit(&ir.Instr{Op: ir.IMember, Table: name, Args: []ir.Operand{key}, Pos: x.Pos()})
		return ir.Operand{}, &pending{instr: in, bits: 1, boolv: true}
	}
	return lw.expr(e, sc), nil
}

// expr lowers an expression to a plain operand, materializing temporaries
// for compound subexpressions (single-operator tuning, §4.2 step 3).
func (lw *lowerer) expr(e ast.Expr, sc *scope) ir.Operand {
	switch x := e.(type) {
	case *ast.IntLit:
		return ir.ConstOp(x.Value)
	case *ast.BoolLit:
		if x.Value {
			return ir.ConstOp(1)
		}
		return ir.ConstOp(0)
	case *ast.Ident:
		r := sc.resolve(x.Name)
		if lw.findExtern(r.name) != nil || lw.findGlobal(r.name) != nil {
			lw.fail(x.Pos(), "table %q used as a value", r.name)
		}
		return lw.read(r)
	case *ast.FieldAccess:
		base, ok := x.X.(*ast.Ident)
		if !ok {
			lw.fail(x.Pos(), "nested field access unsupported")
		}
		hdr := sc.resolve(base.Name).name
		id, bits := lw.field(x.Pos(), hdr, x.Name)
		op := ir.FieldOp(hdr, x.Name, bits)
		op.FieldID = id
		return op
	default:
		op, direct := lw.exprOp(e, sc)
		if direct != nil {
			v := lw.newTemp(direct.bits, direct.boolv)
			direct.instr.Dest = ir.Dest{Kind: ir.DestVar, Var: v}
			return ir.VarOp(v)
		}
		return op
	}
}

// callExpr lowers a library call in expression position.
func (lw *lowerer) callExpr(x *ast.Call, sc *scope) (ir.Operand, *pending) {
	lf, ok := lib.Lookup(x.Name)
	if !ok {
		lw.fail(x.Pos(), "user function %q cannot be used in an expression", x.Name)
	}
	args := make([]ir.Operand, len(x.Args))
	for i, a := range x.Args {
		args[i] = lw.expr(a, sc)
	}
	op := ir.ILib
	if lf.Kind == lib.KindHash {
		op = ir.IHash
	}
	if lf.RetBits == 0 {
		lw.fail(x.Pos(), "void library function %q used in an expression", x.Name)
	}
	in := lw.emit(&ir.Instr{Op: op, Table: x.Name, Args: args, Pos: x.Pos()})
	return ir.Operand{}, &pending{instr: in, bits: lf.RetBits}
}

// callStmt lowers a call statement: library side effects or user-function
// inlining (§4.2 step 1).
func (lw *lowerer) callStmt(x *ast.Call, sc *scope) {
	if lf, ok := lib.Lookup(x.Name); ok {
		switch lf.Kind {
		case lib.KindHeaderOp:
			hdr := sc.resolve(x.Args[0].(*ast.Ident).Name).name
			op := ir.IHeaderAdd
			if x.Name == "remove_header" {
				op = ir.IHeaderRemove
			}
			lw.emit(&ir.Instr{Op: op, Table: hdr, Pos: x.Pos()})
		case lib.KindPacketOp:
			if x.Name == "insert" {
				lw.externInsert(x, sc)
				return
			}
			args := make([]ir.Operand, len(x.Args))
			for i, a := range x.Args {
				args[i] = lw.expr(a, sc)
			}
			lw.emit(&ir.Instr{Op: ir.IPacketOp, Table: x.Name, Args: args, Pos: x.Pos()})
		default:
			// Value-returning library call whose result is discarded.
			args := make([]ir.Operand, len(x.Args))
			for i, a := range x.Args {
				args[i] = lw.expr(a, sc)
			}
			op := ir.ILib
			if lf.Kind == lib.KindHash {
				op = ir.IHash
			}
			v := lw.newTemp(lf.RetBits, false)
			lw.emit(&ir.Instr{Op: op, Table: x.Name, Dest: ir.Dest{Kind: ir.DestVar, Var: v}, Args: args, Pos: x.Pos()})
		}
		return
	}
	f := lw.src.Func(x.Name)
	if f == nil {
		lw.fail(x.Pos(), "call to undefined function %q", x.Name)
	}
	lw.inline(f, x, sc)
}

// externInsert lowers insert(table, key..., value...).
func (lw *lowerer) externInsert(x *ast.Call, sc *scope) {
	tbl, ok := x.Args[0].(*ast.Ident)
	if !ok {
		lw.fail(x.Pos(), "insert: first argument must be an extern table")
	}
	name := sc.resolve(tbl.Name).name
	if lw.findExtern(name) == nil {
		lw.fail(x.Pos(), "insert into unknown extern %q", name)
	}
	args := make([]ir.Operand, 0, len(x.Args)-1)
	for _, a := range x.Args[1:] {
		args = append(args, lw.expr(a, sc))
	}
	lw.emit(&ir.Instr{Op: ir.IExternInsert, Table: name, Args: args, Pos: x.Pos()})
}

// inline splices a user function body at the call site with parameters
// aliased to caller arguments.
func (lw *lowerer) inline(f *ast.Func, call *ast.Call, sc *scope) {
	lw.inlineSeq++
	inner := &scope{sub: make([]subst, 0, len(f.Params))}
	for i, p := range f.Params {
		arg := call.Args[i]
		switch a := arg.(type) {
		case *ast.Ident:
			// Alias: reads and writes of the parameter act on the caller's
			// variable.
			inner.set(p.Name, sc.resolve(a.Name))
		default:
			// Evaluate the argument into a symbol of the inline site's own;
			// writes to the parameter update only it.
			s := lw.newSymbol(p.Name + "__i" + strconv.Itoa(lw.inlineSeq))
			lw.sym[s].decl = p.Type.Bits
			inner.set(p.Name, resolved{lw.sym[s].name, s})
			lw.exprIntoVar(s, p.Type.Bits, arg, sc, call.Pos())
		}
	}
	lw.block(f.Body, inner)
}

// ifStmt performs branch removal (§4.2 step 2): the condition becomes a
// predicate variable; both arms are lowered under extended guards; variables
// assigned divergently are merged with select instructions.
func (lw *lowerer) ifStmt(st *ast.If, sc *scope) {
	condOp, direct := lw.exprOp(st.Cond, sc)
	var pred *ir.Var
	if direct != nil {
		pred = lw.newTemp(1, true)
		direct.instr.Dest = ir.Dest{Kind: ir.DestVar, Var: pred}
	} else if condOp.Kind == ir.OpdVar {
		pred = condOp.Var
	} else {
		// Constant or field condition: normalize through an assignment so
		// the predicate is a variable.
		pred = lw.newTemp(1, true)
		lw.emit(&ir.Instr{Op: ir.IAssign, Dest: ir.Dest{Kind: ir.DestVar, Var: pred}, Args: []ir.Operand{condOp}, Pos: st.Pos()})
	}

	// Each arm is lowered on the outer environment and then rolled back, so
	// both start from it and neither is lowered on a copy.
	outerGuard, mark, temps := lw.guard, len(lw.log), lw.temps
	lw.arms++

	// Then arm.
	thenAt := len(lw.sets)
	lw.guard = append(append(make(ir.Guard, 0, len(outerGuard)+1), outerGuard...), ir.GuardTerm{Var: pred})
	lw.block(st.Then, sc)
	lw.rollback(mark)

	// Else arm.
	elseAt := len(lw.sets)
	lw.guard = append(append(make(ir.Guard, 0, len(outerGuard)+1), outerGuard...), ir.GuardTerm{Var: pred, Neg: true})
	lw.block(st.Else, sc)
	lw.rollback(mark)

	// Merge divergent assignments (predicated-SSA reconciliation): an arm's
	// binding of a symbol is what it bound last, or else the outer one.
	lw.guard = outerGuard
	lw.arms--
	thenSet, elseSet := lw.sets[thenAt:elseAt], lw.sets[elseAt:]
	for _, s := range lw.divergent(thenSet, elseSet) {
		outer := binding{s, lw.sym[s].op, lw.sym[s].bound}
		t, e := armBinding(thenSet, outer), armBinding(elseSet, outer)
		if !t.had {
			t.op = ir.ConstOp(0)
		}
		if !e.had {
			e.op = ir.ConstOp(0)
		}
		if t.had && e.had && sameOperand(t.op, e.op) {
			lw.bind(s, t.op)
			continue
		}
		bits := max(operandBits(t.op, 0), operandBits(e.op, 0))
		v := lw.newVar(s, bits, isBoolOperand(t.op) && isBoolOperand(e.op))
		lw.emit(&ir.Instr{
			Op:   ir.ISelect,
			Dest: ir.Dest{Kind: ir.DestVar, Var: v},
			Args: []ir.Operand{ir.VarOp(pred), t.op, e.op},
			Pos:  st.Pos(),
		})
	}
	lw.sets = lw.sets[:thenAt]
	lw.seq += lw.temps - temps
}

// armBinding returns what an arm left symbol outer.sym bound to: its entry
// in the arm's set, or else the outer binding.
func armBinding(set []binding, outer binding) binding {
	for _, b := range set {
		if b.sym == outer.sym {
			return b
		}
	}
	return outer
}

// divergent returns the symbols an arm bound differently from the outer
// environment, sorted by name (then by symbol, for two of one name), in the
// lowerer's scratch.
func (lw *lowerer) divergent(thenSet, elseSet []binding) []int32 {
	out := lw.merge[:0]
	consider := func(set []binding) {
		for _, b := range set {
			if slices.Contains(out, b.sym) {
				continue
			}
			if sym := &lw.sym[b.sym]; !sym.bound || !sameOperand(sym.op, b.op) {
				out = append(out, b.sym)
			}
		}
	}
	consider(thenSet)
	consider(elseSet)
	slices.SortFunc(out, func(a, b int32) int {
		if c := strings.Compare(lw.sym[a].name, lw.sym[b].name); c != 0 {
			return c
		}
		return int(a - b)
	})
	lw.merge = out
	return out
}

func sameOperand(a, b ir.Operand) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case ir.OpdConst:
		return a.Const == b.Const
	case ir.OpdVar:
		return a.Var == b.Var
	case ir.OpdField:
		return a.FieldID == b.FieldID
	}
	return false
}

func (lw *lowerer) findExtern(name string) *ir.ExternDecl {
	for _, e := range lw.alg.Externs {
		if e.Name == name {
			return e
		}
	}
	return lw.irp.Extern(name)
}

func (lw *lowerer) findGlobal(name string) *ir.GlobalDecl {
	for _, g := range lw.alg.Globals {
		if g.Name == name {
			return g
		}
	}
	return lw.irp.Global(name)
}

func operandBits(o ir.Operand, fallback int) int {
	switch o.Kind {
	case ir.OpdVar:
		if o.Var.Bits > 0 {
			return o.Var.Bits
		}
	case ir.OpdField:
		return o.Bits
	case ir.OpdConst:
		return constBits(o.Const)
	}
	return fallback
}

func isBoolOperand(o ir.Operand) bool {
	return o.Kind == ir.OpdVar && o.Var.Bool || o.Kind == ir.OpdConst && o.Const <= 1
}

func constBits(v uint64) int {
	n := 1
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// inferWidths runs width inference (§4.2 step 5) over all algorithms.
// Definitions precede uses in straight-line SSA code, so two forward passes
// reach a fixpoint (the second pass settles select merges whose arms were
// placeholder-width on the first pass).
func inferWidths(p *ir.Program) {
	for pass := 0; pass < 2; pass++ {
		for _, a := range p.Algorithms {
			for _, in := range a.Instrs {
				inferInstr(p, a, in)
			}
		}
	}
}

func inferInstr(p *ir.Program, a *ir.Algorithm, in *ir.Instr) {
	v := in.WritesVar()
	if v == nil || v.Decl {
		return
	}
	w := 0
	switch in.Op {
	case ir.IAssign:
		w = operandBits(in.Args[0], 0)
	case ir.IBin:
		if in.BinOp.IsComparison() || in.BinOp.IsLogical() {
			w = 1
		} else {
			w = max(operandBits(in.Args[0], 0), operandBits(in.Args[1], 0))
		}
	case ir.INot, ir.IMember:
		w = 1
	case ir.ISelect:
		w = max(operandBits(in.Args[1], 0), operandBits(in.Args[2], 0))
	case ir.IHash, ir.ILib:
		if lf, ok := lib.Lookup(in.Table); ok {
			w = lf.RetBits
		}
	case ir.ILookup:
		if e := p.Extern(in.Table); e != nil && len(e.Values) > 0 {
			w = e.Values[0].Type.Bits
		}
	case ir.IGlobalRead:
		if g := p.Global(in.Table); g != nil {
			w = g.Bits
		}
	}
	if w > v.Bits {
		v.Bits = w
	}
	if v.Bits == 0 {
		v.Bits = 32 // conservative default width
	}
}
