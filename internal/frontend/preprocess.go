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
		FieldBits:  map[string]int{},
	}
	for _, inst := range prog.Instances {
		ht := prog.Header(inst.TypeName)
		if ht == nil {
			return nil, fmt.Errorf("%s: unknown header type %q", inst.Pos(), inst.TypeName)
		}
		out.HeaderBits[inst.Name] = ht.Width()
		for _, f := range ht.Fields {
			out.FieldBits[inst.Name+"."+f.Name] = f.Type.Bits
		}
	}
	for _, pk := range prog.Packets {
		w := 0
		for _, f := range pk.Fields {
			out.FieldBits[pk.Name+"."+f.Name] = f.Type.Bits
			w += f.Type.Bits
		}
		out.HeaderBits[pk.Name] = w
	}
	for _, a := range prog.Algorithms {
		la, err := lowerAlgorithm(prog, a, out)
		if err != nil {
			return nil, err
		}
		eliminateDead(la)
		out.Algorithms = append(out.Algorithms, la)
	}
	inferWidths(out)
	return out, nil
}

// eliminateDead removes instructions whose only effect is defining an SSA
// variable nobody reads (classic DCE). Branch reconciliation emits select
// merges for every divergent variable; those feeding no later read would
// otherwise synthesize into needless tables.
func eliminateDead(a *ir.Algorithm) {
	live := make([]bool, len(a.Instrs))
	// Roots: observable effects, plus writes to user-named variables. Only
	// compiler artifacts — select merges and v<N> temporaries — may die.
	for i, in := range a.Instrs {
		switch in.Op {
		case ir.IHeaderAdd, ir.IHeaderRemove, ir.IPacketOp, ir.IGlobalWrite, ir.IExternInsert:
			live[i] = true
		default:
			if in.Dest.Kind == ir.DestField || in.Dest.Kind == ir.DestGlobal {
				live[i] = true
			}
			if v := in.WritesVar(); v != nil && in.Op != ir.ISelect && !isCompilerTemp(v.Name) {
				live[i] = true
			}
		}
	}
	defOf := map[*ir.Var]int{}
	for i, in := range a.Instrs {
		if v := in.WritesVar(); v != nil {
			defOf[v] = i
		}
	}
	// Backward propagation to a fixpoint: a definition is live if any live
	// instruction reads it (as an argument or guard).
	changed := true
	for changed {
		changed = false
		for i, in := range a.Instrs {
			if !live[i] {
				continue
			}
			for _, v := range in.Reads() {
				if d, ok := defOf[v]; ok && !live[d] {
					live[d] = true
					changed = true
				}
			}
		}
	}
	var kept []*ir.Instr
	for i, in := range a.Instrs {
		if live[i] {
			kept = append(kept, in)
		}
	}
	if len(kept) == len(a.Instrs) {
		return
	}
	// Renumber densely; dependency analysis runs afterwards.
	newPreds := map[*ir.Var]int{}
	for i, in := range kept {
		in.ID = i
		if v := in.WritesVar(); v != nil {
			if _, ok := a.Preds[v]; ok {
				newPreds[v] = i
			}
		}
	}
	a.Instrs = kept
	a.Preds = newPreds
}

// isCompilerTemp reports whether a base name was minted by the lowerer
// (tempN pattern "v<digits>").
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

// lowerer holds per-algorithm lowering state.
type lowerer struct {
	src    *ast.Program
	irp    *ir.Program
	alg    *ir.Algorithm
	nextID int

	vers      map[string]int // base name -> last SSA version
	env       map[string]ir.Operand
	declBits  map[string]int // declared widths for locals
	guard     ir.Guard
	inlineSeq int
	// arm, while one arm of an if is lowered, logs the bindings the arm
	// replaces so that the arm can be rolled back (see ifStmt).
	arm *armLog
}

// armLog lists the bindings an if-arm replaced, in the order it replaced
// them: the name, what it was bound to before, and whether it was bound.
type armLog []binding

type binding struct {
	name string
	op   ir.Operand
	had  bool
}

// lookup returns the binding of name in the log, if any.
func (l armLog) lookup(name string) (ir.Operand, bool) {
	for _, b := range l {
		if b.name == name {
			return b.op, true
		}
	}
	return ir.Operand{}, false
}

// bind binds name to op, logging the binding it replaces in the open arm.
func (lw *lowerer) bind(name string, op ir.Operand) {
	if lw.arm != nil {
		old, had := lw.env[name]
		*lw.arm = append(*lw.arm, binding{name, old, had})
	}
	lw.env[name] = op
}

// rollback undoes an arm's bindings, restoring the environment the arm
// started from, and returns what the arm left bound: every name it bound,
// once, with its binding at the end of the arm.
func (lw *lowerer) rollback(log armLog) armLog {
	var out armLog
	for i := len(log) - 1; i >= 0; i-- {
		b := log[i]
		if _, seen := out.lookup(b.name); !seen {
			out = append(out, binding{b.name, lw.env[b.name], true})
		}
		if b.had {
			lw.env[b.name] = b.op
		} else {
			delete(lw.env, b.name)
		}
	}
	return out
}

func lowerAlgorithm(src *ast.Program, a *ast.Algorithm, irp *ir.Program) (alg *ir.Algorithm, err error) {
	lw := &lowerer{
		src:      src,
		irp:      irp,
		alg:      &ir.Algorithm{Name: a.Name, Preds: map[*ir.Var]int{}},
		vers:     map[string]int{},
		env:      map[string]ir.Operand{},
		declBits: map[string]int{},
	}
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

// scope maps source names to their lowering meaning inside an inlined
// function: params alias caller names; locals get unique names.
type scope struct {
	parent *scope
	sub    map[string]string
}

func (s *scope) resolve(name string) string {
	for cur := s; cur != nil; cur = cur.parent {
		if m, ok := cur.sub[name]; ok {
			return m
		}
	}
	return name
}

func (lw *lowerer) emit(in *ir.Instr) *ir.Instr {
	in.ID = lw.nextID
	lw.nextID++
	in.Alg = lw.alg.Name
	in.Guard = lw.guard[:len(lw.guard):len(lw.guard)] // never written in place: shared by the arm
	lw.alg.Instrs = append(lw.alg.Instrs, in)
	return in
}

// newVar mints the next SSA version of base.
func (lw *lowerer) newVar(base string, bits int, boolv bool) *ir.Var {
	lw.vers[base]++
	decl := false
	if db, ok := lw.declBits[base]; ok && db > 0 {
		bits = db
		decl = true
	}
	v := &ir.Var{Name: base, Ver: lw.vers[base], Bits: bits, Bool: boolv, Decl: decl}
	lw.bind(base, ir.VarOp(v))
	return v
}

// temp mints a fresh compiler temporary.
func (lw *lowerer) temp(bits int, boolv bool) *ir.Var {
	base := "v" + strconv.Itoa(lw.nextID)
	return lw.newVar(base, bits, boolv)
}

// read resolves a base name to its current operand; names never written
// read as constant zero (implicit metadata default).
func (lw *lowerer) read(base string) ir.Operand {
	if op, ok := lw.env[base]; ok {
		return op
	}
	return ir.ConstOp(0)
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
		name := st.Name
		if sc != nil {
			// Function-local declaration: rename uniquely per inline site.
			uniq := fmt.Sprintf("%s__i%d", st.Name, lw.inlineSeq)
			sc.sub[st.Name] = uniq
			name = uniq
		}
		lw.declBits[name] = st.Type.Bits
		if st.Init != nil {
			lw.assignTo(name, st.Init, sc, st.Pos())
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
		lw.assignTo(sc.resolveName(lhs.Name), st.RHS, sc, st.Pos())
	case *ast.FieldAccess:
		base := lhs.X.(*ast.Ident)
		hdr := sc.resolveName(base.Name)
		bits := lw.irp.FieldBits[hdr+"."+lhs.Name]
		dest := ir.Dest{Kind: ir.DestField, Hdr: hdr, Field: lhs.Name}
		lw.exprInto(dest, bits, st.RHS, sc)
	case *ast.Index:
		base := lhs.X.(*ast.Ident)
		name := sc.resolveName(base.Name)
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

// resolveName is a nil-safe scope resolution helper.
func (s *scope) resolveName(name string) string {
	if s == nil {
		return name
	}
	return s.resolve(name)
}

// assignTo lowers "name = rhs" creating a new SSA version of name. The RHS
// is lowered with the new version as its target so single-operator
// expressions land directly in it.
func (lw *lowerer) assignTo(name string, rhs ast.Expr, sc *scope, pos token.Position) {
	lw.exprIntoVar(name, lw.declBits[name], rhs, sc, pos)
}

// exprIntoVar evaluates rhs into a fresh version of base name.
func (lw *lowerer) exprIntoVar(name string, bits int, rhs ast.Expr, sc *scope, pos token.Position) {
	op, direct := lw.exprOp(rhs, sc)
	if direct != nil {
		v := lw.newVar(name, direct.bits, direct.boolv)
		direct.instr.Dest = ir.Dest{Kind: ir.DestVar, Var: v}
		return
	}
	v := lw.newVar(name, operandBits(op, bits), isBoolOperand(op))
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
		name := sc.resolveName(base.Name)
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
		name := sc.resolveName(x.Table)
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
		name := sc.resolveName(x.Name)
		if lw.findExtern(name) != nil || lw.findGlobal(name) != nil {
			lw.fail(x.Pos(), "table %q used as a value", name)
		}
		return lw.read(name)
	case *ast.FieldAccess:
		base, ok := x.X.(*ast.Ident)
		if !ok {
			lw.fail(x.Pos(), "nested field access unsupported")
		}
		hdr := sc.resolveName(base.Name)
		bits, ok := lw.irp.FieldBits[hdr+"."+x.Name]
		if !ok {
			lw.fail(x.Pos(), "unknown field %s.%s", hdr, x.Name)
		}
		return ir.FieldOp(hdr, x.Name, bits)
	default:
		op, direct := lw.exprOp(e, sc)
		if direct != nil {
			v := lw.temp(direct.bits, direct.boolv)
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
			hdr := sc.resolveName(x.Args[0].(*ast.Ident).Name)
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
			v := lw.temp(lf.RetBits, false)
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
	name := sc.resolveName(tbl.Name)
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
	inner := &scope{parent: nil, sub: map[string]string{}}
	for i, p := range f.Params {
		arg := call.Args[i]
		switch a := arg.(type) {
		case *ast.Ident:
			// Alias: reads and writes of the parameter act on the caller's
			// variable.
			inner.sub[p.Name] = sc.resolveName(a.Name)
		default:
			// Evaluate the argument into a unique temporary; writes to the
			// parameter update only the temporary.
			uniq := fmt.Sprintf("%s__i%d", p.Name, lw.inlineSeq)
			inner.sub[p.Name] = uniq
			lw.declBits[uniq] = p.Type.Bits
			lw.exprIntoVar(uniq, p.Type.Bits, arg, sc, call.Pos())
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
		pred = lw.temp(1, true)
		direct.instr.Dest = ir.Dest{Kind: ir.DestVar, Var: pred}
		lw.alg.Preds[pred] = direct.instr.ID
	} else if condOp.Kind == ir.OpdVar {
		pred = condOp.Var
	} else {
		// Constant or field condition: normalize through an assignment so
		// the predicate is a variable.
		pred = lw.temp(1, true)
		in := lw.emit(&ir.Instr{Op: ir.IAssign, Dest: ir.Dest{Kind: ir.DestVar, Var: pred}, Args: []ir.Operand{condOp}, Pos: st.Pos()})
		lw.alg.Preds[pred] = in.ID
	}

	// Each arm is lowered on the outer environment and then rolled back, so
	// both start from it and neither is lowered on a copy.
	outerGuard, outerArm := lw.guard, lw.arm
	var log armLog
	lw.arm = &log

	// Then arm.
	lw.guard = append(append(ir.Guard(nil), outerGuard...), ir.GuardTerm{Var: pred})
	lw.block(st.Then, sc)
	thenSet := lw.rollback(log)

	// Else arm.
	log = log[:0]
	lw.guard = append(append(ir.Guard(nil), outerGuard...), ir.GuardTerm{Var: pred, Neg: true})
	lw.block(st.Else, sc)
	elseSet := lw.rollback(log)

	// Merge divergent assignments (predicated-SSA reconciliation): an arm's
	// binding of a name is what it bound last, or else the outer one.
	lw.guard, lw.arm = outerGuard, outerArm
	for _, name := range divergentNames(lw.env, thenSet, elseSet) {
		tOp, tok := thenSet.lookup(name)
		if !tok {
			tOp, tok = lw.env[name]
		}
		eOp, eok := elseSet.lookup(name)
		if !eok {
			eOp, eok = lw.env[name]
		}
		if !tok {
			tOp = ir.ConstOp(0)
		}
		if !eok {
			eOp = ir.ConstOp(0)
		}
		if tok && eok && sameOperand(tOp, eOp) {
			lw.bind(name, tOp)
			continue
		}
		bits := max(operandBits(tOp, 0), operandBits(eOp, 0))
		v := lw.newVar(name, bits, isBoolOperand(tOp) && isBoolOperand(eOp))
		lw.emit(&ir.Instr{
			Op:   ir.ISelect,
			Dest: ir.Dest{Kind: ir.DestVar, Var: v},
			Args: []ir.Operand{ir.VarOp(pred), tOp, eOp},
			Pos:  st.Pos(),
		})
	}
}

// divergentNames returns the names an arm bound differently from the outer
// environment, sorted.
func divergentNames(outer map[string]ir.Operand, thenSet, elseSet armLog) []string {
	var out []string
	consider := func(set armLog) {
		for _, b := range set {
			if slices.Contains(out, b.name) {
				continue
			}
			if o, ok := outer[b.name]; !ok || !sameOperand(o, b.op) {
				out = append(out, b.name)
			}
		}
	}
	consider(thenSet)
	consider(elseSet)
	// Deterministic order: sort by name.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
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
		return a.Hdr == b.Hdr && a.Field == b.Field
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
