package ir

import "lyra/internal/lang/ast"

// Clone deep-copies a program so a rewrite pass can mutate the copy freely.
// Instructions, guards, operands, extern and global declarations, and the
// width maps are all fresh; SSA variables are remapped through a single
// identity table so pointer-based Var identity (guard terms, operands,
// destinations, the Vars table) stays internally consistent inside the
// clone. The immutable AST (Source, Pipelines) and the field table are
// shared.
func (p *Program) Clone() *Program {
	out := &Program{
		Source:     p.Source,
		Pipelines:  p.Pipelines,
		HeaderBits: make(map[string]int, len(p.HeaderBits)),
		Fields:     p.Fields,
	}
	for k, v := range p.HeaderBits {
		out.HeaderBits[k] = v
	}
	vars := map[*Var]*Var{}
	cloneVar := func(v *Var) *Var {
		if v == nil {
			return nil
		}
		if c, ok := vars[v]; ok {
			return c
		}
		c := &Var{}
		*c = *v
		vars[v] = c
		return c
	}
	cloneOperand := func(o Operand) Operand {
		o.Var = cloneVar(o.Var)
		return o
	}
	for _, a := range p.Algorithms {
		ca := &Algorithm{Name: a.Name}
		for _, e := range a.Externs {
			ce := &ExternDecl{}
			*ce = *e
			ce.Keys = append([]ast.Field(nil), e.Keys...)
			ce.Values = append([]ast.Field(nil), e.Values...)
			ca.Externs = append(ca.Externs, ce)
		}
		for _, g := range a.Globals {
			cg := &GlobalDecl{}
			*cg = *g
			ca.Globals = append(ca.Globals, cg)
		}
		for _, in := range a.Instrs {
			ci := &Instr{}
			*ci = *in
			ci.Args = make([]Operand, len(in.Args))
			for i, arg := range in.Args {
				ci.Args[i] = cloneOperand(arg)
			}
			ci.Dest.Var = cloneVar(in.Dest.Var)
			ci.Guard = make(Guard, len(in.Guard))
			for i, t := range in.Guard {
				ci.Guard[i] = GuardTerm{Var: cloneVar(t.Var), Neg: t.Neg}
			}
			ci.Deps = append([]int(nil), in.Deps...)
			ca.Instrs = append(ca.Instrs, ci)
		}
		if a.Vars != nil {
			ca.Vars = make([]*Var, len(a.Vars))
			for i, v := range a.Vars {
				ca.Vars[i] = cloneVar(v)
			}
		}
		out.Algorithms = append(out.Algorithms, ca)
	}
	return out
}
