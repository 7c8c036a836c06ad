package smt

// Formula is a boolean combination of literals. Formulas are built with the
// package-level combinators (And, Or, Not, Implies, Iff, Xor, Atom) and
// asserted with Solver.Require, which performs a Tseitin transformation into
// clauses.
type Formula struct {
	op   formulaOp
	lit  Lit
	subs []*Formula
}

type formulaOp int

const (
	opAtom formulaOp = iota
	opAnd
	opOr
	opNot
	opXor
	opIff
)

// Atom wraps a literal as a formula.
func Atom(l Lit) *Formula { return &Formula{op: opAtom, lit: l} }

// True is a formula that always holds (the empty conjunction).
func True() *Formula { return &Formula{op: opAnd} }

// False is a formula that never holds (the empty disjunction).
func False() *Formula { return &Formula{op: opOr} }

// And returns the conjunction of the given formulas.
func And(fs ...*Formula) *Formula { return &Formula{op: opAnd, subs: fs} }

// Or returns the disjunction of the given formulas.
func Or(fs ...*Formula) *Formula { return &Formula{op: opOr, subs: fs} }

// Not returns the negation of f.
func Not(f *Formula) *Formula { return &Formula{op: opNot, subs: []*Formula{f}} }

// Implies returns a → b.
func Implies(a, b *Formula) *Formula { return Or(Not(a), b) }

// Iff returns a ↔ b.
func Iff(a, b *Formula) *Formula { return &Formula{op: opIff, subs: []*Formula{a, b}} }

// Xor returns a ⊕ b.
func Xor(a, b *Formula) *Formula { return &Formula{op: opXor, subs: []*Formula{a, b}} }

// Require asserts that f holds, adding Tseitin clauses as needed. Returns
// false if the formula is unsatisfiable at the top level.
func (s *Solver) Require(f *Formula) bool {
	l, ok := s.tseitin(f)
	if !ok {
		return false
	}
	return s.AddClause(l)
}

// tseitin returns a literal equisatisfiably equivalent to f.
func (s *Solver) tseitin(f *Formula) (Lit, bool) {
	switch f.op {
	case opAtom:
		return f.lit, true

	case opNot:
		l, ok := s.tseitin(f.subs[0])
		return l.Not(), ok

	case opAnd:
		if len(f.subs) == 0 {
			return s.constLit(true)
		}
		if len(f.subs) == 1 {
			return s.tseitin(f.subs[0])
		}
		lits := make([]Lit, len(f.subs))
		for i, sub := range f.subs {
			l, ok := s.tseitin(sub)
			if !ok {
				return LitUndef, false
			}
			lits[i] = l
		}
		out := s.NewBool("")
		// out → each lit ; (all lits) → out
		big := make([]Lit, 0, len(lits)+1)
		for _, l := range lits {
			if !s.AddClause(out.Not(), l) {
				return LitUndef, false
			}
			big = append(big, l.Not())
		}
		big = append(big, out)
		return out, s.AddClause(big...)

	case opOr:
		if len(f.subs) == 0 {
			return s.constLit(false)
		}
		if len(f.subs) == 1 {
			return s.tseitin(f.subs[0])
		}
		lits := make([]Lit, len(f.subs))
		for i, sub := range f.subs {
			l, ok := s.tseitin(sub)
			if !ok {
				return LitUndef, false
			}
			lits[i] = l
		}
		out := s.NewBool("")
		big := make([]Lit, 0, len(lits)+1)
		for _, l := range lits {
			if !s.AddClause(out, l.Not()) {
				return LitUndef, false
			}
			big = append(big, l)
		}
		big = append(big, out.Not())
		return out, s.AddClause(big...)

	case opXor:
		a, ok := s.tseitin(f.subs[0])
		if !ok {
			return LitUndef, false
		}
		b, ok := s.tseitin(f.subs[1])
		if !ok {
			return LitUndef, false
		}
		out := s.NewBool("")
		ok = s.AddClause(out.Not(), a, b) &&
			s.AddClause(out.Not(), a.Not(), b.Not()) &&
			s.AddClause(out, a.Not(), b) &&
			s.AddClause(out, a, b.Not())
		return out, ok

	case opIff:
		a, ok := s.tseitin(f.subs[0])
		if !ok {
			return LitUndef, false
		}
		b, ok := s.tseitin(f.subs[1])
		if !ok {
			return LitUndef, false
		}
		out := s.NewBool("")
		ok = s.AddClause(out.Not(), a.Not(), b) &&
			s.AddClause(out.Not(), a, b.Not()) &&
			s.AddClause(out, a, b) &&
			s.AddClause(out, a.Not(), b.Not())
		return out, ok
	}
	panic("smt: unknown formula op")
}

// constLit returns a literal fixed to the given value.
func (s *Solver) constLit(val bool) (Lit, bool) {
	l := s.NewBool("")
	if val {
		return l, s.AddClause(l)
	}
	return l, s.AddClause(l.Not())
}

// OrEquals introduces (or reuses) a literal out with out ↔ (l1 ∨ l2 ∨ ...).
func (s *Solver) OrEquals(lits []Lit, name string) (Lit, bool) {
	switch len(lits) {
	case 0:
		return s.constLit(false)
	case 1:
		return lits[0], true
	}
	out := s.NewBool(name)
	big := make([]Lit, 0, len(lits)+1)
	for _, l := range lits {
		if !s.AddClause(out, l.Not()) {
			return LitUndef, false
		}
		big = append(big, l)
	}
	big = append(big, out.Not())
	return out, s.AddClause(big...)
}
