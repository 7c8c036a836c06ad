// Package smt implements the constraint-solving substrate used by the Lyra
// compiler back-end.
//
// The original Lyra system encodes implementation and placement decisions as
// an SMT problem and discharges it to Z3. This package provides the same
// capability from scratch: a conflict-driven clause-learning (CDCL) SAT core
// extended with weighted pseudo-boolean constraints and a DPLL(T)-style
// theory hook. The Lyra back-end's resource model (stage allocation, memory
// packing, table splitting) plugs in as a theory and produces conflict
// clauses over placement literals, exactly mirroring how the paper's encoding
// confines all non-boolean reasoning to resource arithmetic.
package smt

import "fmt"

// Var identifies a boolean variable. Variables are created with
// Solver.NewBool and are numbered densely from 0.
type Var int32

// Lit is a literal: a boolean variable or its negation. The zero Lit is the
// positive literal of variable 0; use Solver.NewBool to obtain fresh
// literals rather than constructing Lit values directly.
type Lit int32

// LitUndef is a sentinel for "no literal".
const LitUndef Lit = -1

// PosLit returns the positive literal of v.
func PosLit(v Var) Lit { return Lit(v << 1) }

// NegLit returns the negative literal of v.
func NegLit(v Var) Lit { return Lit(v<<1 | 1) }

// Var returns the variable underlying l.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg reports whether l is a negated literal.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complement of l.
func (l Lit) Not() Lit { return l ^ 1 }

func (l Lit) String() string {
	if l == LitUndef {
		return "undef"
	}
	if l.Neg() {
		return fmt.Sprintf("~x%d", l.Var())
	}
	return fmt.Sprintf("x%d", l.Var())
}

// lbool is a three-valued boolean used for assignments.
type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

func (b lbool) neg() lbool {
	switch b {
	case lTrue:
		return lFalse
	case lFalse:
		return lTrue
	}
	return lUndef
}

// litValue folds the sign of a literal into a variable assignment.
func litValue(assign lbool, l Lit) lbool {
	if l.Neg() {
		return assign.neg()
	}
	return assign
}
