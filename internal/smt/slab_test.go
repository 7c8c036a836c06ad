package smt

import (
	"math/rand"
	"reflect"
	"testing"
)

// addClauseEach is AddClause as it was before clauses came from slabs and were
// attached in batches: a fresh literal slice and *clause per clause, attached
// on its way in. A solver fed through it is the reference the slab solver
// must follow decision for decision.
func (s *Solver) addClauseEach(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	out := lits[:0:0]
	for _, l := range lits {
		switch s.value(l) {
		case lTrue:
			return true
		case lFalse:
			continue
		}
		dup, taut := false, false
		for _, o := range out {
			if o == l {
				dup = true
			}
			if o == l.Not() {
				taut = true
			}
		}
		if taut {
			return true
		}
		if !dup {
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		if !s.enqueue(out[0], reason{}) {
			s.ok = false
			return false
		}
		s.ok = s.propagate() == nil
		return s.ok
	}
	c := &clause{lits: out}
	s.nclauses++
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], watch{c, c.lits[1]})
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watch{c, c.lits[0]})
	return true
}

// pairTheory vetoes every full assignment making both literals of a pair
// true, so the sweep also learns theory conflict clauses.
type pairTheory [][2]Lit

func (pt pairTheory) Check(m *Model) []Lit {
	for _, p := range pt {
		if m.Value(p[0]) && m.Value(p[1]) {
			return []Lit{p[0].Not(), p[1].Not()}
		}
	}
	return nil
}

// TestSlabSolverMatchesPerClauseSolver: on a seeded sweep of random clause
// sets, cardinality constraints, theory vetoes, and incremental solves under
// random assumptions with clauses added between them, a solver fed through
// AddClause (slabs, batched attach) and one fed through addClauseEach return
// the same status, model, core and search statistics at every step.
func TestSlabSolverMatchesPerClauseSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 400; iter++ {
		slab, each := NewSolver(), NewSolver()
		n := 4 + rng.Intn(40)
		if iter%2 == 0 {
			slab.Reserve(n) // as the encoder does; must change nothing
		}
		var lits []Lit
		for i := 0; i < n; i++ {
			lits = append(lits, slab.NewBool(""))
			each.NewBool("")
		}
		randLit := func() Lit {
			l := lits[rng.Intn(n)]
			if rng.Intn(2) == 0 {
				l = l.Not()
			}
			return l
		}
		var theory pairTheory
		for k := rng.Intn(3); k > 0; k-- {
			theory = append(theory, [2]Lit{randLit(), randLit()})
		}
		if len(theory) > 0 {
			slab.AddTheory(theory)
			each.AddTheory(theory)
		}
		for round := 0; round < 4; round++ {
			for m := rng.Intn(3 * n); m > 0; m-- {
				cl := make([]Lit, 1+rng.Intn(5))
				for i := range cl {
					cl[i] = randLit()
				}
				if a, b := slab.AddClause(cl...), each.addClauseEach(cl...); a != b {
					t.Fatalf("iter %d: AddClause %v returned %v, reference %v", iter, cl, a, b)
				}
			}
			if rng.Intn(4) == 0 {
				card := []Lit{randLit(), randLit(), randLit(), randLit()}
				w := []int64{1, 1, 1, 1}
				if a, b := slab.AddAtMost(card, w, 2), each.AddAtMost(card, w, 2); a != b {
					t.Fatalf("iter %d: AddAtMost returned %v, reference %v", iter, a, b)
				}
			}
			assume := make([]Lit, rng.Intn(4))
			for i := range assume {
				assume[i] = randLit()
			}
			st1, err1 := slab.Solve(assume...)
			st2, err2 := each.Solve(assume...)
			if st1 != st2 || (err1 == nil) != (err2 == nil) {
				t.Fatalf("iter %d round %d: status %v/%v, reference %v/%v", iter, round, st1, err1, st2, err2)
			}
			if st1 == StatusSat {
				m1, m2 := slab.Model(), each.Model()
				for _, l := range lits {
					if m1.Value(l) != m2.Value(l) {
						t.Fatalf("iter %d round %d: models differ at %v", iter, round, l)
					}
				}
			}
			if !reflect.DeepEqual(slab.Core(), each.Core()) {
				t.Fatalf("iter %d round %d: core %v, reference %v", iter, round, slab.Core(), each.Core())
			}
			if a, b := slab.Statistics(), each.Statistics(); a != b {
				t.Fatalf("iter %d round %d: stats %+v, reference %+v", iter, round, a, b)
			}
			if slab.NumClauses() != each.NumClauses() {
				t.Fatalf("iter %d: %d clauses, reference %d", iter, slab.NumClauses(), each.NumClauses())
			}
		}
	}
}
