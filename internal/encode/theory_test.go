package encode

import (
	"context"
	"testing"

	"lyra/internal/smt"
	"lyra/internal/topo"
)

// TestFinalCheckDoesNotRederive: a Check of the placement the last accepted
// derive saw — the final model's, after a solve — accepts it without deriving
// again and leaves the materialized allocations in place; a Check of a
// different placement derives.
func TestFinalCheckDoesNotRederive(t *testing.T) {
	in := buildInput(t, subst(lbSrc, "1024", "1024"), lbScope, topo.Testbed())
	e, err := newEncoder(in, &phvIndex{prog: in.IR})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.encode(context.Background()); err != nil {
		t.Fatal(err)
	}
	assume := e.assumptionsFor(attemptCfg{})
	if st, err := e.solver.Solve(assume...); err != nil || st != smt.StatusSat {
		t.Fatalf("solve: %v %v", st, err)
	}
	first := e.solver.Model()
	derived, allocs := e.theory.derives, e.theory.allocations
	if derived == 0 {
		t.Fatal("the solve accepted a model without deriving it")
	}
	if e.theory.Check(first) != nil {
		t.Fatal("the accepted model was rejected")
	}
	if e.theory.derives != derived {
		t.Fatalf("the final check derived again (%d derives, %d before)", e.theory.derives, derived)
	}
	if len(allocs) == 0 || len(e.theory.allocations) != len(allocs) {
		t.Fatalf("allocations %v, were %v", e.theory.allocations, allocs)
	}

	// Move one placement: forbid a placed literal of an instruction with
	// another candidate, and solve again.
	var moved bool
	for _, pv := range e.placeVars {
		if !first.Value(pv.lit) || pv.shared {
			continue
		}
		st, err := e.solver.Solve(append(assume, pv.lit.Not())...)
		if err != nil || st != smt.StatusSat {
			continue
		}
		moved = true
		break
	}
	if !moved {
		t.Fatal("no placement could be moved")
	}
	derived = e.theory.derives
	if e.theory.Check(first) != nil {
		t.Fatal("the first model was rejected on its second check")
	}
	if e.theory.derives != derived+1 {
		t.Fatalf("a check of another placement than the last accepted did not derive (%d derives, %d before)", e.theory.derives, derived)
	}
	if e.theory.Check(first) != nil || e.theory.derives != derived+1 {
		t.Fatalf("checking it once more derived again (%d derives)", e.theory.derives)
	}
}
