package encode

import (
	"context"
	"slices"
	"testing"

	"lyra/internal/asic"
	"lyra/internal/smt"
	"lyra/internal/topo"
)

// TestFinalCheckDoesNotRederive: a Check of the placement the last accepted
// derive saw — the final model's, after a solve — accepts it without deriving
// again and leaves the allocations it wrote per switch index in place; a Check
// of a different placement derives.
func TestFinalCheckDoesNotRederive(t *testing.T) {
	in := buildInput(t, subst(lbSrc, "1024", "1024"), lbScope, topo.Testbed())
	e, err := newEncoder(in, scopeUnion(in), nameWalk(t, in, scopeUnion(in)), &phvIndex{prog: in.IR})
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
	allocations := func() (out []*asic.Allocation) {
		for _, s := range e.theory.sws {
			out = append(out, s.alloc)
		}
		return out
	}
	derived, allocs := e.theory.derives, allocations()
	if derived == 0 {
		t.Fatal("the solve accepted a model without deriving it")
	}
	if e.theory.Check(first) != nil {
		t.Fatal("the accepted model was rejected")
	}
	if e.theory.derives != derived {
		t.Fatalf("the final check derived again (%d derives, %d before)", e.theory.derives, derived)
	}
	if !slices.ContainsFunc(allocs, func(a *asic.Allocation) bool { return a != nil }) || !slices.Equal(allocations(), allocs) {
		t.Fatalf("allocations %v, were %v", allocations(), allocs)
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

// TestRejectedCheckAllocatesItsLemma: a Check that rejects a placement it has
// rejected before allocates the lemma it returns and nothing that grows with
// the pod — the same count on a pod of the k=8 fat tree (8 switches) as on one
// of the k=32 tree (32 switches). The rejected placement is the first the
// search meets: the encoding of the load balancer does not depend on its
// table sizes, so a solve with a small conn_table, which the theory accepts at
// once, lands on exactly the assignment the full-size one rejects first.
func TestRejectedCheckAllocatesItsLemma(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is meaningless under the race detector")
	}
	encoded := func(conn string, k int) *encoder {
		in := buildInput(t, subst(lbSrc, conn, "1000000"), podLBScope, podNet(1, k))
		e, err := newEncoder(in, scopeUnion(in), nameWalk(t, in, scopeUnion(in)), &phvIndex{prog: in.IR})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.encode(context.Background()); err != nil {
			t.Fatal(err)
		}
		return e
	}
	allocs := map[int]float64{}
	for _, k := range []int{8, 32} {
		small := encoded("1000", k)
		if st, err := small.solver.Solve(small.assumptionsFor(attemptCfg{})...); err != nil || st != smt.StatusSat {
			t.Fatalf("k=%d: solve: %v %v", k, st, err)
		}
		first := small.solver.Model()
		e := encoded("5500000", k)
		lemma := e.theory.Check(first)
		if len(lemma) == 0 {
			t.Fatalf("k=%d: the full-size conn_table fits the first placement", k)
		}
		allocs[k] = testing.AllocsPerRun(20, func() {
			if again := e.theory.Check(first); !slices.Equal(again, lemma) {
				t.Fatalf("k=%d: re-checking gave lemma %v, first %v", k, again, lemma)
			}
		})
		t.Logf("k=%d: %d switches, a %d-literal lemma, %.0f allocations per rejected check", k, len(e.switches), len(lemma), allocs[k])
	}
	if allocs[8] != allocs[32] {
		t.Errorf("a rejected check allocates %.0f times on the k=8 pod and %.0f on the k=32 pod", allocs[8], allocs[32])
	}
}
