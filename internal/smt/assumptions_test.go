package smt

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// pbSpec is a random weighted at-most constraint over the original problem
// variables, evaluable against a brute-force assignment mask.
type pbSpec struct {
	lits    []Lit
	weights []int64
	bound   int64
}

func (c pbSpec) eval(mask int) bool {
	var sum int64
	for i, l := range c.lits {
		v := mask>>int(l.Var())&1 == 1
		if l.Neg() {
			v = !v
		}
		if v {
			sum += c.weights[i]
		}
	}
	return sum <= c.bound
}

// randomProblem draws a random formula plus random PB constraints over n
// fresh variables of s and returns the problem literals, a builder that
// replays the identical constraints into any solver (NewBool order makes
// literal values line up across solvers), and a ground-truth evaluator.
func randomProblem(rng *rand.Rand, n int) (build func(*Solver) []Lit, eval func(mask int) bool) {
	formulaSeed := rng.Int63()
	nPB := rng.Intn(3)
	type pbShape struct {
		idxs    []int
		negs    []bool
		weights []int64
		bound   int64
	}
	pbShapes := make([]pbShape, nPB)
	for i := range pbShapes {
		k := 2 + rng.Intn(n-1)
		sh := pbShape{}
		var total int64
		for j := 0; j < k; j++ {
			w := 1 + rng.Int63n(4)
			sh.idxs = append(sh.idxs, rng.Intn(n))
			sh.negs = append(sh.negs, rng.Intn(2) == 0)
			sh.weights = append(sh.weights, w)
			total += w
		}
		sh.bound = rng.Int63n(total + 1)
		pbShapes[i] = sh
	}

	var evalFormula func(mask int) bool
	var pbs []pbSpec
	build = func(s *Solver) []Lit {
		lits := make([]Lit, n)
		for i := range lits {
			lits[i] = s.NewBool("")
		}
		f, e := randomFormula(rand.New(rand.NewSource(formulaSeed)), s, lits, 3)
		s.AddClause(f)
		evalFormula = e
		pbs = pbs[:0]
		for _, sh := range pbShapes {
			c := pbSpec{bound: sh.bound}
			for j, idx := range sh.idxs {
				l := lits[idx]
				if sh.negs[j] {
					l = l.Not()
				}
				c.lits = append(c.lits, l)
				c.weights = append(c.weights, sh.weights[j])
			}
			s.AddAtMost(c.lits, c.weights, c.bound)
			pbs = append(pbs, c)
		}
		return lits
	}
	eval = func(mask int) bool {
		if !evalFormula(mask) {
			return false
		}
		for _, c := range pbs {
			if !c.eval(mask) {
				return false
			}
		}
		return true
	}
	return build, eval
}

func litHolds(l Lit, mask int) bool {
	v := mask>>int(l.Var())&1 == 1
	if l.Neg() {
		v = !v
	}
	return v
}

// TestSolveUnderAssumptionsMatchesUnitClauses is the incremental-interface
// property test: Solve(assumptions) on one persistent solver must agree, for
// every assumption set, with a fresh solver given the same constraints plus
// the assumptions as unit clauses — and both must agree with brute force.
func TestSolveUnderAssumptionsMatchesUnitClauses(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for iter := 0; iter < 1000; iter++ {
		n := 3 + rng.Intn(6)
		build, eval := randomProblem(rng, n)
		inc := NewSolver()
		lits := build(inc)

		rounds := 1 + rng.Intn(3)
		for round := 0; round < rounds; round++ {
			k := rng.Intn(n + 1)
			assumps := make([]Lit, 0, k)
			for j := 0; j < k; j++ {
				l := lits[rng.Intn(n)]
				if rng.Intn(2) == 0 {
					l = l.Not()
				}
				assumps = append(assumps, l)
			}

			wantSat := false
			for mask := 0; mask < 1<<n; mask++ {
				ok := eval(mask)
				for _, a := range assumps {
					if !litHolds(a, mask) {
						ok = false
						break
					}
				}
				if ok {
					wantSat = true
					break
				}
			}

			st, err := inc.Solve(assumps...)
			if err != nil {
				t.Fatalf("iter %d round %d: incremental Solve: %v", iter, round, err)
			}
			if wantSat != (st == StatusSat) {
				t.Fatalf("iter %d round %d: brute=%v incremental=%v (assumps=%v)",
					iter, round, wantSat, st, assumps)
			}

			fresh := NewSolver()
			build(fresh)
			for _, a := range assumps {
				fresh.AddClause(a)
			}
			fst, ferr := fresh.Solve()
			if ferr != nil {
				t.Fatalf("iter %d round %d: fresh Solve: %v", iter, round, ferr)
			}
			if fst != st {
				t.Fatalf("iter %d round %d: incremental=%v fresh-with-units=%v",
					iter, round, st, fst)
			}

			if st == StatusSat {
				m := inc.Model()
				mask := 0
				for i, l := range lits {
					if m.Value(l) {
						mask |= 1 << i
					}
				}
				if !eval(mask) {
					t.Fatalf("iter %d round %d: incremental model violates constraints", iter, round)
				}
				for _, a := range assumps {
					if !m.Value(a) {
						t.Fatalf("iter %d round %d: incremental model violates assumption %v", iter, round, a)
					}
				}
			}
		}
	}
}

// TestCoreSoundnessRandom replays every extracted core as unit clauses into a
// fresh solver carrying the same constraints; the replay must be UNSAT.
func TestCoreSoundnessRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	coresSeen := 0
	for iter := 0; iter < 400; iter++ {
		n := 3 + rng.Intn(6)
		build, _ := randomProblem(rng, n)
		inc := NewSolver()
		lits := build(inc)

		for round := 0; round < 3; round++ {
			k := 1 + rng.Intn(n)
			assumps := make([]Lit, 0, k)
			for j := 0; j < k; j++ {
				l := lits[rng.Intn(n)]
				if rng.Intn(2) == 0 {
					l = l.Not()
				}
				assumps = append(assumps, l)
			}
			st, err := inc.Solve(assumps...)
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			core := inc.Core()
			if st != StatusUnsat || core == nil {
				continue
			}
			coresSeen++
			// Every core member must be one of the assumptions.
			for _, c := range core {
				found := false
				for _, a := range assumps {
					if a == c {
						found = true
					}
				}
				if !found {
					t.Fatalf("iter %d: core member %v not among assumptions %v", iter, c, assumps)
				}
			}
			fresh := NewSolver()
			build(fresh)
			for _, c := range core {
				fresh.AddClause(c)
			}
			fst, ferr := fresh.Solve()
			if ferr != nil {
				t.Fatalf("iter %d: core replay: %v", iter, ferr)
			}
			if fst != StatusUnsat {
				t.Fatalf("iter %d: core %v replayed as units is %v, want unsat", iter, core, fst)
			}
		}
	}
	if coresSeen < 20 {
		t.Fatalf("generator produced only %d cores; test is vacuous", coresSeen)
	}
}

// curatedCoreFixtures are hand-built problems whose minimal failed-assumption
// core is known exactly. Each build function replays identical constraints
// into any solver and returns (selectors, assumption set, expected minimal
// core as indices into the assumption set).
var curatedCoreFixtures = []struct {
	name  string
	build func(s *Solver) (assumps []Lit, wantCore []int)
}{
	{
		// sA forces a, sB forbids a, sC is satisfiable padding.
		name: "direct-contradiction",
		build: func(s *Solver) ([]Lit, []int) {
			a := s.NewBool("a")
			sA := s.NewAssumption("force-a")
			sB := s.NewAssumption("forbid-a")
			sC := s.NewAssumption("padding")
			s.AddClause(sA.Not(), a)
			s.AddClause(sB.Not(), a.Not())
			s.AddClause(sC.Not(), a, a.Not())
			return []Lit{sA, sB, sC}, []int{0, 1}
		},
	},
	{
		// Three groups forming an odd chain: s1→(a∨b), s2→(¬a∨b), s3→¬b.
		// All three are needed; any two are satisfiable.
		name: "three-way-chain",
		build: func(s *Solver) ([]Lit, []int) {
			a, b := s.NewBool("a"), s.NewBool("b")
			s1 := s.NewAssumption("s1")
			s2 := s.NewAssumption("s2")
			s3 := s.NewAssumption("s3")
			s.AddClause(s1.Not(), a, b)
			s.AddClause(s2.Not(), a.Not(), b)
			s.AddClause(s3.Not(), b.Not())
			return []Lit{s1, s2, s3}, []int{0, 1, 2}
		},
	},
	{
		// A guarded capacity constraint: under sCap at most one of x1..x3 may
		// hold, while sAll demands all of them. sFree guards nothing binding.
		name: "guarded-capacity",
		build: func(s *Solver) ([]Lit, []int) {
			x1, x2, x3 := s.NewBool("x1"), s.NewBool("x2"), s.NewBool("x3")
			sCap := s.NewAssumption("stage-capacity:sw3")
			sAll := s.NewAssumption("coverage:acl")
			sFree := s.NewAssumption("order:acl")
			// Σ x ≤ 1 under sCap: guard weight 2 with bound 3 relaxes it when
			// sCap is false.
			s.AddAtMost([]Lit{x1, x2, x3, sCap}, []int64{1, 1, 1, 2}, 3)
			s.AddClause(sAll.Not(), x1)
			s.AddClause(sAll.Not(), x2)
			s.AddClause(sAll.Not(), x3)
			s.AddClause(sFree.Not(), x1, x2, x3)
			return []Lit{sCap, sAll, sFree}, []int{0, 1}
		},
	},
}

// TestMinimizedCoreOnCuratedFixtures checks both directions of minimality on
// known problems: the minimized core replayed as unit clauses is UNSAT, and
// dropping any single member makes the replay SAT.
func TestMinimizedCoreOnCuratedFixtures(t *testing.T) {
	for _, fx := range curatedCoreFixtures {
		t.Run(fx.name, func(t *testing.T) {
			s := NewSolver()
			assumps, wantIdx := fx.build(s)
			st, err := s.Solve(assumps...)
			if err != nil || st != StatusUnsat {
				t.Fatalf("Solve = %v, %v; want unsat", st, err)
			}
			core := s.MinimizeCore(s.Core())
			want := map[Lit]bool{}
			for _, i := range wantIdx {
				want[assumps[i]] = true
			}
			if len(core) != len(want) {
				t.Fatalf("minimized core %v has %d members, want %d", core, len(core), len(want))
			}
			for _, c := range core {
				if !want[c] {
					t.Fatalf("unexpected core member %s", s.Name(c))
				}
			}

			// Replay the full core: must be UNSAT.
			replay := func(drop int) Status {
				f := NewSolver()
				fassumps, _ := fx.build(f)
				_ = fassumps
				for i, c := range core {
					if i == drop {
						continue
					}
					f.AddClause(c)
				}
				fst, ferr := f.Solve()
				if ferr != nil {
					t.Fatalf("replay: %v", ferr)
				}
				return fst
			}
			if got := replay(-1); got != StatusUnsat {
				t.Fatalf("full core replay = %v, want unsat", got)
			}
			// Dropping any single member must flip the replay to SAT.
			for i := range core {
				if got := replay(i); got != StatusSat {
					t.Fatalf("replay without %s = %v, want sat (core not minimal)", s.Name(core[i]), got)
				}
			}
		})
	}
}

// TestMinimizeCoreOnRandomProblems minimizes every random core and checks the
// drop-any-member property holds wherever the probe budget was not the
// limiting factor (it never is on these small instances).
func TestMinimizeCoreOnRandomProblems(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	checked := 0
	for iter := 0; iter < 200 && checked < 60; iter++ {
		n := 3 + rng.Intn(5)
		build, _ := randomProblem(rng, n)
		inc := NewSolver()
		lits := build(inc)
		assumps := make([]Lit, 0, n)
		for j := 0; j < n; j++ {
			l := lits[rng.Intn(n)]
			if rng.Intn(2) == 0 {
				l = l.Not()
			}
			assumps = append(assumps, l)
		}
		st, err := inc.Solve(assumps...)
		if err != nil || st != StatusUnsat || inc.Core() == nil {
			continue
		}
		core := inc.MinimizeCore(inc.Core())
		checked++
		for drop := range core {
			f := NewSolver()
			build(f)
			for i, c := range core {
				if i != drop {
					f.AddClause(c)
				}
			}
			fst, ferr := f.Solve()
			if ferr != nil {
				t.Fatalf("iter %d: %v", iter, ferr)
			}
			if fst != StatusSat {
				t.Fatalf("iter %d: dropping %v from minimized core %v stays %v, want sat",
					iter, core[drop], core, fst)
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d minimized cores checked; test is vacuous", checked)
	}
}

// TestAssumptionGroupNames checks the labelling path used by encode: cores
// surface as sorted, de-duplicated group names.
func TestAssumptionGroupNames(t *testing.T) {
	s := NewSolver()
	a := s.NewBool("a")
	g1 := s.NewAssumption("exactly-one:acl@pod1")
	g2 := s.NewAssumption("stage-capacity:sw3")
	s.AddClause(g1.Not(), a)
	s.AddClause(g2.Not(), a.Not())
	st, err := s.Solve(g2, g1)
	if err != nil || st != StatusUnsat {
		t.Fatalf("Solve = %v, %v; want unsat", st, err)
	}
	names := s.CoreNames(s.MinimizeCore(s.Core()))
	want := []string{"exactly-one:acl@pod1", "stage-capacity:sw3"}
	if len(names) != len(want) {
		t.Fatalf("CoreNames = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("CoreNames = %v, want %v", names, want)
		}
	}
	if got := s.GroupName(a); got != "" {
		t.Errorf("GroupName(ordinary lit) = %q, want empty", got)
	}
}

// TestIncrementalStateCarriesOver checks the statistics contract of the
// incremental interface: repeated solves on one solver reuse learnt clauses
// and count assumptions and cores.
func TestIncrementalStateCarriesOver(t *testing.T) {
	s := NewSolver()
	hardUnsatUnderSelector := func() Lit {
		// 8-pigeon/7-hole guarded by one selector: UNSAT under it, trivially
		// SAT without.
		sel := s.NewAssumption("pigeons")
		const P, H = 8, 7
		var x [P][H]Lit
		for p := 0; p < P; p++ {
			row := make([]Lit, 0, H+1)
			row = append(row, sel.Not())
			for h := 0; h < H; h++ {
				x[p][h] = s.NewBool("")
				row = append(row, x[p][h])
			}
			s.AddClause(row...)
		}
		for h := 0; h < H; h++ {
			for p1 := 0; p1 < P; p1++ {
				for p2 := p1 + 1; p2 < P; p2++ {
					s.AddClause(sel.Not(), x[p1][h].Not(), x[p2][h].Not())
				}
			}
		}
		return sel
	}
	sel := hardUnsatUnderSelector()

	st, err := s.Solve(sel)
	if err != nil || st != StatusUnsat {
		t.Fatalf("first solve = %v, %v; want unsat", st, err)
	}
	learnedAfterFirst := s.Statistics().Learned
	if learnedAfterFirst == 0 {
		t.Fatal("pigeonhole solve learned no clauses")
	}
	if s.Statistics().Cores != 1 {
		t.Fatalf("Cores = %d, want 1", s.Statistics().Cores)
	}

	// Without the selector the problem is SAT, and the second call must see
	// the learnt clauses from the first.
	st, err = s.Solve()
	if err != nil || st != StatusSat {
		t.Fatalf("second solve = %v, %v; want sat", st, err)
	}
	stats := s.Statistics()
	if stats.SolveCalls != 2 {
		t.Fatalf("SolveCalls = %d, want 2", stats.SolveCalls)
	}
	if stats.Assumptions != 1 {
		t.Fatalf("Assumptions = %d, want 1", stats.Assumptions)
	}
	if stats.ClausesReused == 0 {
		t.Fatal("second solve reused no learnt clauses")
	}

	// Re-assuming the selector must fail again, reusing the learnt conflict
	// clauses (far fewer new conflicts than the first time around).
	confBefore := s.Statistics().Conflicts
	st, err = s.Solve(sel)
	if err != nil || st != StatusUnsat {
		t.Fatalf("third solve = %v, %v; want unsat", st, err)
	}
	if d := s.Statistics().Conflicts - confBefore; d > confBefore {
		t.Errorf("re-solve needed %d conflicts vs %d initially; learnt clauses not helping", d, confBefore)
	}
}

// deadlineTheory accepts every assignment, but its first check waits until
// ctx is done: the solve that reaches it still returns sat, with the deadline
// already past.
type deadlineTheory struct{ ctx context.Context }

func (d deadlineTheory) Check(*Model) []Lit {
	<-d.ctx.Done()
	return nil
}

// TestMinimizeDeadlineBetweenBounds is the regression test for the budget
// overshoot: a descent step must not start once the deadline has passed. The
// first satisfying assignment is found as the deadline expires (tiny problem,
// no poll fires after the theory check), and the next descent step must then
// surface ErrTimeout with the incumbent rather than completing the descent.
func TestMinimizeDeadlineBetweenBounds(t *testing.T) {
	s := NewSolver()
	n := 8
	lits := make([]Lit, n)
	weights := make([]int64, n)
	for i := range lits {
		lits[i] = s.NewBool("")
		weights[i] = 1
	}
	// At least three must hold, so the descent has real work to do and the
	// incumbent cost is positive.
	addAtLeast(s, lits, weights, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	s.Ctx = ctx
	s.AddTheory(deadlineTheory{ctx})
	best, ok, err := s.MinimizeWith(nil, lits, weights)
	if !ok {
		t.Fatal("MinimizeWith found no incumbent")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout: the deadline must be honored between candidate bounds", err)
	}
	if best < 3 {
		t.Fatalf("best = %d, want >= 3", best)
	}
}

// TestMinimizeCompletesWithinGenerousBudget pins the complementary behavior:
// with headroom the descent proves the optimum and reports no error, and the
// solver remains usable for later incremental solves.
func TestMinimizeCompletesWithinGenerousBudget(t *testing.T) {
	s := NewSolver()
	n := 6
	lits := make([]Lit, n)
	weights := make([]int64, n)
	for i := range lits {
		lits[i] = s.NewBool("")
		weights[i] = 1
	}
	addAtLeast(s, lits, weights, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.Ctx = ctx
	best, ok, err := s.MinimizeWith(nil, lits, weights)
	if err != nil || !ok || best != 2 {
		t.Fatalf("Minimize = %d, %v, %v; want 2, true, nil", best, ok, err)
	}
	// The retired guard must not constrain later solves: forcing five of the
	// literals true is still satisfiable.
	for _, l := range lits[:5] {
		s.AddClause(l)
	}
	st, serr := s.Solve()
	if serr != nil || st != StatusSat {
		t.Fatalf("post-minimize solve = %v, %v; want sat", st, serr)
	}
	if s.Core() != nil {
		t.Fatalf("stale core leaked out of Minimize: %v", s.Core())
	}
}

// TestMinimizeWithAssumptions runs the descent under an assumption toggle:
// the optimum depends on which selector is assumed, on one persistent solver.
func TestMinimizeWithAssumptions(t *testing.T) {
	s := NewSolver()
	n := 5
	lits := make([]Lit, n)
	weights := make([]int64, n)
	for i := range lits {
		lits[i] = s.NewBool("")
		weights[i] = 1
	}
	strict := s.NewAssumption("strict")
	loose := s.NewAssumption("loose")
	// strict → at least 4 true; loose → at least 1 true.
	for _, bound := range []struct {
		sel Lit
		min int64
	}{{strict, 4}, {loose, 1}} {
		neg := make([]Lit, 0, n+1)
		for _, l := range lits {
			neg = append(neg, l.Not())
		}
		// Σ(¬l) ≤ n−min, active only under sel (guard weight relaxes it).
		guardW := bound.min
		neg = append(neg, bound.sel)
		w := make([]int64, n+1)
		for i := range w {
			w[i] = 1
		}
		w[n] = guardW
		s.AddAtMost(neg, w, int64(n)-bound.min+guardW)
	}
	best, ok, err := s.MinimizeWith([]Lit{strict}, lits, weights)
	if err != nil || !ok || best != 4 {
		t.Fatalf("strict MinimizeWith = %d, %v, %v; want 4, true, nil", best, ok, err)
	}
	best, ok, err = s.MinimizeWith([]Lit{loose}, lits, weights)
	if err != nil || !ok || best != 1 {
		t.Fatalf("loose MinimizeWith = %d, %v, %v; want 1, true, nil", best, ok, err)
	}
}
