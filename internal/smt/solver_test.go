package smt

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

func TestTrivialSat(t *testing.T) {
	s := NewSolver()
	a := s.NewBool("a")
	b := s.NewBool("b")
	if !s.AddClause(a, b) {
		t.Fatal("AddClause failed")
	}
	if !s.AddClause(a.Not()) {
		t.Fatal("AddClause failed")
	}
	st, err := s.Solve()
	if err != nil || st != StatusSat {
		t.Fatalf("Solve = %v, %v; want sat", st, err)
	}
	m := s.Model()
	if m.Value(a) {
		t.Error("a should be false")
	}
	if !m.Value(b) {
		t.Error("b should be true")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := NewSolver()
	a := s.NewBool("a")
	s.AddClause(a)
	s.AddClause(a.Not())
	st, err := s.Solve()
	if err != nil || st != StatusUnsat {
		t.Fatalf("Solve = %v, %v; want unsat", st, err)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := NewSolver()
	s.NewBool("a")
	if s.AddClause() {
		t.Fatal("empty clause should fail")
	}
	st, _ := s.Solve()
	if st != StatusUnsat {
		t.Fatalf("want unsat, got %v", st)
	}
}

func TestPigeonhole(t *testing.T) {
	// 4 pigeons, 3 holes: classic small UNSAT instance that requires real
	// search (exercises conflict analysis and learning).
	s := NewSolver()
	const P, H = 4, 3
	var x [P][H]Lit
	for p := 0; p < P; p++ {
		for h := 0; h < H; h++ {
			x[p][h] = s.NewBool("")
		}
		s.AddClause(x[p][0], x[p][1], x[p][2])
	}
	for h := 0; h < H; h++ {
		for p1 := 0; p1 < P; p1++ {
			for p2 := p1 + 1; p2 < P; p2++ {
				s.AddClause(x[p1][h].Not(), x[p2][h].Not())
			}
		}
	}
	st, err := s.Solve()
	if err != nil || st != StatusUnsat {
		t.Fatalf("pigeonhole: got %v, %v; want unsat", st, err)
	}
}

func TestGraphColoringSat(t *testing.T) {
	// 3-color a 5-cycle (possible) — checks that learning does not break
	// completeness on satisfiable instances.
	s := NewSolver()
	const N, C = 5, 3
	var x [N][C]Lit
	for v := 0; v < N; v++ {
		for c := 0; c < C; c++ {
			x[v][c] = s.NewBool("")
		}
		for c1 := 0; c1 < C; c1++ {
			for c2 := c1 + 1; c2 < C; c2++ {
				s.AddClause(x[v][c1].Not(), x[v][c2].Not())
			}
		}
		s.AddClause(x[v][0], x[v][1], x[v][2])
	}
	for v := 0; v < N; v++ {
		u := (v + 1) % N
		for c := 0; c < C; c++ {
			s.AddClause(x[v][c].Not(), x[u][c].Not())
		}
	}
	st, err := s.Solve()
	if err != nil || st != StatusSat {
		t.Fatalf("got %v, %v; want sat", st, err)
	}
	m := s.Model()
	for v := 0; v < N; v++ {
		u := (v + 1) % N
		for c := 0; c < C; c++ {
			if m.Value(x[v][c]) && m.Value(x[u][c]) {
				t.Fatalf("adjacent vertices %d,%d share color %d", v, u, c)
			}
		}
	}
}

// bruteForce checks satisfiability of a CNF over n variables by enumeration.
func bruteForce(n int, cnf [][]Lit) (sat bool, model []bool) {
	for mask := 0; mask < 1<<n; mask++ {
		ok := true
		for _, cl := range cnf {
			clauseOK := false
			for _, l := range cl {
				val := mask>>int(l.Var())&1 == 1
				if l.Neg() {
					val = !val
				}
				if val {
					clauseOK = true
					break
				}
			}
			if !clauseOK {
				ok = false
				break
			}
		}
		if ok {
			m := make([]bool, n)
			for i := range m {
				m[i] = mask>>i&1 == 1
			}
			return true, m
		}
	}
	return false, nil
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		n := 4 + rng.Intn(9) // 4..12 vars
		m := 2 + rng.Intn(5*n)
		var cnf [][]Lit
		s := NewSolver()
		lits := make([]Lit, n)
		for i := range lits {
			lits[i] = s.NewBool("")
		}
		topOK := true
		for j := 0; j < m; j++ {
			k := 1 + rng.Intn(3)
			cl := make([]Lit, 0, k)
			for x := 0; x < k; x++ {
				l := lits[rng.Intn(n)]
				if rng.Intn(2) == 1 {
					l = l.Not()
				}
				cl = append(cl, l)
			}
			cnf = append(cnf, cl)
			if !s.AddClause(cl...) {
				topOK = false
			}
		}
		wantSat, _ := bruteForce(n, cnf)
		st, err := s.Solve()
		if err != nil {
			t.Fatalf("iter %d: solve error %v", iter, err)
		}
		if !topOK && st != StatusUnsat {
			t.Fatalf("iter %d: AddClause said unsat but solver says %v", iter, st)
		}
		if wantSat && st != StatusSat {
			t.Fatalf("iter %d: want sat, got %v", iter, st)
		}
		if !wantSat && st != StatusUnsat {
			t.Fatalf("iter %d: want unsat, got %v", iter, st)
		}
		if st == StatusSat {
			mdl := s.Model()
			for ci, cl := range cnf {
				ok := false
				for _, l := range cl {
					if mdl.Value(l) {
						ok = true
					}
				}
				if !ok {
					t.Fatalf("iter %d: model violates clause %d", iter, ci)
				}
			}
		}
	}
}

// conflictTheory rejects any model in which both given literals hold.
type conflictTheory struct {
	a, b Lit
}

func (ct conflictTheory) Check(m *Model) []Lit {
	if m.Value(ct.a) && m.Value(ct.b) {
		return []Lit{ct.a.Not(), ct.b.Not()}
	}
	return nil
}

func TestTheoryVeto(t *testing.T) {
	s := NewSolver()
	a := s.NewBool("a")
	b := s.NewBool("b")
	c := s.NewBool("c")
	s.AddClause(a)
	s.AddClause(b, c)
	s.AddTheory(conflictTheory{a, b})
	st, err := s.Solve()
	if err != nil || st != StatusSat {
		t.Fatalf("got %v, %v; want sat", st, err)
	}
	m := s.Model()
	if !m.Value(a) || m.Value(b) || !m.Value(c) {
		t.Fatalf("theory not honored: a=%v b=%v c=%v", m.Value(a), m.Value(b), m.Value(c))
	}
	if s.Statistics().TheoryFails == 0 {
		t.Error("expected at least one theory veto")
	}
}

func TestTheoryUnsat(t *testing.T) {
	s := NewSolver()
	a := s.NewBool("a")
	b := s.NewBool("b")
	s.AddClause(a)
	s.AddClause(b)
	s.AddTheory(conflictTheory{a, b})
	st, err := s.Solve()
	if err != nil || st != StatusUnsat {
		t.Fatalf("got %v, %v; want unsat", st, err)
	}
}

func TestSolveTwiceStable(t *testing.T) {
	s := NewSolver()
	a := s.NewBool("a")
	b := s.NewBool("b")
	s.AddClause(a, b)
	for i := 0; i < 2; i++ {
		st, err := s.Solve()
		if err != nil || st != StatusSat {
			t.Fatalf("round %d: got %v, %v", i, st, err)
		}
	}
	// Constraint added between solves must be honored.
	s.AddClause(a.Not())
	s.AddClause(b.Not())
	st, _ := s.Solve()
	if st != StatusUnsat {
		t.Fatalf("got %v; want unsat after tightening", st)
	}
}

func TestLubySequence(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestNameDiagnostics(t *testing.T) {
	s := NewSolver()
	a := s.NewBool("place[s1,i3]")
	if got := s.Name(a); got != "place[s1,i3]" {
		t.Errorf("Name = %q", got)
	}
	if got := s.Name(a.Not()); got != "~place[s1,i3]" {
		t.Errorf("Name(neg) = %q", got)
	}
}

func TestConflictBudget(t *testing.T) {
	// An 8/7 pigeonhole instance needs far more than 10 conflicts; with a
	// tiny budget the solver must give up with ErrBudget rather than loop.
	s := NewSolver()
	s.ConflictBudget = 10
	const P, H = 8, 7
	var x [P][H]Lit
	for p := 0; p < P; p++ {
		var row []Lit
		for h := 0; h < H; h++ {
			x[p][h] = s.NewBool("")
			row = append(row, x[p][h])
		}
		s.AddClause(row...)
	}
	for h := 0; h < H; h++ {
		for p1 := 0; p1 < P; p1++ {
			for p2 := p1 + 1; p2 < P; p2++ {
				s.AddClause(x[p1][h].Not(), x[p2][h].Not())
			}
		}
	}
	st, err := s.Solve()
	if st != StatusUnknown || err == nil {
		t.Fatalf("got %v, %v; want unknown with budget error", st, err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := NewSolver()
	a, b := s.NewBool("a"), s.NewBool("b")
	s.AddClause(a, b)
	s.AddClause(a.Not(), b)
	s.AddClause(a, b.Not())
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	st := s.Statistics()
	if st.Propagations == 0 {
		t.Error("no propagations recorded")
	}
}

// multiTheory checks that several theories are all consulted.
type rejectFirstN struct {
	n     int
	calls int
	lits  []Lit
}

func (r *rejectFirstN) Check(m *Model) []Lit {
	r.calls++
	if r.calls <= r.n {
		// Reject whatever subset of lits is currently true.
		var out []Lit
		for _, l := range r.lits {
			if m.Value(l) {
				out = append(out, l.Not())
			} else {
				out = append(out, l)
			}
		}
		return out
	}
	return nil
}

func TestTheoryRetriesUntilAccepted(t *testing.T) {
	s := NewSolver()
	lits := []Lit{s.NewBool("a"), s.NewBool("b"), s.NewBool("c")}
	th := &rejectFirstN{n: 3, lits: lits}
	s.AddTheory(th)
	st, err := s.Solve()
	if err != nil || st != StatusSat {
		t.Fatalf("got %v, %v", st, err)
	}
	if th.calls < 4 {
		t.Errorf("theory consulted %d times, want >= 4", th.calls)
	}
}

func TestPBWithTheory(t *testing.T) {
	// PB constraints and a theory interact: at most 2 of 4 selected, theory
	// forbids the pair (0,1) together.
	s := NewSolver()
	lits := make([]Lit, 4)
	for i := range lits {
		lits[i] = s.NewBool("")
	}
	s.AddAtMost(lits, []int64{1, 1, 1, 1}, 2)
	addAtLeast(s, lits, []int64{1, 1, 1, 1}, 2)
	s.AddTheory(conflictTheory{lits[0], lits[1]})
	st, err := s.Solve()
	if err != nil || st != StatusSat {
		t.Fatalf("got %v, %v", st, err)
	}
	m := s.Model()
	count := 0
	for _, l := range lits {
		if m.Value(l) {
			count++
		}
	}
	if count != 2 {
		t.Errorf("count = %d", count)
	}
	if m.Value(lits[0]) && m.Value(lits[1]) {
		t.Error("theory veto ignored")
	}
}

// hardUnsat builds an 8/7 pigeonhole instance: small to state, expensive to
// refute — ideal for exercising budgets and cancellation.
func hardUnsat(s *Solver) {
	const P, H = 8, 7
	var x [P][H]Lit
	for p := 0; p < P; p++ {
		var row []Lit
		for h := 0; h < H; h++ {
			x[p][h] = s.NewBool("")
			row = append(row, x[p][h])
		}
		s.AddClause(row...)
	}
	for h := 0; h < H; h++ {
		for p1 := 0; p1 < P; p1++ {
			for p2 := p1 + 1; p2 < P; p2++ {
				s.AddClause(x[p1][h].Not(), x[p2][h].Not())
			}
		}
	}
}

func TestTypedConflictBudgetError(t *testing.T) {
	s := NewSolver()
	s.ConflictBudget = 10
	hardUnsat(s)
	st, err := s.Solve()
	if st != StatusUnknown {
		t.Fatalf("status = %v, want unknown", st)
	}
	if !errors.Is(err, ErrConflictBudget) {
		t.Errorf("err = %v, want ErrConflictBudget", err)
	}
	if !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, must still satisfy ErrBudget", err)
	}
	if errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, must not be ErrTimeout", err)
	}
}

func TestTypedTimeBudgetError(t *testing.T) {
	s := NewSolver()
	hardUnsat(s)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	s.Ctx = ctx
	st, err := s.Solve()
	if st != StatusUnknown {
		t.Fatalf("status = %v, want unknown", st)
	}
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
	if !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, must still satisfy ErrBudget", err)
	}
}

func TestContextDeadlineAborts(t *testing.T) {
	s := NewSolver()
	const budget = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	s.Ctx = ctx
	hardUnsat(s)
	start := time.Now()
	st, err := s.Solve()
	elapsed := time.Since(start)
	// The solve may legitimately finish (UNSAT) before the deadline on a
	// fast machine; what must never happen is blowing past 2x the budget.
	if elapsed > 2*budget {
		t.Fatalf("solve took %v, want <= %v", elapsed, 2*budget)
	}
	if st == StatusUnknown && !errors.Is(err, ErrTimeout) {
		t.Errorf("aborted with err = %v, want ErrTimeout", err)
	}
}

func TestContextPreCancelled(t *testing.T) {
	s := NewSolver()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Ctx = ctx
	hardUnsat(s)
	st, err := s.Solve()
	if st != StatusUnknown || !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, %v; want unknown + ErrTimeout", st, err)
	}
}

func TestOrEquals(t *testing.T) {
	s := NewSolver()
	a, b := s.NewBool("a"), s.NewBool("b")
	out, ok := s.OrEquals([]Lit{a, b}, "valid")
	if !ok {
		t.Fatal("OrEquals failed")
	}
	none, ok := s.OrEquals(nil, "none")
	if !ok {
		t.Fatal("empty OrEquals failed")
	}
	s.AddClause(a.Not())
	s.AddClause(b.Not())
	st, _ := s.Solve()
	if st != StatusSat {
		t.Fatal("want sat")
	}
	if s.Model().Value(out) {
		t.Error("out must be false when both inputs are false")
	}
	if s.Model().Value(none) {
		t.Error("the empty disjunction must be false")
	}
}

// randomFormula draws a random formula tree over the given literals, builds
// it in s from OrEquals gates (a conjunction is the negated disjunction of
// negations, xor a disjunction of two conjunctions, iff a negated xor), and
// returns the literal equivalent to it plus an evaluator mirroring its
// semantics.
func randomFormula(rng *rand.Rand, s *Solver, lits []Lit, depth int) (Lit, func(mask int) bool) {
	or := func(ls ...Lit) Lit {
		out, _ := s.OrEquals(ls, "")
		return out
	}
	and := func(ls ...Lit) Lit {
		neg := make([]Lit, len(ls))
		for i, l := range ls {
			neg[i] = l.Not()
		}
		return or(neg...).Not()
	}
	xor := func(a, b Lit) Lit { return or(and(a, b.Not()), and(a.Not(), b)) }
	if depth == 0 || rng.Intn(3) == 0 {
		l := lits[rng.Intn(len(lits))]
		if rng.Intn(2) == 0 {
			l = l.Not()
		}
		return l, func(mask int) bool { return litHolds(l, mask) }
	}
	switch op := rng.Intn(5); op {
	case 0, 1: // and, or
		n := 2 + rng.Intn(2)
		subs := make([]Lit, n)
		evals := make([]func(int) bool, n)
		for i := 0; i < n; i++ {
			subs[i], evals[i] = randomFormula(rng, s, lits, depth-1)
		}
		if op == 0 {
			return and(subs...), func(mask int) bool {
				for _, e := range evals {
					if !e(mask) {
						return false
					}
				}
				return true
			}
		}
		return or(subs...), func(mask int) bool {
			for _, e := range evals {
				if e(mask) {
					return true
				}
			}
			return false
		}
	case 2: // not
		sub, e := randomFormula(rng, s, lits, depth-1)
		return sub.Not(), func(mask int) bool { return !e(mask) }
	case 3: // xor
		a, ea := randomFormula(rng, s, lits, depth-1)
		b, eb := randomFormula(rng, s, lits, depth-1)
		return xor(a, b), func(mask int) bool { return ea(mask) != eb(mask) }
	default: // iff
		a, ea := randomFormula(rng, s, lits, depth-1)
		b, eb := randomFormula(rng, s, lits, depth-1)
		return xor(a, b).Not(), func(mask int) bool { return ea(mask) == eb(mask) }
	}
}

func TestRandomFormulasAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2020))
	for iter := 0; iter < 200; iter++ {
		n := 3 + rng.Intn(5)
		s := NewSolver()
		lits := make([]Lit, n)
		for i := range lits {
			lits[i] = s.NewBool("")
		}
		f, eval := randomFormula(rng, s, lits, 3)
		s.AddClause(f)
		wantSat := false
		for mask := 0; mask < 1<<n; mask++ {
			if eval(mask) {
				wantSat = true
				break
			}
		}
		st, err := s.Solve()
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if wantSat != (st == StatusSat) {
			t.Fatalf("iter %d: brute=%v solver=%v", iter, wantSat, st)
		}
		if st == StatusSat {
			m := s.Model()
			mask := 0
			for i, l := range lits {
				if m.Value(l) {
					mask |= 1 << i
				}
			}
			if !eval(mask) {
				t.Fatalf("iter %d: model does not satisfy formula", iter)
			}
		}
	}
}
