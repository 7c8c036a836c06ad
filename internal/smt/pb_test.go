package smt

import (
	"math/rand"
	"testing"
)

// addAtLeast adds Σ weights[i]·lits[i] ≥ bound as AddAtMost over the negated
// literals: Σ w·l ≥ b ⇔ Σ w·(¬l) ≤ Σw − b.
func addAtLeast(s *Solver, lits []Lit, weights []int64, bound int64) bool {
	neg := make([]Lit, len(lits))
	var total int64
	for i, l := range lits {
		neg[i] = l.Not()
		total += weights[i]
	}
	return s.AddAtMost(neg, weights, total-bound)
}

func TestAtMostOnePairwise(t *testing.T) {
	s := NewSolver()
	a, b, c := s.NewBool("a"), s.NewBool("b"), s.NewBool("c")
	s.AddClause(a.Not(), b.Not())
	s.AddClause(a.Not(), c.Not())
	s.AddClause(b.Not(), c.Not())
	s.AddClause(a)
	st, _ := s.Solve()
	if st != StatusSat {
		t.Fatal("want sat")
	}
	m := s.Model()
	if m.Value(b) || m.Value(c) {
		t.Error("b and c must be false when a holds")
	}
}

func TestExactlyOne(t *testing.T) {
	s := NewSolver()
	lits := make([]Lit, 10)
	ones := make([]int64, len(lits))
	for i := range lits {
		lits[i] = s.NewBool("")
		ones[i] = 1
	}
	s.AddAtMost(lits, ones, 1)
	s.AddClause(lits...)
	st, _ := s.Solve()
	if st != StatusSat {
		t.Fatal("want sat")
	}
	m := s.Model()
	count := 0
	for _, l := range lits {
		if m.Value(l) {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("exactly-one violated: %d true", count)
	}
}

func TestAtMostWeighted(t *testing.T) {
	s := NewSolver()
	a, b, c := s.NewBool("a"), s.NewBool("b"), s.NewBool("c")
	// 3a + 4b + 5c <= 7
	s.AddAtMost([]Lit{a, b, c}, []int64{3, 4, 5}, 7)
	s.AddClause(c) // force c: remaining slack 2, so a and b must be false
	st, _ := s.Solve()
	if st != StatusSat {
		t.Fatal("want sat")
	}
	m := s.Model()
	if m.Value(a) || m.Value(b) {
		t.Errorf("a=%v b=%v; both must be false", m.Value(a), m.Value(b))
	}
}

func TestAtMostUnsatAtTopLevel(t *testing.T) {
	s := NewSolver()
	a, b := s.NewBool("a"), s.NewBool("b")
	s.AddClause(a)
	s.AddClause(b)
	if s.AddAtMost([]Lit{a, b}, []int64{2, 2}, 3) {
		t.Fatal("constraint should be immediately unsat")
	}
	st, _ := s.Solve()
	if st != StatusUnsat {
		t.Fatalf("got %v; want unsat", st)
	}
}

func TestAtLeast(t *testing.T) {
	s := NewSolver()
	a, b, c := s.NewBool("a"), s.NewBool("b"), s.NewBool("c")
	// a + b + c >= 2
	addAtLeast(s, []Lit{a, b, c}, []int64{1, 1, 1}, 2)
	s.AddClause(a.Not())
	st, _ := s.Solve()
	if st != StatusSat {
		t.Fatal("want sat")
	}
	m := s.Model()
	if !m.Value(b) || !m.Value(c) {
		t.Error("b and c must both hold")
	}
}

func TestAddExactlyWeighted(t *testing.T) {
	s := NewSolver()
	lits := []Lit{s.NewBool("a"), s.NewBool("b"), s.NewBool("c"), s.NewBool("d")}
	w := []int64{1, 2, 4, 8}
	// Unique solution for sum == 6 (at most 6 and at least 6): b and c.
	s.AddAtMost(lits, w, 6)
	addAtLeast(s, lits, w, 6)
	st, _ := s.Solve()
	if st != StatusSat {
		t.Fatal("want sat")
	}
	m := s.Model()
	want := []bool{false, true, true, false}
	for i, l := range lits {
		if m.Value(l) != want[i] {
			t.Errorf("lit %d = %v, want %v", i, m.Value(l), want[i])
		}
	}
}

func TestRandomPBAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		n := 3 + rng.Intn(8)
		s := NewSolver()
		lits := make([]Lit, n)
		for i := range lits {
			lits[i] = s.NewBool("")
		}
		type pb struct {
			idx    []int
			neg    []bool
			w      []int64
			bound  int64
			atMost bool
		}
		var pbs []pb
		nc := 1 + rng.Intn(4)
		okTop := true
		for j := 0; j < nc; j++ {
			k := 2 + rng.Intn(n-1)
			p := pb{atMost: rng.Intn(2) == 0}
			var total int64
			used := rng.Perm(n)[:k]
			cl := make([]Lit, 0, k)
			for _, vi := range used {
				w := int64(1 + rng.Intn(5))
				neg := rng.Intn(3) == 0
				l := lits[vi]
				if neg {
					l = l.Not()
				}
				p.idx = append(p.idx, vi)
				p.neg = append(p.neg, neg)
				p.w = append(p.w, w)
				total += w
				cl = append(cl, l)
			}
			p.bound = rng.Int63n(total + 1)
			pbs = append(pbs, p)
			if p.atMost {
				okTop = s.AddAtMost(cl, p.w, p.bound) && okTop
			} else {
				okTop = addAtLeast(s, cl, p.w, p.bound) && okTop
			}
		}
		// Some random clauses for spice.
		var cnf [][]Lit
		for j := 0; j < rng.Intn(2*n); j++ {
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
			okTop = s.AddClause(cl...) && okTop
		}

		evalPB := func(mask int, p pb) bool {
			var sum int64
			for i, vi := range p.idx {
				val := mask>>vi&1 == 1
				if p.neg[i] {
					val = !val
				}
				if val {
					sum += p.w[i]
				}
			}
			if p.atMost {
				return sum <= p.bound
			}
			return sum >= p.bound
		}
		wantSat := false
		for mask := 0; mask < 1<<n && !wantSat; mask++ {
			ok := true
			for _, p := range pbs {
				if !evalPB(mask, p) {
					ok = false
					break
				}
			}
			for _, cl := range cnf {
				if !ok {
					break
				}
				cok := false
				for _, l := range cl {
					val := mask>>int(l.Var())&1 == 1
					if l.Neg() {
						val = !val
					}
					if val {
						cok = true
						break
					}
				}
				ok = ok && cok
			}
			wantSat = ok
		}

		st, err := s.Solve()
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if wantSat != (st == StatusSat) {
			t.Fatalf("iter %d: brute=%v solver=%v (okTop=%v)", iter, wantSat, st, okTop)
		}
		if st == StatusSat {
			m := s.Model()
			mask := 0
			for i, l := range lits {
				if m.Value(l) {
					mask |= 1 << i
				}
			}
			for pi, p := range pbs {
				if !evalPB(mask, p) {
					t.Fatalf("iter %d: model violates pb %d", iter, pi)
				}
			}
		}
	}
}

func TestMinimize(t *testing.T) {
	s := NewSolver()
	a, b, c := s.NewBool("a"), s.NewBool("b"), s.NewBool("c")
	// Must pick at least one of each pair; costs differ.
	s.AddClause(a, b)
	s.AddClause(b, c)
	best, ok, err := s.MinimizeWith(nil, []Lit{a, b, c}, []int64{5, 3, 4})
	if err != nil || !ok {
		t.Fatalf("minimize: ok=%v err=%v", ok, err)
	}
	if best != 3 { // b alone covers both clauses
		t.Fatalf("best = %d, want 3", best)
	}
	m := s.Model()
	if !m.Value(b) || m.Value(a) || m.Value(c) {
		t.Errorf("model should select only b: a=%v b=%v c=%v", m.Value(a), m.Value(b), m.Value(c))
	}
}

func TestMinimizeUnsat(t *testing.T) {
	s := NewSolver()
	a := s.NewBool("a")
	s.AddClause(a)
	s.AddClause(a.Not())
	_, ok, err := s.MinimizeWith(nil, []Lit{a}, []int64{1})
	if err != nil || ok {
		t.Fatalf("want not-ok, got ok=%v err=%v", ok, err)
	}
}

func TestRandomMinimizeAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 50; iter++ {
		n := 3 + rng.Intn(6)
		s := NewSolver()
		lits := make([]Lit, n)
		for i := range lits {
			lits[i] = s.NewBool("")
		}
		var cnf [][]Lit
		for j := 0; j < 1+rng.Intn(2*n); j++ {
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
			s.AddClause(cl...)
		}
		w := make([]int64, n)
		for i := range w {
			w[i] = int64(1 + rng.Intn(9))
		}
		wantSat, _ := bruteForce(n, cnf)
		var wantBest int64 = -1
		for mask := 0; mask < 1<<n; mask++ {
			ok := true
			for _, cl := range cnf {
				cok := false
				for _, l := range cl {
					val := mask>>int(l.Var())&1 == 1
					if l.Neg() {
						val = !val
					}
					if val {
						cok = true
						break
					}
				}
				if !cok {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			var cost int64
			for i := 0; i < n; i++ {
				if mask>>i&1 == 1 {
					cost += w[i]
				}
			}
			if wantBest < 0 || cost < wantBest {
				wantBest = cost
			}
		}
		best, ok, err := s.MinimizeWith(nil, lits, w)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if ok != wantSat {
			t.Fatalf("iter %d: ok=%v wantSat=%v", iter, ok, wantSat)
		}
		if ok && best != wantBest {
			t.Fatalf("iter %d: best=%d want %d", iter, best, wantBest)
		}
	}
}
