package smt

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// freshSolver is a solver no instance has run on, spelled out as NewSolver
// made one before solvers were pooled: the pool's constructor goes through
// reset, so a fault there must not reach the reference too.
func freshSolver() *Solver {
	s := &Solver{varInc: 1, claInc: 1, ok: true, maxLearn: 4000}
	s.order.s = s
	return s
}

// session runs one instance, drawn from seed over n variables, on s and
// transcribes everything a caller can read back: every status and error, the
// model, Core, CoreNames and MinimizeCore of every solve, MinimizeWith's
// optimum, the Name and GroupName of every variable, the counters and the
// encoding size. The instance has named and unnamed variables, random
// 3-clauses dense enough that the search learns, a weighted at-most, named
// assumption groups two of which contradict each other, and a theory that
// rejects the first full assignment it is shown.
func session(s *Solver, seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	var out []string
	note := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	if seed%2 == 0 {
		s.Reserve(n)
	}
	lits := make([]Lit, n)
	for i := range lits {
		name := ""
		if i%3 == 0 {
			name = fmt.Sprintf("v%d", i)
		}
		lits[i] = s.NewBool(name)
	}
	pick := func() Lit {
		l := lits[rng.Intn(n)]
		if rng.Intn(2) == 0 {
			l = l.Not()
		}
		return l
	}
	for m := 3 * n; m > 0; m-- {
		s.AddClause(pick(), pick(), pick())
	}
	card := make([]Lit, 6)
	w := make([]int64, 6)
	for i := range card {
		card[i], w[i] = pick(), 1+rng.Int63n(3)
	}
	note("atmost %v", s.AddAtMost(card, w, 4))
	sels := []Lit{s.NewAssumption("left"), s.NewAssumption("right"), s.NewAssumption("extra")}
	x := lits[rng.Intn(n)]
	s.AddClause(sels[0].Not(), x)
	s.AddClause(sels[1].Not(), x.Not())
	for k := 0; k < n/4; k++ {
		s.AddClause(sels[2].Not(), pick(), pick())
	}
	s.AddTheory(&rejectFirstN{n: 1, lits: lits[:3]})
	// All three groups (left and right contradict), then each alone, each
	// with a random literal assumed too.
	for _, groups := range [][]Lit{sels, sels[:1], sels[1:2], sels[2:]} {
		assume := append(slices.Clone(groups), pick())
		st, err := s.Solve(assume...)
		note("solve %v %v", st, err)
		if st == StatusSat {
			var b strings.Builder
			m := s.Model()
			for _, l := range lits {
				b.WriteString(map[bool]string{true: "1", false: "0"}[m.Value(l)])
			}
			note("model %s", b.String())
		}
		core := s.Core()
		note("core %v %v", core, s.CoreNames(core))
		if len(core) > 1 {
			min := s.MinimizeCore(core)
			note("minimized %v %v", min, s.CoreNames(min))
		}
	}
	best, ok, err := s.MinimizeWith(sels[2:], lits[:8], []int64{3, 1, 4, 1, 5, 9, 2, 6})
	note("minimize %d %v %v", best, ok, err)
	for v := 0; v < s.NumVars(); v++ {
		l := PosLit(Var(v))
		note("name %s %s %q", s.Name(l), s.Name(l.Not()), s.GroupName(l))
	}
	note("stats %+v", s.Statistics())
	note("size %d vars %d clauses", s.NumVars(), s.NumClauses())
	return out
}

// TestReleasedSolverMatchesFresh: a solver reset after an instance answers
// every later instance exactly as a fresh one does — statuses, models,
// cores, core names, variable names, optima and every counter — and the reset
// leaves every field a fresh solver has, apart from the capacity it keeps,
// with nothing past a kept length still pointing at the last instance's
// clauses. The first instance is larger than the rest, so the kept tables,
// watch lists and slabs are longer than the ones that follow need.
func TestReleasedSolverMatchesFresh(t *testing.T) {
	used := solverPool.New().(*Solver)
	checkReset(t, used)
	// A theory that would still veto in a later instance, were it kept.
	used.AddTheory(pairTheory{{PosLit(0), PosLit(1)}, {PosLit(2), NegLit(3)}})
	session(used, 1000, 160)
	if used.Statistics().Learned == 0 {
		t.Fatal("the large instance learnt nothing; it must leave learnt clauses behind")
	}
	var total Stats
	var sats, optima int
	for i, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
		used.reset()
		checkReset(t, used)
		n := 24 + 4*i
		fresh := freshSolver()
		want := session(fresh, seed, n)
		if got := session(used, seed, n); !slices.Equal(got, want) {
			t.Fatalf("seed %d: reused solver differs from a fresh one:\n got %q\nwant %q", seed, got, want)
		}
		total.Add(fresh.Statistics())
		for _, line := range want {
			if strings.HasPrefix(line, "model ") {
				sats++
			}
			if strings.HasPrefix(line, "minimize ") && strings.HasSuffix(line, " true <nil>") {
				optima++
			}
		}
	}
	// The sweep must reach what the reset has to undo.
	if total.Learned == 0 || total.Cores == 0 || total.TheoryFails == 0 || sats == 0 || optima == 0 {
		t.Fatalf("sweep too easy to test the reset: %d models, %d optima, %+v", sats, optima, total)
	}
	// Through the pool: whichever solver NewSolver hands out runs as new.
	for seed := int64(20); seed < 24; seed++ {
		used.Release()
		used = NewSolver()
		checkReset(t, used)
		if got, want := session(used, seed, 40), session(freshSolver(), seed, 40); !slices.Equal(got, want) {
			t.Fatalf("seed %d: pooled solver differs from a fresh one", seed)
		}
	}
}

// checkReset compares every field of a reset solver with a fresh solver's:
// slices empty, maps and interfaces nil, numbers and flags equal, the heap
// bound to its own solver. The kept slabs and their sizes are exempt, but
// every kept clause entry must be zero, and so must every watch and reason
// past the kept lengths.
func checkReset(t *testing.T, s *Solver) {
	t.Helper()
	kept := map[string]bool{"clauseSlab": true, "clauseHome": true, "litHome": true, "pending": true, "clauseNeed": true, "litNeed": true}
	fresh := reflect.ValueOf(freshSolver()).Elem()
	got := reflect.ValueOf(s).Elem()
	for i := 0; i < got.NumField(); i++ {
		name := got.Type().Field(i).Name
		if !kept[name] {
			if why := differs(fresh.Field(i), got.Field(i), s); why != "" {
				t.Errorf("reset left %s %s", name, why)
			}
		}
	}
	for i, c := range s.clauseHome {
		if c.lits != nil || c.act != 0 || c.learnt || c.deleted {
			t.Fatalf("reset left kept clause entry %d set: %+v", i, c)
		}
	}
	for l, ws := range s.watches[:cap(s.watches)] {
		if len(ws) != 0 || slices.ContainsFunc(ws[:cap(ws)], func(w watch) bool { return w != watch{} }) {
			t.Fatalf("reset left watches of literal %d", l)
		}
	}
	for v, r := range s.reasons[:cap(s.reasons)] {
		if r.c != nil || r.expl != nil {
			t.Fatalf("reset left the reason of variable %d", v)
		}
	}
}

// differs reports how a field of a reset solver differs from the fresh
// solver's, or "".
func differs(fresh, got reflect.Value, self *Solver) string {
	switch got.Kind() {
	case reflect.Slice:
		if got.Len() != 0 {
			return fmt.Sprintf("with %d entries", got.Len())
		}
	case reflect.Map, reflect.Interface:
		if !got.IsNil() {
			return "set"
		}
	case reflect.Pointer:
		if got.Pointer() != reflect.ValueOf(self).Pointer() {
			return "pointing away from its solver"
		}
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			if why := differs(fresh.Field(i), got.Field(i), self); why != "" {
				return "." + got.Type().Field(i).Name + " " + why
			}
		}
	case reflect.Float64:
		if got.Float() != fresh.Float() {
			return fmt.Sprintf("%v, fresh %v", got.Float(), fresh.Float())
		}
	case reflect.Int, reflect.Int64:
		if got.Int() != fresh.Int() {
			return fmt.Sprintf("%v, fresh %v", got.Int(), fresh.Int())
		}
	case reflect.Bool:
		if got.Bool() != fresh.Bool() {
			return fmt.Sprintf("%v, fresh %v", got.Bool(), fresh.Bool())
		}
	default:
		return "of a kind checkReset does not know: " + got.Kind().String()
	}
	return ""
}
