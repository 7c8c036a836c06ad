package smt

import "fmt"

// pbCon is a weighted at-most-k constraint: sum of weights of true literals
// must not exceed bound. Weights are strictly positive.
type pbCon struct {
	lits    []Lit
	weights []int64
	bound   int64
	slack   int64 // bound minus current sum of true-literal weights
	maxW    int64
}

type pbRef struct {
	con *pbCon
	idx int // index of the literal within the constraint
}

// AddAtMost adds the pseudo-boolean constraint
//
//	Σ weights[i] · lits[i] ≤ bound
//
// where a true literal contributes its weight. Zero-weight terms are
// dropped; negative weights are rejected. Returns false if the constraint is
// unsatisfiable at the top level.
func (s *Solver) AddAtMost(lits []Lit, weights []int64, bound int64) bool {
	if len(lits) != len(weights) {
		panic("smt: AddAtMost length mismatch")
	}
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("smt: AddAtMost called during search")
	}
	// Normalize first: merge duplicate literals and cancel opposing
	// polarities of one variable (w·x + u·¬x contributes min(w,u)
	// unconditionally plus |w−u| on the heavier side). Without this the
	// forcing pass below can fix one polarity and silently miss the
	// contribution of the other, which was already scanned past.
	type pbTerm struct {
		l Lit
		w int64
	}
	var terms []pbTerm
	pos := map[Lit]int{}
	for i, l := range lits {
		w := weights[i]
		switch {
		case w < 0:
			panic(fmt.Sprintf("smt: negative PB weight %d", w))
		case w == 0:
			continue
		}
		if j, ok := pos[l]; ok {
			terms[j].w += w
			continue
		}
		pos[l] = len(terms)
		terms = append(terms, pbTerm{l, w})
	}
	var guaranteed int64
	for i := range terms {
		j, ok := pos[terms[i].l.Not()]
		if !ok || terms[i].w == 0 || terms[j].w == 0 {
			continue
		}
		m := terms[i].w
		if terms[j].w < m {
			m = terms[j].w
		}
		guaranteed += m
		terms[i].w -= m
		terms[j].w -= m
	}
	con := &pbCon{bound: bound - guaranteed}
	var fixed int64
	for _, t := range terms {
		if t.w == 0 {
			continue
		}
		switch s.value(t.l) {
		case lTrue:
			fixed += t.w
		case lFalse:
			// contributes nothing
		default:
			con.lits = append(con.lits, t.l)
			con.weights = append(con.weights, t.w)
		}
	}
	con.bound -= fixed
	if con.bound < 0 {
		s.ok = false
		return false
	}
	// Literals that cannot fit must be false immediately.
	remaining := con.lits[:0:0]
	remW := con.weights[:0:0]
	for i, l := range con.lits {
		if con.weights[i] > con.bound {
			if !s.enqueue(l.Not(), reason{}) {
				s.ok = false
				return false
			}
			continue
		}
		remaining = append(remaining, l)
		remW = append(remW, con.weights[i])
	}
	con.lits, con.weights = remaining, remW
	if len(con.lits) == 0 {
		return s.ok
	}
	var total int64
	for i, w := range con.weights {
		total += w
		if w > con.maxW {
			con.maxW = w
		}
		_ = i
	}
	if total <= con.bound {
		return true // trivially satisfied
	}
	con.slack = con.bound
	s.pbs = append(s.pbs, con)
	if s.pbOfLit == nil {
		s.pbOfLit = make([][]pbRef, len(s.watches), cap(s.watches))
	}
	for i, l := range con.lits {
		s.pbOfLit[l] = append(s.pbOfLit[l], pbRef{con, i})
	}
	s.ok = s.propagate() == nil
	return s.ok
}

// propagatePBs handles the PB constraints watching the newly-true literal p.
// Slack was already adjusted when p was enqueued (see Solver.enqueue), so
// this only detects conflicts and forces literals out.
func (s *Solver) propagatePBs(p Lit) []Lit {
	for _, ref := range s.pbsOf(p) {
		con := ref.con
		if con.slack < 0 {
			return s.pbConflict(con)
		}
		if con.slack < con.maxW {
			if conf := s.pbPropagate(con); conf != nil {
				return conf
			}
		}
	}
	return nil
}

// pbsOf returns the PB constraints watching l.
func (s *Solver) pbsOf(l Lit) []pbRef {
	if s.pbOfLit == nil {
		return nil
	}
	return s.pbOfLit[l]
}

// undoPB restores slack for constraints watching a literal being unassigned.
// Called with the literal exactly as it appears on the trail (the true form).
func (s *Solver) undoPB(l Lit) {
	for _, ref := range s.pbsOf(l) {
		ref.con.slack += ref.con.weights[ref.idx]
	}
}

// pbConflict builds a conflict clause: not all currently-true literals of
// the constraint may hold together.
func (s *Solver) pbConflict(con *pbCon) []Lit {
	out := make([]Lit, 0, len(con.lits))
	for _, l := range con.lits {
		if s.value(l) == lTrue {
			out = append(out, l.Not())
		}
	}
	return out
}

// pbPropagate forces to false every unassigned literal whose weight exceeds
// the remaining slack. The explanation is the set of true literals.
func (s *Solver) pbPropagate(con *pbCon) []Lit {
	var expl []Lit
	for i, l := range con.lits {
		if con.weights[i] <= con.slack || s.value(l) != lUndef {
			continue
		}
		if expl == nil {
			expl = make([]Lit, 0, len(con.lits))
			expl = append(expl, LitUndef) // placeholder for implied literal
			for _, t := range con.lits {
				if s.value(t) == lTrue {
					expl = append(expl, t.Not())
				}
			}
		}
		r := make([]Lit, len(expl))
		copy(r, expl)
		r[0] = l.Not()
		if !s.enqueue(l.Not(), reason{expl: r}) {
			// l already true: conflict. Explanation: true lits plus l.
			conf := append(r[1:len(r):len(r)], l.Not())
			return conf
		}
	}
	return nil
}

// MinimizeWith searches, under assumptions, for an assignment minimizing
// Σ weights[i]·lits[i] by iterative strengthening: after each satisfying
// assignment, a tighter at-most bound is asserted and the search resumes. It
// returns the best objective value found, or ok=false if no assignment
// exists. When the budget runs out, the best incumbent (if any) is returned
// along with ErrBudget.
//
// The descent runs on the live solver: each tightened bound is guarded by a
// fresh selector literal that is assumed during this call and permanently
// retired afterwards, so the bounds evaporate on return and the solver stays
// reusable for later, differently-constrained incremental solves. Every
// re-solve checks Ctx before it searches, so once Ctx is done the incumbent
// is returned with ErrTimeout instead of another descent step.
func (s *Solver) MinimizeWith(assumptions []Lit, lits []Lit, weights []int64) (best int64, ok bool, err error) {
	st, serr := s.Solve(assumptions...)
	if st == StatusUnsat {
		return 0, false, nil
	}
	if st != StatusSat {
		return 0, false, serr
	}
	guard := s.NewAssumption("minimize-bound")
	// Retire this descent's bounds once the call returns: with the guard
	// forced false they relax to the trivial Σw and never constrain a later
	// solve.
	defer s.AddClause(guard.Not())
	for {
		m := s.Model()
		best = 0
		for i, l := range lits {
			if m.Value(l) {
				best += weights[i]
			}
		}
		if best == 0 {
			return 0, true, nil
		}
		s.addGuardedAtMost(guard, lits, weights, best-1)
		if !s.ok {
			return best, true, nil
		}
		probe := make([]Lit, 0, len(assumptions)+1)
		probe = append(probe, assumptions...)
		probe = append(probe, guard)
		st, serr = s.Solve(probe...)
		switch st {
		case StatusUnsat:
			// Optimum proven. The incumbent model is intact: Solve only
			// overwrites the model on success. The failed-assumption core of
			// this probe names the bound guard, not a real infeasibility, so
			// drop it rather than leak it to a later Core() read.
			s.core = nil
			return best, true, nil
		case StatusUnknown:
			return best, true, serr
		}
	}
}

// addGuardedAtMost adds Σ weights[i]·lits[i] ≤ bound, active only while
// guard is assumed: the guard joins the constraint carrying weight
// Σw − bound, so with the guard false or unassigned the bound relaxes to
// the trivial Σw. If the formula already fixes cost ≥ bound at the root,
// unit propagation forces the guard false and the next guarded solve fails
// on it cleanly.
func (s *Solver) addGuardedAtMost(guard Lit, lits []Lit, weights []int64, bound int64) {
	var total int64
	for _, w := range weights {
		total += w
	}
	slackW := total - bound
	if slackW <= 0 {
		return // bound at or above Σw: trivially satisfied
	}
	gl := make([]Lit, 0, len(lits)+1)
	gl = append(gl, lits...)
	gl = append(gl, guard)
	gw := make([]int64, 0, len(weights)+1)
	gw = append(gw, weights...)
	gw = append(gw, slackW)
	s.AddAtMost(gl, gw, bound+slackW)
}
