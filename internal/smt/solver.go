package smt

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
)

// Status is the result of a Solve call.
type Status int

const (
	// StatusUnknown means the solver gave up (budget exhausted).
	StatusUnknown Status = iota
	// StatusSat means a satisfying assignment was found.
	StatusSat
	// StatusUnsat means the constraints are contradictory.
	StatusUnsat
)

func (s Status) String() string {
	switch s {
	case StatusSat:
		return "sat"
	case StatusUnsat:
		return "unsat"
	}
	return "unknown"
}

// ErrBudget is returned by Solve when the conflict budget or the deadline
// runs out before a verdict is reached. The concrete cause is one of the typed
// errors below; all of them satisfy errors.Is(err, ErrBudget).
var ErrBudget = errors.New("smt: solve budget exhausted")

// ErrTimeout means the caller's context expired or was cancelled.
var ErrTimeout = fmt.Errorf("%w: time budget", ErrBudget)

// ErrConflictBudget means the conflict budget ran out first.
var ErrConflictBudget = fmt.Errorf("%w: conflict budget", ErrBudget)

// Theory receives the solver's complete boolean assignments and may veto
// them, in the style of DPLL(T). Check is invoked only on full assignments;
// if the assignment is theory-inconsistent, Check returns a non-empty
// conflict clause that is falsified by the current assignment. The solver
// learns the clause and resumes search. The model is the solver's own and is
// valid only for the duration of the call.
type Theory interface {
	Check(m *Model) (conflict []Lit)
}

// Stats aggregates search statistics for one Solver lifetime.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learned      int64
	TheoryChecks int64
	TheoryFails  int64

	// Incremental-interface counters.
	SolveCalls    int64 // Solve invocations on this solver
	Assumptions   int64 // assumption literals passed across all Solve calls
	Cores         int64 // failed-assumption analyses (solves UNSAT under assumptions)
	CoreLits      int64 // total literals across all extracted cores
	ClausesReused int64 // learnt clauses already present when an incremental re-solve started
	// Encodes counts constraint encodings built on top of this solver. The
	// solver itself never increments it; callers that construct encodings
	// (internal/encode) bump it so an aggregated Stats shows how often the
	// encoding was rebuilt versus reused across incremental solves.
	Encodes int64
	// CacheHits/CacheEvictions count solver-cache traffic. Like Encodes they
	// are caller-maintained (internal/encode bumps them), riding in Stats so
	// one aggregate tells the whole reuse story.
	CacheHits      int64
	CacheEvictions int64
}

// Add accumulates another solver's counters into s, so callers running
// several independent SMT instances can report one aggregate.
func (s *Stats) Add(o Stats) {
	s.Decisions += o.Decisions
	s.Propagations += o.Propagations
	s.Conflicts += o.Conflicts
	s.Restarts += o.Restarts
	s.Learned += o.Learned
	s.TheoryChecks += o.TheoryChecks
	s.TheoryFails += o.TheoryFails
	s.SolveCalls += o.SolveCalls
	s.Assumptions += o.Assumptions
	s.Cores += o.Cores
	s.CoreLits += o.CoreLits
	s.ClausesReused += o.ClausesReused
	s.Encodes += o.Encodes
	s.CacheHits += o.CacheHits
	s.CacheEvictions += o.CacheEvictions
}

type clause struct {
	lits    []Lit
	act     float64
	learnt  bool
	deleted bool
}

// reason records why a variable was assigned: by a clause, a pseudo-boolean
// constraint (with a materialized explanation), or a decision (nil).
type reason struct {
	c    *clause
	expl []Lit // explanation clause for PB/theory propagations; implied lit first
}

// Solver is a CDCL SAT solver with pseudo-boolean constraints and theory
// plugins. The zero value is not usable; call NewSolver.
type Solver struct {
	names    map[Var]string // of the variables given one
	assigns  []lbool
	levels   []int32
	reasons  []reason
	activity []float64
	phase    []bool
	seen     []bool

	nclauses int // problem clauses added
	learnts  []*clause
	watches  [][]watch // indexed by Lit

	// Problem clauses and their literals are cut from slabs the solver owns,
	// so encoding a component costs a handful of allocations instead of
	// several per clause; learnt clauses stay individually allocated, since
	// reduceLearnts drops them. Problem clauses are attached in batches (see
	// attachPending).
	clauseSlab []clause
	litSlab    []Lit
	pending    [][]clause // added, not yet attached: runs of clause slabs
	unattached int        // clauses in pending
	scratch    []Lit      // AddClause's simplified clause before it is cut
	snap       Model      // the assignment a theory check is shown

	// clauseHome and litHome are the first slab of each kind cut since the
	// last reset, and the one slab of each kind a reset keeps (see reset);
	// clauseNeed and litNeed are the most clauses and literals any one life
	// of the solver has cut, which the first slab of a life is sized to.
	clauseHome          []clause
	litHome             []Lit
	clauseNeed, litNeed int
	litsCut             int // literals cut from slabs since the last reset

	pbs      []*pbCon
	pbOfLit  [][]pbRef // pb constraints watching each literal; nil until the first one
	theories []Theory

	trail    []Lit
	trailLim []int
	qhead    int

	varInc   float64
	claInc   float64
	order    varHeap
	ok       bool // false once a top-level contradiction is found
	stats    Stats
	model    []lbool // last satisfying assignment
	maxLearn int

	// Incremental interface state: the assumptions of the Solve call in
	// progress, the failed-assumption core of the last UNSAT-under-
	// assumptions solve, and the labels given to selector literals by
	// NewAssumption (see assumptions.go).
	assumptions []Lit
	core        []Lit
	assumeNames map[Var]string

	// ConflictBudget bounds the conflicts of each Solve call; 0, as
	// NewSolver leaves it, is unbudgeted.
	ConflictBudget int64
	// Ctx, when non-nil, is the solve's one wall-clock limit: its deadline
	// or its cancellation aborts the search with ErrTimeout at the next poll
	// point.
	Ctx context.Context

	// pollStride counts propagations between abort polls; the poll runs on
	// a conflict-count cadence as well so that neither a propagation-heavy
	// nor a conflict-heavy search can overshoot the deadline.
	lastPollProps int64
	lastPollConfs int64
}

type watch struct {
	c       *clause
	blocker Lit
}

// solverPool holds released solvers, whose tables, watch lists and slabs
// keep their capacity for the next solve.
var solverPool = sync.Pool{New: func() any {
	s := new(Solver)
	s.reset()
	return s
}}

// NewSolver returns an empty solver, reusing the memory of a released one
// when the pool has one.
func NewSolver() *Solver { return solverPool.Get().(*Solver) }

// Release empties s and returns it to the pool NewSolver takes solvers from.
// Nothing NewSolver's caller read from s before stays tied to it — a Model,
// a Core, names and statistics are copies — but s itself must not be used
// again.
func (s *Solver) Release() {
	s.reset()
	solverPool.Put(s)
}

// reset makes s an empty solver. It keeps the capacity of the per-variable
// tables, the watch lists (the outer array and each literal's), the trail,
// the heap, the scratch and one slab of each kind sized to the largest
// problem seen; every other field starts from zero, so a field added later
// is reset by default. Pointer-holding entries past the kept lengths are
// cleared, so a pooled solver keeps no clause, theory or encoder alive.
//
// What lies past a kept length was cleared by the reset before and has not
// been written since, so each clear covers this life's entries only: a solver
// sized by a large problem resets in the time of the small one it just ran.
func (s *Solver) reset() {
	for l, ws := range s.watches {
		clear(ws[:cap(ws)])
		s.watches[l] = ws[:0]
	}
	clear(s.reasons)
	clear(s.pending[:cap(s.pending)])
	clauseNeed, litNeed := max(s.clauseNeed, s.nclauses), max(s.litNeed, s.litsCut)
	clauses, lits := s.clauseHome, s.litHome
	if len(clauses) < clauseNeed {
		clauses = nil
	}
	if cap(lits) < litNeed {
		lits = nil
	}
	// A reused clause entry must read as new: newClause sets only its lits.
	// The home slab is the first cut from, so this life's entries lead it.
	clear(clauses[:min(s.nclauses, len(clauses))])
	*s = Solver{
		assigns:    s.assigns[:0],
		levels:     s.levels[:0],
		reasons:    s.reasons[:0],
		activity:   s.activity[:0],
		phase:      s.phase[:0],
		seen:       s.seen[:0],
		watches:    s.watches[:0],
		clauseSlab: clauses,
		litSlab:    lits[:0],
		pending:    s.pending[:0],
		scratch:    s.scratch[:0],
		snap:       Model{vals: s.snap.vals[:0]},
		clauseHome: clauses,
		litHome:    lits,
		clauseNeed: clauseNeed,
		litNeed:    litNeed,
		trail:      s.trail[:0],
		trailLim:   s.trailLim[:0],
		order:      varHeap{heap: s.order.heap[:0], index: s.order.index[:0]},
		varInc:     1,
		claInc:     1,
		ok:         true,
		maxLearn:   4000,
	}
	if clauses != nil {
		s.pending = append(s.pending, clauses[:0])
	}
	s.order.s = s
}

// NumVars returns the number of boolean variables created so far.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NumClauses returns the number of problem (non-learnt) clauses added.
func (s *Solver) NumClauses() int { return s.nclauses }

// Stats returns a copy of the accumulated search statistics.
func (s *Solver) Statistics() Stats { return s.stats }

// NoteEncode records that a constraint encoding was (re)built on top of this
// solver. The solver itself never calls it; see Stats.Encodes.
func (s *Solver) NoteEncode() { s.stats.Encodes++ }

// Reserve grows every per-variable table to hold n more variables without
// regrowing, for a caller that knows how many NewBool calls are coming.
func (s *Solver) Reserve(n int) {
	s.assigns = slices.Grow(s.assigns, n)
	s.levels = slices.Grow(s.levels, n)
	s.reasons = slices.Grow(s.reasons, n)
	s.activity = slices.Grow(s.activity, n)
	s.phase = slices.Grow(s.phase, n)
	s.seen = slices.Grow(s.seen, n)
	s.watches = slices.Grow(s.watches, 2*n)
	s.order.heap = slices.Grow(s.order.heap, n)
	s.order.index = slices.Grow(s.order.index, n)
}

// NewBool creates a fresh boolean variable and returns its positive literal.
// The name is retained for diagnostics only and need not be unique.
func (s *Solver) NewBool(name string) Lit {
	v := Var(len(s.assigns))
	if name != "" {
		if s.names == nil {
			s.names = map[Var]string{}
		}
		s.names[v] = name
	}
	s.assigns = append(s.assigns, lUndef)
	s.levels = append(s.levels, 0)
	s.reasons = append(s.reasons, reason{})
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, false)
	s.seen = append(s.seen, false)
	// A reset solver keeps each literal's emptied watch list past the end,
	// which slices.Grow carries over when it reallocates.
	s.watches = slices.Grow(s.watches, 2)
	s.watches = s.watches[:len(s.watches)+2]
	if s.pbOfLit != nil {
		s.pbOfLit = append(s.pbOfLit, nil, nil)
	}
	s.order.push(v)
	return PosLit(v)
}

// Name returns the diagnostic name of the variable underlying l.
func (s *Solver) Name(l Lit) string {
	v := l.Var()
	if name, ok := s.names[v]; ok {
		if l.Neg() {
			return "~" + name
		}
		return name
	}
	return l.String()
}

// AddTheory registers a theory plugin consulted on full assignments.
func (s *Solver) AddTheory(t Theory) { s.theories = append(s.theories, t) }

func (s *Solver) value(l Lit) lbool { return litValue(s.assigns[l.Var()], l) }

// AddClause adds a disjunction of literals. Returns false if the clause makes
// the problem trivially unsatisfiable at the top level.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("smt: AddClause called during search")
	}
	// Simplify: drop false/duplicate literals, detect tautology.
	out := s.scratch[:0]
	defer func() { s.scratch = out[:0] }()
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
	s.newClause(out)
	return true
}

// OrEquals introduces (or reuses) a literal out with out ↔ (l1 ∨ l2 ∨ ...).
func (s *Solver) OrEquals(lits []Lit, name string) (Lit, bool) {
	switch len(lits) {
	case 0:
		out := s.NewBool("")
		return out, s.AddClause(out.Not())
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

// slabLen sizes the next slab of a kind of which have items were handed out
// so far: as many again, within [least, 4096] and never below need, so a
// small solver's slabs stay small and a large one's are few.
func slabLen(have, least, need int) int {
	return max(need, least, min(have, 4096))
}

// newClause makes a problem clause holding a copy of lits, cut from the
// solver's slabs, and queues it for attachPending. The first slab of each kind
// in a life of the solver is its home (see reset), sized to the largest
// problem the solver has seen.
func (s *Solver) newClause(lits []Lit) {
	if len(s.clauseSlab) == 0 {
		n := slabLen(s.nclauses, 32, 1)
		if s.clauseHome == nil {
			n = max(n, s.clauseNeed)
		}
		s.clauseSlab = make([]clause, n)
		if s.clauseHome == nil {
			s.clauseHome = s.clauseSlab
		}
		s.pending = append(s.pending, s.clauseSlab[:0])
	}
	c := &s.clauseSlab[0]
	s.clauseSlab = s.clauseSlab[1:]
	run := &s.pending[len(s.pending)-1]
	*run = (*run)[:len(*run)+1]
	s.unattached++
	if cap(s.litSlab)-len(s.litSlab) < len(lits) {
		n := slabLen(2*s.nclauses, 128, len(lits))
		if s.litHome == nil {
			n = max(n, s.litNeed)
		}
		s.litSlab = make([]Lit, 0, n)
		if s.litHome == nil {
			s.litHome = s.litSlab
		}
	}
	s.nclauses++
	s.litsCut += len(lits)
	n := len(s.litSlab)
	s.litSlab = append(s.litSlab, lits...)
	c.lits = s.litSlab[n:len(s.litSlab):len(s.litSlab)]
}

// attachPending attaches the clauses added since the last propagation, in the
// order they were added, appending each clause's two watches to their lists
// in place: the watch lists come out exactly as attaching each clause on its
// way in would leave them, and a reused solver's lists already have room.
func (s *Solver) attachPending() {
	for _, run := range s.pending {
		for i := range run {
			s.attach(&run[i])
		}
	}
	// The next clause is cut from what is left of the current slab, if
	// anything: a new run starts there.
	s.pending = append(s.pending[:0], s.clauseSlab[:0])
	s.unattached = 0
}

func (s *Solver) attach(c *clause) {
	s.watch(c.lits[0].Not(), watch{c, c.lits[1]})
	s.watch(c.lits[1].Not(), watch{c, c.lits[0]})
}

// watch appends w to l's watch list.
func (s *Solver) watch(l Lit, w watch) { s.watches[l] = append(s.watches[l], w) }

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// enqueue assigns literal l to true with the given reason. Returns false on
// immediate conflict with an existing assignment.
func (s *Solver) enqueue(l Lit, r reason) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	if l.Neg() {
		s.assigns[v] = lFalse
	} else {
		s.assigns[v] = lTrue
	}
	s.levels[v] = int32(s.decisionLevel())
	s.reasons[v] = r
	s.trail = append(s.trail, l)
	// Keep PB slacks in sync with the trail so backtracking restores them
	// symmetrically.
	for _, ref := range s.pbsOf(l) {
		ref.con.slack -= ref.con.weights[ref.idx]
	}
	return true
}

// propagate performs unit propagation over clauses and PB constraints.
// It returns a conflicting explanation (all-false clause) or nil.
func (s *Solver) propagate() []Lit {
	if s.unattached > 0 {
		s.attachPending()
	}
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		if conf := s.propagateClauses(p); conf != nil {
			return conf
		}
		if conf := s.propagatePBs(p); conf != nil {
			return conf
		}
	}
	return nil
}

func (s *Solver) propagateClauses(p Lit) []Lit {
	ws := s.watches[p]
	kept := ws[:0]
	for i := 0; i < len(ws); i++ {
		w := ws[i]
		if s.value(w.blocker) == lTrue {
			kept = append(kept, w)
			continue
		}
		c := w.c
		if c.deleted {
			continue
		}
		// Ensure the false literal is lits[1].
		if c.lits[0] == p.Not() {
			c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
		}
		first := c.lits[0]
		if first != w.blocker && s.value(first) == lTrue {
			kept = append(kept, watch{c, first})
			continue
		}
		// Look for a new watch.
		found := false
		for k := 2; k < len(c.lits); k++ {
			if s.value(c.lits[k]) != lFalse {
				c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
				s.watch(c.lits[1].Not(), watch{c, first})
				found = true
				break
			}
		}
		if found {
			continue
		}
		// Clause is unit or conflicting.
		kept = append(kept, w)
		if s.value(first) == lFalse {
			// Conflict: copy remaining watches and bail.
			kept = append(kept, ws[i+1:]...)
			s.watches[p] = kept
			return c.lits
		}
		if !s.enqueue(first, reason{c: c}) {
			panic("smt: enqueue failed after value check")
		}
	}
	s.watches[p] = kept
	return nil
}

// backtrack undoes all assignments above the given decision level.
func (s *Solver) backtrack(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = s.assigns[v] == lTrue
		s.assigns[v] = lUndef
		s.reasons[v] = reason{}
		s.order.pushIfAbsent(v)
		s.undoPB(l)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) decayActivities() {
	s.varInc /= 0.95
	s.claInc /= 0.999
}

// analyze performs 1-UIP conflict analysis. It returns the learned clause
// (asserting literal first) and the backjump level.
func (s *Solver) analyze(conf []Lit) ([]Lit, int) {
	learnt := []Lit{LitUndef}
	counter := 0
	p := LitUndef
	idx := len(s.trail) - 1
	curLevel := s.decisionLevel()
	reasonLits := conf

	cleanup := []Var{}
	for {
		for _, q := range reasonLits {
			if p != LitUndef && q == p {
				continue
			}
			v := q.Var()
			if s.seen[v] || s.levels[v] == 0 {
				continue
			}
			s.seen[v] = true
			cleanup = append(cleanup, v)
			s.bumpVar(v)
			if int(s.levels[v]) >= curLevel {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find next literal on the trail marked seen.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		counter--
		if counter == 0 {
			break
		}
		r := s.reasons[p.Var()]
		switch {
		case r.c != nil:
			reasonLits = r.c.lits
			if r.c.learnt {
				s.bumpClause(r.c)
			}
		case r.expl != nil:
			reasonLits = r.expl
		default:
			// Decision reached before counter hit zero; should not happen
			// with 1-UIP, but guard anyway.
			reasonLits = nil
		}
	}
	learnt[0] = p.Not()
	for _, v := range cleanup {
		s.seen[v] = false
	}
	// Compute backjump level: second-highest level in learnt clause.
	bj := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.levels[learnt[i].Var()] > s.levels[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bj = int(s.levels[learnt[1].Var()])
	}
	return learnt, bj
}

func (s *Solver) bumpClause(c *clause) {
	c.act += s.claInc
	if c.act > 1e100 {
		for _, lc := range s.learnts {
			lc.act *= 1e-100
		}
		s.claInc *= 1e-100
	}
}

func (s *Solver) record(learnt []Lit) {
	s.stats.Learned++
	if len(learnt) == 1 {
		if !s.enqueue(learnt[0], reason{}) {
			s.ok = false
		}
		return
	}
	c := &clause{lits: learnt, learnt: true, act: s.claInc}
	s.learnts = append(s.learnts, c)
	s.attach(c)
	if !s.enqueue(learnt[0], reason{c: c}) {
		panic("smt: asserting literal already false after backjump")
	}
}

// reduceLearnts discards half of the learned clauses with lowest activity.
func (s *Solver) reduceLearnts() {
	if len(s.learnts) < s.maxLearn {
		return
	}
	// Partial selection: keep the more active half and locked clauses.
	med := medianAct(s.learnts)
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if c.act >= med && len(c.lits) > 2 || s.locked(c) || len(c.lits) <= 2 {
			kept = append(kept, c)
		} else {
			c.deleted = true
		}
	}
	s.learnts = kept
	if len(s.learnts) >= s.maxLearn {
		s.maxLearn = len(s.learnts) + s.maxLearn/2
	}
}

func (s *Solver) locked(c *clause) bool {
	l := c.lits[0]
	return s.value(l) == lTrue && s.reasons[l.Var()].c == c
}

func medianAct(cs []*clause) float64 {
	if len(cs) == 0 {
		return 0
	}
	// Approximate median by sampling; exact ordering is unnecessary.
	var sum float64
	for _, c := range cs {
		sum += c.act
	}
	return sum / float64(len(cs))
}

// pickBranch selects the next decision literal, or LitUndef if all variables
// are assigned.
func (s *Solver) pickBranch() Lit {
	for s.order.size() > 0 {
		v := s.order.pop()
		if s.assigns[v] == lUndef {
			if s.phase[v] {
				return PosLit(v)
			}
			return NegLit(v)
		}
	}
	return LitUndef
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		p := int64(1) << k
		if i == p-1 {
			return p / 2
		}
		if i < p-1 {
			return luby(i - p/2 + 1)
		}
	}
}

// Solve searches for a satisfying assignment under the given assumptions
// (the MiniSat-style incremental interface). Assumptions are enqueued as
// pseudo-decisions at levels 1..k before the real search begins, so learnt
// clauses, VSIDS activity, and saved phases all carry over to later Solve
// calls on the same solver. When the problem is unsatisfiable only because
// of the assumptions, the solver stays usable and Core reports the subset
// of assumptions responsible (the failed-assumption core); a StatusUnsat
// with an empty Core means the clause database itself is contradictory.
func (s *Solver) Solve(assumptions ...Lit) (Status, error) {
	s.core = nil
	if !s.ok {
		return StatusUnsat, nil
	}
	if s.stats.SolveCalls > 0 {
		// Everything learnt by earlier calls is still attached: that reuse
		// is the point of the incremental interface, so account for it.
		s.stats.ClausesReused += int64(len(s.learnts))
	}
	s.stats.SolveCalls++
	s.stats.Assumptions += int64(len(assumptions))
	s.assumptions = assumptions
	defer func() { s.assumptions = nil }()
	var deadline time.Time
	if s.Ctx != nil {
		deadline, _ = s.Ctx.Deadline()
	}
	if err := s.ctxErr(); err != nil {
		return StatusUnknown, err
	}
	conflictsAtStart := s.stats.Conflicts
	restartNum := int64(0)

	defer s.backtrack(0)

	for {
		restartNum++
		limit := luby(restartNum) * 128
		st, err := s.search(limit, deadline, conflictsAtStart)
		if err != nil || st != StatusUnknown {
			return st, err
		}
		s.stats.Restarts++
		s.backtrack(0)
	}
}

func (s *Solver) search(conflictLimit int64, deadline time.Time, confStart int64) (Status, error) {
	var nConf int64
	for {
		conf := s.propagate()
		if conf != nil {
			s.stats.Conflicts++
			nConf++
			if s.decisionLevel() == 0 {
				s.ok = false
				return StatusUnsat, nil
			}
			learnt, bj := s.analyze(conf)
			s.backtrack(bj)
			s.record(learnt)
			if !s.ok {
				return StatusUnsat, nil
			}
			s.decayActivities()
			if s.ConflictBudget > 0 && s.stats.Conflicts-confStart > s.ConflictBudget {
				return StatusUnknown, fmt.Errorf("%w (%d conflicts)", ErrConflictBudget, s.stats.Conflicts-confStart)
			}
			if err := s.pollAbort(deadline); err != nil {
				return StatusUnknown, err
			}
			if nConf >= conflictLimit {
				return StatusUnknown, nil // restart
			}
			continue
		}
		if err := s.pollAbort(deadline); err != nil {
			return StatusUnknown, err
		}
		s.reduceLearnts()
		// Pending assumptions become pseudo-decisions at levels 1..k before
		// any activity-ordered branching. A conflict during ordinary search
		// may backjump below the assumption levels; the loop here re-pushes
		// them, and an assumption found false at push time is the UNSAT-
		// under-assumptions verdict (analyzed into a core, solver intact).
		next := LitUndef
		for s.decisionLevel() < len(s.assumptions) {
			p := s.assumptions[s.decisionLevel()]
			if v := s.value(p); v == lTrue {
				// Already entailed: open an empty level so decision level i
				// keeps corresponding to assumption i.
				s.trailLim = append(s.trailLim, len(s.trail))
			} else if v == lFalse {
				s.core = s.analyzeFinal(p)
				s.stats.Cores++
				s.stats.CoreLits += int64(len(s.core))
				return StatusUnsat, nil
			} else {
				next = p
				break
			}
		}
		if next == LitUndef {
			next = s.pickBranch()
		}
		if next == LitUndef {
			// Full assignment: consult theories.
			if conflict := s.theoryCheck(); conflict != nil {
				s.stats.Conflicts++
				nConf++
				if s.decisionLevel() == 0 {
					s.ok = false
					return StatusUnsat, nil
				}
				lv := s.maxFalseLevel(conflict)
				if lv == 0 {
					s.ok = false
					return StatusUnsat, nil
				}
				if lv >= s.decisionLevel() {
					learnt, bj := s.analyze(conflict)
					s.backtrack(bj)
					s.record(learnt)
				} else {
					c := &clause{lits: append([]Lit(nil), conflict...)}
					s.nclauses++
					s.backtrack(lv - 1)
					s.attach(c)
				}
				if !s.ok {
					return StatusUnsat, nil
				}
				// Theory conflicts count toward the same budget as boolean
				// conflicts: both are recorded in stats.Conflicts, so letting
				// one kind bypass the bail-out made ConflictBudget porous on
				// theory-heavy problems.
				if s.ConflictBudget > 0 && s.stats.Conflicts-confStart > s.ConflictBudget {
					return StatusUnknown, fmt.Errorf("%w (%d conflicts)", ErrConflictBudget, s.stats.Conflicts-confStart)
				}
				if err := s.pollAbort(deadline); err != nil {
					return StatusUnknown, err
				}
				continue
			}
			s.captureModel()
			return StatusSat, nil
		}
		s.stats.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(next, reason{})
	}
}

// pollAbort checks the deadline and the caller's context once enough
// propagations or conflicts have accumulated since the last poll. The dual
// cadence keeps the cost of time.Now negligible while ensuring that both
// propagation-heavy and conflict-heavy search phases notice an expired
// budget promptly (a pure conflict-count cadence can overshoot the deadline
// by seconds in long unit-propagation chains).
func (s *Solver) pollAbort(deadline time.Time) error {
	if s.stats.Propagations-s.lastPollProps < 2048 && s.stats.Conflicts-s.lastPollConfs < 128 {
		return nil
	}
	s.lastPollProps = s.stats.Propagations
	s.lastPollConfs = s.stats.Conflicts
	if err := s.ctxErr(); err != nil {
		return err
	}
	if !deadline.IsZero() && time.Now().After(deadline) {
		return ErrTimeout
	}
	return nil
}

// ctxErr reports a done Ctx as ErrTimeout.
func (s *Solver) ctxErr() error {
	if s.Ctx == nil {
		return nil
	}
	if err := s.Ctx.Err(); err != nil {
		return fmt.Errorf("%w (%v)", ErrTimeout, err)
	}
	return nil
}

// maxFalseLevel returns the highest decision level among the (false) literals
// of a theory conflict clause, reordering the clause so its two
// highest-level literals come first (watchable after backtrack).
func (s *Solver) maxFalseLevel(conflict []Lit) int {
	for i := range conflict {
		for j := i + 1; j < len(conflict); j++ {
			if s.levels[conflict[j].Var()] > s.levels[conflict[i].Var()] {
				conflict[i], conflict[j] = conflict[j], conflict[i]
			}
		}
		if i == 1 {
			break
		}
	}
	return int(s.levels[conflict[0].Var()])
}

func (s *Solver) theoryCheck() []Lit {
	if len(s.theories) == 0 {
		return nil
	}
	s.stats.TheoryChecks++
	s.snap.vals = append(s.snap.vals[:0], s.assigns...)
	m := &s.snap
	for _, t := range s.theories {
		if conflict := t.Check(m); len(conflict) > 0 {
			s.stats.TheoryFails++
			// Sanity: the clause must be falsified by the current assignment.
			for _, l := range conflict {
				if s.value(l) != lFalse {
					panic(fmt.Sprintf("smt: theory conflict clause not falsified: %s", s.Name(l)))
				}
			}
			return conflict
		}
	}
	return nil
}

func (s *Solver) captureModel() {
	s.model = make([]lbool, len(s.assigns))
	copy(s.model, s.assigns)
}

// Model returns the satisfying assignment found by the last successful
// Solve. It returns nil if no model is available.
func (s *Solver) Model() *Model {
	if s.model == nil {
		return nil
	}
	return &Model{vals: s.model}
}

// Model is an immutable boolean assignment.
type Model struct {
	vals []lbool
}

// Value reports whether literal l is true in the model. Unassigned variables
// (possible only in partial snapshots) read as false.
func (m *Model) Value(l Lit) bool {
	v := l.Var()
	if int(v) >= len(m.vals) {
		return false
	}
	return litValue(m.vals[v], l) == lTrue
}

// varHeap is an activity-ordered max-heap of variables with lazy deletion.
type varHeap struct {
	s     *Solver
	heap  []Var
	index []int32 // position+1 in heap; 0 = absent
}

func (h *varHeap) size() int { return len(h.heap) }

func (h *varHeap) less(a, b Var) bool { return h.s.activity[a] > h.s.activity[b] }

func (h *varHeap) push(v Var) {
	for int(v) >= len(h.index) {
		h.index = append(h.index, 0)
	}
	if h.index[v] != 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.index[v] = int32(len(h.heap))
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pushIfAbsent(v Var) { h.push(v) }

func (h *varHeap) pop() Var {
	v := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.index[h.heap[0]] = 1
	h.heap = h.heap[:last]
	h.index[v] = 0
	if last > 0 {
		h.down(0)
	}
	return v
}

func (h *varHeap) update(v Var) {
	if int(v) >= len(h.index) || h.index[v] == 0 {
		return
	}
	h.up(int(h.index[v]) - 1)
}

func (h *varHeap) up(i int) {
	v := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(v, h.heap[p]) {
			break
		}
		h.heap[i] = h.heap[p]
		h.index[h.heap[i]] = int32(i + 1)
		i = p
	}
	h.heap[i] = v
	h.index[v] = int32(i + 1)
}

func (h *varHeap) down(i int) {
	v := h.heap[i]
	n := len(h.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.less(h.heap[c+1], h.heap[c]) {
			c++
		}
		if !h.less(h.heap[c], v) {
			break
		}
		h.heap[i] = h.heap[c]
		h.index[h.heap[i]] = int32(i + 1)
		i = c
	}
	h.heap[i] = v
	h.index[v] = int32(i + 1)
}
