// Package encode builds the SMT problem at the heart of Lyra's back-end
// (§5.1, §5.4–§5.6) and solves it.
//
// Boolean structure (clauses over placement literals f_s(i)) captures the
// deployment constraints of §5.5: algorithm scopes, per-flow-path coverage,
// instruction dependency ordering (Eq. 3), and global-variable co-location
// (Appendix B.2). Chip resource constraints (§5.4, Appendix A) are enforced
// by a resource theory in the DPLL(T) style: whenever the SAT core reaches
// a full assignment, the theory re-runs each target chip's admission
// allocator (internal/asic) against the implied table set; infeasible
// switches yield conflict clauses over the placement literals involved, and
// the search resumes. External-variable splitting across switches (§5.6,
// Appendix B.1) is performed inside the theory, which assigns concrete
// shard sizes per hosting switch along every flow path.
package encode

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"

	"lyra/internal/asic"
	"lyra/internal/ir"
	"lyra/internal/par"
	"lyra/internal/scope"
	"lyra/internal/smt"
	"lyra/internal/synth"
	"lyra/internal/topo"
)

// ErrInfeasible is returned when the constraints are unsatisfiable: the
// program cannot be placed on the target network at all (as opposed to the
// solver running out of budget before a verdict).
var ErrInfeasible = errors.New("encode: no feasible placement")

// InfeasibleError is the concrete error behind ErrInfeasible when the solver
// could name the violated constraint families: the minimized failed-
// assumption core of the unsatisfiable solve, rendered as group labels like
// "exactly-one:acl" or "coverage:loadbalancer". It unwraps to ErrInfeasible,
// so errors.Is checks continue to work unchanged.
type InfeasibleError struct {
	// Groups are the sorted constraint-family labels of the unsat core. An
	// empty list means the contradiction is rooted in permanent clauses
	// (typically resource-capacity facts learned from the chip models), in
	// which case Hint carries the last theory conflict.
	Groups []string
	// Hint is the last resource-theory conflict of the failing solve, if any.
	Hint string
}

func (e *InfeasibleError) Error() string {
	msg := ErrInfeasible.Error() + ": the program does not fit the target network"
	if len(e.Groups) > 0 {
		msg += " (unsat core: " + strings.Join(e.Groups, ", ") + ")"
	}
	return msg + e.Hint
}

func (e *InfeasibleError) Unwrap() error { return ErrInfeasible }

// Input bundles everything the encoder needs.
type Input struct {
	IR     *ir.Program
	Net    *topo.Network
	Scopes map[string]*scope.Resolved
	// Since, when not nil, is Net.Since(the network of Options.Prev's
	// input), which a recompile has already computed to re-resolve its
	// scopes; the solve computes it itself otherwise.
	Since *topo.Delta
}

// Objective selects the optimization metric (Appendix C.2).
type Objective int

// Objectives.
const (
	// ObjNone accepts the first feasible plan (phase-saving already biases
	// the search toward few placements).
	ObjNone Objective = iota
	// ObjMinPlacements minimizes the total number of instruction
	// placements (fewest copies / fewest programmed switches).
	ObjMinPlacements
	// ObjMinSwitches minimizes the number of switches hosting anything.
	ObjMinSwitches
	// ObjPreferSwitch maximizes the use of Options.PreferSwitch by
	// weighting placements elsewhere (Appendix C.2: "maximize the number
	// of tables on a specified switch, by assigning a much bigger weight").
	ObjPreferSwitch
)

// Options tunes the solve.
type Options struct {
	Objective Objective
	// PreferSwitch names the switch to load up under ObjPreferSwitch.
	PreferSwitch string
	// Ctx, when non-nil, cancels the solve cooperatively, fallback attempts
	// included. Its deadline is the solve's, and a solve ends within 120 s
	// of its start whatever the deadline.
	Ctx context.Context
	// Parallelism bounds the worker pool solving independent components
	// concurrently. <= 0 selects GOMAXPROCS. The decomposition itself never
	// depends on this value — only wall-clock time does — so any setting
	// yields an identical Plan.
	Parallelism int
	// Cache, when non-nil, memoises every solved symmetry class of the root
	// IR as its Template, so a later Solve meeting the class again — in this
	// network or a degraded one, under these switch names or others — binds
	// it without encoding or solving anything.
	Cache *Cache
	// Prev, when non-nil, is the plan this solve follows: the same root IR
	// and scope specification solved on an earlier state of the network. The
	// components of Prev no switch of which changed since are taken over as
	// they are — no path walk, no canonical form, no solve — and only the rest
	// of the network is decomposed again. A Prev that does not fit (another
	// program, spec or option set, or a network that gained something) is
	// ignored. The incremental driver sets it; it needs Cache to be set, and
	// Prev's own network must not have been edited since Prev was solved
	// (a network derived from it by Clone may be edited freely).
	Prev *Plan
	// NoSymmetryDedup disables every reuse of a solved class: each component
	// is solved from scratch even when it is isomorphic (modulo switch
	// renaming) to one solved in this call, memoised in Cache or carried by
	// Prev. The zero value keeps reuse on; the flag exists as the reference
	// the symmetry tests and difftest compare against, and produces
	// byte-identical plans (see symmetry.go for the argument).
	NoSymmetryDedup bool
}

// maxSolveTime caps a solve whose context has no earlier deadline, so a
// compile under context.Background still ends.
const maxSolveTime = 120 * time.Second

// DefaultOptions returns the standard solver configuration: the zero Options.
func DefaultOptions() *Options {
	return &Options{}
}

// PlacedTable is a synthesized table as one switch hosts it, with its concrete
// entry allotment (full size, or a shard of a split extern). It names no
// switch: the switches of a symmetry class that host it at the same index
// share one value.
type PlacedTable struct {
	*synth.Table
	Entries int64
	// ShardIndex/ShardCount describe the split when >1 switch hosts the
	// extern (0/1 when unsplit).
	ShardIndex, ShardCount int
}

// BridgeVar is a variable carried between switches in the packet header
// (Algorithm 2 "extensible resources").
type BridgeVar struct {
	Alg  string
	Var  *ir.Var
	Bits int
	// Hit marks table hit/miss signals that downstream shards must honor.
	Hit bool
}

// Plan is the solved placement: one binding of a solved template per placement
// component. What a switch hosts is its slot of its binding's template, found
// through the plan's switch index; what an instruction or an extern spans is a
// walk over the bindings. Nothing else is kept per switch name.
type Plan struct {
	Input *Input
	// bound is the plan as it was assembled: one binding per placement
	// component, in component order. See Bindings.
	bound []*Binding
	// at locates every switch of bound in its binding.
	at *switchIndex
	// hashes memoises BridgeLayout, Shape and Fingerprints.
	hashes switchHashes
	// shaping renders the options the plan was solved under that shape it; a
	// later solve carries components over only under the same.
	shaping string

	// EncodeTime and SolveTime split the wall-clock time Solve spent:
	// constraint construction versus SMT search. With concurrent component
	// solves the per-instance durations overlap, so the wall time is
	// attributed proportionally; the two always sum to the full Solve call.
	EncodeTime time.Duration
	SolveTime  time.Duration
	// Stats aggregates solver counters across every SMT instance solved.
	Stats smt.Stats
	// Instances counts the independent SMT instances solved (the number of
	// disjoint components the placement problem split into).
	Instances int
	// Classes counts the symmetry classes solved by this call; Replayed
	// counts the components bound without being solved — to the template of
	// a representative solved here, of a class in the memo (Stats.CacheHits
	// counts those classes), or carried over from the previous plan
	// (Instances = Classes + Replayed).
	Classes  int
	Replayed int
	// PathsEnumerated totals the flow paths walked by the lazy enumerator
	// across all components; PeakPathsHeld is the largest number of
	// materialized (unique candidate-hop) path slices any single component
	// held at once — the bounded-memory guarantee of lazy enumeration.
	PathsEnumerated int64
	PeakPathsHeld   int64
	// EncodedVars/EncodedClauses total the SMT encoding size over the
	// instances actually solved.
	EncodedVars    int64
	EncodedClauses int64
	// Diagnostics is the fallback trail: one entry per solve
	// attempt, recording what (if anything) was given up to reach a plan.
	Diagnostics *Diagnostics
}

// Bindings returns the plan as bound templates, one per placement component
// in component order. The slice and everything it points to are shared and
// read-only; a binding a later solve carried over is the same object in both
// plans.
func (p *Plan) Bindings() []*Binding { return p.bound }

// Solve encodes and solves the placement problem. The input is first
// partitioned into independent components (disjoint algorithm scopes on
// disjoint switch sets); one representative of each symmetry class of
// components is encoded and solved as its own SMT instance on a bounded
// worker pool, the model it accepts becomes the class's Template, and the plan
// is every component's binding of its template. Overlapping scopes fuse
// into one component, so a fully coupled program degenerates to the original
// monolithic solve.
//
// Work already done is not done again, at three levels: a component of
// opts.Prev that the network change left alone is the same Binding; a class
// in opts.Cache is its memoised Template; only a class seen for the first
// time is solved.
//
// A component whose attempt fails is retried under the one fallback policy
// (see fallback), with every attempt recorded in the plan's Diagnostics so the
// caller knows exactly what was given up.
func Solve(in *Input, opts *Options) (*Plan, error) {
	if opts == nil {
		opts = DefaultOptions()
	}
	return solve(in, opts, attemptCfg{conflictBudget: conflictBudget})
}

// solve is Solve with the configuration every component's first attempt starts
// from; the objective and preferred switch are opts'.
func solve(in *Input, opts *Options, first attemptCfg) (*Plan, error) {
	first.objective, first.prefer = opts.Objective, opts.PreferSwitch
	start := time.Now()
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithDeadline(ctx, start.Add(maxSolveTime))
	defer cancel()
	shaping := opts.shaping()
	caching := opts.Cache != nil && !opts.NoSymmetryDedup

	// The decomposition: the previous plan's untouched components as they
	// are, and a partition of what is left — of everything, without one.
	// The flow paths the partition walks are kept in st until every
	// component is numbered.
	var ca *carried
	var comps []*Component
	st := getPathStore()
	defer func() {
		if st != nil {
			putPathStore(st)
		}
	}()
	if caching {
		ca = carryOver(in, opts.Prev, shaping)
	}
	if ca != nil && len(ca.algs) > 0 {
		var ok bool
		var err error
		if comps, ok, err = partition(ctx, in, ca, st); err != nil {
			return nil, err
		} else if !ok {
			ca = nil
			st.reset()
		}
	}
	if ca == nil {
		var err error
		if comps, _, err = partition(ctx, in, nil, st); err != nil {
			return nil, err
		}
	}
	// Symmetry classes: every component is numbered (symmetry.go), and
	// components with identical canonical fingerprints (same algorithms, same
	// index-renamed scope/path shape, same chip model per index) solved under
	// the same options are isomorphic SMT instances with the same answer. A
	// class met before — in a carried component, in the memo, or earlier in
	// this loop — is bound to the template it already has; only the first
	// member of a new class, its representative, is solved, on the paths its
	// numbering laid out by index.
	classed := !opts.NoSymmetryDedup && (len(comps) > 1 || caching)
	open := make([]Binding, len(comps))
	known := map[string]*Template{}
	total := len(comps) // components of the whole decomposition
	if ca != nil {
		total += len(ca.kept)
		for _, b := range ca.kept {
			if b.Class != "" {
				known[b.Class] = b.Template
			}
		}
	}
	repOf := make([]int, len(comps))
	lists := make([]*hopLists, len(comps))
	classOf := map[string]int{}
	nb := getNumbering()
	defer putNumbering(nb)
	var hits, evictions int64
	var solveIdx []int
	for i, c := range comps {
		repOf[i] = i
		union, fp, err := nb.number(ctx, c, classed)
		if err != nil {
			return nil, err
		}
		open[i] = Binding{Switches: union, algs: c.Algs, label: c.Label(), at: c.at}
		if fp != "" {
			open[i].Class = fp + shaping + opts.preferIndex(union)
		}
		class := open[i].Class
		if class == "" {
			solveIdx = append(solveIdx, i)
			lists[i] = nb.hopLists.clone()
			continue
		}
		if j, dup := classOf[class]; dup {
			repOf[i] = j
			continue
		}
		classOf[class] = i
		if open[i].Template = known[class]; open[i].Template == nil && caching {
			if open[i].Template = opts.Cache.get(in.IR, class); open[i].Template != nil {
				hits++
			}
		}
		if open[i].Template == nil {
			solveIdx = append(solveIdx, i)
			lists[i] = nb.hopLists.clone()
		}
	}
	putPathStore(st)
	st = nil
	results := make([]componentResult, len(comps))
	phv := &phvIndex{prog: in.IR}
	par.For(len(solveIdx), opts.Parallelism, func(k int) {
		i := solveIdx[k]
		label := ""
		if total > 1 {
			label = open[i].label
		}
		results[i] = solveComponent(ctx, comps[i].In, open[i].Switches, lists[i], phv, first, label)
		open[i].Template = results[i].tmpl
	})
	// Deterministic error selection: the lowest-index failing component
	// wins, regardless of which goroutine finished first.
	for _, i := range solveIdx {
		if err := results[i].err; err != nil {
			if total > 1 {
				return nil, fmt.Errorf("component %s: %w", open[i].label, err)
			}
			return nil, err
		}
		if caching && open[i].Class != "" && opts.Cache.put(in.IR, open[i].Class, open[i].Template) {
			evictions++
		}
	}
	for i, r := range repOf {
		open[i].Template = open[r].Template
		open[i].layGroups()
	}

	made := make([]*Binding, len(open))
	for i := range open {
		made[i] = &open[i]
	}
	bound, keptAt := made, []bool(nil)
	if ca != nil {
		bound, keptAt = ca.merge(made)
	}
	plan := mergePlans(in, bound, results)
	if ca != nil {
		plan.at = ca.index(opts.Prev.at, made, bound)
	} else {
		plan.at = newIndex(bound)
	}
	plan.shaping = shaping
	plan.Instances = len(bound)
	plan.Classes = len(solveIdx)
	plan.Replayed = len(bound) - len(solveIdx)
	plan.Stats.CacheHits += hits
	plan.Stats.CacheEvictions += evictions
	if ca != nil {
		plan.hashes.carry(opts.Prev, keptAt, ca.dropped)
	}

	// Attribute the wall time of this call to encode vs. solve in
	// proportion to the (possibly overlapping) per-instance durations, so
	// EncodeTime + SolveTime always equals the caller-observed duration.
	var encSum, slvSum time.Duration
	for _, r := range results {
		encSum += r.enc
		slvSum += r.slv
	}
	wall := time.Since(start)
	if tot := encSum + slvSum; tot > 0 {
		plan.EncodeTime = time.Duration(float64(wall) * float64(encSum) / float64(tot))
	}
	plan.SolveTime = wall - plan.EncodeTime
	return plan, nil
}

// shaping renders the option that decides what a solved class looks like, for
// the class key: two solves of one canonical component under one objective
// produce the same template. The wall-clock budget is not part of it — it
// decides whether there is a plan, not which.
func (o *Options) shaping() string {
	return fmt.Sprintf("\x00obj=%d", o.Objective)
}

// preferIndex renders, for the class key, where the preferred switch sits in
// a component's numbering — the component's twin under another name prefers
// the same index — or nothing when the objective has no use for it or the
// switch is elsewhere.
func (o *Options) preferIndex(union []string) string {
	if o.Objective != ObjPreferSwitch {
		return ""
	}
	if i := slices.Index(union, o.PreferSwitch); i >= 0 {
		return " prefer=" + strconv.Itoa(i)
	}
	return ""
}

// carryOver decides what this solve takes over from the plan it follows. It
// returns nil — carry nothing, partition everything — unless prev solved the
// same root program under the same scope specification and plan-shaping
// options on a network that in's differs from by faults only: switches and
// links removed, chips changed. Then a component of prev none of whose
// switches is a different record now has the same scope fragments, the same
// flow paths (a path never leaves its component, and nothing new can enter
// one) and the same chips, which is all its template was derived from.
func carryOver(in *Input, prev *Plan, shaping string) *carried {
	if prev == nil || prev.Input.IR != in.IR || prev.shaping != shaping {
		return nil
	}
	if len(prev.Input.Scopes) != len(in.Scopes) {
		return nil
	}
	for alg, rs := range in.Scopes {
		was := prev.Input.Scopes[alg]
		if was == nil || !reflect.DeepEqual(was.Scope, rs.Scope) {
			return nil
		}
	}
	delta := in.Since
	if delta == nil {
		d := in.Net.Since(prev.Input.Net)
		delta = &d
	}
	if delta.Grew {
		return nil
	}
	if len(delta.Touched) == 0 {
		return &carried{kept: prev.bound}
	}
	// The touched components, found through prev's switch index: a walk of
	// the fault, not of the fabric.
	hit := map[*Binding]bool{}
	for _, sw := range delta.Touched {
		if r := prev.at.lookup(sw); r.b != nil {
			hit[r.b] = true
		}
	}
	ca := &carried{algs: map[string]bool{}, within: in.Net.NewSet()}
	for _, b := range prev.bound {
		if !hit[b] {
			ca.kept = append(ca.kept, b)
			continue
		}
		ca.dropped = append(ca.dropped, b)
		for _, alg := range b.algs {
			ca.algs[alg] = true
		}
		for _, sw := range b.Switches {
			if s := in.Net.Switch(sw); s != nil {
				ca.within.Add(s.ID())
			}
		}
	}
	if len(ca.kept) == 0 {
		return nil
	}
	return ca
}

// merge interleaves the carried bindings with the ones made for the open part,
// each list in component order already, into the component order of the whole
// decomposition; keptAt marks the carried ones.
func (ca *carried) merge(open []*Binding) (bound []*Binding, keptAt []bool) {
	bound = make([]*Binding, 0, len(ca.kept)+len(open))
	keptAt = make([]bool, 0, cap(bound))
	kept := ca.kept
	for len(kept) > 0 || len(open) > 0 {
		if len(open) == 0 || (len(kept) > 0 && kept[0].at.before(open[0].at)) {
			bound, keptAt, kept = append(bound, kept[0]), append(keptAt, true), kept[1:]
		} else {
			bound, keptAt, open = append(bound, open[0]), append(keptAt, false), open[1:]
		}
	}
	return bound, keptAt
}

// solveComponent solves one component from the first configuration on a
// single persistent encoder: the component is encoded once, every retry the
// fallback policy grants is a different assumption set or budget on the same
// solver, and learnt clauses, VSIDS activity, and saved phases carry across
// attempts. The accepted model becomes the component's template straight from
// the encoder; union is the component's numbering and paths its flow paths
// by index (numbering.number leaves both). The accumulated
// durations split constraint construction and template extraction (enc) from
// search (slv).
func solveComponent(ctx context.Context, in *Input, union []string, paths *hopLists, phv *phvIndex, cfg attemptCfg, label string) (r componentResult) {
	r.trail = &Diagnostics{}
	step := "initial"

	start := time.Now()
	e, err := newEncoder(in, union, paths, phv)
	if err != nil {
		r.err = err
		return r
	}
	// Nothing returned reads the solver: the template is built, and the
	// counters copied, before it goes back to the pool.
	defer e.solver.Release()
	err = e.encode(ctx)
	r.enc = time.Since(start)
	if err != nil {
		r.err = err
		return r
	}
	e.solver.NoteEncode()
	// The first attempt's duration includes the encoding it ran on.
	for aStart := start; ; aStart = time.Now() {
		sStart := time.Now()
		m, aerr := solveAttempt(ctx, e, cfg)
		r.slv += time.Since(sStart)
		aDur := time.Since(aStart)
		var core []string
		var ie *InfeasibleError
		if errors.As(aerr, &ie) {
			core = ie.Groups
		}
		r.trail.record(label, step, cfg, aerr, aDur, core)
		if aerr == nil {
			tStart := time.Now()
			r.tmpl = e.newTemplate(m)
			r.tmpl.trail = r.trail
			r.enc += time.Since(tStart)
			r.stats = e.solver.Statistics()
			r.vars, r.clauses = int64(e.solver.NumVars()), int64(e.solver.NumClauses())
			return r
		}
		var concession string
		if step, concession = fallback(&cfg, aerr, e.replicable); step == "" {
			r.err = aerr
			if n := len(r.trail.Attempts); n > 1 {
				r.err = fmt.Errorf("%w (after %d fallback attempts: %s)", aerr, n-1, r.trail.Summary())
			}
			return r
		}
		r.trail.Degraded = append(r.trail.Degraded, concession)
	}
}

// componentResult carries one representative's solve outcome back from the
// worker pool, slot-addressed by component index (zero for a component that
// was bound, not solved): its template, the trail of attempts that produced
// it (or failed to), and the solver counters and encoding size behind it.
type componentResult struct {
	tmpl          *Template
	trail         *Diagnostics
	stats         smt.Stats
	vars, clauses int64
	enc, slv      time.Duration
	err           error
}

// mergePlans assembles the whole-program plan from its bindings, which are the
// plan: the path metrics of every template are totalled per binding, the
// solver-side accounting of the components solved in this call is summed, and
// the fallback trail of every template is reported once, under the label of
// the first component bound to it.
func mergePlans(in *Input, bound []*Binding, results []componentResult) *Plan {
	merged := &Plan{Input: in, bound: bound, Diagnostics: &Diagnostics{}}
	for _, r := range results {
		merged.Stats.Add(r.stats)
		merged.EncodedVars += r.vars
		merged.EncodedClauses += r.clauses
	}
	seen := map[*Template]bool{}
	for _, b := range bound {
		t := b.Template
		merged.PathsEnumerated += t.pathsEnumerated
		merged.PeakPathsHeld = max(merged.PeakPathsHeld, t.peakPathsHeld)
		if seen[t] {
			continue
		}
		seen[t] = true
		label := ""
		if len(bound) > 1 {
			label = b.label
		}
		for _, a := range t.trail.Attempts {
			a.Component = label
			merged.Diagnostics.Attempts = append(merged.Diagnostics.Attempts, a)
		}
		for _, deg := range t.trail.Degraded {
			if label != "" {
				deg = "component " + label + ": " + deg
			}
			merged.Diagnostics.Degraded = append(merged.Diagnostics.Degraded, deg)
		}
	}
	return merged
}

// attemptCfg is the configuration of one solve attempt, which the fallback
// policy relaxes between attempts. A conflictBudget of 0 is unbudgeted.
type attemptCfg struct {
	objective      Objective
	prefer         string
	conflictBudget int64
	replicate      bool
	// escalated records that the budget was escalated already.
	escalated bool
}

// coreProbeBudget bounds each deletion probe of the unsat-core minimization:
// diagnostics should never cost a meaningful fraction of the solve itself.
const coreProbeBudget = 20_000

// solveAttempt runs one attempt on the persistent encoder: the attempt's
// configuration is translated into an assumption set over the named
// constraint-family selectors, and the solve (or the incremental
// MinimizeWith descent) runs on the live solver, reusing everything learned by
// earlier attempts. On unsatisfiability the failed-assumption core is
// minimized and returned inside an *InfeasibleError naming the violated
// constraint groups. On success the model is returned with the theory's
// allocations and shard sizes materialized for it.
func solveAttempt(ctx context.Context, enc *encoder, cfg attemptCfg) (*smt.Model, error) {
	s := enc.solver
	s.ConflictBudget = cfg.conflictBudget
	s.Ctx = ctx
	assumps := enc.assumptionsFor(cfg)

	var st smt.Status
	var serr error
	switch cfg.objective {
	case ObjMinPlacements, ObjPreferSwitch:
		var lits []smt.Lit
		var w []int64
		for _, pv := range enc.placeVars {
			lits = append(lits, pv.lit)
			if cfg.objective == ObjPreferSwitch && enc.switches[pv.sw] == cfg.prefer {
				w = append(w, 0) // free on the preferred switch
			} else {
				w = append(w, 1)
			}
		}
		_, ok, merr := s.MinimizeWith(assumps, lits, w)
		serr = merr
		if ok {
			st = smt.StatusSat
		} else if merr == nil {
			st = smt.StatusUnsat
		}
	case ObjMinSwitches:
		lits, w := enc.switchUseLits()
		_, ok, merr := s.MinimizeWith(assumps, lits, w)
		serr = merr
		if ok {
			st = smt.StatusSat
		} else if merr == nil {
			st = smt.StatusUnsat
		}
	default:
		st, serr = s.Solve(assumps...)
	}
	if st != smt.StatusSat {
		if serr != nil {
			return nil, fmt.Errorf("encode: solver gave up: %w", serr)
		}
		// The hint is the failed solve's own last conflict: read it before the
		// core minimization's probes run theory checks of their own.
		hint := enc.lastTheoryHint()
		return nil, &InfeasibleError{Groups: enc.unsatCore(ctx), Hint: hint}
	}
	model := s.Model()
	// Re-run the theory on the final model to materialize allocations and
	// shard sizes deterministically.
	if conflict := enc.theory.Check(model); conflict != nil {
		return nil, fmt.Errorf("encode: internal error: accepted model rejected by theory")
	}
	return model, nil
}

// unsatCore minimizes and labels the failed-assumption core of the solve
// that just returned UNSAT. Minimization probes re-solve on the live solver
// under a small conflict budget and the solve's deadline, so a pathological
// probe cannot blow the compile's time budget; a nil result means the
// contradiction is rooted in permanent clauses.
func (e *encoder) unsatCore(ctx context.Context) []string {
	s := e.solver
	core := s.Core()
	if len(core) == 0 {
		return nil
	}
	if ctx.Err() == nil {
		saved := s.ConflictBudget
		s.ConflictBudget = coreProbeBudget
		core = s.MinimizeCore(core)
		s.ConflictBudget = saved
	}
	return s.CoreNames(core)
}

// placeVar identifies one f_s(i) literal: instruction instr of algorithm alg
// on switch sw, as indices into the encoder's algs, the algorithm's
// instructions and the encoder's switches.
type placeVar struct {
	lit            smt.Lit
	alg, sw, instr int32
	shared         bool // instruction may be multi-placed (extern reader)
}

type encoder struct {
	in     *Input
	solver *smt.Solver
	theory *resourceTheory

	// switches is the component's numbering (symmetry.go), and a switch is
	// its index into it, which at maps its name to; models holds each
	// candidate switch's chip, looked up once.
	switches []string
	at       map[string]int32
	models   []*asic.Model
	// paths are the component's flow paths by index, as its numbering laid
	// them out.
	paths *hopLists
	// algs are the component's algorithms in name order, and an algorithm is
	// its index into it; externs are their externs in name order, likewise.
	algs    []*algPrep
	externs []*ir.ExternDecl

	// vars holds each algorithm's placement literals.
	vars      map[string]*algVars
	placeVars []placeVar

	// phv numbers the program's PHV-resident names; see phvIndex.
	phv *phvIndex
	// clause and hop are scratch for the clause being built and the hop
	// literals it is built from.
	clause, hop []smt.Lit

	// prep holds the per-algorithm encoding preparation: candidate switches
	// and the deduplicated candidate-hop sequences of the scope's flow
	// paths. It is what the constraint emitters and the resource theory
	// iterate instead of materialized path slices.
	prep map[string]*algPrep

	// sharedExternInstrs marks instructions reading split-capable externs.
	sharedInstr map[string]map[int]bool
	// replicable marks the algorithms eligible for the relax-replication
	// retry; their exactly-one family is simply not assumed when it is
	// granted — the encoding itself never changes.
	replicable map[string]bool

	// Named constraint families: every structural constraint is guarded by a
	// selector literal (smt.NewAssumption) so fallback retries toggle families
	// by assumption instead of re-encoding, and unsat cores name what was
	// violated. groupOrder preserves creation order for deterministic
	// assumption vectors.
	groups     map[string]smt.Lit
	groupOrder []string

	// allocs memoises chip admission by program content for the encoder's
	// lifetime; see allocate. scratch is the buffer its keys are rendered in,
	// and newTemplate's slot texts.
	allocs  map[string]*asic.Allocation
	scratch []byte

	// useLits memoizes the ObjMinSwitches indicator literals: OrEquals
	// introduces fresh variables, so on a persistent solver they must be
	// created once and reused across attempts.
	useLits []smt.Lit
	useW    []int64
	useOnce bool
}

// newEncoder makes the encoder of a component; union is its numbering and
// paths its flow paths by index.
func newEncoder(in *Input, union []string, paths *hopLists, phv *phvIndex) (*encoder, error) {
	for _, a := range in.IR.Algorithms {
		if _, ok := in.Scopes[a.Name]; !ok {
			return nil, fmt.Errorf("encode: algorithm %q has no scope specification", a.Name)
		}
	}
	e := &encoder{
		in:          in,
		solver:      smt.NewSolver(),
		switches:    union,
		paths:       paths,
		at:          make(map[string]int32, len(union)),
		vars:        make(map[string]*algVars, len(in.IR.Algorithms)),
		phv:         phv,
		sharedInstr: map[string]map[int]bool{},
		replicable:  replicableAlgs(in),
		groups:      map[string]smt.Lit{},
	}
	for i, sw := range union {
		e.at[sw] = int32(i)
	}
	return e, nil
}

// synthesized returns an algorithm's conditional implementation for a chip
// language, synthesizing it on first use: a scope of P4 switches never pays
// for the NPL one, nor the other way round.
func (e *encoder) synthesized(p *algPrep, lang asic.Lang) *synth.Result {
	l, synthesize := 0, synth.SynthesizeP4
	if lang == asic.LangNPL {
		l, synthesize = 1, synth.SynthesizeNPL
	}
	if p.synth[l] == nil {
		p.synth[l] = synthesize(e.in.IR, p.alg)
	}
	return p.synth[l]
}

// algVars is one algorithm's placement literals, f_s(i) at
// lits[i*len(cands)+k] for s its k-th candidate, and the selectors of its
// constraint families, each made the first time one of its clauses is added.
type algVars struct {
	name  string
	cands []int32
	lits  []smt.Lit
	sels  [numFamilies]smt.Lit
}

func (v *algVars) lit(instr, k int) smt.Lit {
	return v.lits[instr*len(v.cands)+k]
}

// family names a constraint family of one algorithm; its selector is labelled
// familyPrefix[f] + the algorithm name.
type family int

const (
	famCoverage family = iota
	famExactlyOne
	famOrder
	famScope
	famColocate
	numFamilies
)

var familyPrefix = [numFamilies]string{"coverage:", "exactly-one:", "order:", "scope:", "colocate:"}

// algPrep is one algorithm's encoding preparation.
type algPrep struct {
	alg *ir.Algorithm
	// index is the algorithm's index into the encoder's algs.
	index int32
	// cands are the programmable switches of the scope as switch indices,
	// ascending.
	cands []int32
	// onPath marks, by position, candidates traversed by at least one flow
	// path.
	onPath []bool
	// hops are the unique programmable-hop sequences of the scope's flow
	// paths, as positions in cands, sorted: the encoding depends on indices
	// alone. Distinct paths routing through the same candidates in the same
	// order collapse to one entry: they emit identical constraint sets, and in
	// the shard-credit loop the duplicate is a no-op (its demand is already
	// covered).
	hops [][]int32
	// enumerated counts the flow paths walked (before dedup).
	enumerated int64
	// synth holds the algorithm's P4 and NPL implementations; see synthesized.
	synth [2]*synth.Result
}

// pollEvery is how many flow paths a full walk of a scope's paths, or a
// pass over the paths a walk kept, visits between two looks at the solve's
// deadline: the passes that run before the first clause (partition, number,
// prepare) take seconds on a scope of a million paths.
const pollEvery = 4096

// polled wraps the visitor of a full path walk so that the walk stops once
// ctx is done; the caller then returns timeout(ctx).
func polled(ctx context.Context, visit func([]int32) bool) func([]int32) bool {
	n := 0
	return func(p []int32) bool {
		if n++; n%pollEvery == 0 && ctx.Err() != nil {
			return false
		}
		return visit(p)
	}
}

// timeout is the error of a solve whose context is done.
func timeout(ctx context.Context) error {
	return fmt.Errorf("encode: %w (%v)", smt.ErrTimeout, ctx.Err())
}

// prepare computes every algorithm's prep: shared-instruction marking,
// candidate switches, and the deduplicated candidate-hop sequences of the
// scope's flow paths, read off the paths by index its numbering laid out
// (e.paths) and deduplicated by sorting.
func (e *encoder) prepare(ctx context.Context) error {
	prep := map[string]*algPrep{}
	e.models = make([]*asic.Model, len(e.switches))
	// candOf holds 1 + a switch index's position among the candidates of the
	// algorithm in hand, 0 for none.
	candOf := make([]int32, len(e.switches))
	var from int32 // the algorithm's first path
	for ai, a := range e.in.IR.Algorithms {
		rs := e.in.Scopes[a.Name]
		// Mark extern-reading instructions as shareable: in MULTI-SW mode
		// their backing table may be split across switches, so copies of
		// the lookup exist on every shard host (§5.6).
		shared := map[int]bool{}
		if rs.Deploy == scope.MultiSwitch {
			for _, inst := range a.Instrs {
				if inst.Op == ir.IMember || inst.Op == ir.ILookup {
					shared[inst.ID] = true
				}
			}
		}
		e.sharedInstr[a.Name] = shared

		// Candidate switches: programmable members of the region.
		p := &algPrep{alg: a}
		for _, sw := range rs.Switches {
			s := e.in.Net.Switch(sw)
			if s == nil {
				return fmt.Errorf("encode: scope of %q references unknown switch %q", a.Name, sw)
			}
			if s.ASIC.Programmable {
				i := e.at[sw]
				e.models[i] = s.ASIC
				p.cands = append(p.cands, i)
			}
		}
		if len(p.cands) == 0 {
			return fmt.Errorf("encode: scope of %q has no programmable switch", a.Name)
		}
		slices.Sort(p.cands)
		clear(candOf)
		for k, i := range p.cands {
			candOf[i] = int32(k + 1)
		}
		p.onPath = make([]bool, len(p.cands))

		to := e.paths.algEnd[ai]
		if rs.Deploy == scope.MultiSwitch {
			if err := p.dedupHops(ctx, e, candOf, from, to); err != nil {
				return err
			}
		}
		from = to
		prep[a.Name] = p
		e.algs = append(e.algs, p)
	}
	e.prep = prep
	slices.SortFunc(e.algs, func(a, b *algPrep) int { return strings.Compare(a.alg.Name, b.alg.Name) })
	for i, p := range e.algs {
		p.index = int32(i)
		e.externs = append(e.externs, p.alg.Externs...)
	}
	slices.SortStableFunc(e.externs, func(a, b *ir.ExternDecl) int { return strings.Compare(a.Name, b.Name) })
	return nil
}

// dedupHops sets p.hops to the distinct candidate-hop sequences of the
// encoder's paths from to to-1, sorted, and marks the candidates on them.
// candOf maps a switch index to 1 + its candidate position, 0 for none.
func (p *algPrep) dedupHops(ctx context.Context, e *encoder, candOf []int32, from, to int32) error {
	// Every path's candidate hops, back to back in flat, path q's ending at
	// end[q-from].
	if to == from {
		return nil
	}
	lo := int32(0)
	if from > 0 {
		lo = e.paths.ends[from-1]
	}
	flat := make([]int32, 0, e.paths.ends[to-1]-lo)
	end := make([]int32, 0, to-from)
	for q := from; q < to; q++ {
		if (q-from+1)%pollEvery == 0 && ctx.Err() != nil {
			return timeout(ctx)
		}
		n := len(flat)
		for _, i := range e.paths.path(q) {
			if i >= 0 && candOf[i] > 0 {
				flat = append(flat, candOf[i]-1)
			}
		}
		if len(flat) == n {
			var names []string
			for _, i := range e.paths.path(q) {
				if i >= 0 {
					names = append(names, e.switches[i])
				}
			}
			return fmt.Errorf("encode: path %v of %q has no programmable hop", names, p.alg.Name)
		}
		end = append(end, int32(len(flat)))
	}
	p.enumerated = int64(to - from)
	hop := func(q int32) []int32 {
		start := int32(0)
		if q > 0 {
			start = end[q-1]
		}
		return flat[start:end[q]]
	}
	order := make([]int32, len(end))
	for q := range order {
		order[q] = int32(q)
	}
	slices.SortFunc(order, func(x, y int32) int { return slices.Compare(hop(x), hop(y)) })
	order = slices.CompactFunc(order, func(x, y int32) bool { return slices.Equal(hop(x), hop(y)) })
	n := 0
	for _, q := range order {
		n += len(hop(q))
	}
	held := make([]int32, 0, n)
	p.hops = make([][]int32, len(order))
	for j, q := range order {
		held = append(held, hop(q)...)
		p.hops[j] = held[len(held)-len(hop(q)) : len(held) : len(held)]
		for _, k := range hop(q) {
			p.onPath[k] = true
		}
	}
	return nil
}

// pathMetrics sums the enumeration counters over the encoder's algorithms:
// total flow paths walked, and unique hop sequences held in memory.
func (e *encoder) pathMetrics() (enumerated, held int64) {
	for _, p := range e.prep {
		enumerated += p.enumerated
		held += int64(len(p.hops))
	}
	return enumerated, held
}

// sel returns (creating on first use) the selector literal of a named
// constraint family.
func (e *encoder) sel(family string) smt.Lit {
	if l, ok := e.groups[family]; ok {
		return l
	}
	l := e.solver.NewAssumption(family)
	e.groups[family] = l
	e.groupOrder = append(e.groupOrder, family)
	return l
}

// famSel returns the selector of one of an algorithm's families, resolving
// its label once: the selector is still made at the family's first clause,
// so selector creation order does not change.
func (e *encoder) famSel(v *algVars, f family) smt.Lit {
	if v.sels[f] == smt.LitUndef {
		v.sels[f] = e.sel(familyPrefix[f] + v.name)
	}
	return v.sels[f]
}

// guarded adds a clause active only while the family's selector is assumed.
func (e *encoder) guarded(v *algVars, f family, lits ...smt.Lit) {
	e.clause = append(e.clause[:0], e.famSel(v, f).Not())
	e.clause = append(e.clause, lits...)
	e.solver.AddClause(e.clause...)
}

// guardedAtMostOne adds an at-most-one constraint active only while the
// family's selector is assumed: pairwise for small sets, and as a guarded
// cardinality constraint above that (the selector joins with weight n−1, so
// an unassumed selector relaxes the bound to the trivial n).
func (e *encoder) guardedAtMostOne(v *algVars, f family, lits ...smt.Lit) {
	g := e.famSel(v, f)
	if len(lits) <= 6 {
		for i := 0; i < len(lits); i++ {
			for j := i + 1; j < len(lits); j++ {
				e.solver.AddClause(g.Not(), lits[i].Not(), lits[j].Not())
			}
		}
		return
	}
	n := int64(len(lits))
	gl := make([]smt.Lit, 0, len(lits)+1)
	gl = append(gl, lits...)
	gl = append(gl, g)
	w := make([]int64, len(gl))
	for i := range w {
		w[i] = 1
	}
	w[len(w)-1] = n - 1
	e.solver.AddAtMost(gl, w, n)
}

// assumptionsFor renders an attempt's configuration as the assumption vector
// activating its constraint families: all of them, minus the exactly-one
// families of replication-safe algorithms when replication is relaxed.
func (e *encoder) assumptionsFor(cfg attemptCfg) []smt.Lit {
	out := make([]smt.Lit, 0, len(e.groupOrder))
	for _, fam := range e.groupOrder {
		if cfg.replicate {
			if alg, ok := strings.CutPrefix(fam, "exactly-one:"); ok && e.replicable[alg] {
				continue
			}
		}
		out = append(out, e.groups[fam])
	}
	return out
}

func (e *encoder) encode(ctx context.Context) error {
	if err := e.prepare(ctx); err != nil {
		return err
	}
	// Every variable is known up front: one placement literal per instruction
	// and candidate, and at most one selector per family.
	nvars, nlits := 0, 0
	for _, a := range e.in.IR.Algorithms {
		nvars += len(a.Instrs)*len(e.prep[a.Name].cands) + int(numFamilies)
		nlits += len(a.Instrs) * len(e.prep[a.Name].cands)
	}
	e.solver.Reserve(nvars)
	e.placeVars = make([]placeVar, 0, nlits)
	lits := make([]smt.Lit, nlits)
	for _, a := range e.in.IR.Algorithms {
		rs := e.in.Scopes[a.Name]
		p := e.prep[a.Name]
		candidates := p.cands

		v := &algVars{name: a.Name, cands: candidates}
		for f := range v.sels {
			v.sels[f] = smt.LitUndef
		}
		v.lits, lits = lits[:len(a.Instrs)*len(candidates)], lits[len(a.Instrs)*len(candidates):]
		e.vars[a.Name] = v
		for _, inst := range a.Instrs {
			for k, sw := range candidates {
				l := e.solver.NewBool("")
				v.lits[inst.ID*len(candidates)+k] = l
				e.placeVars = append(e.placeVars, placeVar{
					lit: l, alg: p.index, sw: sw, instr: int32(inst.ID), shared: e.sharedInstr[a.Name][inst.ID],
				})
			}
		}

		switch rs.Deploy {
		case scope.PerSwitch:
			// Every instruction on every candidate switch (copies).
			for _, inst := range a.Instrs {
				for k := range candidates {
					e.guarded(v, famCoverage, v.lit(inst.ID, k))
				}
			}
		case scope.MultiSwitch:
			if err := e.encodeMultiSwitch(ctx, a, p, v); err != nil {
				return err
			}
		}

		// Global-variable co-location (Appendix B.2): all instructions
		// touching the same global must share placement.
		e.encodeColocated(a, v, ir.IGlobalRead, ir.IGlobalWrite)

		// Extern reader co-placement: the member and lookup operations on
		// one extern constitute a single match-action table, so every
		// shard host runs all of them (a hit must apply its value action
		// on the switch where it matched).
		e.encodeColocated(a, v, ir.IMember, ir.ILookup)
	}
	e.theory = newTheory(e)
	e.solver.AddTheory(e.theory)
	return nil
}

// encodeMultiSwitch adds flow-path coverage and ordering constraints over
// the prepared unique hop sequences. Emitting per hop sequence rather than
// per path is clause-for-clause equivalent: two paths with the same
// candidate hops would emit identical coverage, exactly-one, and ordering
// constraints. A scope of long paths has many hop sequences, each costing the
// solver an at-most-one constraint per instruction, so the caller's deadline is
// checked between sequences.
func (e *encoder) encodeMultiSwitch(ctx context.Context, a *ir.Algorithm, p *algPrep, v *algVars) error {
	// Instructions cannot sit on switches no flow traverses.
	for _, inst := range a.Instrs {
		for k, on := range p.onPath {
			if !on {
				e.guarded(v, famScope, v.lit(inst.ID, k).Not())
			}
		}
	}
	// Instructions reading the same extern are copies of one table and repeat
	// at every shard host, so ordering within the group is exempt.
	externOf := map[int]string{}
	for _, inst := range a.Instrs {
		if inst.Op == ir.IMember || inst.Op == ir.ILookup {
			externOf[inst.ID] = inst.Table
		}
	}
	for _, hops := range p.hops {
		if ctx.Err() != nil {
			return timeout(ctx)
		}
		for _, inst := range a.Instrs {
			e.hop = e.hop[:0]
			for _, k := range hops {
				e.hop = append(e.hop, v.lit(inst.ID, int(k)))
			}
			// Coverage (Eq. 16 / §5.5): at least one placement per path,
			// always required.
			e.guarded(v, famCoverage, e.hop...)
			if !e.sharedInstr[a.Name][inst.ID] {
				// The at-most-one half of the exactly-one flow-path
				// constraint lives in its own family: the relax-replication
				// retry drops this assumption for replication-safe
				// algorithms, accepting idempotent re-execution at extra
				// hops to regain feasibility — no re-encode needed.
				// Split-capable instructions (shared extern readers) never
				// get it: their copies are shards of one table.
				e.guardedAtMostOne(v, famExactlyOne, e.hop...)
			}
		}
		// Instruction dependency ordering (Eq. 3): if i' depends on i, no
		// copy of i may sit strictly behind any copy of i'.
		for _, inst := range a.Instrs {
			for _, dep := range inst.Deps {
				if g, ok := externOf[inst.ID]; ok && externOf[dep] == g {
					continue
				}
				for ai := range hops {
					for bi := 0; bi < ai; bi++ {
						// dep at position ai (late), inst at bi (early).
						e.guarded(v, famOrder,
							v.lit(dep, int(hops[ai])).Not(),
							v.lit(inst.ID, int(hops[bi])).Not(),
						)
					}
				}
			}
		}
	}
	return nil
}

// encodeColocated forces all instructions of one of the two ops on the same
// table onto identical switch sets: the accesses of one global variable (the
// value is switch-local state), or the member/lookup operations on one extern.
func (e *encoder) encodeColocated(a *ir.Algorithm, v *algVars, op1, op2 ir.Op) {
	groups := map[string][]int{}
	for _, inst := range a.Instrs {
		if inst.Op == op1 || inst.Op == op2 {
			groups[inst.Table] = append(groups[inst.Table], inst.ID)
		}
	}
	for _, g := range sortedKeys(groups) {
		ids := groups[g]
		if len(ids) < 2 {
			continue
		}
		first := ids[0]
		for _, other := range ids[1:] {
			for k := range v.cands {
				a1, a2 := v.lit(first, k), v.lit(other, k)
				e.guarded(v, famColocate, a1.Not(), a2)
				e.guarded(v, famColocate, a1, a2.Not())
			}
		}
	}
}

// switchUseLits builds per-switch "used" indicator literals for the
// minimize-switches objective. The indicators (and their defining clauses)
// are created once per encoder and memoized: OrEquals introduces fresh
// variables, which on a persistent solver must not be duplicated per
// attempt.
func (e *encoder) switchUseLits() ([]smt.Lit, []int64) {
	if e.useOnce {
		return e.useLits, e.useW
	}
	e.useOnce = true
	bySwitch := make([][]smt.Lit, len(e.switches))
	for _, pv := range e.placeVars {
		bySwitch[pv.sw] = append(bySwitch[pv.sw], pv.lit)
	}
	for sw, lits := range bySwitch {
		if len(lits) == 0 {
			continue
		}
		used, _ := e.solver.OrEquals(lits, "used["+e.switches[sw]+"]")
		e.useLits = append(e.useLits, used)
		e.useW = append(e.useW, 1)
	}
	return e.useLits, e.useW
}

func (e *encoder) lastTheoryHint() string {
	if r := e.theory.reason(); r != "" {
		return " (last resource conflict: " + r + ")"
	}
	return ""
}

func maxBits(b int) int {
	if b <= 0 {
		return 32
	}
	return b
}
