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
	"sort"
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
	// Hint is the last resource-theory conflict reason, when any.
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
	PreferSwitch   string
	ConflictBudget int64
	// TimeBudget bounds the whole solve, fallback attempts included.
	TimeBudget time.Duration
	// Ctx, when non-nil, cancels the solve cooperatively; its deadline
	// tightens TimeBudget.
	Ctx context.Context
	// Ladder is the fallback sequence tried, in order, when an attempt
	// fails (the Parasol-style budget-escalation/relaxation ladder). Each
	// rung gives up something — the optimization objective, solver budget
	// frugality, or an optional placement constraint — and every step is
	// recorded in the returned Plan's Diagnostics. nil disables fallback;
	// DefaultOptions installs DefaultLadder.
	Ladder []Relaxation
	// ForceReplication applies RelaxReplication from the first attempt
	// (experimentation hook; normally the ladder reaches it on demand).
	ForceReplication bool
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

// DefaultOptions returns the standard solver configuration.
func DefaultOptions() *Options {
	return &Options{
		ConflictBudget: 2_000_000,
		TimeBudget:     120 * time.Second,
		Ladder:         DefaultLadder(),
	}
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

// Plan is the solved placement.
type Plan struct {
	Input *Input
	// Placement maps algorithm -> instruction ID -> hosting switches
	// (sorted).
	Placement map[string]map[int][]string
	// Tables maps switch -> placed tables in dependency order.
	Tables map[string][]*PlacedTable
	// Bridges maps switch -> variables it must export downstream.
	Bridges map[string][]BridgeVar
	// Allocations maps switch -> the admission result from its chip model.
	Allocations map[string]*asic.Allocation
	// Shards maps extern name -> switch -> entries.
	Shards map[string]map[string]int64
	// shardGroups maps extern name -> switch -> the shards of the component
	// that switch's shard belongs to, for externs split across several
	// switches. See ShardGroup.
	shardGroups map[string]map[string][]Shard
	// bound is the plan as it was assembled: one binding per placement
	// component, in component order. See Bindings.
	bound []Binding
	// hashes memoises Shapes and Fingerprints.
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
	// Diagnostics is the fallback-ladder trail: one entry per solve
	// attempt, recording what (if anything) was given up to reach a plan.
	Diagnostics *Diagnostics
}

// Bindings returns the plan as bound templates, one per placement component
// in component order. The slice and everything it points to are shared and
// read-only.
func (p *Plan) Bindings() []Binding { return p.bound }

// HostsOf returns the switches hosting an instruction.
func (p *Plan) HostsOf(alg string, id int) []string { return p.Placement[alg][id] }

// Solve encodes and solves the placement problem. The input is first
// partitioned into independent components (disjoint algorithm scopes on
// disjoint switch sets); one representative of each symmetry class of
// components is encoded and solved as its own SMT instance on a bounded
// worker pool, its solved plan becomes the class's Template, and the plan is
// every component's binding of its template, merged. Overlapping scopes fuse
// into one component, so a fully coupled program degenerates to the original
// monolithic solve.
//
// Work already done is not done again, at three levels: a component of
// opts.Prev that the network change left alone is the same Binding; a class
// in opts.Cache is its memoised Template; only a class seen for the first
// time is solved.
//
// When an attempt fails and opts.Ladder is non-empty, that component walks
// the fallback ladder: each applicable rung relaxes the configuration and
// the solve is retried, with every attempt recorded in the plan's
// Diagnostics so the caller knows exactly what was given up.
func Solve(in *Input, opts *Options) (*Plan, error) {
	if opts == nil {
		opts = DefaultOptions()
	}
	start := time.Now()
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	var deadline time.Time
	if opts.TimeBudget > 0 {
		deadline = start.Add(opts.TimeBudget)
	}
	shaping := opts.shaping()
	caching := opts.Cache != nil && !opts.NoSymmetryDedup

	// The decomposition: the previous plan's untouched components as they
	// are, and a partition of what is left — of everything, without one.
	var ca *carried
	var comps []*Component
	if caching {
		ca = carryOver(in, opts.Prev, shaping)
	}
	if ca != nil && len(ca.algs) > 0 {
		var ok bool
		if comps, ok = partition(in, ca); !ok {
			ca = nil
		}
	}
	if ca == nil {
		comps = Partition(in)
	}
	open := make([]Binding, len(comps))
	for i, c := range comps {
		open[i] = Binding{Switches: scopeUnion(c.In), algs: c.Algs, label: c.Label(), at: c.at}
	}

	// Symmetry classes: components with identical canonical fingerprints
	// (same algorithms, same index-renamed scope/path shape, same chip
	// model per index) solved under the same options are isomorphic SMT
	// instances with the same answer. A class met before — in a carried
	// component, in the memo, or earlier in this loop — is bound to the
	// template it already has; only the first member of a new class, its
	// representative, is solved.
	classed := !opts.NoSymmetryDedup && (len(comps) > 1 || caching)
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
	classOf := map[string]int{}
	models := map[*asic.Model][]byte{}
	var hits, evictions int64
	var solveIdx []int
	for i, c := range comps {
		repOf[i] = i
		if classed {
			if fp, ok := canonicalFingerprint(c, open[i].Switches, models); ok {
				open[i].Class = fp + shaping + opts.preferIndex(open[i].Switches)
			}
		}
		class := open[i].Class
		if class == "" {
			solveIdx = append(solveIdx, i)
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
		}
	}
	results := make([]componentResult, len(comps))
	phv := &phvIndex{prog: in.IR}
	par.For(len(solveIdx), opts.Parallelism, func(k int) {
		i := solveIdx[k]
		label := ""
		if total > 1 {
			label = open[i].label
		}
		r := &results[i]
		r.plan, r.enc, r.slv, r.err = solveComponent(ctx, comps[i].In, phv, opts, deadline, label)
		if r.err == nil {
			tStart := time.Now()
			open[i].Template = newTemplate(r.plan, open[i].Switches)
			r.enc += time.Since(tStart)
		}
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
	}

	bound, keptAt := open, []bool(nil)
	if ca != nil {
		bound, keptAt = ca.merge(open)
	}
	plan := mergePlans(in, bound, results)
	plan.shaping = shaping
	plan.Instances = len(bound)
	plan.Classes = len(solveIdx)
	plan.Replayed = len(bound) - len(solveIdx)
	plan.Stats.CacheHits += hits
	plan.Stats.CacheEvictions += evictions
	if ca != nil {
		plan.hashes.carry(opts.Prev, keptAt)
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

// shaping renders the options that decide what a solved class looks like, for
// the class key: two solves of one canonical component under equal renderings
// produce the same template. Budgets of wall-clock time are not among them —
// they decide whether there is a plan, not which.
func (o *Options) shaping() string {
	return fmt.Sprintf("\x00obj=%d conflicts=%d replicate=%t ladder=%v",
		o.Objective, o.ConflictBudget, o.ForceReplication, o.Ladder)
}

// preferIndex renders, for the class key, where the preferred switch sits in
// a component's sorted union — the component's twin under another name prefers
// the same index — or nothing when the objective has no use for it or the
// switch is elsewhere.
func (o *Options) preferIndex(union []string) string {
	if o.Objective != ObjPreferSwitch {
		return ""
	}
	if i := sort.SearchStrings(union, o.PreferSwitch); i < len(union) && union[i] == o.PreferSwitch {
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
		if was == nil || !reflect.DeepEqual(was.Scope, rs.Scope) || was.MaxPaths != rs.MaxPaths || (was.Paths == nil) != (rs.Paths == nil) {
			return nil
		}
	}
	delta := in.Net.Since(prev.Input.Net)
	if delta.Grew {
		return nil
	}
	if len(delta.Touched) == 0 {
		return &carried{kept: prev.bound}
	}
	touched := make(map[string]bool, len(delta.Touched))
	for _, sw := range delta.Touched {
		touched[sw] = true
	}
	ca := &carried{algs: map[string]bool{}}
	for _, b := range prev.bound {
		hit := false
		for _, sw := range b.Switches {
			if hit = touched[sw]; hit {
				break
			}
		}
		if !hit {
			ca.kept = append(ca.kept, b)
			continue
		}
		for _, alg := range b.algs {
			ca.algs[alg] = true
		}
		for _, sw := range b.Switches {
			if in.Net.Switch(sw) != nil {
				ca.within = append(ca.within, sw)
			}
		}
	}
	if len(ca.kept) == 0 {
		return nil
	}
	sort.Strings(ca.within)
	return ca
}

// merge interleaves the carried bindings with the ones made for the open part,
// each list in component order already, into the component order of the whole
// decomposition; keptAt marks the carried ones.
func (ca *carried) merge(open []Binding) (bound []Binding, keptAt []bool) {
	bound = make([]Binding, 0, len(ca.kept)+len(open))
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

// solveComponent runs the fallback-ladder loop for one component on a single
// persistent encoder: the component is encoded once, every ladder rung is
// expressed as a different assumption set on the same solver, and learnt
// clauses, VSIDS activity, and saved phases carry across attempts. The
// accumulated durations split constraint construction (enc) from search
// (slv).
func solveComponent(ctx context.Context, in *Input, phv *phvIndex, opts *Options, deadline time.Time, label string) (plan *Plan, enc, slv time.Duration, err error) {
	cfg := attemptCfg{
		objective:      opts.Objective,
		prefer:         opts.PreferSwitch,
		conflictBudget: opts.ConflictBudget,
		replicate:      opts.ForceReplication,
	}
	diags := &Diagnostics{}
	ladder := append([]Relaxation(nil), opts.Ladder...)
	step := "initial"

	start := time.Now()
	e, err := newEncoder(in, phv)
	if err == nil {
		err = e.encode()
	}
	enc = time.Since(start)
	if err != nil {
		diags.record(label, step, cfg, err, enc, nil)
		return nil, enc, slv, err
	}
	e.solver.NoteEncode()
	// The first attempt's duration includes the encoding it ran on.
	for aStart := start; ; aStart = time.Now() {
		sStart := time.Now()
		p, aerr := solveAttempt(ctx, e, cfg, deadline)
		slv += time.Since(sStart)
		aDur := time.Since(aStart)
		var core []string
		var ie *InfeasibleError
		if errors.As(aerr, &ie) {
			core = ie.Groups
		}
		diags.record(label, step, cfg, aerr, aDur, core)
		if aerr == nil {
			p.Diagnostics = diags
			return p, enc, slv, nil
		}
		rung, rest, ok := nextRung(ladder, cfg, aerr, in)
		if !ok {
			if len(diags.Attempts) > 1 {
				return nil, enc, slv, fmt.Errorf("%w (after %d fallback attempts: %s)", aerr, len(diags.Attempts)-1, diags.Summary())
			}
			return nil, enc, slv, aerr
		}
		ladder = rest
		step = rung.String()
		diags.Degraded = append(diags.Degraded, rung.describe(cfg, in))
		rung.apply(&cfg, in)
	}
}

// componentResult carries one representative's solve outcome back from the
// worker pool, slot-addressed by component index (zero for a component that
// was bound, not solved).
type componentResult struct {
	plan     *Plan
	enc, slv time.Duration
	err      error
}

// mergePlans assembles the whole-program plan: every component's binding is
// written straight into the plan's name-keyed maps (see Plan.bind), the
// solver-side accounting of the components solved in this call is summed, and
// the fallback trail of every template is reported once, under the label of
// the first component bound to it. Components touch
// disjoint switch sets, so the switch-keyed maps union without collisions;
// Shards is keyed by extern name, which two components may share, so its
// inner per-switch maps union element-wise while shardGroups remembers which
// component each switch's shard came from. After a scope split the same
// algorithm may appear in several components (one per switch group), so
// Placement unions its per-instruction host lists as well.
func mergePlans(in *Input, bound []Binding, results []componentResult) *Plan {
	// Size everything up front: the plan's maps and host lists are written
	// once per switch of a datacenter, and growing them doubled the merge.
	uses := map[*Template]int{}
	var firsts []int // the first binding of every template, in component order
	for i, b := range bound {
		if uses[b.Template] == 0 {
			firsts = append(firsts, i)
		}
		uses[b.Template]++
	}
	hosting, exporting, hosts := 0, 0, 0
	hostsOf := map[*ir.Instr]int{} // instruction -> hosts over all components
	shardsOf := map[string]int{}   // extern -> shards over all components
	splitOf := map[string]int{}    // extern -> those in groups of several
	for t, n := range uses {
		hosting += n * t.hosting
		exporting += n * t.exporting
		for ext, at := range t.shards {
			shardsOf[ext] += n * len(at)
			if len(at) > 1 {
				splitOf[ext] += n * len(at)
			}
		}
		for i := range t.slots {
			for _, inst := range t.slots[i].instrs {
				hostsOf[inst] += n
				hosts += n
			}
		}
	}
	merged := &Plan{
		Input:       in,
		Placement:   make(map[string]map[int][]string, len(in.IR.Algorithms)),
		Tables:      make(map[string][]*PlacedTable, hosting),
		Bridges:     make(map[string][]BridgeVar, exporting),
		Allocations: make(map[string]*asic.Allocation, hosting),
		Shards:      make(map[string]map[string]int64, len(shardsOf)),
		shardGroups: make(map[string]map[string][]Shard, len(splitOf)),
		bound:       bound,
		Diagnostics: &Diagnostics{},
	}
	hostLists := make([]string, hosts) // every host list of the plan, end to end
	for _, a := range in.IR.Algorithms {
		m := make(map[int][]string, len(a.Instrs))
		for _, inst := range a.Instrs {
			n := hostsOf[inst]
			m[inst.ID], hostLists = hostLists[:0:n], hostLists[n:]
			if n == 0 {
				m[inst.ID] = nil
			}
		}
		merged.Placement[a.Name] = m
	}
	for ext, n := range shardsOf {
		merged.Shards[ext] = make(map[string]int64, n)
	}
	for ext, n := range splitOf {
		merged.shardGroups[ext] = make(map[string][]Shard, n)
	}
	for _, b := range bound {
		merged.bind(b)
	}
	// Each component's host list is sorted and the components are disjoint,
	// but their name ranges interleave ("Agg10_1" < "Agg1_1").
	for _, m := range merged.Placement {
		for _, hosts := range m {
			if !sort.StringsAreSorted(hosts) {
				sort.Strings(hosts)
			}
		}
	}
	for _, r := range results {
		p := r.plan
		if p == nil {
			continue
		}
		merged.Stats.Add(p.Stats)
		merged.EncodedVars += p.EncodedVars
		merged.EncodedClauses += p.EncodedClauses
	}
	for _, i := range firsts {
		d := bound[i].Template.trail
		if d == nil {
			continue
		}
		label := ""
		if len(bound) > 1 {
			label = bound[i].label
		}
		for _, a := range d.Attempts {
			a.Component = label
			merged.Diagnostics.Attempts = append(merged.Diagnostics.Attempts, a)
		}
		for _, deg := range d.Degraded {
			if label != "" {
				deg = "component " + label + ": " + deg
			}
			merged.Diagnostics.Degraded = append(merged.Diagnostics.Degraded, deg)
		}
	}
	return merged
}

// attemptCfg is the mutable configuration one ladder rung can relax.
type attemptCfg struct {
	objective      Objective
	prefer         string
	conflictBudget int64
	replicate      bool
}

// coreProbeBudget bounds each deletion probe of the unsat-core minimization:
// diagnostics should never cost a meaningful fraction of the solve itself.
const coreProbeBudget = 20_000

// solveAttempt runs one fallback-ladder attempt on the persistent encoder:
// the rung's configuration is translated into an assumption set over the
// named constraint-family selectors, and the solve (or the incremental
// Minimize descent) runs on the live solver, reusing everything learned by
// earlier attempts. On unsatisfiability the failed-assumption core is
// minimized and returned inside an *InfeasibleError naming the violated
// constraint groups.
func solveAttempt(ctx context.Context, enc *encoder, cfg attemptCfg, deadline time.Time) (*Plan, error) {
	s := enc.solver
	s.ConflictBudget = cfg.conflictBudget
	s.Ctx = ctx
	s.TimeBudget = 0
	if !deadline.IsZero() {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, fmt.Errorf("encode: solver gave up: %w", smt.ErrTimeout)
		}
		s.TimeBudget = remaining
	}
	assumps := enc.assumptionsFor(cfg)

	var st smt.Status
	var serr error
	switch cfg.objective {
	case ObjMinPlacements, ObjPreferSwitch:
		var lits []smt.Lit
		var w []int64
		for _, pv := range enc.placeVars {
			lits = append(lits, pv.lit)
			if cfg.objective == ObjPreferSwitch && pv.sw == cfg.prefer {
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
		return nil, &InfeasibleError{Groups: enc.unsatCore(deadline), Hint: enc.lastTheoryHint()}
	}
	model := s.Model()
	// Re-run the theory on the final model to materialize allocations and
	// shard sizes deterministically.
	if conflict := enc.theory.Check(model); conflict != nil {
		return nil, fmt.Errorf("encode: internal error: accepted model rejected by theory")
	}
	plan := enc.extractPlan(model)
	plan.Stats = s.Statistics()
	plan.PathsEnumerated, plan.PeakPathsHeld = enc.pathMetrics()
	plan.EncodedVars = int64(s.NumVars())
	plan.EncodedClauses = int64(s.NumClauses())
	return plan, nil
}

// unsatCore minimizes and labels the failed-assumption core of the solve
// that just returned UNSAT. Minimization probes re-solve on the live solver
// under a small conflict budget (and whatever wall clock remains), so a
// pathological probe cannot blow the compile's time budget; a nil result
// means the contradiction is rooted in permanent clauses.
func (e *encoder) unsatCore(deadline time.Time) []string {
	s := e.solver
	core := s.Core()
	if len(core) == 0 {
		return nil
	}
	remaining := time.Duration(0)
	if !deadline.IsZero() {
		remaining = time.Until(deadline)
	}
	if deadline.IsZero() || remaining > 0 {
		savedConf, savedTime := s.ConflictBudget, s.TimeBudget
		s.ConflictBudget = coreProbeBudget
		s.TimeBudget = remaining
		core = s.MinimizeCore(core)
		s.ConflictBudget, s.TimeBudget = savedConf, savedTime
	}
	return s.CoreNames(core)
}

// placeVar identifies one f_s(i) literal.
type placeVar struct {
	alg    string
	instr  int
	sw     string
	lit    smt.Lit
	shared bool // instruction may be multi-placed (extern reader)
}

type encoder struct {
	in     *Input
	solver *smt.Solver
	theory *resourceTheory

	// vars holds each algorithm's placement literals.
	vars      map[string]*algVars
	placeVars []placeVar

	// synth results per algorithm per language, each made the first time a
	// switch of that language asks for it.
	p4  map[string]*synth.Result
	npl map[string]*synth.Result
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
	// replicable marks the algorithms eligible for the RelaxReplication
	// rung; their exactly-one family is simply not assumed when the rung is
	// active — the encoding itself never changes.
	replicable map[string]bool

	// Named constraint families: every structural constraint is guarded by a
	// selector literal (smt.NewAssumption) so ladder rungs toggle families by
	// assumption instead of re-encoding, and unsat cores name what was
	// violated. groupOrder preserves creation order for deterministic
	// assumption vectors.
	groups     map[string]smt.Lit
	groupOrder []string

	// allocs memoises chip admission by program content for the encoder's
	// lifetime; see allocate. specKey is scratch for its keys.
	allocs  map[string]*asic.Allocation
	specKey []byte

	// useLits memoizes the ObjMinSwitches indicator literals: OrEquals
	// introduces fresh variables, so on a persistent solver they must be
	// created once and reused across attempts.
	useLits []smt.Lit
	useW    []int64
	useOnce bool
}

func newEncoder(in *Input, phv *phvIndex) (*encoder, error) {
	e := &encoder{
		in:          in,
		solver:      smt.NewSolver(),
		vars:        make(map[string]*algVars, len(in.IR.Algorithms)),
		p4:          map[string]*synth.Result{},
		npl:         map[string]*synth.Result{},
		phv:         phv,
		sharedInstr: map[string]map[int]bool{},
		replicable:  replicableAlgs(in),
		groups:      map[string]smt.Lit{},
	}
	for _, a := range in.IR.Algorithms {
		if _, ok := in.Scopes[a.Name]; !ok {
			return nil, fmt.Errorf("encode: algorithm %q has no scope specification", a.Name)
		}
	}
	return e, nil
}

// synthesized returns the algorithm's conditional implementation for a chip
// language, synthesizing it on first use: a scope of P4 switches never pays
// for the NPL one, nor the other way round.
func (e *encoder) synthesized(alg string, lang asic.Lang) *synth.Result {
	memo, synthesize := e.p4, synth.SynthesizeP4
	if lang == asic.LangNPL {
		memo, synthesize = e.npl, synth.SynthesizeNPL
	}
	r := memo[alg]
	if r == nil {
		r = synthesize(e.in.IR, e.in.IR.Algorithm(alg))
		memo[alg] = r
	}
	return r
}

// algVars is one algorithm's placement literals, f_s(i) at
// lits[i*len(cands)+candIdx[s]], and the selectors of its constraint
// families, each made the first time one of its clauses is added.
type algVars struct {
	name    string
	cands   []string
	candIdx map[string]int
	lits    []smt.Lit
	sels    [numFamilies]smt.Lit
}

func (v *algVars) lit(instr int, sw string) smt.Lit {
	return v.lits[instr*len(v.cands)+v.candIdx[sw]]
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
	// candidates are the programmable switches of the scope, in scope
	// (sorted) order; isCand indexes them.
	candidates []string
	isCand     map[string]bool
	// onPath marks candidates traversed by at least one flow path.
	onPath map[string]bool
	// hops are the unique programmable-hop sequences of the scope's flow
	// paths, in first-encounter enumeration order. Distinct paths routing
	// through the same candidates in the same order collapse to one entry:
	// they emit identical constraint sets, and in the shard-credit loop the
	// duplicate is a no-op (its demand is already covered). This is what
	// bounds memory under lazy enumeration — a k-pod fat tree walks every
	// ECMP path but holds only the distinct hop shapes.
	hops [][]string
	// enumerated counts the flow paths walked (before dedup).
	enumerated int64
}

// prepare computes every algorithm's prep: shared-instruction marking,
// candidate switches, and the deduplicated candidate-hop sequences streamed
// from the scope's (possibly lazy) path set. It never materializes the full
// path list.
func (e *encoder) prepare() error {
	prep := map[string]*algPrep{}
	for _, a := range e.in.IR.Algorithms {
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
		p := &algPrep{isCand: map[string]bool{}, onPath: map[string]bool{}}
		for _, sw := range rs.Switches {
			s := e.in.Net.Switch(sw)
			if s == nil {
				return fmt.Errorf("encode: scope of %q references unknown switch %q", a.Name, sw)
			}
			if s.ASIC.Programmable {
				p.candidates = append(p.candidates, sw)
				p.isCand[sw] = true
			}
		}
		if len(p.candidates) == 0 {
			return fmt.Errorf("encode: scope of %q has no programmable switch", a.Name)
		}

		if rs.Deploy == scope.MultiSwitch {
			seen := map[string]bool{}
			var key strings.Builder
			var badPath []string
			err := rs.EachPath(func(path []string) bool {
				p.enumerated++
				key.Reset()
				n := 0
				for _, sw := range path {
					if p.isCand[sw] {
						n++
						key.WriteString(sw)
						key.WriteByte(0)
					}
				}
				if n == 0 {
					badPath = append([]string(nil), path...)
					return false
				}
				if k := key.String(); !seen[k] {
					seen[k] = true
					hop := make([]string, 0, n)
					for _, sw := range path {
						if p.isCand[sw] {
							hop = append(hop, sw)
							p.onPath[sw] = true
						}
					}
					p.hops = append(p.hops, hop)
				}
				return true
			})
			if badPath != nil {
				return fmt.Errorf("encode: path %v of %q has no programmable hop", badPath, a.Name)
			}
			if err != nil {
				return fmt.Errorf("encode: scope of %q: %w", a.Name, err)
			}
		}
		prep[a.Name] = p
	}
	e.prep = prep
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

// assumptionsFor renders a ladder configuration as the assumption vector
// activating its constraint families: all of them, minus the exactly-one
// families of replication-safe algorithms when the RelaxReplication rung is
// active.
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

func (e *encoder) encode() error {
	if err := e.prepare(); err != nil {
		return err
	}
	// Every variable is known up front: one placement literal per instruction
	// and candidate, and at most one selector per family.
	nvars, nlits := 0, 0
	for _, a := range e.in.IR.Algorithms {
		nvars += len(a.Instrs)*len(e.prep[a.Name].candidates) + int(numFamilies)
		nlits += len(a.Instrs) * len(e.prep[a.Name].candidates)
	}
	e.solver.Reserve(nvars)
	e.placeVars = make([]placeVar, 0, nlits)
	lits := make([]smt.Lit, nlits)
	for _, a := range e.in.IR.Algorithms {
		rs := e.in.Scopes[a.Name]
		p := e.prep[a.Name]
		candidates := p.candidates

		v := &algVars{name: a.Name, cands: candidates, candIdx: make(map[string]int, len(candidates))}
		for k, sw := range candidates {
			v.candIdx[sw] = k
		}
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
					alg: a.Name, instr: inst.ID, sw: sw, lit: l, shared: e.sharedInstr[a.Name][inst.ID],
				})
			}
		}

		switch rs.Deploy {
		case scope.PerSwitch:
			// Every instruction on every candidate switch (copies).
			for _, inst := range a.Instrs {
				for _, sw := range candidates {
					e.guarded(v, famCoverage, v.lit(inst.ID, sw))
				}
			}
		case scope.MultiSwitch:
			e.encodeMultiSwitch(a, p, v)
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
	e.theory = &resourceTheory{e: e}
	e.solver.AddTheory(e.theory)
	return nil
}

// encodeMultiSwitch adds flow-path coverage and ordering constraints over
// the prepared unique hop sequences. Emitting per hop sequence rather than
// per path is clause-for-clause equivalent: two paths with the same
// candidate hops would emit identical coverage, exactly-one, and ordering
// constraints.
func (e *encoder) encodeMultiSwitch(a *ir.Algorithm, p *algPrep, v *algVars) {
	// Instructions cannot sit on switches no flow traverses.
	for _, inst := range a.Instrs {
		for _, sw := range p.candidates {
			if !p.onPath[sw] {
				e.guarded(v, famScope, v.lit(inst.ID, sw).Not())
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
		for _, inst := range a.Instrs {
			e.hop = e.hop[:0]
			for _, sw := range hops {
				e.hop = append(e.hop, v.lit(inst.ID, sw))
			}
			// Coverage (Eq. 16 / §5.5): at least one placement per path,
			// always required.
			e.guarded(v, famCoverage, e.hop...)
			if !e.sharedInstr[a.Name][inst.ID] {
				// The at-most-one half of the exactly-one flow-path
				// constraint lives in its own family: the RelaxReplication
				// rung drops this assumption for replication-safe
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
							v.lit(dep, hops[ai]).Not(),
							v.lit(inst.ID, hops[bi]).Not(),
						)
					}
				}
			}
		}
	}
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
			for _, sw := range v.cands {
				a1, a2 := v.lit(first, sw), v.lit(other, sw)
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
	bySwitch := map[string][]smt.Lit{}
	for _, pv := range e.placeVars {
		bySwitch[pv.sw] = append(bySwitch[pv.sw], pv.lit)
	}
	var names []string
	for sw := range bySwitch {
		names = append(names, sw)
	}
	sort.Strings(names)
	for _, sw := range names {
		used, _ := e.solver.OrEquals(bySwitch[sw], "used["+sw+"]")
		e.useLits = append(e.useLits, used)
		e.useW = append(e.useW, 1)
	}
	return e.useLits, e.useW
}

func (e *encoder) lastTheoryHint() string {
	if e.theory != nil && e.theory.lastReason != "" {
		return " (last resource conflict: " + e.theory.lastReason + ")"
	}
	return ""
}

// extractPlan reads the model into a Plan, using the theory's materialized
// allocations and shards.
func (e *encoder) extractPlan(m *smt.Model) *Plan {
	plan := &Plan{
		Input:       e.in,
		Placement:   map[string]map[int][]string{},
		Tables:      map[string][]*PlacedTable{},
		Bridges:     map[string][]BridgeVar{},
		Allocations: e.theory.allocations,
		Shards:      e.theory.shards,
	}
	for alg, v := range e.vars {
		n := len(v.lits) / len(v.cands)
		placement := make(map[int][]string, n)
		for id := 0; id < n; id++ {
			var hosts []string
			for k, sw := range v.cands {
				if m.Value(v.lits[id*len(v.cands)+k]) {
					hosts = append(hosts, sw)
				}
			}
			sort.Strings(hosts)
			placement[id] = hosts
		}
		plan.Placement[alg] = placement
	}
	plan.Tables = e.theory.placedTables
	e.computeBridges(plan)
	return plan
}

// computeBridges implements Algorithm 2: a local variable written on one
// switch and read on a (different, downstream) switch becomes an extensible
// resource carried in the packet header. Table hit signals of split externs
// are bridged as well.
func (e *encoder) computeBridges(plan *Plan) {
	for _, a := range e.in.IR.Algorithms {
		writer := map[*ir.Var]int{}
		readers := map[*ir.Var][]int{}
		for _, inst := range a.Instrs {
			if v := inst.WritesVar(); v != nil {
				writer[v] = inst.ID
			}
			for _, v := range inst.Reads() {
				readers[v] = append(readers[v], inst.ID)
			}
		}
		shared := e.sharedInstr[a.Name]
		for v, wID := range writer {
			rIDs := readers[v]
			if len(rIDs) == 0 {
				continue
			}
			wHosts := plan.HostsOf(a.Name, wID)
			exported := map[string]bool{}
			for _, r := range rIDs {
				for _, rh := range plan.HostsOf(a.Name, r) {
					for _, wh := range wHosts {
						if wh != rh && !exported[wh] {
							// Written on wh, read elsewhere: bridge from wh.
							exported[wh] = true
						}
					}
				}
			}
			for wh := range exported {
				plan.Bridges[wh] = append(plan.Bridges[wh], BridgeVar{
					Alg: a.Name, Var: v, Bits: maxBits(v.Bits),
					Hit: shared[wID],
				})
			}
		}
		// Deterministic order.
		for sw := range plan.Bridges {
			bs := plan.Bridges[sw]
			sort.Slice(bs, func(i, j int) bool {
				if bs[i].Alg != bs[j].Alg {
					return bs[i].Alg < bs[j].Alg
				}
				return bs[i].Var.String() < bs[j].Var.String()
			})
		}
	}
}

func maxBits(b int) int {
	if b <= 0 {
		return 32
	}
	return b
}
