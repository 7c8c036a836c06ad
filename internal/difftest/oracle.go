package difftest

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"lyra"
	"lyra/internal/backend"
	"lyra/internal/core"
	"lyra/internal/dataplane"
)

// Options configures an Oracle.
type Options struct {
	// Dialects are the P4 flavors compiled for every case (default
	// P4_14 and P4_16). NPL coverage comes from the generated topologies:
	// Trident-4 switches always emit NPL regardless of this setting.
	Dialects []lyra.Dialect
	// Parallelism is the worker count whose compile is compared
	// byte-for-byte against a sequential (parallelism=1) compile
	// (default 4).
	Parallelism int
	// Mutation optionally names a backend bug to inject while building
	// the simulated deployment (see MutationByName) — the seeded-bug
	// check: a campaign under any mutation must report unexplained
	// failures.
	Mutation string
	// SkipShrink disables minimization of failing cases in Run.
	SkipShrink bool
	// Incremental adds an incremental-vs-oneshot check in two legs. Every
	// compiling case is recompiled through the identity scenario (no
	// network change), which re-solves each component on its cached
	// persistent solver: the result must be byte-identical to the one-shot
	// compile — same switch set, same artifacts, same plan fingerprints —
	// and must actually have reused the solver. It is then recompiled
	// through one fault drawn from the case seed (a switch-down, link-down
	// or degrade touching a programmed switch), and that result must be
	// byte-identical to a from-scratch compile of the separately mutated
	// topology, with a verification report for every artifact.
	Incremental bool
	// Stateful switches Run's generator to GenerateStateful: flow-keyed
	// stateful programs with long chunked traces, which additionally put
	// every case through the streaming oracle (stream-vs-one-shot and
	// tier-vs-tier, packet by packet, at one and three lanes).
	Stateful bool
	// Optimize adds a rewrite-search check: every compiling case is
	// recompiled under the certified rewrite search, and the optimized
	// deployment must still match the ORIGINAL program's reference
	// semantics on the case trace. The search certifies its own winners
	// internally; this check re-derives equivalence from the oracle's
	// independent trace, so a certification hole shows up as a
	// divergence here.
	Optimize bool
	// Scale adds the datacenter-scale-mode check: every compiling case is
	// recompiled with symmetry dedup disabled. Dedup is a pure performance
	// feature — plans and artifacts must stay byte-identical to the default
	// compile, so any observable difference is a solver bug, never a
	// tradeoff.
	Scale bool
}

func (o Options) withDefaults() Options {
	if len(o.Dialects) == 0 {
		o.Dialects = []lyra.Dialect{lyra.P414, lyra.P416}
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 4
	}
	return o
}

// MutationByName resolves a seeded-backend-bug name. The empty name
// resolves to no mutation.
func MutationByName(name string) (func(string, *backend.SwitchProgram), bool) {
	switch name {
	case "":
		return nil, true
	case "drop-last-instr":
		return backend.MutationDropLastInstr, true
	case "drop-exports":
		return backend.MutationDropExports, true
	case "drop-hit-guards":
		return backend.MutationDropHitGuards, true
	}
	return nil, false
}

// MutationNames lists the available seeded-bug mutations.
func MutationNames() []string {
	return []string{"drop-last-instr", "drop-exports", "drop-hit-guards"}
}

// Oracle checks generated cases for cross-backend equivalence.
type Oracle struct {
	opts Options
	mut  func(string, *backend.SwitchProgram)
}

// NewOracle builds an oracle; an unknown opts.Mutation name is ignored
// (lyra-fuzz validates the flag before constructing one).
func NewOracle(opts Options) *Oracle {
	o := &Oracle{opts: opts.withDefaults()}
	o.mut, _ = MutationByName(opts.Mutation)
	return o
}

func dialectName(d lyra.Dialect) string {
	if d == lyra.P416 {
		return "p4_16"
	}
	return "p4_14"
}

// compile runs one (dialect, parallelism) compile of the case. It returns
// a non-nil Outcome only for terminal classifications (crash, front-end
// rejection); infeasibility is returned as a flag so the caller can check
// that every compile agrees on it.
func (o *Oracle) compile(c *Case, d lyra.Dialect, par int) (*lyra.Result, *Outcome, bool) {
	net, err := c.Network()
	if err != nil {
		return nil, &Outcome{Class: GeneratorError, Detail: err.Error()}, false
	}
	res, err := lyra.New(lyra.WithDialect(d), lyra.WithParallelism(par)).
		Compile(context.Background(), c.Source(), c.ScopeText(), net)
	if err != nil {
		var ie *lyra.InternalError
		switch {
		case errors.As(err, &ie):
			return nil, &Outcome{Class: Crash,
				Detail: fmt.Sprintf("%s parallelism=%d: %v", dialectName(d), par, err)}, false
		case errors.Is(err, lyra.ErrInfeasible):
			return nil, nil, true
		case errors.Is(err, lyra.ErrBudget):
			return nil, &Outcome{Class: Crash,
				Detail: fmt.Sprintf("%s parallelism=%d: solver budget: %v", dialectName(d), par, err)}, false
		default:
			return nil, &Outcome{Class: GeneratorError,
				Detail: fmt.Sprintf("%s parallelism=%d: %v", dialectName(d), par, err)}, false
		}
	}
	return res, nil, false
}

// diffResults compares two compiles of the same dialect that must be
// byte-identical (the parallelism invariant). Returns "" when identical.
func diffResults(a, b *lyra.Result) string {
	as, bs := a.Switches(), b.Switches()
	if len(as) != len(bs) {
		return fmt.Sprintf("switch sets differ: %v vs %v", as, bs)
	}
	for i := range as {
		if as[i] != bs[i] {
			return fmt.Sprintf("switch sets differ: %v vs %v", as, bs)
		}
	}
	for _, sw := range as {
		aa, ba := a.Artifact(sw), b.Artifact(sw)
		if aa.Code != ba.Code {
			return fmt.Sprintf("%s: generated code differs", sw)
		}
		if aa.ControlPlane != ba.ControlPlane {
			return fmt.Sprintf("%s: control-plane stub differs", sw)
		}
		if a.Fingerprints[sw] != b.Fingerprints[sw] {
			return fmt.Sprintf("%s: plan fingerprint %s vs %s", sw, a.Fingerprints[sw], b.Fingerprints[sw])
		}
	}
	return ""
}

// diffPlans compares two compiles of different dialects: the emitted code
// legitimately differs, but the placement — switch set and dialect-
// independent plan fingerprints — must not. Returns "" when consistent.
func diffPlans(a, b *lyra.Result) string {
	as, bs := a.Switches(), b.Switches()
	if len(as) != len(bs) {
		return fmt.Sprintf("switch sets differ: %v vs %v", as, bs)
	}
	for i := range as {
		if as[i] != bs[i] {
			return fmt.Sprintf("switch sets differ: %v vs %v", as, bs)
		}
	}
	for _, sw := range as {
		if a.Fingerprints[sw] != b.Fingerprints[sw] {
			return fmt.Sprintf("%s: plan fingerprint %s vs %s", sw, a.Fingerprints[sw], b.Fingerprints[sw])
		}
	}
	return ""
}

// Check classifies one case: compile it for every dialect at two
// parallelism levels, cross-check the compiles against each other, then
// execute the deployment against the reference semantics on the case's
// packet trace.
func (o *Oracle) Check(c *Case) Outcome {
	type keyed struct {
		name string
		res  *lyra.Result
	}
	var compiled []keyed
	firstInfeasible := -1 // index into o.opts.Dialects, -1 = none seen
	for di, d := range o.opts.Dialects {
		name := dialectName(d)
		r1, bad, inf1 := o.compile(c, d, 1)
		if bad != nil {
			return *bad
		}
		rN, bad, infN := o.compile(c, d, o.opts.Parallelism)
		if bad != nil {
			return *bad
		}
		if inf1 != infN {
			return Outcome{Class: SolverDisagreement, Detail: fmt.Sprintf(
				"%s: sequential compile infeasible=%v but parallelism=%d infeasible=%v",
				name, inf1, o.opts.Parallelism, infN)}
		}
		if inf1 {
			if len(compiled) > 0 {
				return Outcome{Class: SolverDisagreement, Detail: fmt.Sprintf(
					"%s infeasible but %s compiled", name, compiled[0].name)}
			}
			firstInfeasible = di
			continue
		}
		if firstInfeasible >= 0 {
			return Outcome{Class: SolverDisagreement, Detail: fmt.Sprintf(
				"%s compiled but %s infeasible", name, dialectName(o.opts.Dialects[firstInfeasible]))}
		}
		if d := diffResults(r1, rN); d != "" {
			return Outcome{Class: SolverDisagreement,
				Detail: fmt.Sprintf("%s: parallel compile differs from sequential: %s", name, d)}
		}
		if len(compiled) > 0 {
			if d := diffPlans(compiled[0].res, r1); d != "" {
				return Outcome{Class: SolverDisagreement,
					Detail: fmt.Sprintf("%s vs %s: %s", compiled[0].name, name, d)}
			}
		}
		compiled = append(compiled, keyed{name, r1})
	}
	if len(compiled) == 0 {
		return Outcome{Class: Infeasible}
	}
	if o.opts.Incremental {
		if out := o.checkIncremental(compiled[0].res); out != nil {
			return *out
		}
		if out := o.checkIncrementalFault(c, compiled[0].res); out != nil {
			return *out
		}
	}
	if o.opts.Optimize {
		if out := o.checkOptimize(c, compiled[0].res); out != nil {
			return *out
		}
	}
	if o.opts.Scale {
		if out := o.checkScale(c, compiled[0].res); out != nil {
			return *out
		}
	}
	for _, k := range compiled {
		for _, rep := range k.res.Reports {
			if !rep.OK {
				return Outcome{Class: AdmissionRejection, Detail: fmt.Sprintf(
					"%s %s: %s", k.name, rep.Switch, strings.Join(rep.Problems, "; "))}
			}
		}
	}
	return o.equivalent(c, compiled[0].res)
}

// baseCompiler is the configuration Check's first compile — the base of the
// incremental checks — ran under.
func (o *Oracle) baseCompiler() *lyra.Compiler {
	return lyra.New(lyra.WithDialect(o.opts.Dialects[0]), lyra.WithParallelism(1))
}

// checkIncremental recompiles base through the identity scenario (no
// topology change) and demands that the incremental path — every component
// taken over from the base plan as it is — lands on exactly the one-shot
// result without building an encoder or calling a solver. A nil return means
// the check passed.
func (o *Oracle) checkIncremental(base *lyra.Result) *Outcome {
	inc, delta, err := o.baseCompiler().Recompile(context.Background(), base, lyra.Scenario{Name: "identity"})
	if err != nil {
		return &Outcome{Class: SolverDisagreement,
			Detail: fmt.Sprintf("incremental: identity recompile failed where one-shot compiled: %v", err)}
	}
	if d := diffResults(base, inc); d != "" {
		return &Outcome{Class: SolverDisagreement,
			Detail: "incremental: identity recompile diverges from one-shot compile: " + d}
	}
	if len(delta.Reprogram) != 0 || len(delta.Removed) != 0 {
		return &Outcome{Class: SolverDisagreement,
			Detail: fmt.Sprintf("incremental: identity recompile produced a device delta: %v", delta)}
	}
	if st := inc.SolverStats; st.Encodes != 0 || st.SolveCalls != 0 {
		return &Outcome{Class: SolverDisagreement,
			Detail: fmt.Sprintf("incremental: identity recompile solved again instead of carrying the plan over (SolveCalls=%d Encodes=%d)", st.SolveCalls, st.Encodes)}
	}
	return nil
}

// seededFault draws one fault from the case seed: a switch-down or a degrade
// of a programmed switch, or the loss of a link at one. It returns the
// scenario and the scope text a from-scratch compile of the mutated topology
// takes — Recompile resolves scopes leniently, a fresh compile does not, so a
// scope naming the dead switch has it struck out. ok is false when the case
// offers no such fault (a scope would lose its last switch, or the chosen
// switch has no link).
func seededFault(c *Case, base *lyra.Result) (sc lyra.Scenario, scopeText string, ok bool) {
	r := rng(c.Seed ^ 0x5eedfa17)
	placed := base.Switches()
	sw := placed[r.Intn(len(placed))]
	scopeText = c.ScopeText()
	var ev lyra.FaultEvent
	switch r.Intn(3) {
	case 0:
		without := removeSwitch(c, sw)
		if without == nil {
			return sc, "", false
		}
		ev, scopeText = lyra.SwitchDown(sw), without.ScopeText()
	case 1:
		var peers []string
		for _, l := range c.Topo.Links {
			if l[0] == sw {
				peers = append(peers, l[1])
			} else if l[1] == sw {
				peers = append(peers, l[0])
			}
		}
		if len(peers) == 0 {
			return sc, "", false
		}
		ev = lyra.LinkDown(sw, peers[r.Intn(len(peers))])
	default:
		ev = lyra.Degrade(sw, 1, 0.5+0.4*r.Float64(), 1)
	}
	return lyra.Scenario{Name: ev.String(), Events: []lyra.FaultEvent{ev}}, scopeText, true
}

// checkIncrementalFault is the non-identity leg of the incremental oracle:
// base is recompiled through one seeded fault, and the result must be what
// compiling the mutated topology from nothing gives — same switch set,
// artifacts and fingerprints — with one verification report per artifact.
// A fault that leaves the case infeasible must do so both ways. A nil return
// means the check passed (or the case offers no fault to draw).
func (o *Oracle) checkIncrementalFault(c *Case, base *lyra.Result) *Outcome {
	sc, scopeText, ok := seededFault(c, base)
	if !ok {
		return nil
	}
	fail := func(format string, args ...any) *Outcome {
		return &Outcome{Class: SolverDisagreement,
			Detail: fmt.Sprintf("incremental: %s: %s", sc.Name, fmt.Sprintf(format, args...))}
	}
	mutated, err := c.Network()
	if err != nil {
		return &Outcome{Class: GeneratorError, Detail: err.Error()}
	}
	if err := sc.Apply(mutated); err != nil {
		return &Outcome{Class: GeneratorError, Detail: err.Error()}
	}
	comp := o.baseCompiler()
	scratch, serr := comp.Compile(context.Background(), c.Source(), scopeText, mutated)
	inc, _, ierr := comp.Recompile(context.Background(), base, sc)
	switch {
	case serr != nil && !errors.Is(serr, lyra.ErrInfeasible):
		// The strict scope resolution of a fresh compile rejected the
		// mutated topology (a pattern or a path set went empty): there is
		// no reference to compare with.
		return nil
	case serr != nil && ierr == nil:
		return fail("recompile succeeded where a from-scratch compile is infeasible: %v", serr)
	case serr != nil:
		return nil
	case ierr != nil:
		return fail("recompile failed where a from-scratch compile succeeded: %v", ierr)
	}
	if d := diffResults(inc, scratch); d != "" {
		return fail("recompile diverges from a from-scratch compile: %s", d)
	}
	if len(inc.Reports) != len(inc.Artifacts) {
		return fail("%d verification reports for %d artifacts", len(inc.Reports), len(inc.Artifacts))
	}
	for i, sw := range inc.Switches() {
		if inc.Reports[i].Switch != sw {
			return fail("report %d is for %s, want %s", i, inc.Reports[i].Switch, sw)
		}
	}
	return nil
}

// checkScale recompiles the case with symmetry dedup disabled and demands the
// result land byte-identical to the default compile, which dedups. Dedup has
// no public switch, so the no-dedup compile goes through core directly. A nil
// return means the check passed.
func (o *Oracle) checkScale(c *Case, base *lyra.Result) *Outcome {
	net, err := c.Network()
	if err != nil {
		return &Outcome{Class: GeneratorError, Detail: err.Error()}
	}
	res, err := core.CompileContext(context.Background(), core.Request{
		Source: c.Source(), ScopeSpec: c.ScopeText(), Network: net,
		Dialect: o.opts.Dialects[0], Parallelism: 1, NoSymmetryDedup: true,
	})
	if err != nil {
		return &Outcome{Class: SolverDisagreement,
			Detail: fmt.Sprintf("scale: no-dedup compile failed where default compiled: %v", err)}
	}
	// diffResults reads only the artifacts and fingerprints.
	if d := diffResults(base, &lyra.Result{Artifacts: res.Artifacts, Fingerprints: res.Fingerprints}); d != "" {
		return &Outcome{Class: SolverDisagreement,
			Detail: fmt.Sprintf("scale: no-dedup compile diverges from default: %s", d)}
	}
	return nil
}

// checkOptimize recompiles the case under the rewrite search and checks
// the result from outside the search's own certification: the optimized
// program's reference semantics must match the original's on the case
// trace, and the optimized deployment must pass the full cross-tier
// equivalence check. A nil return means the check passed.
func (o *Oracle) checkOptimize(c *Case, base *lyra.Result) *Outcome {
	net, err := c.Network()
	if err != nil {
		return &Outcome{Class: GeneratorError, Detail: err.Error()}
	}
	opt, err := lyra.New(lyra.WithDialect(o.opts.Dialects[0]), lyra.WithParallelism(1),
		lyra.WithOptimize(lyra.OptimizeOptions{Seed: 7})).
		Compile(context.Background(), c.Source(), c.ScopeText(), net)
	if err != nil {
		// The search falls back to the base program, which compiled, so any
		// failure here is the optimizer's fault.
		return &Outcome{Class: SolverDisagreement,
			Detail: fmt.Sprintf("optimize: compile failed where plain compile succeeded: %v", err)}
	}
	tables := lyra.NewTables()
	for name, entries := range c.Entries {
		for _, e := range entries {
			tables.Set(name, e.Key, e.Value)
		}
	}
	ctx := &lyra.SimContext{SwitchID: 1}
	for ti, tp := range c.Trace {
		// Fresh simulators per packet: reference runs share no register
		// state with each other in either program.
		baseSim, err := base.Simulate(tables)
		if err != nil {
			return &Outcome{Class: Crash, Detail: fmt.Sprintf("optimize: deploy base: %v", err)}
		}
		optSim, err := opt.Simulate(tables)
		if err != nil {
			return &Outcome{Class: Crash, Detail: fmt.Sprintf("optimize: deploy optimized: %v", err)}
		}
		rb, err := baseSim.RunReference(ctx, mkPacket(tp))
		if err != nil {
			return &Outcome{Class: Crash, Detail: fmt.Sprintf("optimize: base reference: %v", err)}
		}
		ro, err := optSim.RunReference(ctx, mkPacket(tp))
		if err != nil {
			return &Outcome{Class: Crash, Detail: fmt.Sprintf("optimize: optimized reference: %v", err)}
		}
		if diffs := dataplane.DiffPackets(rb, ro, nil); len(diffs) > 0 {
			return &Outcome{Class: OutputDivergence, Detail: fmt.Sprintf(
				"optimize: rewritten program diverges from the original's reference on packet#%d: %s",
				ti, strings.Join(diffs, "; "))}
		}
	}
	if out := o.equivalent(c, opt); out.Class != Equivalent {
		out.Detail = "optimize: " + out.Detail
		return &out
	}
	return nil
}

// equivalent executes the deployed programs against the one-big-pipeline
// reference, per algorithm, on that algorithm's flow paths, comparing only
// the fields the algorithm owns (other algorithms' instructions are not
// fully present along these paths, so their outputs are out of scope).
func (o *Oracle) equivalent(c *Case, res *lyra.Result) Outcome {
	if o.mut != nil {
		// Corrupt the deployment only: compiles and verification above ran
		// clean, so a divergence below is attributable to the seeded bug.
		backend.TestMutation = o.mut
		defer func() { backend.TestMutation = nil }()
	}
	tables := lyra.NewTables()
	for name, entries := range c.Entries {
		for _, e := range entries {
			tables.Set(name, e.Key, e.Value)
		}
	}
	multi := map[string]bool{}
	for _, sc := range c.Scopes {
		multi[sc.Alg] = sc.MultiSw
	}
	for _, alg := range c.AlgNames() {
		var paths [][]string
		if multi[alg] {
			paths = res.FlowPaths(alg)
		} else {
			for _, sw := range res.PlacedSwitches(alg) {
				paths = append(paths, []string{sw})
			}
		}
		if len(paths) == 0 {
			return Outcome{Class: SolverDisagreement,
				Detail: fmt.Sprintf("%s: admitted plan places the algorithm on no switch", alg)}
		}
		owned := c.OutputsOf(alg)
		ownsOps := c.OwnsPacketOps(alg)
		for pi, path := range paths {
			if c.FlowField != "" {
				if out := o.checkStream(c, res, tables, alg, path, pi); out != nil {
					return *out
				}
			}
			for ti, tp := range c.Trace {
				// Fresh deployment per comparison: deployed register state
				// persists across runs while the reference starts clean, so
				// reusing a deployment would skew stateful cases.
				sim, err := res.Simulate(tables)
				if err != nil {
					return Outcome{Class: Crash, Detail: fmt.Sprintf("deploy: %v", err)}
				}
				ctx := &lyra.SimContext{SwitchID: 1}
				ref, err := sim.RunReference(ctx, mkPacket(tp))
				if err != nil {
					return Outcome{Class: Crash, Detail: fmt.Sprintf("reference: %v", err)}
				}
				// The compiled backend executes the deployed path; the
				// tree-walking interpreter then replays the same packet as
				// its cross-check. The compiled tier runs first: its
				// copy-on-write table views keep data-plane inserts
				// lane-local, while the interpreter writes into the shared
				// shard tables.
				comp, err := sim.RunPathCompiled(path, ctx, mkPacket(tp))
				if err != nil {
					return Outcome{Class: Crash,
						Detail: fmt.Sprintf("%s path#%d %v: compiled: %v", alg, pi, path, err)}
				}
				interp, err := sim.RunPath(path, ctx, mkPacket(tp))
				if err != nil {
					return Outcome{Class: Crash,
						Detail: fmt.Sprintf("%s path#%d %v: %v", alg, pi, path, err)}
				}
				// Both tiers implement the same semantics over the same
				// programs; a mismatch is an execution bug, not a compile
				// divergence.
				if xd := dataplane.DiffPackets(interp, comp, nil); len(xd) > 0 {
					return Outcome{Class: Crash, Detail: fmt.Sprintf(
						"%s path#%d %v packet#%d: compiled backend diverges from interpreter: %s",
						alg, pi, path, ti, strings.Join(xd, "; "))}
				}
				got := comp.Clone()
				if !ownsOps {
					// Packet-level flags belong to the algorithm that issues
					// packet operations; on other algorithms' paths they are
					// out of scope.
					got.Dropped = ref.Dropped
					got.EgressPort = ref.EgressPort
					got.Mirrored = ref.Mirrored
					got.ToCPU = ref.ToCPU
				}
				if diffs := dataplane.DiffPackets(ref, got, owned); len(diffs) > 0 {
					return Outcome{Class: OutputDivergence,
						Detail: o.divergenceDetail(res, tables, alg, path, pi, ti, tp, diffs)}
				}
			}
		}
	}
	return Outcome{Class: Equivalent}
}

// streamLanes are the lane counts the streaming cross-check replays at:
// the degenerate single lane and a fan-out that forces inter-lane
// parallel drains.
var streamLanes = [...]int{1, 3}

// checkStream is the streaming oracle for flow-keyed stateful cases: the
// whole trace replays through OpenStream on every executor tier at one
// and three lanes, fed in the case's chunk partition, against a fresh
// deployment each time — and every configuration must be byte-identical
// per packet to a sequential one-shot interpreter replay. Cross-tier and
// streaming-vs-one-shot mismatches are execution-engine bugs, so they
// classify as Crash. Nil means the check passed.
func (o *Oracle) checkStream(c *Case, res *lyra.Result, tables *lyra.Tables,
	alg string, path []string, pi int) *Outcome {
	fail := func(format string, args ...any) *Outcome {
		return &Outcome{Class: Crash, Detail: fmt.Sprintf("stream: %s path#%d %v: %s",
			alg, pi, path, fmt.Sprintf(format, args...))}
	}
	recs := make([]dataplane.TraceRecord, len(c.Trace))
	for i, tp := range c.Trace {
		recs[i] = dataplane.TraceRecord{Valid: tp.Valid, Fields: tp.Fields}
	}
	ctx := &lyra.SimContext{SwitchID: 1}
	refSim, err := res.Simulate(tables)
	if err != nil {
		return fail("deploy reference: %v", err)
	}
	refDep := refSim.Deployment()
	refEng, err := refDep.Engine()
	if err != nil {
		return fail("reference lowering: %v", err)
	}
	refExec, err := refDep.ExecutorFor(dataplane.TierInterpreter)
	if err != nil {
		return fail("reference executor: %v", err)
	}
	ref := refEng.FlattenTrace(recs, "")
	if err := refExec.RunBatch(path, ctx, ref, 1); err != nil {
		return fail("reference replay: %v", err)
	}
	for _, tier := range []dataplane.ExecutorTier{
		dataplane.TierInterpreter, dataplane.TierCompiled,
	} {
		for _, lanes := range streamLanes {
			sim, err := res.Simulate(tables)
			if err != nil {
				return fail("deploy %v lanes=%d: %v", tier, lanes, err)
			}
			dep := sim.Deployment()
			eng, err := dep.Engine()
			if err != nil {
				return fail("lowering %v lanes=%d: %v", tier, lanes, err)
			}
			key, err := eng.FlowKeyField(c.FlowField)
			if err != nil {
				return fail("flow key %q: %v", c.FlowField, err)
			}
			s, err := dep.OpenStream(path, dataplane.StreamOptions{
				Tier: tier, Lanes: lanes, BatchSize: 4, FlowKey: key, Ctx: ctx,
			})
			if err != nil {
				return fail("open %v lanes=%d: %v", tier, lanes, err)
			}
			got := eng.FlattenTrace(recs, "")
			// Feed per the case's chunk partition, defensively capped so a
			// shrunk or hand-edited bundle with stale chunks still replays.
			off := 0
			for _, n := range c.Chunks {
				if off >= len(got) {
					break
				}
				if n > len(got)-off {
					n = len(got) - off
				}
				if n <= 0 {
					continue
				}
				if err := s.Feed(got[off : off+n]...); err != nil {
					return fail("%v lanes=%d feed: %v", tier, lanes, err)
				}
				off += n
			}
			if off < len(got) {
				if err := s.Feed(got[off:]...); err != nil {
					return fail("%v lanes=%d feed: %v", tier, lanes, err)
				}
			}
			s.Close()
			for i := range got {
				if diffs := dataplane.DiffPackets(ref[i].Packet(), got[i].Packet(), nil); len(diffs) > 0 {
					return fail("%v lanes=%d packet#%d diverges from one-shot replay: %s",
						tier, lanes, i, strings.Join(diffs, "; "))
				}
			}
		}
	}
	return nil
}

// divergenceDetail renders a failure report with a per-hop trace showing
// where along the path the deployed execution departs from the reference.
func (o *Oracle) divergenceDetail(res *lyra.Result, tables *lyra.Tables,
	alg string, path []string, pi, ti int, tp TracePacket, diffs []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s path#%d %v packet#%d: %s", alg, pi, path, ti, strings.Join(diffs, "; "))
	sim, err := res.Simulate(tables)
	if err != nil {
		return b.String()
	}
	_, hops, err := sim.RunPathTraced(path, &lyra.SimContext{SwitchID: 1}, mkPacket(tp))
	if err == nil {
		for _, h := range hops {
			fmt.Fprintf(&b, "\n  after %s: %s", h.Switch, h.Summary)
		}
	}
	return b.String()
}

func mkPacket(tp TracePacket) *lyra.Packet {
	p := lyra.NewPacket()
	for k, v := range tp.Fields {
		p.Fields[k] = v
	}
	for _, h := range tp.Valid {
		p.Valid[h] = true
	}
	return p
}
