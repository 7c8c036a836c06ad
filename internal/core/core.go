// Package core drives Lyra's end-to-end compilation pipeline — the paper's
// primary contribution (§2.2, Figure 3): front-end (parse, check,
// preprocess, analyze), back-end (synthesize, encode, SMT solve,
// translate), and verification. It also implements the incremental
// recompilation loop of §6.3/§7: after a network change, placement is
// re-solved on the surviving topology and only the switches whose plan
// slice changed are re-translated. The public lyra package wraps this
// driver with a stable API.
package core

import (
	"cmp"
	"context"
	"fmt"
	"sort"
	"time"

	"lyra/internal/asic"
	"lyra/internal/backend"
	"lyra/internal/encode"
	"lyra/internal/frontend"
	"lyra/internal/ir"
	"lyra/internal/lang/checker"
	"lyra/internal/lang/parser"
	"lyra/internal/rewrite"
	"lyra/internal/scope"
	"lyra/internal/smt"
	"lyra/internal/topo"
	"lyra/internal/verify"
)

// Request is one compilation request.
type Request struct {
	Source     string
	SourceName string
	ScopeSpec  string
	Network    *topo.Network

	Dialect      asic.Dialect
	Objective    encode.Objective
	PreferSwitch string
	SkipVerify   bool
	// Parallelism bounds the worker pools used for component solving,
	// per-switch translation, and verification. <= 0 selects GOMAXPROCS;
	// 1 forces a fully sequential pipeline. Results are identical at any
	// setting — only wall-clock time changes.
	Parallelism int
	// Observer, when non-nil, receives a callback as each pipeline phase
	// completes.
	Observer Observer
	// Optimize, when non-nil, runs the rewrite search between the front-end
	// and placement: semantics-preserving program variants are explored,
	// costed, and certified, and the winner (possibly the original program)
	// proceeds through the normal pipeline. The search's account lands in
	// Result.Optimization. Its one setting is the certification trace seed.
	Optimize *rewrite.Options

	// NoSymmetryDedup disables symmetry-aware component deduplication: every
	// component is solved from scratch. Plans are byte-identical either way;
	// the differential tests compile with it as the reference.
	NoSymmetryDedup bool
}

// Result is a successful compilation, exposing every intermediate product
// the tools and the simulator need.
type Result struct {
	IR        *ir.Program
	Plan      *encode.Plan
	Artifacts map[string]*backend.Artifact
	Reports   []verify.Report
	// Fingerprints content-hashes each switch's plan slice; incremental
	// recompilation compares them to decide which devices to reprogram.
	Fingerprints map[string]string
	// Diagnostics is the solver's fallback-ladder trail (what, if
	// anything, was given up to reach the plan).
	Diagnostics *encode.Diagnostics
	// Cache memoises every symmetry class solved for this program as its
	// template. Recompile threads it forward: a component whose class is
	// known — every intact pod, and a damaged one whose shape was seen
	// before — is bound without encoding or solving anything.
	Cache *encode.Cache
	// Shapes is the family's shape memo, threaded forward like Cache; a
	// compile makes it empty and only recompiles fill it.
	Shapes *backend.Shapes

	// Phases is the per-phase timing breakdown, in pipeline order. The
	// legacy CompileTime/SolveTime pair is derived from the same clock:
	// CompileTime spans the whole pipeline, SolveTime equals the solve
	// phase.
	Phases []PhaseTiming
	// SolverStats aggregates SAT-solver counters across every SMT instance
	// solved for this result.
	SolverStats smt.Stats
	// SolveInstances counts the independent SMT instances solved (>1 when
	// the placement problem split into disjoint components).
	SolveInstances int

	CompileTime time.Duration
	SolveTime   time.Duration

	// Optimization is the rewrite-search report when Request.Optimize was
	// set (nil otherwise).
	Optimization *rewrite.Report
}

// Delta reports how a recompilation differs from its predecessor: which
// switches must be reprogrammed, which keep their (byte-identical) code,
// and which left the network.
type Delta struct {
	// Reprogram lists switches whose artifact changed or is new, sorted.
	Reprogram []string
	// Unchanged lists switches whose previous artifact was reused, sorted.
	Unchanged []string
	// Removed lists switches that were programmed before but host nothing
	// now (failed, or no longer selected), sorted.
	Removed []string
}

// String renders the delta compactly.
func (d *Delta) String() string {
	return fmt.Sprintf("reprogram=%v unchanged=%v removed=%v", d.Reprogram, d.Unchanged, d.Removed)
}

// CompileContext runs the full pipeline of Figure 3. Cancelling ctx aborts
// the SMT solve at its next poll point with a typed timeout error.
func CompileContext(ctx context.Context, req Request) (*Result, error) {
	start := time.Now()
	if req.Network == nil {
		return nil, fmt.Errorf("core: network is required")
	}
	name := req.SourceName
	if name == "" {
		name = "input.lyra"
	}
	tr := &phaseTracker{obs: req.Observer}

	// Front-end: checker (§4.1), preprocessor (§4.2), code analyzer (§4.3).
	var irp *ir.Program
	if err := tr.run(PhaseParse, func() error {
		prog, err := parser.Parse(name, []byte(req.Source))
		if err != nil {
			return fmt.Errorf("parse: %w", err)
		}
		if err := checker.Check(prog); err != nil {
			return fmt.Errorf("check: %w", err)
		}
		if irp, err = frontend.Preprocess(prog); err != nil {
			return fmt.Errorf("preprocess: %w", err)
		}
		frontend.Analyze(irp)
		return nil
	}); err != nil {
		return nil, err
	}

	// Deployment inputs: algorithm scopes over the target topology (§3.3).
	var scopes map[string]*scope.Resolved
	if err := tr.run(PhaseScope, func() error {
		spec, err := scope.Parse(req.ScopeSpec)
		if err != nil {
			return fmt.Errorf("scope: %w", err)
		}
		if scopes, err = spec.Resolve(req.Network); err != nil {
			return fmt.Errorf("scope: %w", err)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Optional rewrite search (between front-end and placement): explore
	// semantics-preserving variants and carry the certified winner — or the
	// unchanged program — into the normal back half. The search runs outside
	// the phase set, under the compile's objective and worker bound; its own
	// solves have their own fixed budget.
	var optRep *rewrite.Report
	if req.Optimize != nil {
		irp, optRep = rewrite.Search(ctx, irp, req.Network, scopes, *req.Optimize, req.Objective, req.Parallelism)
	}

	res, err := solveAndTranslate(ctx, req, &encode.Input{IR: irp, Net: req.Network, Scopes: scopes}, start, tr, nil, nil)
	if res != nil {
		res.Optimization = optRep
	}
	return res, err
}

// Recompile re-solves placement after a network change (the §6.3 loop): the
// front-end products of prev are reused verbatim, and the fault, not the
// fabric, is the unit of everything after. Scopes are re-resolved leniently
// against the degraded network (a region naming a dead switch shrinks to its
// survivors) — from prev's resolution and the delta between the two networks
// when the change is faults only; placement components the change left alone
// are taken over from prev's plan as they are, and only switches whose plan
// slice changed are re-translated and re-verified. The Delta lists what must
// actually be pushed to hardware.
func Recompile(ctx context.Context, prev *Result, req Request, net *topo.Network) (*Result, *Delta, error) {
	start := time.Now()
	if prev == nil || prev.IR == nil {
		return nil, nil, fmt.Errorf("core: recompile requires a previous result")
	}
	if net == nil {
		return nil, nil, fmt.Errorf("core: recompile requires a network")
	}
	tr := &phaseTracker{obs: req.Observer}
	in := &encode.Input{IR: prev.IR, Net: net}
	if err := tr.run(PhaseScope, func() error {
		spec, err := scope.Parse(req.ScopeSpec)
		if err != nil {
			return fmt.Errorf("scope: %w", err)
		}
		opts := scope.ResolveOpts{AllowMissing: true}
		if prev.Plan != nil {
			since := net.Since(prev.Plan.Input.Net)
			in.Since = &since
			in.Scopes, err = spec.ResolveAfter(prev.Plan.Input.Scopes, net, since, opts)
		} else {
			in.Scopes, err = spec.ResolveWith(net, opts)
		}
		if err != nil {
			return fmt.Errorf("scope: %w", err)
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	delta := &Delta{}
	res, err := solveAndTranslate(ctx, req, in, start, tr, prev, delta)
	if err != nil {
		return nil, nil, err
	}
	return res, delta, nil
}

// solveAndTranslate is the shared back half of the pipeline: encode +
// solve, translate and verify. With a previous result, every switch whose
// plan fingerprint is unchanged, and whose artifact is in the language this
// compile emits, keeps that result's artifact and its verification report —
// same content, same object — only the rest are translated and verified
// (through the family's shape memo), and delta is filled in with which is which.
// Every stage is timed into tr; CompileTime is stamped last so it spans the
// whole pipeline, verification included.
func solveAndTranslate(ctx context.Context, req Request, in *encode.Input, start time.Time, tr *phaseTracker, prev *Result, delta *Delta) (*Result, error) {
	// Back-end: synthesis + constraint encoding + SMT solve (§5).
	opts := encode.DefaultOptions()
	opts.Objective = req.Objective
	opts.PreferSwitch = req.PreferSwitch
	opts.Ctx = ctx
	opts.Parallelism = req.Parallelism
	opts.NoSymmetryDedup = req.NoSymmetryDedup
	// Solved classes and the decomposition persist across recompiles:
	// Recompile reuses the previous Result's IR verbatim, so whatever the
	// topology delta left alone is not solved, or even looked at, again.
	if prev != nil {
		opts.Cache, opts.Prev = prev.Cache, prev.Plan
	}
	if opts.Cache == nil {
		opts.Cache = encode.NewCache()
	}
	plan, err := encode.Solve(in, opts)
	if err != nil {
		return nil, err
	}
	tr.done(PhaseEncode, plan.EncodeTime)
	tr.done(PhaseSolve, plan.SolveTime)

	// Translation to chip-specific code (§5.7–§5.8), for the switches whose
	// fingerprint the previous result does not already answer in this
	// compile's language. A walk over the previous result's switches, in
	// order when its reports give it, decides which keep their artifact and
	// which left; the switches left over are translated. That is the delta.
	cgStart := time.Now()
	fps := plan.Fingerprints()
	var memo *backend.Shapes // a compile fills nothing
	if prev != nil {
		memo = cmp.Or(prev.Shapes, new(backend.Shapes))
	}
	topts := &backend.Options{P4Dialect: req.Dialect, Parallelism: req.Parallelism, Shapes: memo}
	arts := make(map[string]*backend.Artifact, len(fps))
	if prev != nil {
		topts.Only = map[string]bool{}
		delta.Unchanged = make([]string, 0, len(fps))
		keep := func(sw string) {
			if fp, hosts := fps[sw]; !hosts {
				delta.Removed = append(delta.Removed, sw)
			} else if art := prev.Artifacts[sw]; art != nil && prev.Fingerprints[sw] == fp && art.Dialect == req.Dialect.Lang(art.Model) {
				arts[sw] = art
				delta.Unchanged = append(delta.Unchanged, sw)
			}
		}
		if len(prev.Reports) == len(prev.Artifacts) { // one per switch, in order
			for i := range prev.Reports {
				keep(prev.Reports[i].Switch)
			}
		} else {
			for sw := range prev.Fingerprints {
				keep(sw)
			}
			sort.Strings(delta.Unchanged)
			sort.Strings(delta.Removed)
		}
		for sw := range fps {
			if arts[sw] == nil {
				topts.Only[sw] = true
				delta.Reprogram = append(delta.Reprogram, sw)
			}
		}
		sort.Strings(delta.Reprogram)
	}
	kept := len(arts)
	fresh, err := backend.Translate(plan, topts)
	if err != nil {
		return nil, fmt.Errorf("translate: %w", err)
	}
	if kept == 0 {
		arts = fresh
	} else {
		for sw, art := range fresh {
			arts[sw] = art
		}
	}
	tr.done(PhaseCodegen, time.Since(cgStart))

	res := &Result{
		IR:             in.IR,
		Plan:           plan,
		Artifacts:      arts,
		Fingerprints:   fps,
		Diagnostics:    plan.Diagnostics,
		Cache:          opts.Cache,
		Shapes:         cmp.Or(memo, new(backend.Shapes)),
		SolverStats:    plan.Stats,
		SolveInstances: plan.Instances,
		SolveTime:      plan.SolveTime,
	}
	// Verification: the vendor-compiler stand-in (admission + emitted-code
	// validation).
	var verifyErr error
	if !req.SkipVerify {
		vStart := time.Now()
		if kept == 0 || len(prev.Reports) != len(prev.Artifacts) {
			// Nothing to carry, or a previous result that was not itself
			// fully verified and so carries nothing forward.
			res.Reports = verify.PlanShared(plan, arts, req.Parallelism, memo)
		} else {
			res.Reports = mergeReports(prev.Reports, delta.Unchanged, verify.PlanShared(plan, fresh, req.Parallelism, memo))
		}
		tr.done(PhaseVerify, time.Since(vStart))
		for _, r := range res.Reports {
			if !r.OK {
				if r.Capacity {
					// Chip-resource exhaustion discovered at admission
					// (PHV packing, stages): the program provably does
					// not fit the target, so surface it as
					// infeasibility, not as a compiler defect.
					verifyErr = fmt.Errorf("verification failed on %s: %v: %w",
						r.Switch, r.Problems, encode.ErrInfeasible)
				} else {
					verifyErr = fmt.Errorf("verification failed on %s: %v", r.Switch, r.Problems)
				}
				break
			}
		}
	}
	res.Phases = tr.phases
	res.CompileTime = time.Since(start)
	if verifyErr != nil {
		return res, verifyErr
	}
	return res, nil
}

// mergeReports returns one report per artifact in sorted switch order: the
// previous result's report for every kept artifact (the very object that
// report was made from) merged with the fresh checks of the others. All three
// inputs are sorted by switch.
func mergeReports(prev []verify.Report, kept []string, checked []verify.Report) []verify.Report {
	out := make([]verify.Report, 0, len(kept)+len(checked))
	for _, r := range prev {
		if len(kept) == 0 {
			break
		}
		if r.Switch != kept[0] {
			continue
		}
		kept = kept[1:]
		for len(checked) > 0 && checked[0].Switch < r.Switch {
			out = append(out, checked[0])
			checked = checked[1:]
		}
		out = append(out, r)
	}
	return append(out, checked...)
}
