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
	"context"
	"fmt"
	"sort"
	"time"

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

	Dialect      backend.Dialect
	Objective    encode.Objective
	PreferSwitch string
	SolveBudget  time.Duration
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
	// Result.Optimization.
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
	// the phase set; its own solves are bounded by Optimize.SolveBudget.
	var optRep *rewrite.Report
	if req.Optimize != nil {
		opt := *req.Optimize
		if opt.Objective == encode.ObjNone {
			opt.Objective = req.Objective
		}
		if opt.Parallelism == 0 {
			opt.Parallelism = req.Parallelism
		}
		irp, optRep = rewrite.Search(ctx, irp, req.Network, scopes, opt)
	}

	res, err := solveAndTranslate(ctx, req, irp, req.Network, scopes, start, tr, nil, nil)
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
	var scopes map[string]*scope.Resolved
	if err := tr.run(PhaseScope, func() error {
		spec, err := scope.Parse(req.ScopeSpec)
		if err != nil {
			return fmt.Errorf("scope: %w", err)
		}
		opts := scope.ResolveOpts{AllowMissing: true}
		if prev.Plan != nil {
			scopes, err = spec.ResolveAfter(prev.Plan.Input.Scopes, net, net.Since(prev.Plan.Input.Net), opts)
		} else {
			scopes, err = spec.ResolveWith(net, opts)
		}
		if err != nil {
			return fmt.Errorf("scope: %w", err)
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	delta := &Delta{}
	res, err := solveAndTranslate(ctx, req, prev.IR, net, scopes, start, tr, prev, delta)
	if err != nil {
		return nil, nil, err
	}
	return res, delta, nil
}

// solveAndTranslate is the shared back half of the pipeline: encode +
// solve, translate and verify. With a previous result, every switch whose
// plan fingerprint is unchanged keeps that result's artifact and its
// verification report — same content, same object — only the rest are
// built, emitted and verified, and delta is filled in with which is which.
// Every stage is timed into tr; CompileTime is stamped last so it spans the
// whole pipeline, verification included.
func solveAndTranslate(ctx context.Context, req Request, irp *ir.Program, net *topo.Network, scopes map[string]*scope.Resolved, start time.Time, tr *phaseTracker, prev *Result, delta *Delta) (*Result, error) {
	// Back-end: synthesis + constraint encoding + SMT solve (§5).
	opts := encode.DefaultOptions()
	opts.Objective = req.Objective
	opts.PreferSwitch = req.PreferSwitch
	opts.Ctx = ctx
	opts.Parallelism = req.Parallelism
	opts.NoSymmetryDedup = req.NoSymmetryDedup
	if req.SolveBudget > 0 {
		opts.TimeBudget = req.SolveBudget
	}
	// Solved classes and the decomposition persist across recompiles:
	// Recompile reuses the previous Result's IR verbatim, so whatever the
	// topology delta left alone is not solved, or even looked at, again.
	if prev != nil {
		opts.Cache, opts.Prev = prev.Cache, prev.Plan
	}
	if opts.Cache == nil {
		opts.Cache = encode.NewCache()
	}
	plan, err := encode.Solve(&encode.Input{IR: irp, Net: net, Scopes: scopes}, opts)
	if err != nil {
		return nil, err
	}
	tr.done(PhaseEncode, plan.EncodeTime)
	tr.done(PhaseSolve, plan.SolveTime)

	// Translation to chip-specific code (§5.7–§5.8), for the switches whose
	// fingerprint the previous result does not already answer. One pass over
	// the fingerprints decides, per switch, between the previous artifact and
	// a new one, and is the delta.
	cgStart := time.Now()
	fps := plan.Fingerprints()
	topts := &backend.Options{P4Dialect: req.Dialect, Parallelism: req.Parallelism}
	arts := make(map[string]*backend.Artifact, len(fps))
	if prev != nil {
		topts.Only = map[string]bool{}
		delta.Unchanged = make([]string, 0, len(fps))
		survived := 0 // switches programmed before and now
		for sw, fp := range fps {
			was, programmed := prev.Fingerprints[sw]
			if programmed {
				survived++
			}
			if art := prev.Artifacts[sw]; art != nil && programmed && was == fp {
				arts[sw] = art
				delta.Unchanged = append(delta.Unchanged, sw)
			} else {
				topts.Only[sw] = true
				delta.Reprogram = append(delta.Reprogram, sw)
			}
		}
		if survived != len(prev.Fingerprints) {
			for sw := range prev.Fingerprints {
				if _, ok := fps[sw]; !ok {
					delta.Removed = append(delta.Removed, sw)
				}
			}
		}
		sort.Strings(delta.Reprogram)
		sort.Strings(delta.Unchanged)
		sort.Strings(delta.Removed)
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
		IR:             irp,
		Plan:           plan,
		Artifacts:      arts,
		Fingerprints:   fps,
		Diagnostics:    plan.Diagnostics,
		Cache:          opts.Cache,
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
			res.Reports = verify.PlanParallel(plan, arts, req.Parallelism)
		} else {
			res.Reports = mergeReports(prev.Reports, delta.Unchanged, verify.PlanParallel(plan, fresh, req.Parallelism))
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
