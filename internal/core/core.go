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
		prog, err := parser.ParseString(name, req.Source)
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
	// compile's language: one ordered walk (keepFrom) decides which keep their
	// artifact and which left, and the rest are translated. That is the delta.
	cgStart := time.Now()
	fps := plan.Fingerprints()
	var memo *backend.Shapes // a compile fills nothing
	if prev != nil {
		memo = cmp.Or(prev.Shapes, new(backend.Shapes))
	}
	topts := &backend.Options{P4Dialect: req.Dialect, Parallelism: req.Parallelism, Shapes: memo}
	var k *keeping
	if prev != nil {
		k = keepFrom(prev, plan, req, delta)
		topts.Only = k.only
	}
	fresh, err := backend.Translate(plan, topts)
	if err != nil {
		return nil, fmt.Errorf("translate: %w", err)
	}
	arts := fresh
	if k != nil && len(delta.Unchanged) > 0 {
		arts = k.arts
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
		if k == nil || k.reports == nil || len(delta.Unchanged) == 0 {
			// Nothing to carry, or a previous result that was not itself
			// fully verified and so carries nothing forward.
			res.Reports = verify.PlanShared(plan, arts, req.Parallelism, memo)
		} else {
			for n, r := range verify.PlanShared(plan, fresh, req.Parallelism, memo) {
				k.reports[k.fresh[n]] = r
			}
			res.Reports = k.reports
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

// keeping is what a recompile takes over from the result it follows: a copy
// of its artifacts without those of the switches that are translated anew or
// left, and the switches to translate. With one report per previous artifact,
// reports holds, in switch order, the previous report of every switch that
// keeps its artifact and an empty one, at the indices in fresh, for every
// switch to check anew.
type keeping struct {
	arts    map[string]*backend.Artifact
	only    map[string]bool
	reports []verify.Report
	fresh   []int
}

// keepFrom decides, in one walk in switch order over the previous result's
// switches and those the plan rehashed (Plan.Rehashed), which switch keeps its
// artifact and report, which is translated anew and which left, and fills
// delta's lists in that order. A switch the plan did not rehash has its
// previous fingerprint, so it keeps its artifact when that is in the language
// this compile emits for its chip (fingerprints do not cover the dialect);
// the rehashed ones have their fingerprints compared. When the plan cannot
// tell — it followed no plan, or a plan-wide fact moved — every switch is
// compared.
func keepFrom(prev *Result, plan *encode.Plan, req Request, delta *Delta) *keeping {
	fps := plan.Fingerprints()
	changed, carried := plan.Rehashed()
	if !carried {
		changed = sortedKeys(fps)
	}
	// The previous switches in order, with their artifacts' languages: its
	// reports when they are one per artifact, else its artifacts sorted.
	olds := prev.Reports
	k := &keeping{arts: make(map[string]*backend.Artifact, len(prev.Artifacts)), only: map[string]bool{}}
	if len(prev.Reports) != len(prev.Artifacts) {
		olds = make([]verify.Report, 0, len(prev.Artifacts))
		for _, sw := range sortedKeys(prev.Artifacts) {
			olds = append(olds, verify.Report{Switch: sw, Dialect: prev.Artifacts[sw].Dialect})
		}
	} else if !req.SkipVerify {
		k.reports = make([]verify.Report, 0, len(fps))
	}
	for sw, art := range prev.Artifacts { // not maps.Clone, which takes twice as long (go1.24)
		k.arts[sw] = art
	}
	// An artifact is in this compile's language if it is NPL, which every
	// dialect emits alike, or P4 in this compile's dialect.
	sameLang := func(lang string) bool { return lang == asic.LangNPL.String() || lang == req.Dialect.String() }
	delta.Unchanged = make([]string, 0, len(fps))
	for i, j := 0, 0; i < len(olds) || j < len(changed); {
		sw, was, rehashed := "", -1, false // was: the switch's index in olds
		switch {
		case j == len(changed) || i < len(olds) && olds[i].Switch < changed[j]:
			sw, was = olds[i].Switch, i
			i++
		case i == len(olds) || changed[j] < olds[i].Switch:
			sw, rehashed = changed[j], true
			j++
		default:
			sw, was, rehashed = changed[j], i, true
			i, j = i+1, j+1
		}
		hosts, keep := true, false
		if carried && !rehashed {
			keep = sameLang(olds[was].Dialect)
		} else {
			var fp string
			fp, hosts = fps[sw]
			keep = hosts && was >= 0 && prev.Fingerprints[sw] == fp && sameLang(olds[was].Dialect)
		}
		switch {
		case keep:
			delta.Unchanged = append(delta.Unchanged, sw)
			if k.reports != nil {
				k.reports = append(k.reports, olds[was])
			}
		case !hosts:
			if was >= 0 {
				delta.Removed = append(delta.Removed, sw)
				delete(k.arts, sw)
			}
		default:
			delta.Reprogram = append(delta.Reprogram, sw)
			k.only[sw] = true
			delete(k.arts, sw)
			if k.reports != nil {
				k.fresh = append(k.fresh, len(k.reports))
				k.reports = append(k.reports, verify.Report{})
			}
		}
	}
	return k
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
