package main

import (
	"context"
	"fmt"
	"time"

	"lyra"
	"lyra/internal/backend"
	"lyra/internal/encode"
	"lyra/internal/frontend"
	"lyra/internal/ir"
	"lyra/internal/lang/checker"
	"lyra/internal/lang/parser"
	"lyra/internal/scope"
	"lyra/internal/synth"
	"lyra/internal/topo"
	"lyra/internal/verify"
)

// The staged pipeline: where a timed op is one opaque call (Compile,
// Recompile, an HTTP request), the traced run replays the same inputs
// through each layer's public function in internal/core's order, with a
// span around every call. It asserts that it reproduced the opaque call's
// artifacts, so the ledger it yields is a ledger of that call.

// stagedIn is what one compile (or recompile, when prev is set) consumes.
type stagedIn struct {
	source, sourceName, scopeSpec string
	net                           *topo.Network
	dialect                       lyra.Dialect
	lazyPaths                     bool
	parallelism                   int
	// prev makes this a recompile: the front end is skipped, scopes
	// resolve leniently, the solver cache carries over and only switches
	// whose plan fingerprint changed are re-translated.
	prev *stagedOut
}

// stagedOut is everything a later stage, a recompile or a check needs.
type stagedOut struct {
	irp     *ir.Program
	plan    *encode.Plan
	arts    map[string]*backend.Artifact
	fps     map[string]string
	reports []verify.Report
	cache   *encode.Cache
	reused  int // switches whose previous artifact was kept
}

// opaqueSpans time the one call a timed op makes (serve.compile is the
// daemon's own report of it); each workload records exactly one of them.
var opaqueSpans = []string{"core.compile", "core.recompile", "serve.compile"}

// stageNames are the top-level spans of one staged compile; their sum is
// compared with the opaque call to give core.ledger_gap_ms.
var stageNames = []string{
	"lang.parse", "lang.check", "frontend.preprocess", "frontend.analyze",
	"topo.clone", "faults.apply", "scope.resolve",
	"encode.solve_call", "encode.fingerprint", "backend.translate", "verify.plan",
}

func staged(tr *tracer, op int, in stagedIn) (*stagedOut, error) {
	out := &stagedOut{}
	if in.prev == nil {
		id := tr.begin("lang.parse", op)
		prog, err := parser.Parse(in.sourceName, []byte(in.source))
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("parse: %w", err)
		}
		id = tr.begin("lang.check", op)
		err = checker.Check(prog)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("check: %w", err)
		}
		id = tr.begin("frontend.preprocess", op)
		out.irp, err = frontend.Preprocess(prog)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("preprocess: %w", err)
		}
		id = tr.begin("frontend.analyze", op)
		frontend.Analyze(out.irp)
		tr.end(id)
		out.cache = encode.NewCache()
	} else {
		out.irp, out.cache = in.prev.irp, in.prev.cache
	}

	id := tr.begin("scope.resolve", op)
	spec, err := scope.Parse(in.scopeSpec)
	var scopes map[string]*scope.Resolved
	if err == nil {
		scopes, err = spec.ResolveWith(in.net, scope.ResolveOpts{
			AllowMissing: in.prev != nil, LazyPaths: in.lazyPaths,
		})
	}
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("scope: %w", err)
	}

	opts := encode.DefaultOptions()
	opts.Ctx = context.Background()
	opts.Parallelism = in.parallelism
	opts.Cache = out.cache
	id = tr.begin("encode.solve_call", op)
	out.plan, err = encode.Solve(&encode.Input{IR: out.irp, Net: in.net, Scopes: scopes}, opts)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("solve: %w", err)
	}
	tr.split(id, "encode.encode", out.plan.EncodeTime, "smt.solve")

	id = tr.begin("encode.fingerprint", op)
	out.fps = out.plan.Fingerprints()
	tr.end(id)

	topts := &backend.Options{P4Dialect: in.dialect, Parallelism: in.parallelism}
	kept := map[string]*backend.Artifact{}
	if in.prev != nil {
		topts.Only = map[string]bool{}
		for sw, fp := range out.fps {
			if in.prev.fps[sw] == fp && in.prev.arts[sw] != nil {
				kept[sw] = in.prev.arts[sw]
			} else {
				topts.Only[sw] = true
			}
		}
	}
	id = tr.begin("backend.translate", op)
	out.arts, err = backend.Translate(out.plan, topts)
	if err == nil {
		for sw, a := range kept {
			out.arts[sw] = a
		}
	}
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("translate: %w", err)
	}
	out.reused = len(kept)

	id = tr.begin("verify.plan", op)
	out.reports = verify.PlanParallel(out.plan, out.arts, in.parallelism)
	tr.end(id)
	for _, r := range out.reports {
		if !r.OK {
			return nil, fmt.Errorf("verification failed on %s: %v", r.Switch, r.Problems)
		}
	}
	return out, nil
}

// sameDeployment reports whether two compiles are byte-identical
// deployments: the same switches, plan fingerprints, code and control-plane
// stubs. It is what comparing Result.ArtifactFingerprint values decides,
// without hashing (and copying) 50 MB of text inside the timed window.
func sameDeployment(wantArts, gotArts map[string]*backend.Artifact, wantFPs, gotFPs map[string]string) error {
	if len(wantArts) != len(gotArts) {
		return fmt.Errorf("%d programmed switches, reference %d", len(gotArts), len(wantArts))
	}
	for sw, a := range wantArts {
		b := gotArts[sw]
		if b == nil {
			return fmt.Errorf("no artifact for %s", sw)
		}
		if a.Code != b.Code || a.ControlPlane != b.ControlPlane {
			return fmt.Errorf("code for %s differs from the reference", sw)
		}
	}
	return sameFingerprints(wantFPs, gotFPs)
}

func sameFingerprints(want, got map[string]string) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d fingerprinted switches, reference %d", len(got), len(want))
	}
	for sw, fp := range want {
		if got[sw] != fp {
			return fmt.Errorf("switch %s: plan fingerprint %q, reference %q", sw, got[sw], fp)
		}
	}
	return nil
}

// reproduces reports whether the staged pipeline emitted what the opaque
// call returned.
func (st *stagedOut) reproduces(res *lyra.Result) error {
	if err := sameDeployment(res.Artifacts, st.arts, res.Fingerprints, st.fps); err != nil {
		return fmt.Errorf("staged pipeline: %w", err)
	}
	return nil
}

// planCounters adds one plan's work counts to m. They are the counts an
// optimisation inside encode, smt, backend or verify would move.
func planCounters(m map[string]float64, st *stagedOut) {
	p := st.plan
	m["smt.solve_calls"] += float64(p.Stats.SolveCalls)
	m["smt.decisions"] += float64(p.Stats.Decisions)
	m["smt.propagations"] += float64(p.Stats.Propagations)
	m["smt.conflicts"] += float64(p.Stats.Conflicts)
	m["smt.clauses_reused"] += float64(p.Stats.ClausesReused)
	if p.Diagnostics != nil {
		m["encode.ladder_attempts"] += float64(len(p.Diagnostics.Attempts))
	}
	m["topo.paths_enumerated"] += float64(p.PathsEnumerated)
	if v := float64(p.PeakPathsHeld); v > m["topo.peak_paths_held"] {
		m["topo.peak_paths_held"] = v
	}
	m["encode.instances"] += float64(p.Instances)
	m["encode.classes"] += float64(p.Classes)
	m["encode.replayed"] += float64(p.Replayed)
	m["encode.vars"] += float64(p.EncodedVars)
	m["encode.clauses"] += float64(p.EncodedClauses)
	m["encode.cache_hits"] += float64(p.Stats.CacheHits)
	m["encode.cache_evictions"] += float64(p.Stats.CacheEvictions)
	m["backend.switches_reused"] += float64(st.reused)
	m["backend.switches_translated"] += float64(len(st.arts) - st.reused)
	for _, a := range st.arts {
		m["backend.loc"] += float64(a.LoC)
	}
	m["verify.reports"] += float64(len(st.reports))
	for _, r := range st.reports {
		if !r.OK {
			m["verify.failed"]++
		}
	}
	for _, sc := range p.Input.Scopes {
		if n, err := sc.PathCount(); err == nil {
			m["scope.paths"] += float64(n)
		}
	}
}

// frontEndProbe measures the two front-end products the staged pipeline
// consumes without a call of their own: IR size, and table synthesis
// (encode.Solve synthesises inside its own call, so this is a second,
// separately timed synthesis of the same IR).
func frontEndProbe(m map[string]float64, irp *ir.Program) time.Duration {
	start := time.Now()
	for _, a := range irp.Algorithms {
		m["ir.instrs"] += float64(len(a.Instrs))
		m["synth.tables"] += float64(len(synth.SynthesizeP4(irp, a).Tables))
	}
	return time.Since(start)
}
