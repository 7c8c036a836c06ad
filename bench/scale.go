package main

import (
	"context"
	_ "embed"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"lyra"
	"lyra/internal/asic"
	"lyra/internal/topo"
)

// compile-scale and recompile-churn: one tiny program on a large symmetric
// fabric. The parser and the solver do almost nothing here (one symmetry
// class is solved); path enumeration, canonicalisation and twin replay,
// fingerprints, per-switch translation, verification and the allocator do
// the work.

//go:embed testdata/lb_scale.lyra
var lbSource string

const (
	scaleScope = `loadbalancer: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]`
	// scaleK is pods and arity of the fabric: 32 pods of 16 ToR + 16 Agg
	// plus 16 cores = 1040 switches, 8192 flow paths, 32 isomorphic
	// placement components. Test-sized runs use smallK.
	scaleK = 32
	smallK = 8
	// warmCompiles is how many full compiles compile-scale's set-up runs.
	warmCompiles = 6
	// churnReferences is how many leading fault events have a
	// from-scratch reference compile of the mutated topology.
	churnReferences = 8
)

func (c config) fabricK() int {
	if c.small {
		return smallK
	}
	return scaleK
}

func scaleNet(k int) *topo.Network {
	return topo.MultiPodFatTree(k, k, func(string, int) *asic.Model { return asic.Tofino32Q })
}

// nonced returns the LB source with a trailing comment that makes its text
// unique to (seed, op): every op compiles from source, and no cache keyed
// by source text can turn one into a lookup.
func nonced(src string, seed int64, op int) string {
	return fmt.Sprintf("%s// nonce %d-%d\n", src, seed, op)
}

// counts sums the two code-size metrics over a result's artifacts.
func counts(res *lyra.Result) (loc, tables int) {
	for _, a := range res.Artifacts {
		loc += a.LoC
		tables += a.Tables
	}
	return loc, tables
}

func allVerified(res *lyra.Result) error {
	if len(res.Reports) != len(res.Artifacts) {
		return fmt.Errorf("%d verification reports for %d artifacts", len(res.Reports), len(res.Artifacts))
	}
	for _, r := range res.Reports {
		if !r.OK {
			return fmt.Errorf("verification failed on %s: %v", r.Switch, r.Problems)
		}
	}
	return nil
}

type compileScale struct {
	cfg      config
	net      *topo.Network
	compiler *lyra.Compiler
	ref      *lyra.Result // the deployment every op must reproduce
	last     *lyra.Result
}

func setupCompileScale(cfg config, m map[string]float64) (instance, error) {
	w := &compileScale{cfg: cfg, compiler: lyra.New(lyra.WithLazyPaths(0))}
	start := time.Now()
	w.net = scaleNet(cfg.fabricK())
	m["topo.build_ms"] = ms(time.Since(start))
	// The reference compile doubles as warm-up; the rest grow the heap to
	// its steady-state size before the window opens.
	for i := -warmCompiles; i < 0; i++ {
		res, err := w.compiler.Compile(context.Background(), nonced(lbSource, cfg.seed, i), scaleScope, w.net)
		if err != nil {
			return nil, err
		}
		if err := allVerified(res); err != nil {
			return nil, err
		}
		if w.ref == nil {
			w.ref = res
		} else if err := sameDeployment(w.ref.Artifacts, res.Artifacts, w.ref.Fingerprints, res.Fingerprints); err != nil {
			return nil, fmt.Errorf("two compiles of one input disagree: %w", err)
		}
	}
	if cfg.corrupt {
		for _, a := range w.ref.Artifacts {
			a.Code += "// corrupt\n"
			break
		}
	}
	return w, nil
}

func (w *compileScale) compile(i int, tr *tracer) (opOut, error) {
	src := nonced(lbSource, w.cfg.seed, i)
	id := tr.begin("core.compile", i)
	start := time.Now()
	res, err := w.compiler.Compile(context.Background(), src, scaleScope, w.net)
	dur := time.Since(start)
	tr.end(id)
	if err != nil {
		return opOut{}, err
	}
	w.last = res
	if err := allVerified(res); err != nil {
		return opOut{}, err
	}
	if err := sameDeployment(w.ref.Artifacts, res.Artifacts, w.ref.Fingerprints, res.Fingerprints); err != nil {
		return opOut{}, err
	}
	out := opOut{dur: dur, units: len(res.Artifacts)}
	out.loc, out.tables = counts(res)
	return out, nil
}

func (w *compileScale) op(i int) (opOut, error) { return w.compile(i, nil) }

// collect runs a garbage collection before each side of a traced op. The
// opaque call and its staged replay allocate alike, so without this the
// collector falls into step with the loop and lands on the same side every
// time, and the ledger gap measures that instead of a missing stage. Both
// sides then time the mutator alone; go.gc_cpu_frac carries the rest.
func collect() { runtime.GC() }

func (w *compileScale) traced(i int, tr *tracer, m map[string]float64) (opOut, error) {
	collect()
	out, err := w.compile(i, tr)
	if err != nil {
		return out, err
	}
	collect()
	st, err := staged(tr, i, stagedIn{
		source: nonced(lbSource, w.cfg.seed, i), sourceName: "input.lyra",
		scopeSpec: scaleScope, net: w.net, lazyPaths: true,
	})
	if err != nil {
		return out, fmt.Errorf("staged pipeline: %w", err)
	}
	if err := st.reproduces(w.last); err != nil {
		return out, err
	}
	planCounters(m, st)
	tr.note("synth.synthesize", i, frontEndProbe(m, st.irp))
	return out, nil
}

func (w *compileScale) probes(m map[string]float64) error {
	// What holding one Result costs: live heap with it, minus without.
	runtime.GC()
	var with, without runtime.MemStats
	runtime.ReadMemStats(&with)
	w.last = nil
	runtime.GC()
	runtime.ReadMemStats(&without)
	m["core.result_live_mb"] = (float64(with.HeapAlloc) - float64(without.HeapAlloc)) / 1e6

	// One k = 64 compile (4128 switches), min of 3: the size at which
	// ROADMAP records 1.2 GB of allocation. Ledger only.
	if w.cfg.small {
		return nil
	}
	net := scaleNet(64)
	for r := 0; r < 3; r++ {
		var b, a runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&b)
		start := time.Now()
		res, err := w.compiler.Compile(context.Background(), nonced(lbSource, w.cfg.seed, -10-r), scaleScope, net)
		d := ms(time.Since(start))
		if err != nil {
			return fmt.Errorf("k=64 compile: %w", err)
		}
		runtime.ReadMemStats(&a)
		if err := allVerified(res); err != nil {
			return fmt.Errorf("k=64 compile: %w", err)
		}
		if r == 0 || d < m["scale64.compile_ms"] {
			m["scale64.compile_ms"] = d
			m["scale64.alloc_mb"] = float64(a.TotalAlloc-b.TotalAlloc) / 1e6
		}
	}
	return nil
}

func (w *compileScale) close() {}

// faultPair is a switch failure and a link failure in the same pod. The
// two kinds cost differently (a switch-down re-translates every other
// switch, a link-down none), so ops are made of whole pairs.
type faultPair struct{ tor, agg string }

// pairsPerOp: with 530 MB live the collector runs about every other pair
// and doubles that pair's time, so single pairs alternate between ~135 and
// ~275 ms and their median sits between two modes. Two pairs per op hold
// one collection each.
const pairsPerOp = 2

type recompileChurn struct {
	cfg      config
	net      *topo.Network
	compiler *lyra.Compiler
	base     *lyra.Result
	pairs    []faultPair // the seeded fault sequence; op i takes pairs 2i and 2i+1
	rng      *rand.Rand
	// refs[e] is the per-switch plan fingerprints of a from-scratch compile
	// of the topology after event e of the sequence, for the first
	// churnReferences events.
	refs []map[string]string
	// want is what every switch-down (0) and link-down (1) recompile must
	// emit: all ToRs are interchangeable, and so are all ToR-Agg links.
	want [2]struct{ loc, tables, switches int }
	last []*lyra.Result // the latest op's results, one per event

	stagedBase *stagedOut // traced run only
}

// events returns op i's fault events, extending the seeded sequence on
// demand (the window, not a count, decides how many ops run).
func (w *recompileChurn) events(i int) []lyra.FaultEvent {
	for len(w.pairs) < (i+1)*pairsPerOp {
		k := w.cfg.fabricK()
		pod, tor, agg := 1+w.rng.Intn(k), 1+w.rng.Intn(k/2), 1+w.rng.Intn(k/2)
		w.pairs = append(w.pairs, faultPair{
			tor: fmt.Sprintf("ToR%d_%d", pod, tor), agg: fmt.Sprintf("Agg%d_%d", pod, agg),
		})
	}
	var evs []lyra.FaultEvent
	for _, p := range w.pairs[i*pairsPerOp : (i+1)*pairsPerOp] {
		evs = append(evs, lyra.SwitchDown(p.tor), lyra.LinkDown(p.tor, p.agg))
	}
	return evs
}

func setupRecompileChurn(cfg config, m map[string]float64) (instance, error) {
	ctx := context.Background()
	w := &recompileChurn{
		cfg: cfg, compiler: lyra.New(lyra.WithLazyPaths(0)),
		rng: rand.New(rand.NewSource(cfg.seed)),
	}
	start := time.Now()
	w.net = scaleNet(cfg.fabricK())
	m["topo.build_ms"] = ms(time.Since(start))
	src := nonced(lbSource, cfg.seed, -1)
	var err error
	if w.base, err = w.compiler.Compile(ctx, src, scaleScope, w.net); err != nil {
		return nil, err
	}
	if err := allVerified(w.base); err != nil {
		return nil, err
	}
	// References never come from Recompile: each is a full compile of a
	// separately mutated clone of the fabric.
	for i := 0; len(w.refs) < churnReferences; i++ {
		for k, ev := range w.events(i) {
			mutated := w.net.Clone()
			if err := (lyra.Scenario{Events: []lyra.FaultEvent{ev}}).Apply(mutated); err != nil {
				return nil, err
			}
			res, err := w.compiler.Compile(ctx, src, scaleScope, mutated)
			if err != nil {
				return nil, fmt.Errorf("reference compile after %s: %w", ev, err)
			}
			if err := allVerified(res); err != nil {
				return nil, err
			}
			w.refs = append(w.refs, res.Fingerprints)
			w.want[k%2].loc, w.want[k%2].tables = counts(res)
			w.want[k%2].switches = len(res.Artifacts)
		}
	}
	if cfg.corrupt {
		for sw := range w.refs[0] {
			w.refs[0][sw] = "corrupt"
		}
	}
	// Warm-up: one op's worth of recompiles outside the op sequence.
	warm := []lyra.FaultEvent{lyra.SwitchDown("ToR1_1"), lyra.LinkDown("ToR1_1", "Agg1_1")}
	if _, err := w.recompile(-1, append(warm, warm...), nil, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if cfg.trace {
		if w.stagedBase, err = staged(nil, -1, stagedIn{
			source: src, sourceName: "input.lyra", scopeSpec: scaleScope, net: w.net, lazyPaths: true,
		}); err != nil {
			return nil, fmt.Errorf("staged base compile: %w", err)
		}
	}
	return w, nil
}

// recompile runs op i's events through Compiler.Recompile, each from the
// pristine base, and checks every result. Op -1 is the warm-up, which has
// no reference.
func (w *recompileChurn) recompile(i int, evs []lyra.FaultEvent, tr *tracer, m map[string]float64) (opOut, error) {
	var out opOut
	w.last = w.last[:0]
	for k, ev := range evs {
		id := tr.begin("core.recompile", i)
		start := time.Now()
		res, delta, err := w.compiler.Recompile(context.Background(), w.base, lyra.Scenario{Events: []lyra.FaultEvent{ev}})
		out.dur += time.Since(start)
		tr.end(id)
		if err != nil {
			return out, err
		}
		w.last = append(w.last, res)
		if err := allVerified(res); err != nil {
			return out, err
		}
		loc, tables := counts(res)
		if want := w.want[k%2]; i >= 0 && (loc != want.loc || tables != want.tables || len(res.Artifacts) != want.switches) {
			return out, fmt.Errorf("after %s: %d lines, %d tables on %d switches; every such fault gives %d, %d on %d",
				ev, loc, tables, len(res.Artifacts), want.loc, want.tables, want.switches)
		}
		if e := i*len(evs) + k; i >= 0 && e < len(w.refs) {
			if err := sameFingerprints(w.refs[e], res.Fingerprints); err != nil {
				return out, fmt.Errorf("after %s, incremental plan differs from a from-scratch compile: %w", ev, err)
			}
		}
		out.units++
		out.loc += loc
		out.tables += tables
		if m != nil {
			m["core.delta_reprogrammed"] += float64(len(delta.Reprogram))
			m["core.reuse_ratio"] += float64(len(delta.Unchanged)) / float64(len(res.Artifacts)) / float64(len(evs))
		}
	}
	return out, nil
}

func (w *recompileChurn) op(i int) (opOut, error) { return w.recompile(i, w.events(i), nil, nil) }

func (w *recompileChurn) traced(i int, tr *tracer, m map[string]float64) (opOut, error) {
	collect()
	out, err := w.recompile(i, w.events(i), tr, m)
	if err != nil {
		return out, err
	}
	collect()
	for k, ev := range w.events(i) {
		id := tr.begin("topo.clone", i)
		degraded := w.net.Clone()
		tr.end(id)
		id = tr.begin("faults.apply", i)
		err := (lyra.Scenario{Events: []lyra.FaultEvent{ev}}).Apply(degraded)
		tr.end(id)
		if err != nil {
			return out, err
		}
		st, err := staged(tr, i, stagedIn{
			sourceName: "input.lyra", scopeSpec: scaleScope, net: degraded,
			lazyPaths: true, prev: w.stagedBase,
		})
		if err != nil {
			return out, fmt.Errorf("staged recompile after %s: %w", ev, err)
		}
		if err := st.reproduces(w.last[k]); err != nil {
			return out, fmt.Errorf("after %s: %w", ev, err)
		}
		planCounters(m, st)
	}
	return out, nil
}

func (w *recompileChurn) probes(m map[string]float64) error {
	n := float64(len(w.last))
	runtime.GC()
	var with, without runtime.MemStats
	runtime.ReadMemStats(&with)
	w.last = nil
	runtime.GC()
	runtime.ReadMemStats(&without)
	m["core.result_live_mb"] = (float64(with.HeapAlloc) - float64(without.HeapAlloc)) / 1e6 / n
	return nil
}

func (w *recompileChurn) close() {}
