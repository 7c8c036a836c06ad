package eval

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"lyra/internal/asic"
	"lyra/internal/core"
	"lyra/internal/faults"
	"lyra/internal/topo"
)

// The scale experiment (E17): compile the stateful load balancer over a
// k-pod slice of a k-ary fat tree — k*k pod switches plus a core layer —
// and measure the three datacenter-scale mechanisms together:
//
//   - lazy path enumeration (scopes never materialize their flow paths;
//     the encoder streams them, and the plan reports the peak number of
//     unique candidate-hop sequences it ever held),
//   - symmetry-aware component dedup (the k pods are isomorphic, so one
//     pod is solved and k-1 placements are replayed through the switch
//     bijection; the same compile runs with dedup disabled as the
//     baseline, and the two plans must be fingerprint-identical),
//   - the churn loop (a seeded storm of switch/link failures, each
//     recompiled incrementally through the solver cache).

// ScaleParams pins the knobs one scale run used.
type ScaleParams struct {
	Ks          []int `json:"ks"`
	ChurnEvents int   `json:"churn_events"`
	Seed        int64 `json:"seed"`
	ConnSize    int   `json:"conn_size"`
	VipSize     int   `json:"vip_size"`
	Portfolio   int   `json:"portfolio,omitempty"`
	// Repeats is how many times each timed compile runs; the point records
	// the fastest. Compilation is deterministic — every repeat produces the
	// byte-identical plan — so min-of-N measures the algorithm, not
	// whichever repetition a GC cycle or a noisy neighbor landed on.
	Repeats int `json:"repeats"`
}

// WithDefaults fills unset knobs with the experiment's standard shape.
func (p ScaleParams) WithDefaults() ScaleParams {
	if len(p.Ks) == 0 {
		p.Ks = []int{8, 16}
	}
	if p.ChurnEvents <= 0 {
		p.ChurnEvents = 20
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.ConnSize <= 0 {
		// Same calibration as the ladder experiment: big enough that the
		// conn table must shard across each Agg->ToR path, so every
		// component solve does real theory work and the per-pod solve cost
		// (the thing dedup removes) dominates the pipeline.
		p.ConnSize = 5_500_000
	}
	if p.VipSize <= 0 {
		p.VipSize = 1_000_000
	}
	if p.Repeats <= 0 {
		p.Repeats = 3
	}
	return p
}

// ScalePoint is one k of the sweep.
type ScalePoint struct {
	K        int `json:"k"`
	Pods     int `json:"pods"`
	Switches int `json:"switches"`

	// Paths enumeration: total flow paths streamed across all components
	// versus the peak number of unique candidate-hop sequences any single
	// component encoder held — the bound that replaces materialize-all.
	PathsEnumerated int64 `json:"paths_enumerated"`
	PeakPathsHeld   int64 `json:"peak_paths_held"`

	// Symmetry accounting for the dedup compile: Components is the number
	// of independent placement problems, Classes how many were actually
	// solved, Replayed how many were renamed from an isomorphic twin.
	Components   int     `json:"components"`
	Classes      int     `json:"classes"`
	Replayed     int     `json:"replayed"`
	DedupHitRate float64 `json:"dedup_hit_rate"`

	// Compile latency with and without dedup, same process, same inputs;
	// the plans are asserted fingerprint-identical before either number is
	// recorded.
	CompileMS        float64 `json:"compile_ms"`
	NoDedupCompileMS float64 `json:"no_dedup_compile_ms"`
	Speedup          float64 `json:"speedup"`

	// Encoded problem size (solver variables/clauses summed over solved
	// components) and allocation volume of the dedup compile.
	EncodedVars    int64   `json:"encoded_vars"`
	EncodedClauses int64   `json:"encoded_clauses"`
	AllocMB        float64 `json:"alloc_mb"`
	HeapMB         float64 `json:"heap_mb"`

	// Churn loop: seeded switch/link failures, each recompiled against a
	// fresh degraded clone of the pristine network.
	ChurnEvents   int     `json:"churn_events"`
	RecompileP50  float64 `json:"recompile_p50_ms"`
	RecompileMax  float64 `json:"recompile_max_ms"`
	CacheHits     int64   `json:"cache_hits"`
	CacheEvicted  int64   `json:"cache_evictions"`
	SolverSolves  int64   `json:"solver_solves"`
	SolverEncodes int64   `json:"solver_encodes"`

	// Reprogrammed is the number of switches each churn event's delta
	// reprograms, in event order (even events are switch-downs, odd ones
	// link-downs); MaxSwitchDownReprogrammed is its maximum over the
	// switch-downs. A dead ToR may touch its own pod, not the fabric.
	Reprogrammed              []int `json:"reprogrammed"`
	MaxSwitchDownReprogrammed int   `json:"max_switch_down_reprogrammed"`
	// MaxSwitchDownEncodes is the most components any one switch-down
	// encoded: the damaged pod's, or none when its class is in the memo.
	MaxSwitchDownEncodes int64 `json:"max_switch_down_encodes"`
}

// ScaleRun is one provenance-stamped sweep, appended to the
// {"scale": [...]} key of BENCH_compile.json.
type ScaleRun struct {
	GitSHA    string       `json:"git_sha"`
	Timestamp string       `json:"timestamp"`
	Params    ScaleParams  `json:"params"`
	Points    []ScalePoint `json:"points"`
}

// Stamp fills the run's provenance fields in place.
func (r *ScaleRun) Stamp() {
	r.GitSHA = GitSHA()
	r.Timestamp = time.Now().UTC().Format(time.RFC3339)
}

// scaleNet builds the k-pod fat-tree slice with a uniform Tofino model —
// the maximally symmetric shape, where every pod is a rename of pod 1.
func scaleNet(k int) *topo.Network {
	return topo.MultiPodFatTree(k, k, func(layer string, idx int) *asic.Model {
		return asic.Tofino32Q
	})
}

const scaleScope = `loadbalancer: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]`

// RunScale executes the sweep. Every k compiles twice — dedup on and off —
// and errors out if the two plans are not fingerprint-identical, so a
// recorded speedup can never come from a divergent plan.
func RunScale(params ScaleParams) ([]ScalePoint, error) {
	params = params.WithDefaults()
	ctx := context.Background()
	src := lbSource(params.ConnSize, params.VipSize)
	var points []ScalePoint
	for _, k := range params.Ks {
		if k < 2 || k%2 != 0 {
			return nil, fmt.Errorf("scale: k must be even and >= 2, got %d", k)
		}
		net := scaleNet(k)
		req := core.Request{
			Source: src, SourceName: "scale.lyra", ScopeSpec: scaleScope,
			Network: net, SkipVerify: true, LazyPaths: true,
			Portfolio: params.Portfolio,
		}

		// Baseline: dedup off. Same process, same inputs, timed first so
		// any warm-up (code paging, allocator growth) favors the baseline.
		// Each timed compile starts from a collected heap: without the
		// explicit GC, garbage from the previous point's churn loop (or
		// from the baseline compile itself) is paid for inside whichever
		// compile happens to trip the next collection, skewing the ratio
		// either way by tens of percent at large k.
		baseReq := req
		baseReq.NoSymmetryDedup = true
		var baseFPs map[string]string
		noDedupMS := 0.0
		for r := 0; r < params.Repeats; r++ {
			runtime.GC()
			start := time.Now()
			baseRes, err := core.CompileContext(ctx, baseReq)
			if err != nil {
				return nil, fmt.Errorf("scale k=%d no-dedup compile: %w", k, err)
			}
			if ms := float64(time.Since(start).Microseconds()) / 1000; r == 0 || ms < noDedupMS {
				noDedupMS = ms
			}
			// Only the fingerprints survive to the equivalence check;
			// dropping the rest of the baseline result (thousands of
			// rendered artifacts at k=64) between repeats and before the
			// timed dedup compile keeps their heaps honest.
			baseFPs = baseRes.Fingerprints
		}

		var res *core.Result
		var before, after runtime.MemStats
		dedupMS := 0.0
		for r := 0; r < params.Repeats; r++ {
			res = nil
			runtime.GC()
			var b runtime.MemStats
			runtime.ReadMemStats(&b)
			start := time.Now()
			rres, err := core.CompileContext(ctx, req)
			if err != nil {
				return nil, fmt.Errorf("scale k=%d compile: %w", k, err)
			}
			ms := float64(time.Since(start).Microseconds()) / 1000
			var a runtime.MemStats
			runtime.ReadMemStats(&a)
			res = rres
			if r == 0 || ms < dedupMS {
				dedupMS, before, after = ms, b, a
			}
		}

		if err := sameFingerprints(baseFPs, res.Fingerprints); err != nil {
			return nil, fmt.Errorf("scale k=%d: dedup plan diverged from baseline: %w", k, err)
		}

		plan := res.Plan
		comps := plan.Classes + plan.Replayed
		pt := ScalePoint{
			K: k, Pods: k, Switches: len(net.Switches),
			PathsEnumerated:  plan.PathsEnumerated,
			PeakPathsHeld:    plan.PeakPathsHeld,
			Components:       comps,
			Classes:          plan.Classes,
			Replayed:         plan.Replayed,
			CompileMS:        dedupMS,
			NoDedupCompileMS: noDedupMS,
			EncodedVars:      plan.EncodedVars,
			EncodedClauses:   plan.EncodedClauses,
			AllocMB:          float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
			HeapMB:           float64(after.HeapAlloc) / 1e6,
			ChurnEvents:      params.ChurnEvents,
		}
		if comps > 0 {
			pt.DedupHitRate = float64(plan.Replayed) / float64(comps)
		}
		if dedupMS > 0 {
			pt.Speedup = noDedupMS / dedupMS
		}

		// Churn loop: each event degrades a fresh clone of the pristine
		// network and recompiles from the original result, the §6.3
		// failure-recovery pattern. The previous plan and the class memo
		// thread through, so components outside the blast radius are taken
		// over as they are and only a damaged pod of a new shape is solved.
		rng := rand.New(rand.NewSource(params.Seed + int64(k)))
		half := k / 2
		var lat []float64
		for ev := 0; ev < params.ChurnEvents; ev++ {
			pod := 1 + rng.Intn(k)
			tor := 1 + rng.Intn(half)
			var event faults.Event
			if ev%2 == 0 {
				event = faults.SwitchDown(fmt.Sprintf("ToR%d_%d", pod, tor))
			} else {
				agg := 1 + rng.Intn(half)
				event = faults.LinkDown(
					fmt.Sprintf("ToR%d_%d", pod, tor),
					fmt.Sprintf("Agg%d_%d", pod, agg))
			}
			degraded := net.Clone()
			scen := faults.Scenario{Events: []faults.Event{event}}
			if err := scen.Apply(degraded); err != nil {
				return nil, fmt.Errorf("scale k=%d churn %d: %w", k, ev, err)
			}
			evStart := time.Now()
			inc, delta, err := core.Recompile(ctx, res, req, degraded)
			if err != nil {
				return nil, fmt.Errorf("scale k=%d churn %d (%s): %w", k, ev, event, err)
			}
			lat = append(lat, float64(time.Since(evStart).Microseconds())/1000)
			pt.Reprogrammed = append(pt.Reprogrammed, len(delta.Reprogram))
			if event.Kind == faults.KindSwitchDown {
				pt.MaxSwitchDownReprogrammed = max(pt.MaxSwitchDownReprogrammed, len(delta.Reprogram))
				pt.MaxSwitchDownEncodes = max(pt.MaxSwitchDownEncodes, inc.SolverStats.Encodes)
			}
		}
		if len(lat) > 0 {
			sort.Float64s(lat)
			pt.RecompileP50 = lat[len(lat)/2]
			pt.RecompileMax = lat[len(lat)-1]
		}
		if c := res.Cache; c != nil {
			pt.CacheHits = c.Hits()
			pt.CacheEvicted = c.Evictions()
		}
		pt.SolverSolves = res.SolverStats.SolveCalls
		pt.SolverEncodes = res.SolverStats.Encodes
		points = append(points, pt)
	}
	return points, nil
}

// sameFingerprints compares two per-switch fingerprint maps and names the
// first divergence.
func sameFingerprints(a, b map[string]string) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d programmed switches", len(a), len(b))
	}
	keys := make([]string, 0, len(a))
	for sw := range a {
		keys = append(keys, sw)
	}
	sort.Strings(keys)
	for _, sw := range keys {
		fb, ok := b[sw]
		if !ok {
			return fmt.Errorf("switch %s missing from second plan", sw)
		}
		if a[sw] != fb {
			return fmt.Errorf("switch %s: %s vs %s", sw, a[sw], fb)
		}
	}
	return nil
}

// CheckScale enforces the scaling contract on a sweep: symmetry dedup must
// be active (every multi-pod point replays at least one twin), lazy
// enumeration must bound the working set (the peak held is strictly below
// the total streamed), and the dedup compile must beat the no-dedup
// baseline by at least minSpeedup at every k >= 16 (smaller k is too quick
// for the ratio to be meaningful against timer noise). At k >= 16 a single
// switch-down must also stay local: it may reprogram at most the k switches
// of one pod and encode at most that pod's component. Returns the violations
// (empty = contract held).
func CheckScale(points []ScalePoint, minSpeedup float64) []string {
	var violations []string
	for _, pt := range points {
		if pt.Pods > 1 {
			if pt.Replayed == 0 {
				violations = append(violations,
					fmt.Sprintf("k=%d: symmetry dedup replayed nothing across %d components", pt.K, pt.Components))
			}
			if pt.PeakPathsHeld >= pt.PathsEnumerated {
				violations = append(violations,
					fmt.Sprintf("k=%d: peak paths held (%d) not below total enumerated (%d)", pt.K, pt.PeakPathsHeld, pt.PathsEnumerated))
			}
		}
		if pt.K >= 16 && pt.MaxSwitchDownReprogrammed > pt.K {
			violations = append(violations,
				fmt.Sprintf("k=%d: a single switch-down reprogrammed %d switches, more than the %d of one pod",
					pt.K, pt.MaxSwitchDownReprogrammed, pt.K))
		}
		if pt.K >= 16 && pt.MaxSwitchDownEncodes > 1 {
			violations = append(violations,
				fmt.Sprintf("k=%d: a single switch-down encoded %d components, more than the one it damaged", pt.K, pt.MaxSwitchDownEncodes))
		}
		if pt.K >= 16 && minSpeedup > 0 && pt.Speedup < minSpeedup {
			violations = append(violations,
				fmt.Sprintf("k=%d: dedup speedup %.2fx below the %.1fx floor (%.1fms vs %.1fms)",
					pt.K, pt.Speedup, minSpeedup, pt.CompileMS, pt.NoDedupCompileMS))
		}
	}
	return violations
}

// FormatScale renders the sweep for the CLI: one summary line per k.
func FormatScale(points []ScalePoint) string {
	var b strings.Builder
	b.WriteString("   k  switches  compile(ms)  no-dedup(ms)  speedup  classes  peak-paths    recompile p50/max  switch-down reprograms\n")
	for _, pt := range points {
		fmt.Fprintf(&b, "  %2d  %8d  %11.1f  %12.1f  %6.2fx  %3d/%-3d  %5d/%-6d  %8.1f/%.1fms  <= %d\n",
			pt.K, pt.Switches, pt.CompileMS, pt.NoDedupCompileMS, pt.Speedup,
			pt.Classes, pt.Components, pt.PeakPathsHeld, pt.PathsEnumerated,
			pt.RecompileP50, pt.RecompileMax, pt.MaxSwitchDownReprogrammed)
	}
	return b.String()
}

// AppendScaleRun appends a run to the {"scale": [...]} key of the compile
// artifact at path, creating the file if absent and preserving every other
// key verbatim — the scale entry is a log, not a snapshot.
func AppendScaleRun(path string, run ScaleRun) error {
	doc := map[string]json.RawMessage{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("eval: %s exists but is not a JSON object: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	var runs []json.RawMessage
	if cur, ok := doc["scale"]; ok {
		if err := json.Unmarshal(cur, &runs); err != nil {
			return fmt.Errorf("eval: %s has a malformed scale key: %w", path, err)
		}
	}
	entry, err := json.Marshal(run)
	if err != nil {
		return err
	}
	runs = append(runs, entry)
	merged, err := json.Marshal(runs)
	if err != nil {
		return err
	}
	doc["scale"] = merged
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
