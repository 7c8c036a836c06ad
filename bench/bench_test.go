package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// testCfg is a test-sized run: a few ops on small inputs, one set-up.
func testCfg(workload string, seed int64) config {
	return config{workload: workload, seed: seed, ops: 2, setups: 1, small: true}
}

func mustRun(t *testing.T, cfg config) *runResult {
	t.Helper()
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.firstErr != nil {
		t.Fatalf("%s: incorrect output: %v", cfg.workload, res.firstErr)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%s: %d of %d ops failed", cfg.workload, res.failed, res.attempted)
	}
	return res
}

// TestContractMatchesCode: BENCHMARK.json names exactly the workloads,
// metrics and units the code emits.
func TestContractMatchesCode(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range bf.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workloads: BENCHMARK.json has %v, the code %v", got, want)
	}
	got, want = nil, nil
	for _, m := range bf.EndToEnd {
		got = append(got, m.Name+" "+m.Unit)
	}
	for _, m := range endToEnd {
		want = append(want, m.name+" "+m.unit)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the code %v", got, want)
	}
	got, want = nil, nil
	for _, m := range bf.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	for _, m := range perLayer() {
		want = append(want, m.name+" "+m.unit)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer: BENCHMARK.json has %v, the code %v", got, want)
	}
}

// TestResultLine: the last line printed is one JSON object with exactly
// the four contract keys and one {value, unit} per metric.
func TestResultLine(t *testing.T) {
	res := mustRun(t, testCfg("compile-scale", 1))
	var out bytes.Buffer
	if code := finish(res, nil, &out, io.Discard); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("result line has keys %v", line)
	}
	var prov map[string]provenance
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &prov); err != nil || prov["provenance"].GoVersion == "" || prov["provenance"].Ops != 2 {
		t.Errorf("provenance line %q: %v", lines[len(lines)-2], err)
	}
}

// deterministic picks the values that must repeat exactly between two runs
// with one seed: everything counted, nothing timed.
func deterministic(res *runResult) map[string]float64 {
	out := map[string]float64{"digest": float64(res.digest), "ops": float64(res.ops), "attempted": float64(res.attempted)}
	for _, d := range res.defs {
		if d.unit != "count" || strings.HasPrefix(d.name, "go.") {
			continue
		}
		out[d.name] = res.metrics[d.name]
	}
	return out
}

func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := mustRun(t, testCfg(w.name, 1))
			if len(a.metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want the %d end-to-end ones", len(a.metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if v, ok := a.metrics[d.name]; !ok || v <= 0 {
					t.Errorf("%s = %v, want a positive value", d.name, v)
				}
			}
			b := mustRun(t, testCfg(w.name, 1))
			if da, db := deterministic(a), deterministic(b); !reflect.DeepEqual(da, db) {
				t.Errorf("same seed, different counts:\n%v\n%v", da, db)
			}
			// Another seed is other inputs doing the same amount of work.
			c := mustRun(t, testCfg(w.name, 2))
			for _, name := range []string{"artifact_loc", "plan_tables"} {
				if a.metrics[name] != c.metrics[name] {
					t.Errorf("%s: %v at seed 1, %v at seed 2", name, a.metrics[name], c.metrics[name])
				}
			}
			if w.name == "wire-stream" && a.digest == c.digest {
				t.Errorf("output digest %08x at both seeds", a.digest)
			}
		})
	}
}

// TestSeedChangesInputs: each workload's generator depends on the seed.
func TestSeedChangesInputs(t *testing.T) {
	if nonced("x", 1, 0) == nonced("x", 2, 0) || nonced("x", 1, 0) == nonced("x", 1, 1) {
		t.Error("compile nonce ignores seed or op")
	}
	order := func(seed int64) string {
		w := &serveCorpus{cfg: config{seed: seed}, corpus: make([]corpusEntry, 84)}
		return fmt.Sprint(w.order(0), w.order(1))
	}
	if order(1) == order(2) || order(1) != order(1) {
		t.Error("sweep order does not follow the seed")
	}
	pairs := func(seed int64) string {
		w := &recompileChurn{cfg: config{seed: seed}, rng: rand.New(rand.NewSource(seed))}
		return fmt.Sprint(w.events(3), w.pairs)
	}
	if pairs(1) == pairs(2) || pairs(1) != pairs(1) {
		t.Error("fault pairs do not follow the seed")
	}
	if reflect.DeepEqual(lbTrace(16, 1), lbTrace(16, 2)) || !reflect.DeepEqual(lbTrace(16, 1), lbTrace(16, 1)) {
		t.Error("load-balancer trace does not follow the seed")
	}
}

// TestTracedRun: the traced run emits exactly the per-layer metrics, its
// counts repeat, and — because every traced op fails unless the staged
// pipeline reproduces the opaque call's artifacts — a clean run is the
// proof that the two agree.
func TestTracedRun(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := testCfg(w.name, 1)
			cfg.trace, cfg.ops, cfg.outDir = true, 4, t.TempDir()
			a := mustRun(t, cfg)
			if len(a.metrics) != len(perLayerNames) {
				t.Errorf("%d metrics, want the %d per-layer ones", len(a.metrics), len(perLayerNames))
			}
			for _, name := range perLayerNames {
				if _, ok := a.metrics[name]; !ok {
					t.Errorf("%s missing", name)
				}
			}
			b := mustRun(t, cfg)
			if da, db := deterministic(a), deterministic(b); !reflect.DeepEqual(da, db) {
				t.Errorf("same seed, different counts:\n%v\n%v", da, db)
			}
			want := map[string][]string{
				"serve-corpus":    {"lang.parse_ms", "smt.solve_calls", "serve.roundtrip_ms", "serve.cache_hit_ms", "serve.session_recompile_ms", "backend.loc"},
				"compile-scale":   {"core.compile_ms", "encode.replayed", "scope.paths", "verify.reports", "core.result_live_mb"},
				"recompile-churn": {"core.recompile_ms", "encode.cache_hits", "backend.switches_reused", "topo.clone_ms", "core.reuse_ratio"},
				"wire-stream":     {"wire.parse_ns_per_pkt", "stream.feed_ns_per_pkt", "exec.compiled_ns_per_pkt", "stream.lanes2_ns_per_pkt", "exec.interp_ns_per_pkt", "stream.drains", "dataplane.deploy_ms"},
			}[w.name]
			for _, name := range want {
				if a.metrics[name] <= 0 {
					t.Errorf("%s = %v on its own workload", name, a.metrics[name])
				}
			}
		})
	}
}

// TestCorruptReference: with a damaged reference the check must fire, the
// failure must be counted, and the process must exit non-zero.
func TestCorruptReference(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := testCfg(w.name, 1)
			cfg.corrupt = true
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed == 0 || res.correct() {
				t.Errorf("%d of %d ops failed against a corrupt reference", res.failed, res.attempted)
			}
			if code := finish(res, nil, io.Discard, io.Discard); code == 0 {
				t.Error("exit code 0 with failed ops")
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
