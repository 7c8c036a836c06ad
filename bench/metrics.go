package main

import (
	"math"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported number and its unit. BENCHMARK.json lists
// the same names and units; bench_test.go keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, reported by the untraced
// run. The same ten names are emitted on every workload. The issue's
// error_rate is not here: it is the failed/attempted pair of the result
// line, because a metric that is normally 0 has no relative bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p10", "ms"},
	{"work_per_s", "unit/s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
	{"live_heap_mb", "MB"},
	{"artifact_loc", "count"},
	{"plan_tables", "count"},
}

// perLayerNames is the layer ledger, <module>.<metric>, reported by the
// traced run. Every workload prints every row; a layer a workload never
// enters reads 0 there, which is itself the "does no work here" entry of
// the README's workload-by-layer table.
var perLayerNames = []string{
	// front end
	"lang.parse_ms", "lang.check_ms", "frontend.preprocess_ms", "frontend.analyze_ms",
	"ir.instrs", "synth.synthesize_ms", "synth.tables",
	// solver
	"smt.solve_ms", "smt.solve_calls", "smt.decisions", "smt.propagations",
	"smt.conflicts", "smt.clauses_reused", "encode.ladder_attempts",
	// scope and topology
	"scope.resolve_ms", "scope.paths", "topo.build_ms", "topo.paths_enumerated", "topo.peak_paths_held",
	// encoding
	"encode.solve_call_ms", "encode.encode_ms", "encode.fingerprint_ms", "encode.instances",
	"encode.classes", "encode.replayed", "encode.dedup_hit_ratio", "encode.vars", "encode.clauses",
	// incremental recompilation
	"encode.cache_hits", "encode.cache_evictions", "backend.switches_reused",
	"core.delta_reprogrammed", "core.reuse_ratio", "faults.apply_ms", "topo.clone_ms", "core.recompile_ms",
	// code generation and verification
	"backend.translate_ms", "backend.switches_translated", "backend.loc",
	"verify.plan_ms", "verify.reports", "verify.failed",
	// whole compile
	"core.compile_ms", "core.ledger_gap_ms", "core.result_live_mb", "scale64.compile_ms", "scale64.alloc_mb",
	// serve daemon
	"serve.roundtrip_ms", "serve.compile_ms", "serve.wire_overhead_ms", "serve.response_kb",
	"serve.cache_hit_ms", "serve.session_create_ms", "serve.session_recompile_ms", "serve.tables_ms",
	"serve.cache_misses", "serve.cache_hits", "serve.shed", "serve.degraded",
	// deployment
	"dataplane.deploy_ms", "dataplane.lower_ms", "dataplane.compile_ms",
	// wire codec
	"wire.parse_ns_per_pkt", "wire.parse_allocs_per_pkt", "wire.serialize_ns_per_pkt", "wire.serialize_allocs_per_pkt",
	// streaming and execution
	"stream.flowkey_ns_per_pkt", "stream.feed_ns_per_pkt", "stream.drains", "stream.lane_batches",
	"stream.allocs_per_pkt", "exec.compiled_ns_per_pkt", "stream.dispatch_gap_ns_per_pkt",
	"stream.lanes2_ns_per_pkt", "exec.interp_ns_per_pkt",
	// Go runtime and the harness itself
	"go.gc_cpu_frac", "go.gc_cycles", "go.gc_pause_ms", "go.mallocs_per_op",
	"bench.ops", "bench.op_ms_p90", "bench.op_ms_max", "bench.op_ms_iqr_frac", "bench.trace_overhead_frac",
	"bench.host_ref_ms", "bench.host_slope_ratio",
}

// unitOf derives a per-layer metric's unit from its name's suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ns_per_pkt"):
		return "ns/pkt"
	case strings.HasSuffix(name, "allocs_per_pkt"):
		return "1/pkt"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_kb"):
		return "KB"
	case strings.Contains(name, "_ms"):
		return "ms"
	}
	return "count"
}

func perLayer() []metricDef {
	out := make([]metricDef, len(perLayerNames))
	for i, n := range perLayerNames {
		out[i] = metricDef{n, unitOf(n)}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is what the gate applies to ten runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
