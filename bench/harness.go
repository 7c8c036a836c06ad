package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64 // length of the timed window
	trace    bool    // traced run: per-layer metrics instead of end-to-end
	ops      int     // > 0 fixes the op count instead of the window
	small    bool    // test-sized inputs: an 8-pod fabric, short traces
	setups   int     // how many times set-up is repeated; setup_s is the median
	outDir   string  // where the traced run writes its Chrome trace
	// corrupt damages the workload's reference outputs after set-up, so a
	// test can prove that the correctness check is live.
	corrupt bool
}

// opOut is what one operation reports back to the loop.
type opOut struct {
	dur    time.Duration // wall time inside the system under test
	units  int           // work units completed (requests, switches, events, frames)
	loc    int           // lines of emitted chip code in this op's artifacts
	tables int           // placed tables in this op's plans
	digest uint32        // checksum of the op's output bytes (0 where outputs are compared in full)
}

// instance is one fully set-up workload: inputs generated from the seed,
// reference outputs computed, the system warmed. Every op of an instance
// does the same amount of work.
type instance interface {
	// op runs operation i through the public API only and checks its
	// output. A wrong output is an error; the op still counts as attempted.
	op(i int) (opOut, error)
	// traced runs operation i again with spans around each layer and puts
	// the op's layer counts in m. The opOut it returns times the same
	// opaque call op times, made under tracing.
	traced(i int, tr *tracer, m map[string]float64) (opOut, error)
	// probes takes the one-shot layer measurements that are not part of
	// an op (a k=64 compile, the two-lane stream, a cache-hit request). m
	// already holds "<span>_ms" for every span name of the traced loop.
	probes(m map[string]float64) error
	// close stops everything set-up started and waits for it.
	close()
}

// workloadDef binds a workload name to its set-up. Set-up records the
// layer timings it observes on the way (topology build, deployment) in m.
type workloadDef struct {
	name  string
	unit  string // what one work unit is
	setup func(cfg config, m map[string]float64) (instance, error)
}

var workloads = []workloadDef{
	{"serve-corpus", "request", setupServeCorpus},
	{"compile-scale", "switch", setupCompileScale},
	{"recompile-churn", "event", setupRecompileChurn},
	{"wire-stream", "frame", setupWireStream},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// loopStats is one closed-loop window.
type loopStats struct {
	opMs              []float64
	refMs             []float64 // host-speed reference after each op
	attempted, failed int
	firstErr          error
	units             int
	last              opOut
	digest            uint32
	wall, cpu         time.Duration // of the window, the reference kernel's share taken out
	allocBytes        uint64
	mallocs           uint64
	gcCycles          uint32
	gcPause           time.Duration
	gcCPU             float64 // seconds
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// peakRSSMB reads VmHWM, the process's high-water resident set.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// runLoop drives one closed loop: a single caller that issues the next op
// only after the previous one returned. It stops after cfg.ops operations
// when that is set, otherwise once the window has elapsed. first is the
// index of the first op, so two loops in one process never repeat an input.
func runLoop(run func(i int) (opOut, error), first int, cfg config, window time.Duration, ref *hostRef) loopStats {
	var st loopStats
	var before, after runtime.MemStats
	var refWall, refCPU time.Duration
	runtime.GC()
	runtime.ReadMemStats(&before)
	gc0, cpu0, start := gcCPUSeconds(), cpuTime(), time.Now()
	for i := first; ; i++ {
		if cfg.ops > 0 {
			if i-first >= cfg.ops {
				break
			}
		} else if time.Since(start) >= window {
			break
		}
		out, err := run(i)
		st.attempted++
		if err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = fmt.Errorf("op %d: %w", i, err)
			}
			continue
		}
		st.opMs = append(st.opMs, ms(out.dur))
		c := cpuTime()
		d := ref.run()
		refCPU += cpuTime() - c
		refWall += d
		st.refMs = append(st.refMs, ms(d))
		st.units += out.units
		st.digest = st.digest*31 + out.digest
		st.last = out
	}
	st.wall, st.cpu, st.gcCPU = time.Since(start)-refWall, cpuTime()-cpu0-refCPU, gcCPUSeconds()-gc0
	runtime.ReadMemStats(&after)
	st.allocBytes = after.TotalAlloc - before.TotalAlloc
	st.mallocs = after.Mallocs - before.Mallocs
	st.gcCycles = after.NumGC - before.NumGC
	st.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	return st
}

// runResult is what one run reports.
type runResult struct {
	attempted, failed int
	firstErr          error
	metrics           map[string]float64 // end-to-end, or per-layer when traced
	defs              []metricDef
	digest            uint32
	ops               int
	notes             []string // printed for the reader, not part of the result line
	prov              provenance
}

func (r *runResult) correct() bool { return r.failed == 0 && r.attempted > 0 }

// runWorkload sets the workload up cfg.setups times (setup_s is the
// median), then measures it. The untraced run reports the end-to-end
// metrics; the traced run splits its window between a plain loop and one
// that alternates traced and plain ops, and reports the layer ledger.
func runWorkload(cfg config) (*runResult, error) {
	def := findWorkload(cfg.workload)
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	ref, err := newHostRef()
	if err != nil {
		return nil, err
	}
	defer ref.close()
	layers := map[string]float64{}
	var inst instance
	var setupS []float64
	for n := 0; n < max(cfg.setups, 1); n++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC() // every set-up starts from a collected heap
		}
		// The host's speed during a set-up is taken from kernel passes on
		// both sides of it.
		speed := []float64{ms(ref.run()), ms(ref.run())}
		start := time.Now()
		if inst, err = def.setup(cfg, layers); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		d := time.Since(start).Seconds()
		speed = append(speed, ms(ref.run()), ms(ref.run()))
		setupS = append(setupS, d*hostFactor(median(speed)))
	}
	defer inst.close()

	res := &runResult{prov: stamp(cfg)}
	window := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		st := runLoop(inst.op, 0, cfg, window, ref)
		res.attempted, res.failed, res.firstErr = st.attempted, st.failed, st.firstErr
		res.digest, res.ops = st.digest, len(st.opMs)
		res.defs = endToEnd
		if len(st.opMs) == 0 {
			return res, nil
		}
		ops := float64(len(st.opMs))
		corrected := hostCorrected(st.opMs, st.refMs)
		var rawSum, sum float64
		for i := range corrected {
			rawSum += st.opMs[i]
			sum += corrected[i]
		}
		// Retained state: what stays reachable with results, streams and
		// the daemon still referenced, after two forced collections (the
		// second frees what finalizers released in the first).
		runtime.GC()
		runtime.GC()
		var live runtime.MemStats
		runtime.ReadMemStats(&live)
		res.metrics = map[string]float64{
			"setup_s":         median(setupS),
			"op_ms_p50":       median(corrected),
			"op_ms_p10":       percentile(corrected, 0.10),
			"work_per_s":      float64(st.units) / (sum / 1e3),
			"cpu_ms_per_op":   ms(st.cpu) / ops * (sum / rawSum),
			"alloc_mb_per_op": float64(st.allocBytes) / 1e6 / ops,
			"peak_rss_mb":     peakRSSMB() - ref.residentMB(),
			"live_heap_mb":    float64(live.HeapAlloc) / 1e6,
			"artifact_loc":    float64(st.last.loc),
			"plan_tables":     float64(st.last.tables),
		}
		res.notes = []string{
			fmt.Sprintf("one work unit is one %s; %d ops in a %.1f s window", def.unit, len(st.opMs), st.wall.Seconds()),
			fmt.Sprintf("raw (uncorrected) op_ms_p50 %.3f, op_ms_p10 %.3f", median(st.opMs), percentile(st.opMs, 0.10)),
			fmt.Sprintf("host reference kernel median %.3f ms (nominal %.0f), slope of op time on it in this run %.2f",
				median(st.refMs), refNominalMs, hostSlope(st.opMs, st.refMs)),
		}
		runtime.KeepAlive(inst)
		return res, nil
	}

	// A plain loop for the runtime's own numbers, then a loop that
	// alternates traced and plain ops: what tracing adds is the difference
	// between neighbours in time, not between two halves of a drifting
	// window.
	half := cfg
	if cfg.ops > 0 {
		half.ops = max(cfg.ops/2, 1)
	}
	plain := runLoop(inst.op, 0, half, window/2, ref)
	tr := newTracer()
	var counts map[string]float64
	var tracedMs, besideMs []float64
	mixed := runLoop(func(i int) (opOut, error) {
		if (i-plain.attempted)%2 == 1 {
			out, err := inst.op(i)
			if err == nil {
				besideMs = append(besideMs, ms(out.dur))
			}
			return out, err
		}
		counts = map[string]float64{}
		out, err := inst.traced(i, tr, counts)
		if err == nil {
			tracedMs = append(tracedMs, ms(out.dur))
		}
		return out, err
	}, plain.attempted, half, window/2, ref)
	res.attempted = plain.attempted + mixed.attempted
	res.failed = plain.failed + mixed.failed
	res.firstErr = plain.firstErr
	if res.firstErr == nil {
		res.firstErr = mixed.firstErr
	}
	res.digest, res.ops = plain.digest*31+mixed.digest, len(tracedMs)
	res.defs = perLayer()
	for k, v := range counts {
		layers[k] = v
	}
	for _, s := range tr.spanNames() {
		layers[s+"_ms"] = tr.medianMs(s)
	}
	layers["core.ledger_gap_ms"] = tr.ledgerGap()
	if err := inst.probes(layers); err != nil {
		res.failed++
		if res.firstErr == nil {
			res.firstErr = fmt.Errorf("probes: %w", err)
		}
	}
	if n := float64(len(plain.opMs)); n > 0 {
		layers["go.gc_cpu_frac"] = plain.gcCPU / plain.cpu.Seconds()
		layers["go.gc_cycles"] = float64(plain.gcCycles) / n
		layers["go.gc_pause_ms"] = ms(plain.gcPause) / n
		layers["go.mallocs_per_op"] = float64(plain.mallocs) / n
		layers["bench.op_ms_p90"] = percentile(plain.opMs, 0.90)
		layers["bench.op_ms_max"] = percentile(plain.opMs, 1)
		layers["bench.op_ms_iqr_frac"] = (percentile(plain.opMs, 0.75) - percentile(plain.opMs, 0.25)) / median(plain.opMs)
		layers["bench.host_ref_ms"] = median(plain.refMs)
		layers["bench.host_slope_ratio"] = hostSlope(plain.opMs, plain.refMs)
	}
	layers["bench.ops"] = float64(len(tracedMs))
	if len(besideMs) == 0 {
		besideMs = plain.opMs // a one-op traced loop has no neighbour
	}
	if base := median(besideMs); base > 0 {
		layers["bench.trace_overhead_frac"] = median(tracedMs)/base - 1
	}
	finishLedger(layers)
	res.metrics = map[string]float64{}
	for _, d := range res.defs {
		res.metrics[d.name] = layers[d.name] // a layer this workload never enters reads 0
	}
	if cfg.outDir != "" {
		if err := tr.writeChrome(cfg.outDir + "/" + cfg.workload + ".trace.json"); err != nil {
			return res, fmt.Errorf("writing trace: %w", err)
		}
	}
	return res, nil
}

// finishLedger derives the rows that are differences of others.
func finishLedger(m map[string]float64) {
	if n := m["encode.classes"] + m["encode.replayed"]; n > 0 {
		m["encode.dedup_hit_ratio"] = m["encode.replayed"] / n
	}
	if m["serve.roundtrip_ms"] > 0 {
		m["serve.wire_overhead_ms"] = m["serve.roundtrip_ms"] - m["serve.compile_ms"]
	}
	if m["stream.feed_ns_per_pkt"] > 0 {
		m["stream.dispatch_gap_ns_per_pkt"] = m["stream.feed_ns_per_pkt"] -
			m["stream.flowkey_ns_per_pkt"] - m["exec.compiled_ns_per_pkt"]
	}
}
