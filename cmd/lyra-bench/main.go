// Command lyra-bench regenerates the paper's evaluation tables and figures
// (§7) as text:
//
//	lyra-bench -experiment fig9     # Figure 9: portability comparison table
//	lyra-bench -experiment fig10    # Figure 10: compile-time scalability
//	lyra-bench -experiment phases   # per-phase timing breakdown
//	lyra-bench -experiment ladder   # incremental fallback ladder vs re-encode baseline
//	lyra-bench -experiment ext      # §7.2 extensibility case study
//	lyra-bench -experiment comp     # §7.3 composition case study
//	lyra-bench -experiment traffic  # packet replay: interpreter vs compiled backend
//	lyra-bench -experiment stream   # streaming replay: scenario library through OpenStream
//	lyra-bench -experiment serve    # daemon churn storm (robustness under load)
//	lyra-bench -experiment optimize # rewrite search: certified program optimization
//	lyra-bench -experiment scale    # datacenter-scale sweep: lazy paths + symmetry dedup + churn
//	lyra-bench -experiment phases,ladder -out BENCH_compile.json
//	lyra-bench -experiment all
//
// -experiment accepts a comma-separated list; unknown names are rejected
// with the valid list. With -out, the phases and ladder results that ran
// are merged into one JSON artifact (the BENCH_compile.json the CI smoke
// job publishes), preserving any keys other experiments wrote there; the
// traffic and stream experiments merge their results under the "traffic"
// and "stream" keys of -dataplane-out (BENCH_dataplane.json), each
// preserving the other's key; the serve experiment appends a
// provenance-stamped run to -serve-out (BENCH_serve.json) and exits
// nonzero if the storm violated the robustness contract; the optimize
// experiment appends a provenance-stamped run to the "optimize" key of
// -optimize-out (default -out) and exits nonzero if the search found no
// certified improvement; the scale experiment appends a provenance-stamped
// run to the "scale" key of -scale-out (default -out) and, with
// -scale-assert, exits nonzero unless symmetry dedup was active, the lazy
// enumerator bounded the path working set, no single switch-down of the
// churn loop reprogrammed more than one pod, and the dedup compile beat the
// no-dedup baseline by the given factor.
//
// -cpuprofile and -memprofile write pprof profiles covering whichever
// experiments ran — the intended workflow for hunting hot spots in the
// replay engine (see EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"lyra/internal/eval"
	"lyra/internal/serve/churn"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "comma-separated list of: fig9 | fig10 | phases | ladder | ext | comp | ablation | traffic | stream | serve | optimize | scale | all")
		ks         = flag.String("k", "4,8,16,24,32", "fat-tree sizes for fig10 and phases")
		parallel   = flag.Int("parallel", 0, "worker pool size for phases (0 = all CPUs)")
		ladderK    = flag.Int("ladder-k", 16, "fat-tree size for the ladder comparison")
		ladderIt   = flag.Int("ladder-iters", 11, "measurement repetitions per ladder mode")
		outPath    = flag.String("out", "", "write the phases/ladder results as one JSON artifact")

		trafficK       = flag.Int("traffic-k", 8, "fat-tree size for the traffic replay")
		trafficPackets = flag.Int("traffic-packets", 200_000, "packets per traffic measurement")
		trafficWorkers = flag.Int("traffic-workers", 0, "max replay workers (0 = all CPUs)")
		trafficSlack   = flag.Float64("traffic-assert-scaling", 0, "fail unless the compiled tier's worker scaling is monotone within this slack factor (0 = no assertion)")
		dataplaneOut   = flag.String("dataplane-out", "", "merge the traffic/stream results into a JSON artifact (BENCH_dataplane.json)")

		streamK       = flag.Int("stream-k", 8, "fat-tree pod size for the streaming replay")
		streamPackets = flag.Int("stream-packets", 100_000, "packets per streaming measurement")
		streamLanes   = flag.Int("stream-lanes", 0, "fan-out lanes for lane-safe scenarios (0 = CPUs, capped at 4)")
		streamAllocs  = flag.Float64("stream-assert-allocs", -1, "fail if any compiled-tier stream point allocates more than this per packet (negative = no assertion)")

		serveSeed       = flag.Int64("serve-seed", 1, "churn storm seed")
		serveEvents     = flag.Int("serve-events", 500, "fault/recovery events in the churn storm")
		serveClients    = flag.Int("serve-clients", 8, "concurrent storm clients")
		serveSessions   = flag.Int("serve-sessions", 4, "tenant sessions in the storm")
		serveDuration   = flag.Duration("serve-duration", 30*time.Second, "churn storm wall-clock cap")
		servePanicEvery = flag.Int("serve-panic-every", 25, "inject a panicking request every N events (0 = off)")
		serveBurstEvery = flag.Int("serve-burst-every", 50, "fire an identical-request burst every N events (0 = off)")
		serveBurstSize  = flag.Int("serve-burst-size", 8, "requests per burst (oversized vs daemon capacity)")
		serveInflight   = flag.Int("serve-inflight", 4, "daemon MaxInflight during the storm")
		serveQueue      = flag.Int("serve-queue", 8, "daemon QueueDepth during the storm")
		serveOut        = flag.String("serve-out", "", "append the storm scores to a JSON artifact (BENCH_serve.json)")

		scaleKs        = flag.String("scale-k", "8,16", "fat-tree sizes for the datacenter-scale sweep (k pods of k switches each)")
		scaleChurn     = flag.Int("scale-churn", 20, "churn events recompiled per scale point")
		scaleSeed      = flag.Int64("scale-seed", 1, "churn storm seed for the scale sweep")
		scalePortfolio = flag.Int("scale-portfolio", 0, "portfolio width per component (0 = canonical solver only)")
		scaleRepeats   = flag.Int("scale-repeats", 0, "timed-compile repetitions per point, fastest recorded (0 = default 3; plans are byte-identical across repeats)")
		scaleAssert    = flag.Float64("scale-assert", 0, "fail unless symmetry dedup is active, peak paths held stays bounded, a single switch-down reprograms at most one pod at every k >= 16, and the dedup compile beats no-dedup by this factor there (0 = no assertion)")
		scaleOut       = flag.String("scale-out", "", "append the scale run to this JSON artifact (defaults to -out)")

		optimizeK       = flag.Int("optimize-k", 4, "fat-tree pod size for the rewrite-search experiment")
		optimizeSeed    = flag.Int64("optimize-seed", 1, "rewrite-search trace seed")
		optimizeMeasure = flag.Int("optimize-measure-packets", 0, "replay packets for measured pkts/s in the optimize report (0 = skip measurement)")
		optimizeOut     = flag.String("optimize-out", "", "append the optimize run to this JSON artifact (defaults to -out)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile covering the selected experiments")
		memProfile = flag.String("memprofile", "", "write a heap profile after the selected experiments")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lyra-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "lyra-bench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lyra-bench: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "lyra-bench: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	// Every name must be a known experiment: a typo that silently selected
	// nothing used to exit 0 having measured nothing.
	valid := []string{"fig9", "fig10", "phases", "ladder", "ext", "comp",
		"ablation", "traffic", "stream", "serve", "optimize", "scale", "all"}
	known := map[string]bool{}
	for _, name := range valid {
		known[name] = true
	}
	selected := map[string]bool{}
	var unknown []string
	for _, name := range strings.Split(*experiment, ",") {
		name = strings.TrimSpace(name)
		if !known[name] {
			unknown = append(unknown, name)
			continue
		}
		selected[name] = true
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		fmt.Fprintf(os.Stderr, "lyra-bench: unknown experiment(s): %s\nvalid experiments: %s\n",
			strings.Join(unknown, ", "), strings.Join(valid, ", "))
		os.Exit(2)
	}
	run := func(name string, fn func() error) {
		if !selected["all"] && !selected[name] {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "lyra-bench %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	// artifact collects the JSON-able results of whichever experiments ran.
	var artifact struct {
		Phases []eval.PhasePoint `json:"phases,omitempty"`
		Ladder *eval.LadderPoint `json:"ladder,omitempty"`
	}

	run("fig9", func() error {
		rows, err := eval.Figure9()
		if err != nil {
			return err
		}
		fmt.Println("== Figure 9: Lyra vs. human-written P4_14 ==")
		fmt.Print(eval.FormatFigure9(rows))
		fmt.Println()
		return nil
	})

	run("fig10", func() error {
		sizes, err := parseKs(*ks)
		if err != nil {
			return err
		}
		points, err := eval.Figure10(sizes)
		if err != nil {
			return err
		}
		fmt.Println("== Figure 10: compile-time scalability ==")
		fmt.Print(eval.FormatFigure10(points))
		fmt.Println()
		return nil
	})

	run("phases", func() error {
		sizes, err := parseKs(*ks)
		if err != nil {
			return err
		}
		points, err := eval.PhaseBreakdown(sizes, *parallel)
		if err != nil {
			return err
		}
		artifact.Phases = points
		fmt.Println("== Per-phase compile-time breakdown ==")
		fmt.Print(eval.FormatPhases(points))
		fmt.Println()
		return nil
	})

	run("ladder", func() error {
		pt, err := eval.LadderComparison(*ladderK, *ladderIt)
		if err != nil {
			return err
		}
		artifact.Ladder = pt
		fmt.Println("== Fallback ladder: incremental solver vs re-encode baseline ==")
		fmt.Print(eval.FormatLadder(pt))
		fmt.Println()
		return nil
	})

	run("ext", func() error {
		steps, err := eval.Extensibility()
		if err != nil {
			return err
		}
		fmt.Println("== §7.2 Extensibility: growing ConnTable ==")
		fmt.Print(eval.FormatExtensibility(steps))
		fmt.Println()
		return nil
	})

	run("ablation", func() error {
		rows, err := eval.Ablations()
		if err != nil {
			return err
		}
		fmt.Println("== Ablations: synthesized P4 tables per optimization ==")
		fmt.Print(eval.FormatAblations(rows))
		fmt.Println()
		return nil
	})

	run("traffic", func() error {
		points, err := eval.TrafficReplay(*trafficK, *trafficPackets, *trafficWorkers)
		if err != nil {
			return err
		}
		fmt.Println("== Traffic replay: interpreter vs compiled ==")
		fmt.Print(eval.FormatTraffic(points))
		fmt.Println()
		if *trafficSlack > 0 {
			if violations := eval.CheckTrafficScaling(points, *trafficSlack); len(violations) > 0 {
				return fmt.Errorf("scaling contract violated:\n  %s", strings.Join(violations, "\n  "))
			}
			fmt.Printf("scaling contract held (slack %.2f)\n", *trafficSlack)
		}
		if *dataplaneOut != "" {
			if err := mergeArtifactKey(*dataplaneOut, "traffic", points); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *dataplaneOut)
		}
		return nil
	})

	run("stream", func() error {
		points, err := eval.StreamReplay(*streamK, *streamPackets, *streamLanes)
		if err != nil {
			return err
		}
		fmt.Println("== Streaming replay: scenario library through OpenStream ==")
		fmt.Print(eval.FormatStream(points))
		fmt.Println()
		if *streamAllocs >= 0 {
			if violations := eval.CheckStreamAllocs(points, *streamAllocs); len(violations) > 0 {
				return fmt.Errorf("allocation contract violated:\n  %s", strings.Join(violations, "\n  "))
			}
			fmt.Printf("allocation contract held (budget %.4f allocs/pkt)\n", *streamAllocs)
		}
		if *dataplaneOut != "" {
			if err := mergeArtifactKey(*dataplaneOut, "stream", points); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *dataplaneOut)
		}
		return nil
	})

	run("serve", func() error {
		cfg := churn.Config{
			Seed:        *serveSeed,
			Events:      *serveEvents,
			Clients:     *serveClients,
			Sessions:    *serveSessions,
			Duration:    *serveDuration,
			PanicEvery:  *servePanicEvery,
			BurstEvery:  *serveBurstEvery,
			BurstSize:   *serveBurstSize,
			MaxInflight: *serveInflight,
			QueueDepth:  *serveQueue,
		}
		res, err := churn.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Println("== Serve daemon churn storm ==")
		fmt.Print(res.Format())
		fmt.Println()
		if *serveOut != "" {
			run := eval.ServeRun{
				Params: eval.ServeParams{
					Seed:        cfg.Seed,
					Events:      cfg.Events,
					Clients:     cfg.Clients,
					Sessions:    cfg.Sessions,
					Duration:    cfg.Duration.String(),
					PanicEvery:  cfg.PanicEvery,
					BurstEvery:  cfg.BurstEvery,
					BurstSize:   cfg.BurstSize,
					MaxInflight: cfg.MaxInflight,
					QueueDepth:  cfg.QueueDepth,
				},
				Result: res,
			}
			run.Stamp()
			if err := eval.AppendServeRun(*serveOut, run); err != nil {
				return err
			}
			fmt.Printf("appended run to %s\n", *serveOut)
		}
		if len(res.Violations) > 0 {
			return fmt.Errorf("churn storm violated the robustness contract: %s",
				strings.Join(res.Violations, "; "))
		}
		return nil
	})

	run("optimize", func() error {
		params := eval.OptimizeParams{
			K:              *optimizeK,
			Seed:           *optimizeSeed,
			MeasurePackets: *optimizeMeasure,
		}.WithDefaults()
		res, err := eval.RunOptimize(params)
		if err != nil {
			return err
		}
		fmt.Println("== Rewrite search: certified program optimization ==")
		fmt.Print(eval.FormatOptimize(res))
		fmt.Println()
		dest := *optimizeOut
		if dest == "" {
			dest = *outPath
		}
		if dest != "" {
			entry := eval.OptimizeRun{Params: params, Result: *res}
			entry.Stamp()
			if err := eval.AppendOptimizeRun(dest, entry); err != nil {
				return err
			}
			fmt.Printf("appended optimize run to %s\n", dest)
		}
		return nil
	})

	run("scale", func() error {
		sizes, err := parseKs(*scaleKs)
		if err != nil {
			return err
		}
		params := eval.ScaleParams{
			Ks:          sizes,
			ChurnEvents: *scaleChurn,
			Seed:        *scaleSeed,
			Portfolio:   *scalePortfolio,
			Repeats:     *scaleRepeats,
		}.WithDefaults()
		points, err := eval.RunScale(params)
		if err != nil {
			return err
		}
		fmt.Println("== Datacenter scale: lazy paths + symmetry dedup + churn ==")
		fmt.Print(eval.FormatScale(points))
		fmt.Println()
		if *scaleAssert > 0 {
			if violations := eval.CheckScale(points, *scaleAssert); len(violations) > 0 {
				return fmt.Errorf("scaling contract violated:\n  %s", strings.Join(violations, "\n  "))
			}
			fmt.Printf("scaling contract held (min speedup %.1fx at k >= 16)\n", *scaleAssert)
		}
		dest := *scaleOut
		if dest == "" {
			dest = *outPath
		}
		if dest != "" {
			entry := eval.ScaleRun{Params: params, Points: points}
			entry.Stamp()
			if err := eval.AppendScaleRun(dest, entry); err != nil {
				return err
			}
			fmt.Printf("appended scale run to %s\n", dest)
		}
		return nil
	})

	run("comp", func() error {
		steps, err := eval.Composition()
		if err != nil {
			return err
		}
		fmt.Println("== §7.3 Composition: five algorithms, shrinking scope ==")
		fmt.Print(eval.FormatComposition(steps))
		fmt.Println()
		return nil
	})

	if *outPath != "" && (artifact.Phases != nil || artifact.Ladder != nil) {
		// Merge into the existing artifact rather than overwriting it: the
		// optimize experiment (possibly this very invocation) appends runs
		// under its own key, and those must survive a phases/ladder rewrite.
		doc := map[string]json.RawMessage{}
		if raw, err := os.ReadFile(*outPath); err == nil {
			if err := json.Unmarshal(raw, &doc); err != nil {
				doc = map[string]json.RawMessage{}
			}
		}
		put := func(key string, v any) {
			data, err := json.Marshal(v)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lyra-bench: %v\n", err)
				os.Exit(1)
			}
			doc[key] = data
		}
		if artifact.Phases != nil {
			put("phases", artifact.Phases)
		}
		if artifact.Ladder != nil {
			put("ladder", artifact.Ladder)
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "lyra-bench: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "lyra-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *outPath)
	}
}

// mergeArtifactKey replaces one top-level key of a JSON artifact in place,
// preserving every other key — so `-experiment traffic` and `-experiment
// stream` can maintain BENCH_dataplane.json without clobbering each other.
func mergeArtifactKey(path, key string, v any) error {
	doc := map[string]json.RawMessage{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			doc = map[string]json.RawMessage{}
		}
	}
	val, err := json.Marshal(v)
	if err != nil {
		return err
	}
	doc[key] = val
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// parseKs parses the comma-separated -k list.
func parseKs(ks string) ([]int, error) {
	var sizes []int
	for _, s := range strings.Split(ks, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("bad -k: %w", err)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}
