// Command bench is the repository's gate benchmark: four closed-loop
// workloads over the compiler, the serve daemon and the data plane, ten
// end-to-end metrics each, and a per-layer ledger from a separate traced
// run. BENCHMARK.json at the repository root is its contract; README.md
// explains the choices. Run it through run.sh, which builds it inside the
// checkout:
//
//	bash bench/run.sh --workload compile-scale --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --aa 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"lyra/internal/eval"
)

// provenance is stamped on every result: the one schema ROADMAP item 1
// asks of every recorded number.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Ops        int    `json:"ops"`
	Digest     string `json:"output_digest"`
	GitSHA     string `json:"git_sha"`
	Timestamp  string `json:"timestamp"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Host       string `json:"host"`
}

// stamp fills in everything but the op count and digest. The gate runs the
// benchmark in a plain copy of the tree, where the SHA reads "unknown".
func stamp(cfg config) provenance {
	host, _ := os.Hostname()
	return provenance{
		Workload: cfg.workload, Seed: cfg.seed,
		GitSHA: eval.GitSHA(), Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Host: host,
	}
}

// resultLine is the last line of standard output, the shape the gate
// parses.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric by name with its unit, the provenance line,
// and the result line last.
func report(w io.Writer, res *runResult) error {
	line := resultLine{
		Correct: res.correct(), Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricValue{},
	}
	for _, d := range res.defs {
		v := res.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		fmt.Fprintf(w, "%-34s %16.6f %s\n", d.name, v, d.unit)
		line.Metrics[d.name] = metricValue{v, d.unit}
	}
	var whole float64
	for _, s := range opaqueSpans {
		whole += res.metrics[s+"_ms"]
	}
	if gap := res.metrics["core.ledger_gap_ms"]; whole > 0 && math.Abs(gap) > 0.05*whole {
		fmt.Fprintf(w, "FLAG core.ledger_gap_ms is %.1f%% of the opaque call\n", 100*gap/whole)
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, "note:", n)
	}
	fmt.Fprintf(w, "error_rate %d/%d\n", res.failed, res.attempted)
	res.prov.Ops, res.prov.Digest = res.ops, fmt.Sprintf("%08x", res.digest)
	prov, err := json.Marshal(map[string]provenance{"provenance": res.prov})
	if err != nil {
		return err
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", prov, out)
	return err
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace, aa int
	fs.StringVar(&cfg.workload, "workload", "", "serve-corpus | compile-scale | recompile-churn | wire-stream")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	fs.IntVar(&cfg.ops, "ops", 0, "run exactly this many ops instead of a timed window")
	fs.IntVar(&aa, "aa", 0, "run n alternating A/B sets of all workloads on this build and compare them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace, cfg.setups, cfg.outDir = trace != 0, 5, "bench/out"
	if aa > 0 {
		if err := runAA(aa, cfg.seconds, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	res, err := runWorkload(cfg)
	return finish(res, err, stdout, stderr)
}

// finish reports a run and decides the exit code: 0 only when every op
// produced correct output.
func finish(res *runResult, err error, stdout, stderr io.Writer) int {
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if res.firstErr != nil {
		fmt.Fprintln(stderr, "bench: incorrect output:", res.firstErr)
	}
	if res.metrics == nil {
		fmt.Fprintln(stderr, "bench: no operation succeeded")
		return 1
	}
	if err := report(stdout, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}
