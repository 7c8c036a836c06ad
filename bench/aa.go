package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// The A/A tool: the same build measured against itself, the way the gate
// measures a change against its parent. It runs 2n sets of all workloads,
// set i with seed i+1, and assigns them alternately to side A and side B.
// For every end-to-end metric x workload it prints both sides' medians,
// their gap in the metric's worse direction, and the quartile spread over
// all 2n runs (the gate's own steadiness test), each against the bound in
// BENCHMARK.json. A bound the build does not meet against itself cannot
// tell a regression from noise.

// benchmarkFile is the part of BENCHMARK.json the tool reads.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// runSelf runs one workload in a process of its own and parses its result
// line.
func runSelf(workload string, seed int64, seconds float64, trace bool, stderr io.Writer) (*resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", traceArg)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var line resultLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !line.Correct {
		return nil, fmt.Errorf("%s seed %d: %d of %d ops failed", workload, seed, line.Failed, line.Attempted)
	}
	return &line, nil
}

// spread is the gate's steadiness measure: the distance between the first
// and third quartile as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

func runAA(n int, seconds float64, stdout, stderr io.Writer) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	// values[workload][metric] holds one value per set, in run order.
	values := map[string]map[string][]float64{}
	start := time.Now()
	for set := 0; set < 2*n; set++ {
		for _, wl := range bf.Workloads {
			fmt.Fprintf(stderr, "aa: set %d/%d (%c) %s\n", set+1, 2*n, 'A'+rune(set%2), wl.Name)
			line, err := runSelf(wl.Name, int64(set+1), seconds, false, stderr)
			if err != nil {
				return err
			}
			if values[wl.Name] == nil {
				values[wl.Name] = map[string][]float64{}
			}
			for name, v := range line.Metrics {
				values[wl.Name][name] = append(values[wl.Name][name], v.Value)
			}
		}
	}

	prov := stamp(config{})
	fmt.Fprintf(stdout, "# A/A study: %d alternating sets per side, %g s windows\n\n", n, seconds)
	fmt.Fprintf(stdout, "git %s, %s, %s, GOMAXPROCS %d of %d CPUs, host %s, %s wall.\n\n",
		prov.GitSHA, prov.Timestamp, prov.GoVersion, prov.GoMaxProcs, prov.NumCPU, prov.Host,
		time.Since(start).Round(time.Second))
	fmt.Fprintln(stdout, "Set i runs every workload with seed i; odd sets are side A, even sets side B.")
	fmt.Fprintln(stdout, "`gap` is how much worse B's median is than A's (negative: better);")
	fmt.Fprintln(stdout, "`spread` is (Q3 - Q1) / median over all runs, the gate's steadiness test.")
	fmt.Fprintln(stdout, "Both must stay within `bound`; the aim for `spread` is a third of it.")
	fmt.Fprintln(stdout)
	var failures []string
	for _, wl := range bf.Workloads {
		fmt.Fprintf(stdout, "## %s\n\n", wl.Name)
		fmt.Fprintln(stdout, "| metric | unit | median A | median B | gap | spread A | spread B | spread | bound | verdict |")
		fmt.Fprintln(stdout, "|---|---|---:|---:|---:|---:|---:|---:|---:|---|")
		for _, md := range bf.EndToEnd {
			xs := values[wl.Name][md.Name]
			if len(xs) != 2*n {
				return fmt.Errorf("%s: %d values of %s, want %d", wl.Name, len(xs), md.Name, 2*n)
			}
			var a, b []float64
			for i, x := range xs {
				if i%2 == 0 {
					a = append(a, x)
				} else {
					b = append(b, x)
				}
			}
			ma, mb := median(a), median(b)
			gap := (mb - ma) / ma
			if md.Better == "higher" {
				gap = -gap
			}
			verdict := "ok"
			switch sp := spread(xs); {
			case gap > md.Bound:
				verdict = "GAP EXCEEDS BOUND"
			case sp > md.Bound && md.Name != "setup_s":
				verdict = "SPREAD EXCEEDS BOUND"
			case sp > md.Bound/3 && md.Name != "setup_s":
				verdict = "ok (spread above a third of the bound)"
			}
			if strings.Contains(verdict, "EXCEEDS") {
				failures = append(failures, fmt.Sprintf("%s %s: %s", wl.Name, md.Name, verdict))
			}
			fmt.Fprintf(stdout, "| %s | %s | %.4f | %.4f | %+.2f%% | %.2f%% | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				md.Name, md.Unit, ma, mb, 100*gap, 100*spread(a), 100*spread(b), 100*spread(xs), 100*md.Bound, verdict)
		}
		for _, count := range []string{"artifact_loc", "plan_tables"} {
			for _, x := range values[wl.Name][count] {
				if x != values[wl.Name][count][0] {
					failures = append(failures, fmt.Sprintf("%s %s: count differs between runs", wl.Name, count))
					break
				}
			}
		}
		fmt.Fprintln(stdout)
	}
	if len(failures) > 0 {
		fmt.Fprintln(stdout, "## Not met")
		fmt.Fprintln(stdout)
		for _, f := range failures {
			fmt.Fprintln(stdout, "-", f)
		}
	} else {
		fmt.Fprintln(stdout, "Every gap and every spread is within its bound; every count is identical across all runs.")
	}
	fmt.Fprintln(stdout)
	if err := ledgers(bf, seconds, stdout, stderr); err != nil {
		return err
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d metric x workload pairs do not meet their bound", len(failures))
	}
	return nil
}

// ledgers appends one traced run per workload: every per-layer row side by
// side, so the workload-by-layer table of the README can be read off it.
func ledgers(bf *benchmarkFile, seconds float64, stdout, stderr io.Writer) error {
	fmt.Fprintln(stdout, "## Layer ledger: one traced run per workload, seed 1")
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, "| metric | unit |")
	lines := map[string]*resultLine{}
	for _, wl := range bf.Workloads {
		fmt.Fprintf(stderr, "aa: traced %s\n", wl.Name)
		line, err := runSelf(wl.Name, 1, seconds, true, stderr)
		if err != nil {
			return err
		}
		lines[wl.Name] = line
		fmt.Fprintf(stdout, " %s |", wl.Name)
	}
	fmt.Fprint(stdout, "\n|---|---|")
	for range bf.Workloads {
		fmt.Fprint(stdout, "---:|")
	}
	fmt.Fprintln(stdout)
	for _, md := range bf.PerLayer {
		fmt.Fprintf(stdout, "| %s | %s |", md.Name, md.Unit)
		for _, wl := range bf.Workloads {
			if v := lines[wl.Name].Metrics[md.Name].Value; v == 0 {
				fmt.Fprint(stdout, " |")
			} else {
				fmt.Fprintf(stdout, " %.4g |", v)
			}
		}
		fmt.Fprintln(stdout)
	}
	return nil
}
