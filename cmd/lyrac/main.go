// Command lyrac is the Lyra compiler CLI: it compiles a Lyra program plus
// an algorithm-scope specification against a target network and writes one
// chip-specific program (and control-plane stub) per switch.
//
// Usage:
//
//	lyrac -program lb.lyra -scope lb.scope -topology testbed -out out/
//	lyrac -program lb.lyra -scope lb.scope -topology fattree:8 -chip Tofino-32Q -dialect p4_16 -out out/
//
// Topologies: "testbed" (the paper's §7 network) or "fattree:<k>" (one pod
// of a k-ary fat tree; -chip selects its ASIC model).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"lyra"
)

func main() {
	var (
		programPath = flag.String("program", "", "Lyra source file (.lyra)")
		scopePath   = flag.String("scope", "", "algorithm scope specification file")
		topology    = flag.String("topology", "testbed", `target network: "testbed" or "fattree:<k>"`)
		chip        = flag.String("chip", "Tofino-32Q", "ASIC model for fattree topologies")
		dialect     = flag.String("dialect", "p4_14", "P4 dialect for P4 chips: p4_14 or p4_16")
		objective   = flag.String("objective", "none", "placement objective: none, min-placements, min-switches, prefer:<switch>")
		outDir      = flag.String("out", "lyra-out", "output directory")
		parallel    = flag.Int("parallel", 0, "worker pool size (0 = all CPUs, 1 = sequential)")
		phases      = flag.Bool("phases", false, "print the per-phase timing breakdown")
		quiet       = flag.Bool("q", false, "suppress the per-switch summary")

		optimize     = flag.Bool("optimize", false, "run the certified rewrite search before placement and report it")
		optimizeSeed = flag.Int64("optimize-seed", 1, "trace seed for the rewrite search (with -optimize)")
	)
	flag.Parse()
	if *programPath == "" || *scopePath == "" {
		fmt.Fprintln(os.Stderr, "lyrac: -program and -scope are required")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*programPath)
	if err != nil {
		fatal(err)
	}
	scopeText, err := os.ReadFile(*scopePath)
	if err != nil {
		fatal(err)
	}
	net, err := buildNetwork(*topology, *chip)
	if err != nil {
		fatal(err)
	}
	opts := []lyra.Option{
		lyra.WithSourceName(*programPath),
		lyra.WithParallelism(*parallel),
	}
	switch strings.ToLower(*dialect) {
	case "p4_14", "p414":
		opts = append(opts, lyra.WithDialect(lyra.P414))
	case "p4_16", "p416":
		opts = append(opts, lyra.WithDialect(lyra.P416))
	default:
		fatal(fmt.Errorf("unknown dialect %q", *dialect))
	}
	switch {
	case strings.EqualFold(*objective, "none"):
	case strings.EqualFold(*objective, "min-placements"):
		opts = append(opts, lyra.WithObjective(lyra.ObjectiveMinPlacements))
	case strings.EqualFold(*objective, "min-switches"):
		opts = append(opts, lyra.WithObjective(lyra.ObjectiveMinSwitches))
	case strings.HasPrefix(*objective, "prefer:"):
		opts = append(opts, lyra.WithPreferSwitch(strings.TrimPrefix(*objective, "prefer:")))
	default:
		fatal(fmt.Errorf("unknown objective %q", *objective))
	}
	if *optimize {
		opts = append(opts, lyra.WithOptimize(*optimizeSeed))
	}
	res, err := lyra.New(opts...).Compile(context.Background(), string(src), string(scopeText), net)
	if err != nil {
		fatal(err)
	}
	if err := res.WriteTo(*outDir); err != nil {
		fatal(err)
	}
	if !*quiet {
		fmt.Printf("compiled %s in %s (solve %s, %d SMT instance(s))\n", *programPath,
			res.CompileTime.Round(1e6), res.SolveTime.Round(1e6), res.SolveInstances)
		if *phases {
			for _, pt := range res.Phases {
				fmt.Printf("  phase %-8s %s\n", pt.Phase, pt.Duration.Round(1e3))
			}
			st := res.SolverStats
			fmt.Printf("  solver: %d decisions, %d propagations, %d conflicts, %d restarts\n",
				st.Decisions, st.Propagations, st.Conflicts, st.Restarts)
		}
		if res.Optimization != nil {
			fmt.Print(res.Optimization)
		}
		if res.Diagnostics.FellBack() {
			fmt.Printf("degraded solve:\n%s\n", res.Diagnostics)
		}
		for _, sw := range res.Switches() {
			a := res.Artifact(sw)
			fmt.Printf("  %-8s %-6s %4d LoC  %2d tables  %2d actions  %d registers\n",
				sw, a.Dialect, a.LoC, a.Tables, a.Actions, a.Registers)
		}
		fmt.Printf("wrote artifacts to %s/\n", *outDir)
	}
}

func buildNetwork(spec, chip string) (*lyra.Network, error) {
	if spec == "testbed" {
		return lyra.Testbed(), nil
	}
	if k, ok := strings.CutPrefix(spec, "fattree:"); ok {
		n, err := strconv.Atoi(k)
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad fattree size %q", k)
		}
		model, err := chipModel(chip)
		if err != nil {
			return nil, err
		}
		return lyra.FatTreePod(n, model), nil
	}
	return nil, fmt.Errorf("unknown topology %q", spec)
}

func chipModel(name string) (*lyra.ChipModel, error) {
	switch name {
	case "RMT":
		return lyra.RMT, nil
	case "Tofino-32Q":
		return lyra.Tofino32Q, nil
	case "Tofino-64Q":
		return lyra.Tofino64Q, nil
	case "SiliconOne":
		return lyra.SiliconOne, nil
	case "Trident-4":
		return lyra.Trident4, nil
	}
	return nil, fmt.Errorf("unknown chip %q", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lyrac:", err)
	os.Exit(1)
}
