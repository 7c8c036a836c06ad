package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"lyra"
	"lyra/internal/topo"
)

// buildCmd is "lyra build": compile a program plus its algorithm scopes
// against the target network and write one chip program per switch.
func buildCmd(fs *flag.FlagSet) func() error {
	var (
		programPath = fs.String("program", "", "Lyra source file (.lyra)")
		scopePath   = fs.String("scope", "", "algorithm scope specification file")
		topology    = fs.String("topology", "testbed", `target network: "testbed" or "fattree:<k>"`)
		chip        = fs.String("chip", "Tofino-32Q", "ASIC model for fattree topologies")
		dialect     = fs.String("dialect", "p4_14", "P4 dialect for P4 chips: p4_14 or p4_16")
		objective   = fs.String("objective", "none", "placement objective: none, min-placements, min-switches, prefer:<switch>")
		outDir      = fs.String("out", "lyra-out", "output directory")
		parallel    = fs.Int("parallel", 0, "worker pool size (0 = all CPUs, 1 = sequential)")
		phases      = fs.Bool("phases", false, "print the per-phase timing breakdown")
		quiet       = fs.Bool("q", false, "suppress the per-switch summary")

		optimize     = fs.Bool("optimize", false, "run the certified rewrite search before placement and report it")
		optimizeSeed = fs.Int64("optimize-seed", 1, "trace seed for the rewrite search (with -optimize)")
	)
	return func() error {
		if *programPath == "" || *scopePath == "" {
			return usageError{errors.New("-program and -scope are required")}
		}
		src, err := os.ReadFile(*programPath)
		if err != nil {
			return err
		}
		scopeText, err := os.ReadFile(*scopePath)
		if err != nil {
			return err
		}
		net, d, err := topo.ParseTarget(*topology, *chip, *dialect)
		if err != nil {
			return err
		}
		opts := []lyra.Option{
			lyra.WithSourceName(*programPath),
			lyra.WithParallelism(*parallel),
			lyra.WithDialect(d),
		}
		switch {
		case strings.EqualFold(*objective, "none"):
		case strings.EqualFold(*objective, "min-placements"):
			opts = append(opts, lyra.WithObjective(lyra.ObjectiveMinPlacements))
		case strings.EqualFold(*objective, "min-switches"):
			opts = append(opts, lyra.WithObjective(lyra.ObjectiveMinSwitches))
		case strings.HasPrefix(*objective, "prefer:"):
			// The library accepts a preferred switch that is not in the
			// network, so a recompile after it goes down still succeeds;
			// on the command line it can only be a typo.
			sw := strings.TrimPrefix(*objective, "prefer:")
			if net.Switch(sw) == nil {
				return &topo.TargetError{What: "switch", Name: sw, Why: "not in the target network"}
			}
			opts = append(opts, lyra.WithPreferSwitch(sw))
		default:
			return fmt.Errorf("unknown objective %q", *objective)
		}
		if *optimize {
			opts = append(opts, lyra.WithOptimize(*optimizeSeed))
		}
		res, err := lyra.New(opts...).Compile(context.Background(), string(src), string(scopeText), net)
		if err != nil {
			return err
		}
		if err := res.WriteTo(*outDir); err != nil {
			return err
		}
		if *quiet {
			return nil
		}
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
		return nil
	}
}
