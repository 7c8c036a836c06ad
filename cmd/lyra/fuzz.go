package main

import (
	"errors"
	"flag"
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"lyra/internal/difftest"
	"lyra/internal/eval"
)

// fuzzCmd is "lyra fuzz", a differential-testing campaign over random
// well-typed programs, topologies, scopes and packet traces: each case is
// compiled for every dialect at two parallelism levels and run against the
// one-big-pipeline reference. Unexplained outcomes (anything but equivalent
// or consistently infeasible) are shrunk to replayable bundles under -out,
// and the command fails. -mutation injects a named backend bug to exercise
// detection and shrinking end to end; -stateful generates flow-keyed
// streaming cases, replayed through OpenStream on both executor tiers.
func fuzzCmd(fs *flag.FlagSet) func() error {
	var (
		n        = fs.Int("n", 100, "number of cases to run")
		seed     = fs.Int64("seed", 1, "campaign seed (case i uses a seed derived from it)")
		mutation = fs.String("mutation", "", "inject a named backend bug: "+strings.Join(difftest.MutationNames(), ", "))
		outDir   = fs.String("out", "difftest-failures", "directory for failure bundles")
		shrink   = fs.Bool("shrink", true, "minimize failing cases before writing bundles")
		parallel = fs.Int("parallel", 0, "compiler worker pool size for the parallel compile (0 = all CPUs)")
		stateful = fs.Bool("stateful", false, "generate flow-keyed stateful streaming cases and run the streaming oracle (stream-vs-one-shot, every tier, chunked lanes)")
		incr     = fs.Bool("incremental", false, "cross-check each compiling case against an incremental identity recompile (cached solver reuse must reproduce the plan) and against a recompile through one seeded fault (must equal a from-scratch compile of the mutated topology)")
		optimize = fs.Bool("optimize", false, "cross-check each compiling case against a rewrite-search compile (the optimized deployment must keep the original's reference semantics)")
		scale    = fs.Bool("scale", false, "cross-check each compiling case against a compile with symmetry dedup disabled (must be byte-identical)")
		quiet    = fs.Bool("q", false, "suppress per-case progress dots")
	)
	return func() error {
		if *n <= 0 {
			return usageError{errors.New("-n must be positive")}
		}
		if _, ok := difftest.MutationByName(*mutation); !ok {
			return usageError{fmt.Errorf("unknown mutation %q (have: %s)", *mutation, strings.Join(difftest.MutationNames(), ", "))}
		}
		opts := difftest.Options{
			Mutation:    *mutation,
			SkipShrink:  !*shrink,
			Parallelism: *parallel,
			Stateful:    *stateful,
			Incremental: *incr,
			Optimize:    *optimize,
			Scale:       *scale,
		}

		progress := func(i int, out difftest.Outcome) {
			if *quiet {
				return
			}
			switch {
			case out.Class == difftest.Equivalent:
				fmt.Print(".")
			case out.Class == difftest.Infeasible:
				fmt.Print("i")
			default:
				fmt.Print("F")
			}
			if (i+1)%50 == 0 || i+1 == *n {
				fmt.Printf(" %d/%d\n", i+1, *n)
			}
		}

		sum := difftest.Run(*n, *seed, opts, progress)

		// The SHA pins each failure bundle to the compiler revision that
		// produced it, so a bundle replayed later is matched against its code.
		sha := eval.GitSHA()
		for _, f := range sum.Failures {
			c, out := f.Case, f.Outcome
			if f.Shrunk != nil {
				c, out = f.Shrunk, f.ShrunkOutcome
			}
			meta := difftest.BundleMeta{
				Seed:         f.Seed,
				CaseIndex:    f.Index,
				CampaignSeed: *seed,
				GitSHA:       sha,
				Class:        out.Class.String(),
				Detail:       out.Detail,
				Mutation:     *mutation,
				CreatedBy:    "lyra fuzz",
			}
			dir := filepath.Join(*outDir, fmt.Sprintf("case-%04d-%s", f.Index, out.Class))
			if err := difftest.WriteBundle(dir, c, meta); err != nil {
				return fmt.Errorf("writing bundle for case %d: %w", f.Index, err)
			}
			fmt.Printf("case %d (seed %d): %s\n  bundle: %s\n", f.Index, f.Seed, f.Outcome, dir)
		}

		var classes []difftest.Class
		for c := range sum.Counts {
			classes = append(classes, c)
		}
		sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
		fmt.Printf("%d cases:", sum.Cases)
		for _, c := range classes {
			fmt.Printf(" %d %s", sum.Counts[c], c)
		}
		fmt.Println()

		if u := sum.Unexplained(); u > 0 {
			return fmt.Errorf("%d unexplained case(s); bundles under %s", u, *outDir)
		}
		return nil
	}
}
