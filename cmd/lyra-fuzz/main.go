// Command lyra-fuzz runs a differential-testing campaign: it generates
// random well-typed Lyra programs, topologies, scopes, and packet traces,
// compiles each case for every dialect at two parallelism levels, executes
// the compiled deployments against the one-big-pipeline reference, and
// classifies every outcome. Unexplained outcomes (anything other than
// equivalent or consistently-infeasible) are shrunk to minimal replayable
// bundles and written under -out.
//
// Usage:
//
//	lyra-fuzz -n 500 -seed 1
//	lyra-fuzz -n 100 -seed 7 -mutation drop-last-instr -out testdata/difftest/failures
//
// The -mutation flag injects a named backend bug so the oracle's detection
// and shrinking paths can be exercised end to end; see -mutation help for
// the list. The -stateful flag switches the generator to flow-keyed
// stateful streaming cases, which additionally replay every case through
// OpenStream on both executor tiers (one and three lanes, chunked
// feeds) against a one-shot replay. Exit status is nonzero iff the
// campaign had unexplained cases.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"lyra/internal/difftest"
	"lyra/internal/eval"
)

func main() {
	var (
		n        = flag.Int("n", 100, "number of cases to run")
		seed     = flag.Int64("seed", 1, "campaign seed (case i uses a seed derived from it)")
		mutation = flag.String("mutation", "", "inject a named backend bug: "+strings.Join(difftest.MutationNames(), ", "))
		outDir   = flag.String("out", "difftest-failures", "directory for failure bundles")
		shrink   = flag.Bool("shrink", true, "minimize failing cases before writing bundles")
		parallel = flag.Int("parallel", 0, "compiler worker pool size for the parallel compile (0 = all CPUs)")
		stateful = flag.Bool("stateful", false, "generate flow-keyed stateful streaming cases and run the streaming oracle (stream-vs-one-shot, every tier, chunked lanes)")
		incr     = flag.Bool("incremental", false, "cross-check each compiling case against an incremental identity recompile (cached solver reuse must reproduce the plan) and against a recompile through one seeded fault (must equal a from-scratch compile of the mutated topology)")
		optimize = flag.Bool("optimize", false, "cross-check each compiling case against a rewrite-search compile (the optimized deployment must keep the original's reference semantics)")
		scale    = flag.Bool("scale", false, "cross-check each compiling case against the datacenter-scale modes (no symmetry dedup, lazy path enumeration — both must be byte-identical)")
		quiet    = flag.Bool("q", false, "suppress per-case progress dots")
	)
	flag.Parse()
	if *n <= 0 {
		fmt.Fprintln(os.Stderr, "lyra-fuzz: -n must be positive")
		os.Exit(2)
	}
	if _, ok := difftest.MutationByName(*mutation); !ok {
		fmt.Fprintf(os.Stderr, "lyra-fuzz: unknown mutation %q (have: %s)\n",
			*mutation, strings.Join(difftest.MutationNames(), ", "))
		os.Exit(2)
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
			CreatedBy:    "lyra-fuzz",
		}
		dir := filepath.Join(*outDir, fmt.Sprintf("case-%04d-%s", f.Index, out.Class))
		if err := difftest.WriteBundle(dir, c, meta); err != nil {
			fmt.Fprintf(os.Stderr, "lyra-fuzz: writing bundle for case %d: %v\n", f.Index, err)
			os.Exit(1)
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
		fmt.Fprintf(os.Stderr, "lyra-fuzz: %d unexplained case(s); bundles under %s\n", u, *outDir)
		os.Exit(1)
	}
}
