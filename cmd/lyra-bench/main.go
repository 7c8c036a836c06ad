// Command lyra-bench regenerates the paper's evaluation tables and figures
// (§7) as text:
//
//	lyra-bench -experiment fig9     # Figure 9: portability comparison table
//	lyra-bench -experiment fig10    # Figure 10: compile-time scalability
//	lyra-bench -experiment ext      # §7.2 extensibility case study
//	lyra-bench -experiment comp     # §7.3 composition case study
//	lyra-bench -experiment ablation # synthesized tables per optimization
//	lyra-bench -experiment fig9,ablation
//	lyra-bench -experiment all
//
// -experiment accepts a comma-separated list; unknown names are rejected
// with the valid list. -k sets the fat-tree sizes of fig10. Performance
// measurements live in the benchmark under bench/ (BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"lyra/internal/eval"
)

func main() {
	experiment := flag.String("experiment", "all", "comma-separated list of: fig9 | fig10 | ext | comp | ablation | all")
	ks := flag.String("k", "4,8,16,24,32", "fat-tree sizes for fig10")
	flag.Parse()

	// Every name must be a known experiment: a typo that silently selected
	// nothing used to exit 0 having measured nothing.
	valid := []string{"fig9", "fig10", "ext", "comp", "ablation", "all"}
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
	run := func(name, title string, fn func() (string, error)) {
		if !selected["all"] && !selected[name] {
			return
		}
		out, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "lyra-bench %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("== %s ==\n%s\n", title, out)
	}

	run("fig9", "Figure 9: Lyra vs. human-written P4_14", func() (string, error) {
		rows, err := eval.Figure9()
		return eval.FormatFigure9(rows), err
	})
	run("fig10", "Figure 10: compile-time scalability", func() (string, error) {
		sizes, err := parseKs(*ks)
		if err != nil {
			return "", err
		}
		points, err := eval.Figure10(sizes)
		return eval.FormatFigure10(points), err
	})
	run("ext", "§7.2 Extensibility: growing ConnTable", func() (string, error) {
		steps, err := eval.Extensibility()
		return eval.FormatExtensibility(steps), err
	})
	run("ablation", "Ablations: synthesized P4 tables per optimization", func() (string, error) {
		rows, err := eval.Ablations()
		return eval.FormatAblations(rows), err
	})
	run("comp", "§7.3 Composition: five algorithms, shrinking scope", func() (string, error) {
		steps, err := eval.Composition()
		return eval.FormatComposition(steps), err
	})
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
