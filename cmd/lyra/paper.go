package main

import (
	"flag"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"lyra/internal/eval"
)

// paperCmd is "lyra paper": it regenerates the paper's evaluation tables and
// figures (§7) as text, the experiments named by -experiment in the order of
// the table below. Performance measurements live in the benchmark under
// bench/ (BENCHMARK.json).
func paperCmd(fs *flag.FlagSet) func() error {
	experiment := fs.String("experiment", "all", "comma-separated list of: fig9 | fig10 | ext | comp | ablation | all")
	ks := fs.String("k", "4,8,16,24,32", "fat-tree sizes for fig10")
	experiments := []struct {
		name, title string
		run         func() (string, error)
	}{
		{"fig9", "Figure 9: Lyra vs. human-written P4_14", func() (string, error) {
			rows, err := eval.Figure9()
			return eval.FormatFigure9(rows), err
		}},
		{"fig10", "Figure 10: compile-time scalability", func() (string, error) {
			var sizes []int
			for _, k := range strings.Split(*ks, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(k))
				if err != nil {
					return "", fmt.Errorf("bad -k: %w", err)
				}
				sizes = append(sizes, n)
			}
			points, err := eval.Figure10(sizes)
			return eval.FormatFigure10(points), err
		}},
		{"ext", "§7.2 Extensibility: growing ConnTable", func() (string, error) {
			steps, err := eval.Extensibility()
			return eval.FormatExtensibility(steps), err
		}},
		{"ablation", "Ablations: synthesized P4 tables per optimization", func() (string, error) {
			rows, err := eval.Ablations()
			return eval.FormatAblations(rows), err
		}},
		{"comp", "§7.3 Composition: five algorithms, shrinking scope", func() (string, error) {
			steps, err := eval.Composition()
			return eval.FormatComposition(steps), err
		}},
	}
	return func() error {
		// Every name must be a known experiment: a typo that silently
		// selected nothing would exit 0 having printed nothing.
		var valid []string
		for _, e := range experiments {
			valid = append(valid, e.name)
		}
		valid = append(valid, "all")
		selected := map[string]bool{}
		var unknown []string
		for _, name := range strings.Split(*experiment, ",") {
			name = strings.TrimSpace(name)
			selected[name] = true
			if !slices.Contains(valid, name) {
				unknown = append(unknown, name)
			}
		}
		if len(unknown) > 0 {
			sort.Strings(unknown)
			return usageError{fmt.Errorf("unknown experiment(s): %s; valid experiments: %s",
				strings.Join(unknown, ", "), strings.Join(valid, ", "))}
		}
		for _, e := range experiments {
			if !selected["all"] && !selected[e.name] {
				continue
			}
			out, err := e.run()
			if err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			fmt.Printf("== %s ==\n%s\n", e.title, out)
		}
		return nil
	}
}
