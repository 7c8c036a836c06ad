package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lyra/internal/topo"
)

// TestCIStepsParse reads .github/workflows/ci.yml and puts every
// `go run … ./cmd/lyra <command> <flags>` line through the dispatcher's
// parsing, without running the command: a CI step naming a command or flag
// the binary does not have fails here rather than in CI.
func TestCIStepsParse(t *testing.T) {
	yml, err := os.ReadFile(filepath.Join("..", "..", ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for n, line := range strings.Split(string(yml), "\n") {
		_, rest, ok := strings.Cut(line, "./cmd/lyra ")
		if !ok || !strings.Contains(line, "go run") {
			continue
		}
		var args []string
		for _, f := range strings.Fields(rest) {
			if f == "|" || f == ">" || f == "&&" || f == ";" {
				break
			}
			args = append(args, f)
		}
		steps++
		if _, run, err := parse(args); run == nil || err != nil {
			t.Errorf("ci.yml:%d: lyra %s: %v", n+1, strings.Join(args, " "), err)
		}
	}
	if steps < 2 {
		t.Fatalf("found %d `go run ./cmd/lyra` steps in ci.yml, want the fuzz and build smokes; the scan is broken", steps)
	}
}

func TestParseRejects(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"lyrac"},
		{"build", "-no-such-flag"},
		{"fuzz", "-n", "many"},
		{"paper", "fig9"},
		{"serve", "-addr"},
	} {
		if _, run, err := parse(args); run != nil || err == nil {
			t.Errorf("lyra %s: parsed", strings.Join(args, " "))
		}
	}
	if fs, _, err := parse([]string{"serve", "-h"}); fs == nil || !errors.Is(err, flag.ErrHelp) {
		t.Errorf("serve -h: %v", err)
	}
	flags := 0
	for name, setup := range commands {
		fs := flag.NewFlagSet(name, flag.ContinueOnError)
		setup(fs)
		fs.VisitAll(func(*flag.Flag) { flags++ })
	}
	if flags > 34 {
		t.Errorf("%d flags across the commands, more than the 34 of build, fuzz, paper and serve", flags)
	}
}

// TestBuildPreferUnknownSwitch: a preferred switch missing from the target
// network is a typo on the command line, refused before anything compiles.
// A switch that is there compiles.
func TestBuildPreferUnknownSwitch(t *testing.T) {
	for _, tc := range []struct {
		objective string
		ok        bool
	}{{"prefer:Ghost", false}, {"prefer:ToR1", true}} {
		_, run, err := parse([]string{"build", "-q",
			"-program", "../../testdata/programs/ingress_int.lyra",
			"-scope", "../../testdata/scopes/ingress_int.scope",
			"-objective", tc.objective, "-out", t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		err = run()
		var te *topo.TargetError
		if tc.ok && err != nil || !tc.ok && (!errors.As(err, &te) || te.Name != "Ghost") {
			t.Errorf("%s: %v", tc.objective, err)
		}
	}
}
