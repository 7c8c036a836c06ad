package lyra

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"lyra/internal/lang/parser"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestGoldenArtifacts locks the exact generated text for a representative
// program on each dialect; regenerate with `go test -run Golden -update`.
func TestGoldenArtifacts(t *testing.T) {
	src := loadProgram(t, "simple_router")
	cases := []struct {
		name    string
		sw      string
		dialect Dialect
		file    string
	}{
		{"p414", "ToR1", P414, "simple_router_tor1.p4"},
		{"p416", "ToR1", P416, "simple_router_tor1_16.p4"},
		{"npl", "Agg1", P414, "simple_router_agg1.npl"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkGolden(t, src, c.sw, c.dialect, c.file)
		})
	}
}

// TestGoldenScenarioArtifacts locks the generated text of the streaming
// scenario library — stateful NAT, heavy-hitter sketch, flowlet load
// balancer — on every dialect: P4_14 and P4_16 on a Tofino ToR, NPL on a
// Trident-4 Agg. Regenerate with `go test -run Golden -update`.
func TestGoldenScenarioArtifacts(t *testing.T) {
	for _, prog := range []string{"stateful_nat", "heavy_hitter", "flowlet_lb"} {
		src := loadProgram(t, prog)
		cases := []struct {
			name    string
			sw      string
			dialect Dialect
			file    string
		}{
			{"p414", "ToR1", P414, prog + "_tor1.p4"},
			{"p416", "ToR1", P416, prog + "_tor1_16.p4"},
			{"npl", "Agg1", P414, prog + "_agg1.npl"},
		}
		for _, c := range cases {
			t.Run(prog+"/"+c.name, func(t *testing.T) {
				checkGolden(t, src, c.sw, c.dialect, c.file)
			})
		}
	}
}

// checkGolden compiles src for one switch/dialect and compares (or, with
// -update, rewrites) the named golden artifact.
func checkGolden(t *testing.T, src, sw string, dialect Dialect, file string) {
	t.Helper()
	res, err := New(WithDialect(dialect)).Compile(context.Background(), src, perSwitchScope(t, src, sw), Testbed())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	got := res.Artifact(sw).Code
	path := filepath.Join("testdata", "golden", file)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("generated artifact differs from golden %s;\nrun `go test -run Golden -update` if the change is intended.\n--- got ---\n%s",
			file, got)
	}
}

// TestGoldenControlPlane locks the control-plane stub shape.
func TestGoldenControlPlane(t *testing.T) {
	src := loadProgram(t, "simple_router")
	res, err := New().Compile(context.Background(), src, perSwitchScope(t, src, "ToR1"), Testbed())
	if err != nil {
		t.Fatal(err)
	}
	got := res.Artifact("ToR1").ControlPlane
	path := filepath.Join("testdata", "golden", "simple_router_tor1_cp.py")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("control plane differs from golden:\n%s", got)
	}
}

// TestArtifactFingerprintPinned locks ArtifactFingerprint's digest for one
// fixed compile — heavy_hitter placed across the ToRs and Aggs of the testbed,
// P4_14 and NPL code and their stubs — as the fmt-and-copy rendering computed
// it, with the bridge header's fields in (algorithm, variable) order, and
// checks that asking again returns the same value.
func TestArtifactFingerprintPinned(t *testing.T) {
	const want = "522798de5be401773300b705192af95c3cb7282c14c2fef5c7b25be83bfcd257"
	src := loadProgram(t, "heavy_hitter")
	res, err := New(WithParallelism(1)).Compile(context.Background(), src,
		"heavy_hitter: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]\n", Testbed())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.ArtifactFingerprint(); got != want {
		t.Errorf("ArtifactFingerprint = %s, pinned %s", got, want)
	}
	if got := res.ArtifactFingerprint(); got != want {
		t.Errorf("second ArtifactFingerprint = %s, pinned %s", got, want)
	}
}

// TestServeCorpusPinned locks every artifact of the serve-corpus matrix — the
// programs of testdata/programs, each compiled PER-SW on ToR1, PER-SW on Agg1
// and MULTI-SW over the ToRs and Aggs of the testbed, in P4_14 and in P4_16 —
// as the fmt-based printers rendered it, with the bridge header's fields in
// (algorithm, variable) order: one SHA-256 over every compile's
// ArtifactFingerprint and each artifact's LoC, LogicLoC, Tables, Actions and
// Registers.
func TestServeCorpusPinned(t *testing.T) {
	const want = "5414473bfa7015b63f2385242fd9e08d2181f4d7988979b631b76583e049cfe3"
	files, err := filepath.Glob(filepath.Join("testdata", "programs", "*.lyra"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	shapes := []string{
		"%s: [ ToR1 | PER-SW | - ]\n",
		"%s: [ Agg1 | PER-SW | - ]\n",
		"%s: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]\n",
	}
	h := sha256.New()
	compiles := 0
	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".lyra")
		src := loadProgram(t, name)
		prog, err := parser.Parse(name+".lyra", []byte(src))
		if err != nil {
			t.Fatal(err)
		}
		for _, shape := range shapes {
			var scope strings.Builder
			for _, a := range prog.Algorithms {
				fmt.Fprintf(&scope, shape, a.Name)
			}
			for _, d := range []Dialect{P414, P416} {
				res, err := New(WithParallelism(1), WithDialect(d)).Compile(context.Background(), src, scope.String(), Testbed())
				if err != nil {
					t.Fatalf("%s (%v, %q): %v", name, d, scope.String(), err)
				}
				fmt.Fprintf(h, "%s %v %s\n", name, d, res.ArtifactFingerprint())
				for _, sw := range res.Switches() {
					a := res.Artifacts[sw]
					fmt.Fprintf(h, "%s %d %d %d %d %d\n", sw, a.LoC, a.LogicLoC, a.Tables, a.Actions, a.Registers)
				}
				compiles++
			}
		}
	}
	if compiles != len(files)*len(shapes)*2 {
		t.Fatalf("compiled %d of the matrix's %d", compiles, len(files)*len(shapes)*2)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("serve-corpus digest over %d compiles = %s, pinned %s", compiles, got, want)
	}
}
