package lyra

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lyra/internal/lang/parser"
)

// programNames are the ten evaluation programs of Figure 9.
var programNames = []string{
	"ingress_int", "transit_int", "egress_int",
	"speedlight", "netcache", "netchain", "netpaxos",
	"flowlet_switching", "simple_router", "switch",
}

// loadProgram reads a testdata program.
func loadProgram(t testing.TB, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "programs", name+".lyra"))
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	return string(b)
}

// perSwitchScope builds a PER-SW scope on one switch for every algorithm.
func perSwitchScope(t testing.TB, src, sw string) string {
	t.Helper()
	prog, err := parser.Parse("prog.lyra", []byte(src))
	if err != nil {
		t.Fatalf("parse for scope: %v", err)
	}
	var b strings.Builder
	for _, a := range prog.Algorithms {
		fmt.Fprintf(&b, "%s: [ %s | PER-SW | - ]\n", a.Name, sw)
	}
	return b.String()
}

// TestFigure9ProgramsCompileP4 compiles each evaluation program for a
// Tofino ToR and checks the generated P4 verifies.
func TestFigure9ProgramsCompileP4(t *testing.T) {
	for _, name := range programNames {
		t.Run(name, func(t *testing.T) {
			src := loadProgram(t, name)
			res, err := New(WithSourceName(name+".lyra")).Compile(context.Background(), src, perSwitchScope(t, src, "ToR1"), Testbed())
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			art := res.Artifact("ToR1")
			if art == nil || art.Dialect != "P4_14" {
				t.Fatalf("no P4 artifact: %+v", res.Switches())
			}
			if art.Tables == 0 {
				t.Error("no tables synthesized")
			}
			for _, rep := range res.Reports {
				if !rep.OK {
					t.Errorf("verify %s: %v", rep.Switch, rep.Problems)
				}
			}
		})
	}
}

// TestFigure9ProgramsCompileNPL compiles each program for a Trident-4 Agg.
func TestFigure9ProgramsCompileNPL(t *testing.T) {
	for _, name := range programNames {
		t.Run(name, func(t *testing.T) {
			src := loadProgram(t, name)
			res, err := New(WithSourceName(name+".lyra")).Compile(context.Background(), src, perSwitchScope(t, src, "Agg1"), Testbed())
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			art := res.Artifact("Agg1")
			if art == nil || art.Dialect != "NPL" {
				t.Fatalf("no NPL artifact: %+v", res.Switches())
			}
			if !strings.Contains(art.Code, "program lyra") {
				t.Error("NPL program block missing")
			}
		})
	}
}

// TestFigure9ProgramsP416 spot-checks the P4_16 dialect on each program.
func TestFigure9ProgramsP416(t *testing.T) {
	for _, name := range programNames {
		t.Run(name, func(t *testing.T) {
			src := loadProgram(t, name)
			res, err := New(WithDialect(P416)).Compile(context.Background(), src, perSwitchScope(t, src, "ToR1"), Testbed())
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if !strings.Contains(res.Artifact("ToR1").Code, "V1Switch(") {
				t.Error("not P4_16")
			}
		})
	}
}

// TestMultiAlgorithmMetadataFieldsUnique: composition's five algorithms on
// one switch each keep their own temporaries — every algorithm's first one is
// v1.1 — so the metadata header (P4_14), struct (P4_16) and bus (NPL) declare
// each field once, and the artifact verifies.
func TestMultiAlgorithmMetadataFieldsUnique(t *testing.T) {
	src := loadProgram(t, "composition")
	for _, c := range []struct {
		sw, opener string
		dialect    Dialect
	}{
		{"ToR1", "header_type lyra_meta_t {", P414},
		{"ToR1", "struct metadata_t {", P416},
		{"Agg1", "bus lyra_bus {", P414},
	} {
		res, err := New(WithDialect(c.dialect)).Compile(context.Background(), src, perSwitchScope(t, src, c.sw), Testbed())
		if err != nil {
			t.Fatalf("%s: compile: %v", c.opener, err)
		}
		if len(res.Reports) == 0 {
			t.Fatalf("%s: no verification reports", c.opener)
		}
		for _, rep := range res.Reports {
			if !rep.OK {
				t.Errorf("%s: verify %s: %v", c.opener, rep.Switch, rep.Problems)
			}
		}
		code := res.Artifact(c.sw).Code
		at := strings.Index(code, c.opener)
		if at < 0 {
			t.Fatalf("%s: no metadata block in\n%s", c.opener, code)
		}
		seen := map[string]bool{}
		for _, l := range strings.Split(code[at+len(c.opener):], "\n") {
			l = strings.TrimSpace(l)
			if l == "}" {
				break
			}
			if !strings.HasSuffix(l, ";") {
				continue
			}
			// "name : bits;" in P4_14 and NPL, "bit<bits> name;" in P4_16.
			name, _, found := strings.Cut(strings.TrimSuffix(l, ";"), " :")
			if !found {
				name = name[strings.LastIndexByte(name, ' ')+1:]
			}
			if seen[name] {
				t.Errorf("%s: field %s declared twice", c.opener, name)
			}
			seen[name] = true
		}
		if len(seen) < 2 {
			t.Errorf("%s: %d metadata fields found", c.opener, len(seen))
		}
	}
}
