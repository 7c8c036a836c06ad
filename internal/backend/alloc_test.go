package backend

import (
	"os"
	"testing"

	"lyra/internal/encode"
	"lyra/internal/frontend"
	"lyra/internal/lang/checker"
	"lyra/internal/lang/parser"
	"lyra/internal/scope"
	"lyra/internal/topo"
)

// TestEmitAllocBudget keeps the printers' and the stub's allocations to what
// their output needs. It renders heavy_hitter — a golden program with
// registers, a hash, a sharded extern and bridged variables — placed
// MULTI-SW over the testbed's ToRs and Aggs: P4_14 and P4_16 for a Tofino
// ToR, NPL for a Trident-4 Agg, and both control-plane stubs. The budgets are
// the measurement when they were set plus at most 10 %, so a formatter or a
// per-line string that creeps back into a printer fails here. When they were
// set the printers made 15, 6 and 4 allocations and the stubs 4 each,
// against 347, 317, 260 and 8 each when they printed with fmt.
func TestEmitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is meaningless under the race detector")
	}
	src, err := os.ReadFile("../../testdata/programs/heavy_hitter.lyra")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse("heavy_hitter.lyra", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := checker.Check(prog); err != nil {
		t.Fatal(err)
	}
	irp, err := frontend.Preprocess(prog)
	if err != nil {
		t.Fatal(err)
	}
	frontend.Analyze(irp)
	spec, err := scope.Parse("heavy_hitter: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]\n")
	if err != nil {
		t.Fatal(err)
	}
	net := topo.Testbed()
	scopes, err := spec.Resolve(net)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := encode.Solve(&encode.Input{IR: irp, Net: net, Scopes: scopes}, nil)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := Build(plan)
	if err != nil {
		t.Fatal(err)
	}
	tor, agg := progs["ToR1"], progs["Agg1"]
	if tor == nil || agg == nil || len(tor.Imports)+len(tor.Exports) == 0 {
		placed, _ := topo.InOrder(net, progs)
		t.Fatalf("heavy_hitter placed nothing bridged on ToR1 and Agg1: %v", placed)
	}
	for _, c := range []struct {
		name   string
		budget float64
		render func()
	}{
		{"EmitP414", 16, func() { EmitP414(tor) }},
		{"EmitP416", 6, func() { EmitP416(tor) }},
		{"EmitNPL", 4, func() { EmitNPL(agg) }},
		{"renderStub ToR1", 4, func() { renderStub(tor) }},
		{"renderStub Agg1", 4, func() { renderStub(agg) }},
	} {
		got := testing.AllocsPerRun(50, c.render)
		t.Logf("%s: %.0f allocations", c.name, got)
		if got > c.budget {
			t.Errorf("%s makes %.0f allocations, budget %.0f", c.name, got, c.budget)
		}
	}
}
