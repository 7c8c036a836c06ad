package dataplane

import (
	"math/rand"
	"testing"

	"lyra/internal/encode"
	"lyra/internal/frontend"
	"lyra/internal/lang/checker"
	"lyra/internal/lang/parser"
	"lyra/internal/scope"
	"lyra/internal/topo"
)

// engineEquivalenceOneProgram compiles one generated program and asserts
// that for every flow path and packet, the compiled backend produces
// output byte-identical to the tree-walking interpreter — built from the
// lowering with fusion disabled and from the fused, production one —
// comparing both the full field/header maps (via DiffPackets) and the
// packet-op summary.
func engineEquivalenceOneProgram(t *testing.T, src, scopeText string, rng *rand.Rand, nPkts int) {
	t.Helper()
	prog, err := parser.Parse("fuzz.lyra", []byte(src))
	if err != nil {
		t.Fatalf("generator emitted unparseable program: %v\n%s", err, src)
	}
	if err := checker.Check(prog); err != nil {
		t.Fatalf("generator emitted ill-typed program: %v\n%s", err, src)
	}
	irp, err := frontend.Preprocess(prog)
	if err != nil {
		t.Fatalf("preprocess: %v\n%s", err, src)
	}
	frontend.Analyze(irp)
	spec, err := scope.Parse(scopeText)
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
		// A genuinely infeasible placement is not an execution bug. Return,
		// not Skip: a sweep calls this once per program on one t, and a
		// skip would end the sweep at its first infeasible program.
		t.Logf("solve: %v", err)
		return
	}
	tables := NewTables()
	for i := 0; i < 16; i++ {
		tables.Set("fuzz_table", uint64(rng.Intn(64)), uint64(rng.Uint32()))
	}
	ctx := &Context{SwitchID: 5, IngressTS: 100, EgressTS: 200, QueueLen: 4}
	paths := flowPaths(t, plan, "fuzzalg")
	for i := 0; i < nPkts; i++ {
		pkt := NewPacket()
		pkt.Valid["h"] = true
		pkt.Fields["h.a"] = uint64(rng.Intn(64))
		pkt.Fields["h.b"] = uint64(rng.Intn(64))
		pkt.Fields["h.c"] = uint64(rng.Uint32())
		for _, path := range paths {
			// Fresh deployments per comparison: stateful counters must
			// advance from the same baseline on both sides.
			depI, err := NewDeployment(plan, tables)
			if err != nil {
				t.Fatalf("deployment: %v\n%s", err, src)
			}
			want, err := depI.RunPath(path, ctx, pkt)
			if err != nil {
				t.Fatalf("interpreter: %v\n%s", err, src)
			}
			depU, err := NewDeployment(plan, tables)
			if err != nil {
				t.Fatalf("deployment: %v\n%s", err, src)
			}
			unfused := runUnfused(t, depU, path, ctx, pkt)
			if diffs := DiffPackets(want, unfused, nil); len(diffs) > 0 || unfused.Summary() != want.Summary() {
				t.Fatalf("unfused lowering diverges on path %v: %v\n  interp:  %s\n  unfused: %s\nsource:\n%s",
					path, diffs, want.Summary(), unfused.Summary(), src)
			}
			depC, err := NewDeployment(plan, tables)
			if err != nil {
				t.Fatalf("deployment: %v\n%s", err, src)
			}
			comp, err := depC.RunPathCompiled(path, ctx, pkt)
			if err != nil {
				t.Fatalf("compiled: %v\n%s", err, src)
			}
			if diffs := DiffPackets(want, comp, nil); len(diffs) > 0 || comp.Summary() != want.Summary() {
				t.Fatalf("compiled backend diverges on path %v: %v\n  interp:   %s\n  compiled: %s\nsource:\n%s",
					path, diffs, want.Summary(), comp.Summary(), src)
			}
		}
	}
}

// FuzzEngineEquivalence is the native fuzzing harness for the execution
// tiers: each int64 seed expands into a random program via progGen, which
// is compiled PER-SW and checked interpreter vs compiled backend (unfused
// and fused lowering) on random packets.
// Run with:
//
//	go test ./internal/dataplane -fuzz FuzzEngineEquivalence
//
// The checked-in seed corpus lives in testdata/fuzz/FuzzEngineEquivalence.
func FuzzEngineEquivalence(f *testing.F) {
	for _, s := range []int64{1, 42, 20200810} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		gen := &progGen{rng: rng}
		src := gen.generate()
		engineEquivalenceOneProgram(t, src, "fuzzalg: [ ToR3 | PER-SW | - ]", rng, 5)
	})
}

// TestEngineFuzzSweepPerSwitch is the deterministic arm of the fuzz
// campaign: a seeded sweep of generated programs checked PER-SW.
func TestEngineFuzzSweepPerSwitch(t *testing.T) {
	rng := rand.New(rand.NewSource(20200810))
	gen := &progGen{rng: rng}
	for p := 0; p < 30; p++ {
		src := gen.generate()
		engineEquivalenceOneProgram(t, src, "fuzzalg: [ ToR3 | PER-SW | - ]", rng, 6)
	}
}

// TestEngineFuzzSweepMultiSwitch repeats the sweep with MULTI-SW placement
// over the pod, so the lowering's import/export bridge moves and per-shard
// gate logic face the same random programs as the interpreter's.
func TestEngineFuzzSweepMultiSwitch(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	gen := &progGen{rng: rng}
	for p := 0; p < 15; p++ {
		src := gen.generate()
		engineEquivalenceOneProgram(t,
			src, "fuzzalg: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]", rng, 6)
	}
}
