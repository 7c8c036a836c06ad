package dataplane

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lyra/internal/encode"
	"lyra/internal/frontend"
	"lyra/internal/lang/checker"
	"lyra/internal/lang/parser"
	"lyra/internal/scope"
	"lyra/internal/topo"
)

// progGen emits random but well-formed Lyra algorithms over a fixed header,
// one extern table, and one global array — covering assignments, nested
// branches, lookups, stateful updates, and packet operations.
type progGen struct {
	rng      *rand.Rand
	b        strings.Builder
	vars     []string
	loBudget int
}

func (g *progGen) pick(ss []string) string { return ss[g.rng.Intn(len(ss))] }

func (g *progGen) leaf() string {
	switch g.rng.Intn(4) {
	case 0:
		return g.pick([]string{"h.a", "h.b", "h.c"})
	case 1:
		if len(g.vars) > 0 {
			return g.pick(g.vars)
		}
		return "h.a"
	case 2:
		return fmt.Sprintf("%d", g.rng.Intn(1<<16))
	default:
		return fmt.Sprintf("0x%x", g.rng.Intn(1<<20))
	}
}

func (g *progGen) expr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		return g.leaf()
	}
	op := g.pick([]string{"+", "-", "&", "|", "^"})
	if g.rng.Intn(5) == 0 {
		return fmt.Sprintf("(%s << %d)", g.expr(depth-1), g.rng.Intn(8))
	}
	return fmt.Sprintf("(%s %s %s)", g.expr(depth-1), op, g.expr(depth-1))
}

func (g *progGen) cond() string {
	op := g.pick([]string{"==", "!=", "<", ">", "<=", ">="})
	return fmt.Sprintf("%s %s %s", g.leaf(), op, g.leaf())
}

func (g *progGen) stmt(depth, indent int) {
	pad := strings.Repeat("  ", indent)
	switch k := g.rng.Intn(10); {
	case k < 3: // new or reassigned variable
		name := fmt.Sprintf("t%d", g.rng.Intn(4))
		fmt.Fprintf(&g.b, "%s%s = %s;\n", pad, name, g.expr(2))
		g.addVar(name)
	case k < 5: // field write
		fmt.Fprintf(&g.b, "%s%s = %s;\n", pad, g.pick([]string{"h.out", "h.c"}), g.expr(2))
	case k < 7 && depth > 0: // branch
		fmt.Fprintf(&g.b, "%sif (%s) {\n", pad, g.cond())
		n := 1 + g.rng.Intn(2)
		for i := 0; i < n; i++ {
			g.stmt(depth-1, indent+1)
		}
		if g.rng.Intn(2) == 0 {
			fmt.Fprintf(&g.b, "%s} else {\n", pad)
			g.stmt(depth-1, indent+1)
		}
		fmt.Fprintf(&g.b, "%s}\n", pad)
	case k < 8 && g.loBudget > 0: // table lookup
		g.loBudget--
		fmt.Fprintf(&g.b, "%sif (%s in fuzz_table) {\n", pad, g.pick([]string{"h.a", "h.b"}))
		fmt.Fprintf(&g.b, "%s  h.out = fuzz_table[%s];\n", pad, g.pick([]string{"h.a", "h.b"}))
		fmt.Fprintf(&g.b, "%s}\n", pad)
	case k < 9: // stateful counter
		fmt.Fprintf(&g.b, "%scounters[h.a & 15] = counters[h.a & 15] + 1;\n", pad)
	default: // packet op
		fmt.Fprintf(&g.b, "%s%s\n", pad, g.pick([]string{"forward(3);", "mirror();", "copy_to_cpu();"}))
	}
}

func (g *progGen) addVar(name string) {
	for _, v := range g.vars {
		if v == name {
			return
		}
	}
	g.vars = append(g.vars, name)
}

func (g *progGen) generate() string {
	g.b.Reset()
	g.vars = nil
	g.loBudget = 2
	g.b.WriteString(`
header_type h_t { bit[32] a; bit[32] b; bit[32] c; bit[32] out; }
header h_t h;
pipeline[FUZZ]{fuzzalg};
algorithm fuzzalg {
  extern dict<bit[32] k, bit[32] v>[32] fuzz_table;
  global bit[32][16] counters;
`)
	n := 4 + g.rng.Intn(8)
	for i := 0; i < n; i++ {
		g.stmt(2, 1)
	}
	g.b.WriteString("}\n")
	return g.b.String()
}

// TestFuzzEquivalencePerSwitch compiles random programs PER-SW and checks
// reference/distributed equivalence over random packets and table entries.
func TestFuzzEquivalencePerSwitch(t *testing.T) {
	fuzzEquivalence(t, "fuzzalg: [ ToR3 | PER-SW | - ]", [][]string{{"ToR3"}}, 40)
}

// TestFuzzEquivalenceMultiSwitch does the same with MULTI-SW placement over
// the pod, exercising the placement solver, shard replication, and bridge
// variables on every random program.
func TestFuzzEquivalenceMultiSwitch(t *testing.T) {
	fuzzEquivalence(t, "fuzzalg: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]", nil, 25)
}

// FuzzEquivalence is the native fuzzing harness over the same generator:
// each int64 seed expands into a random program via progGen, which is
// compiled PER-SW and checked for reference/distributed equivalence on
// random packets. Run with:
//
//	go test ./internal/dataplane -fuzz FuzzEquivalence
//
// The checked-in seed corpus lives in testdata/fuzz/FuzzEquivalence.
func FuzzEquivalence(f *testing.F) {
	for _, s := range []int64{1, 42, 20200810} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		gen := &progGen{rng: rng}
		src := gen.generate()
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
		spec, err := scope.Parse("fuzzalg: [ ToR3 | PER-SW | - ]")
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
			// A genuinely infeasible placement is not an equivalence bug.
			t.Skipf("solve: %v", err)
		}
		tables := NewTables()
		for i := 0; i < 16; i++ {
			tables.Set("fuzz_table", uint64(rng.Intn(64)), uint64(rng.Uint32()))
		}
		ctx := &Context{SwitchID: 5, IngressTS: 100, EgressTS: 200, QueueLen: 4}
		for i := 0; i < 5; i++ {
			pkt := NewPacket()
			pkt.Valid["h"] = true
			pkt.Fields["h.a"] = uint64(rng.Intn(64))
			pkt.Fields["h.b"] = uint64(rng.Intn(64))
			pkt.Fields["h.c"] = uint64(rng.Uint32())
			// Fresh deployment and reference per packet: stateful counters
			// must advance from the same baseline on both sides.
			dep, err := NewDeployment(plan, tables)
			if err != nil {
				t.Fatalf("deployment: %v\n%s", err, src)
			}
			ref, err := RunReference(irp, tables, ctx, pkt)
			if err != nil {
				t.Fatalf("reference: %v\n%s", err, src)
			}
			got, err := dep.RunPath([]string{"ToR3"}, ctx, pkt)
			if err != nil {
				t.Fatalf("distributed: %v\n%s", err, src)
			}
			if got.Summary() != ref.Summary() {
				t.Fatalf("seed %d diverges:\n  ref:  %s\n  dist: %s\nsource:\n%s",
					seed, ref.Summary(), got.Summary(), src)
			}
		}
	})
}

func fuzzEquivalence(t *testing.T, scopeText string, fixedPaths [][]string, nProgs int) {
	t.Helper()
	rng := rand.New(rand.NewSource(20200810))
	gen := &progGen{rng: rng}
	for p := 0; p < nProgs; p++ {
		src := gen.generate()
		plan, irp := compile(t, src, scopeText)

		tables := NewTables()
		for i := 0; i < 16; i++ {
			tables.Set("fuzz_table", uint64(rng.Intn(64)), uint64(rng.Uint32()))
		}
		dep, err := NewDeployment(plan, tables)
		if err != nil {
			t.Fatalf("program %d: deployment: %v\n%s", p, err, src)
		}
		paths := fixedPaths
		if paths == nil {
			paths = flowPaths(t, plan, "fuzzalg")
		}
		ctx := &Context{SwitchID: 5, IngressTS: 100, EgressTS: 200, QueueLen: 4}
		for i := 0; i < 20; i++ {
			pkt := NewPacket()
			pkt.Valid["h"] = true
			pkt.Fields["h.a"] = uint64(rng.Intn(64))
			pkt.Fields["h.b"] = uint64(rng.Intn(64))
			pkt.Fields["h.c"] = uint64(rng.Uint32())
			ref, err := RunReference(irp, tables, ctx, pkt)
			if err != nil {
				t.Fatalf("program %d: reference: %v\n%s", p, err, src)
			}
			for _, path := range paths {
				// Stateful counters advance per run; rebuild the deployment
				// for a clean comparison when the program touches them.
				freshDep := dep
				if strings.Contains(src, "counters[") {
					freshDep, err = NewDeployment(plan, tables)
					if err != nil {
						t.Fatal(err)
					}
				}
				got, err := freshDep.RunPath(path, ctx, pkt)
				if err != nil {
					t.Fatalf("program %d path %v: %v\n%s", p, path, err, src)
				}
				want := ref
				if strings.Contains(src, "counters[") {
					// Re-run reference against fresh globals for parity.
					want, err = RunReference(irp, tables, ctx, pkt)
					if err != nil {
						t.Fatal(err)
					}
				}
				if got.Summary() != want.Summary() {
					t.Fatalf("program %d diverges on path %v:\n  ref:  %s\n  dist: %s\nsource:\n%s",
						p, path, want.Summary(), got.Summary(), src)
				}
			}
		}
	}
}
