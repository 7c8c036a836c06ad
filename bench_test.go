package lyra

// Benchmark harness regenerating every table and figure of the paper's
// evaluation (§7), plus ablations of the design choices DESIGN.md calls
// out. Absolute times differ from the paper (their solver was Z3 on a 2020
// workstation); the comparisons of interest are the shapes: who uses fewer
// resources, how compile time scales with topology size, and where the
// table-split crossovers fall. EXPERIMENTS.md records paper-vs-measured.

import (
	"context"
	"testing"

	"lyra/internal/asic"
	"lyra/internal/baseline"
	"lyra/internal/eval"
	"lyra/internal/frontend"
	"lyra/internal/ir"
	"lyra/internal/lang/checker"
	"lyra/internal/lang/parser"
	"lyra/internal/smt"
	"lyra/internal/synth"
)

// --- Figure 9: per-program compilation (portability, §7.1) ---

func benchCompileProgram(b *testing.B, name, sw string) {
	b.Helper()
	src := loadProgram(b, name)
	scope := perSwitchScope(b, src, sw)
	net := Testbed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(WithSkipVerify()).Compile(context.Background(), src, scope, net); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9_P4_IngressINT(b *testing.B)   { benchCompileProgram(b, "ingress_int", "ToR1") }
func BenchmarkFigure9_P4_TransitINT(b *testing.B)   { benchCompileProgram(b, "transit_int", "ToR1") }
func BenchmarkFigure9_P4_EgressINT(b *testing.B)    { benchCompileProgram(b, "egress_int", "ToR1") }
func BenchmarkFigure9_P4_Speedlight(b *testing.B)   { benchCompileProgram(b, "speedlight", "ToR1") }
func BenchmarkFigure9_P4_NetCache(b *testing.B)     { benchCompileProgram(b, "netcache", "ToR1") }
func BenchmarkFigure9_P4_NetChain(b *testing.B)     { benchCompileProgram(b, "netchain", "ToR1") }
func BenchmarkFigure9_P4_NetPaxos(b *testing.B)     { benchCompileProgram(b, "netpaxos", "ToR1") }
func BenchmarkFigure9_P4_Flowlet(b *testing.B)      { benchCompileProgram(b, "flowlet_switching", "ToR1") }
func BenchmarkFigure9_P4_SimpleRouter(b *testing.B) { benchCompileProgram(b, "simple_router", "ToR1") }
func BenchmarkFigure9_P4_Switch(b *testing.B)       { benchCompileProgram(b, "switch", "ToR1") }

func BenchmarkFigure9_NPL_IngressINT(b *testing.B)   { benchCompileProgram(b, "ingress_int", "Agg1") }
func BenchmarkFigure9_NPL_TransitINT(b *testing.B)   { benchCompileProgram(b, "transit_int", "Agg1") }
func BenchmarkFigure9_NPL_EgressINT(b *testing.B)    { benchCompileProgram(b, "egress_int", "Agg1") }
func BenchmarkFigure9_NPL_Speedlight(b *testing.B)   { benchCompileProgram(b, "speedlight", "Agg1") }
func BenchmarkFigure9_NPL_NetCache(b *testing.B)     { benchCompileProgram(b, "netcache", "Agg1") }
func BenchmarkFigure9_NPL_NetChain(b *testing.B)     { benchCompileProgram(b, "netchain", "Agg1") }
func BenchmarkFigure9_NPL_NetPaxos(b *testing.B)     { benchCompileProgram(b, "netpaxos", "Agg1") }
func BenchmarkFigure9_NPL_Flowlet(b *testing.B)      { benchCompileProgram(b, "flowlet_switching", "Agg1") }
func BenchmarkFigure9_NPL_SimpleRouter(b *testing.B) { benchCompileProgram(b, "simple_router", "Agg1") }
func BenchmarkFigure9_NPL_Switch(b *testing.B)       { benchCompileProgram(b, "switch", "Agg1") }

// BenchmarkFigure9_Table regenerates the whole table once per iteration and
// reports the headline reductions as custom metrics.
func BenchmarkFigure9_Table(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		var locSaved, maxLocSaved float64
		for _, r := range rows {
			s := 1 - float64(r.LyraLoC)/float64(r.Baseline.LoC)
			locSaved += s
			if s > maxLocSaved {
				maxLocSaved = s
			}
		}
		b.ReportMetric(100*locSaved/float64(len(rows)), "avg_%LoC_saved")
		b.ReportMetric(100*maxLocSaved, "max_%LoC_saved")
	}
}

// --- Figure 10: compile-time scalability (§7.2) ---

func benchFig10(b *testing.B, workload, scopeText string, k int, model *ChipModel, src string) {
	b.Helper()
	net := FatTreePod(k, model)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(WithSkipVerify()).Compile(context.Background(), src, scopeText, net); err != nil {
			b.Fatalf("%s k=%d: %v", workload, k, err)
		}
	}
}

func lbSrc() string {
	return `
header_type ipv4_t { bit[32] srcAddr; bit[32] dstAddr; bit[8] protocol; }
header ipv4_t ipv4;
header_type tcp_t { bit[16] srcPort; bit[16] dstPort; }
header tcp_t tcp;
pipeline[LB]{loadbalancer};
algorithm loadbalancer {
  extern dict<bit[32] hash, bit[32] ip>[100000] conn_table;
  extern dict<bit[32] vip, bit[32] dip>[10000] vip_table;
  bit[32] hash;
  hash = crc32_hash(ipv4.srcAddr, ipv4.dstAddr, ipv4.protocol, tcp.srcPort, tcp.dstPort);
  if (hash in conn_table) {
    ipv4.dstAddr = conn_table[hash];
  } else {
    if (ipv4.dstAddr in vip_table) {
      ipv4.dstAddr = vip_table[ipv4.dstAddr];
    }
  }
}
`
}

const lbMultiScope = "loadbalancer: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]"

func BenchmarkFigure10_LBMulti_Tofino_K4(b *testing.B) {
	benchFig10(b, "lb", lbMultiScope, 4, Tofino32Q, lbSrc())
}
func BenchmarkFigure10_LBMulti_Tofino_K8(b *testing.B) {
	benchFig10(b, "lb", lbMultiScope, 8, Tofino32Q, lbSrc())
}
func BenchmarkFigure10_LBMulti_Tofino_K16(b *testing.B) {
	benchFig10(b, "lb", lbMultiScope, 16, Tofino32Q, lbSrc())
}
func BenchmarkFigure10_LBMulti_Tofino_K24(b *testing.B) {
	benchFig10(b, "lb", lbMultiScope, 24, Tofino32Q, lbSrc())
}
func BenchmarkFigure10_LBMulti_Tofino_K32(b *testing.B) {
	benchFig10(b, "lb", lbMultiScope, 32, Tofino32Q, lbSrc())
}
func BenchmarkFigure10_LBMulti_Trident_K8(b *testing.B) {
	benchFig10(b, "lb", lbMultiScope, 8, Trident4, lbSrc())
}
func BenchmarkFigure10_LBMulti_Trident_K32(b *testing.B) {
	benchFig10(b, "lb", lbMultiScope, 32, Trident4, lbSrc())
}

func netcacheSrc(b *testing.B) string { return loadProgram(b, "netcache") }

func BenchmarkFigure10_NetCachePer_Tofino_K8(b *testing.B) {
	benchFig10(b, "netcache-per", "netcache: [ ToR*,Agg* | PER-SW | - ]", 8, Tofino32Q, netcacheSrc(b))
}
func BenchmarkFigure10_NetCachePer_Tofino_K32(b *testing.B) {
	benchFig10(b, "netcache-per", "netcache: [ ToR*,Agg* | PER-SW | - ]", 32, Tofino32Q, netcacheSrc(b))
}
func BenchmarkFigure10_NetCacheMulti_Tofino_K8(b *testing.B) {
	benchFig10(b, "netcache-multi", "netcache: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]", 8, Tofino32Q, netcacheSrc(b))
}
func BenchmarkFigure10_NetCacheMulti_Tofino_K32(b *testing.B) {
	benchFig10(b, "netcache-multi", "netcache: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]", 32, Tofino32Q, netcacheSrc(b))
}
func BenchmarkFigure10_NetCacheMulti_Trident_K32(b *testing.B) {
	benchFig10(b, "netcache-multi", "netcache: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]", 32, Trident4, netcacheSrc(b))
}

// --- §7.2 extensibility and §7.3 composition case studies ---

// --- CI benchmark smoke: end-to-end compile on fat-tree pods ---
//
// The bench-smoke CI job runs `go test -bench=Compile -benchtime=1x` over
// these to track the perf trajectory per commit; the Serial variants pin
// the same workload to one worker so the parallel speedup is visible in
// the same run. The workload is the five-algorithm service chain spread
// over disjoint switch groups of the pod, so every concurrent stage of the
// pipeline is exercised: component solving, per-switch code emission, and
// verification.

func fatTreeChainScopes(k int) string {
	algs := []string{"classifier", "firewall", "gateway", "chain_lb", "scheduler"}
	// Distribute the pod's switches round-robin over the algorithms. Every
	// algorithm needs a scope, so when the pod has fewer switches than
	// algorithms the tail wraps around and shares switches (fusing those
	// components); with k >= 5 the scopes are fully disjoint and the
	// placement splits into one component per algorithm.
	names := FatTreePod(k, Tofino32Q).Names()
	groups := make([][]string, len(algs))
	for i, sw := range names {
		groups[i%len(algs)] = append(groups[i%len(algs)], sw)
	}
	for i := len(names); i < len(algs); i++ {
		groups[i] = append(groups[i], names[i%len(names)])
	}
	scopeSpec := ""
	for i, a := range algs {
		scopeSpec += a + ": [ "
		for j, sw := range groups[i] {
			if j > 0 {
				scopeSpec += ","
			}
			scopeSpec += sw
		}
		scopeSpec += " | PER-SW | - ]\n"
	}
	return scopeSpec
}

func benchCompileFatTree(b *testing.B, k, workers int) {
	b.Helper()
	src := loadProgram(b, "composition")
	scopeSpec := fatTreeChainScopes(k)
	net := FatTreePod(k, Tofino32Q)
	c := New(WithParallelism(workers))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compile(context.Background(), src, scopeSpec, net); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileFatTreeK4(b *testing.B)       { benchCompileFatTree(b, 4, 0) }
func BenchmarkCompileFatTreeK4Serial(b *testing.B) { benchCompileFatTree(b, 4, 1) }
func BenchmarkCompileFatTreeK8(b *testing.B)       { benchCompileFatTree(b, 8, 0) }
func BenchmarkCompileFatTreeK8Serial(b *testing.B) { benchCompileFatTree(b, 8, 1) }

func BenchmarkExtensibilityCase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		steps, err := eval.Extensibility()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(steps[2].Shards)), "shards_at_4M")
	}
}

func BenchmarkCompositionCase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Composition(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md "Key design decisions") ---

func synthInput(b *testing.B, name string) *ir.Program {
	src := loadProgram(b, name)
	prog, err := parser.Parse(name, []byte(src))
	if err != nil {
		b.Fatal(err)
	}
	if err := checker.Check(prog); err != nil {
		b.Fatal(err)
	}
	irp, err := frontend.Preprocess(prog)
	if err != nil {
		b.Fatal(err)
	}
	frontend.Analyze(irp)
	return irp
}

// BenchmarkAblationMerge compares table counts with and without
// mutually-exclusive block merging (the §7.1 NetCache saving).
func BenchmarkAblationMerge(b *testing.B) {
	irp := synthInput(b, "netcache")
	alg := irp.Algorithm("netcache")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with := synth.SynthesizeP4With(irp, alg, synth.Options{})
		without := synth.SynthesizeP4With(irp, alg, synth.Options{NoMerge: true})
		b.ReportMetric(float64(len(with.Tables)), "tables_merged")
		b.ReportMetric(float64(len(without.Tables)), "tables_unmerged")
	}
}

// BenchmarkAblationAbsorb compares table counts with and without absorbing
// field comparisons into match keys (Appendix C.1-style reduction).
func BenchmarkAblationAbsorb(b *testing.B) {
	irp := synthInput(b, "netpaxos")
	alg := irp.Algorithm("netpaxos")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with := synth.SynthesizeP4With(irp, alg, synth.Options{})
		without := synth.SynthesizeP4With(irp, alg, synth.Options{NoAbsorb: true})
		b.ReportMetric(float64(len(with.Tables)), "tables_absorbed")
		b.ReportMetric(float64(len(without.Tables)), "tables_plain")
	}
}

// BenchmarkAblationPacking compares memory blocks for a 1M-entry ConnTable
// with and without RMT word packing (Appendix A.4, Eq. 11 vs Eq. 12).
func BenchmarkAblationPacking(b *testing.B) {
	noPack := *asic.Tofino32Q
	noPack.WordPacking = false
	for i := 0; i < b.N; i++ {
		packed := asic.Tofino32Q.MemoryBlocksFor(1_000_000, 64)
		plain := noPack.MemoryBlocksFor(1_000_000, 64)
		b.ReportMetric(float64(packed), "blocks_packed")
		b.ReportMetric(float64(plain), "blocks_unpacked")
	}
}

// BenchmarkAblationPHV measures the packing-strategy search vs the trivial
// one-word-class fallback across realistic field mixes.
func BenchmarkAblationPHV(b *testing.B) {
	fields := []int{48, 48, 32, 32, 32, 16, 16, 9, 8, 1, 1, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, f := range fields {
			n += len(asic.PackingStrategies(f))
		}
		if n == 0 {
			b.Fatal("no strategies")
		}
	}
}

// --- Substrate microbenchmarks ---

func BenchmarkSolverPigeonhole(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := smt.NewSolver()
		const P, H = 7, 6
		var x [P][H]smt.Lit
		for p := 0; p < P; p++ {
			var row []smt.Lit
			for h := 0; h < H; h++ {
				x[p][h] = s.NewBool("")
				row = append(row, x[p][h])
			}
			s.AddClause(row...)
		}
		for h := 0; h < H; h++ {
			for p1 := 0; p1 < P; p1++ {
				for p2 := p1 + 1; p2 < P; p2++ {
					s.AddClause(x[p1][h].Not(), x[p2][h].Not())
				}
			}
		}
		if st, _ := s.Solve(); st != smt.StatusUnsat {
			b.Fatal("pigeonhole must be unsat")
		}
	}
}

func BenchmarkSimulationThroughput(b *testing.B) {
	res, err := New(WithSkipVerify()).Compile(context.Background(), lbSrc(), "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]", Testbed())
	if err != nil {
		b.Fatal(err)
	}
	tables := NewTables()
	for vip := uint64(0); vip < 64; vip++ {
		tables.Set("vip_table", vip, 0x0A000000+vip)
	}
	sim, err := res.Simulate(tables)
	if err != nil {
		b.Fatal(err)
	}
	path := res.FlowPaths("loadbalancer")[0]
	ctx := &SimContext{}
	pkt := NewPacket()
	pkt.Valid["ipv4"] = true
	pkt.Valid["tcp"] = true
	pkt.Fields["ipv4.srcAddr"] = 0x01020304
	pkt.Fields["ipv4.dstAddr"] = 3
	pkt.Fields["ipv4.protocol"] = 6
	pkt.Fields["tcp.srcPort"] = 1234
	pkt.Fields["tcp.dstPort"] = 80
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunPath(path, ctx, pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineMeasure exercises the baseline metric scanner.
func BenchmarkBaselineMeasure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range baseline.Names() {
			m := baseline.Measure(n)
			if m.LoC == 0 {
				b.Fatal("empty baseline")
			}
		}
	}
}
