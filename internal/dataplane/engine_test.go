package dataplane

import (
	"math/rand"
	"testing"
)

// lbDeployment compiles the load balancer, populates tables, and builds a
// deployment, shared across the lowering and compiled-tier tests.
func lbDeployment(t testing.TB) (*Deployment, *Tables, [][]string) {
	t.Helper()
	plan, _ := compile(t, lbSrc, lbScope)
	tables := NewTables()
	for vip := uint64(0); vip < 16; vip++ {
		tables.Set("vip_table", vip, 0xC0A80000+vip)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 48; i++ {
		tables.Set("conn_table", uint64(rng.Uint32()), 0x0A000000+uint64(i))
	}
	dep, err := NewDeployment(plan, tables)
	if err != nil {
		t.Fatalf("deployment: %v", err)
	}
	return dep, tables, flowPaths(t, plan, "loadbalancer")
}

// unfusedCompiled lowers a deployment WITHOUT the superinstruction fusion
// pass and compiles the result through the same compileUnit the production
// path uses — the reference the fusion pass is checked against. Where this
// agrees with the interpreter and Deployment.Compiled does not, the bug is
// in fuseUnit or a superinstruction's closure; where both disagree, it is
// in lowering or closure compilation proper.
func unfusedCompiled(t testing.TB, dep *Deployment) *Compiled {
	t.Helper()
	eng, err := newEngine(dep, false)
	if err != nil {
		t.Fatalf("unfused lowering: %v", err)
	}
	return CompileEngine(eng)
}

// runUnfused executes a path on the unfused lowering: fresh lane, like
// RunPathCompiled.
func runUnfused(t testing.TB, dep *Deployment, path []string, ctx *Context, in *Packet) *Packet {
	t.Helper()
	c := unfusedCompiled(t, dep)
	f := c.Flatten(in)
	c.RunPacket(c.NewLane(), path, ctx, f)
	return f.Packet()
}

// TestEngineMatchesInterpreterLB checks byte-identical output (full map
// reconstruction, not just the summary) between RunPath and the unfused
// lowering on the LB workload across every flow path;
// TestCompiledMatchesInterpreterLB is the same sweep on the fused one.
func TestEngineMatchesInterpreterLB(t *testing.T) {
	dep, _, paths := lbDeployment(t)
	rng := rand.New(rand.NewSource(2))
	ctx := &Context{SwitchID: 7, IngressTS: 1000, EgressTS: 1500, QueueLen: 3}
	for i := 0; i < 50; i++ {
		pkt := randomLBPacket(rng)
		for _, path := range paths {
			want, err := dep.RunPath(path, ctx, pkt)
			if err != nil {
				t.Fatalf("interpreter: %v", err)
			}
			got := runUnfused(t, dep, path, ctx, pkt)
			if got.Summary() != want.Summary() {
				t.Fatalf("packet %d path %v:\n  interp:  %s\n  unfused: %s",
					i, path, want.Summary(), got.Summary())
			}
			if diffs := DiffPackets(want, got, nil); len(diffs) > 0 {
				t.Fatalf("packet %d path %v diffs: %v", i, path, diffs)
			}
		}
	}
}

// TestEngineReferenceMatchesInterpreter checks the unfused lowering's
// reference unit against RunReference.
func TestEngineReferenceMatchesInterpreter(t *testing.T) {
	dep, tables, _ := lbDeployment(t)
	comp := unfusedCompiled(t, dep)
	irp := dep.Plan.Input.IR
	rng := rand.New(rand.NewSource(3))
	ctx := &Context{SwitchID: 1}
	for i := 0; i < 50; i++ {
		pkt := randomLBPacket(rng)
		want, err := RunReference(irp, tables, ctx, pkt)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		lane := comp.NewLane()
		f := comp.Flatten(pkt)
		comp.RunReference(lane, ctx, f)
		got := f.Packet()
		if got.Summary() != want.Summary() {
			t.Fatalf("packet %d:\n  interp:  %s\n  unfused: %s", i, want.Summary(), got.Summary())
		}
	}
}

// TestEngineTracedMatchesInterpreter compares per-hop snapshots: the
// compiled tier run one hop at a time on one persistent lane against
// RunPathTraced, so a divergence is pinned to the switch it first shows at.
func TestEngineTracedMatchesInterpreter(t *testing.T) {
	plan, _ := compile(t, lbSrc, lbScope)
	tables := NewTables()
	for vip := uint64(0); vip < 16; vip++ {
		tables.Set("vip_table", vip, 0xC0A80000+vip)
	}
	rng := rand.New(rand.NewSource(4))
	ctx := &Context{SwitchID: 9}
	for i := 0; i < 10; i++ {
		pkt := randomLBPacket(rng)
		for _, path := range flowPaths(t, plan, "loadbalancer") {
			depA, err := NewDeployment(plan, tables)
			if err != nil {
				t.Fatal(err)
			}
			depB, err := NewDeployment(plan, tables)
			if err != nil {
				t.Fatal(err)
			}
			want, wantHops, err := depA.RunPathTraced(path, ctx, pkt)
			if err != nil {
				t.Fatalf("interpreter traced: %v", err)
			}
			comp, err := depB.Compiled()
			if err != nil {
				t.Fatalf("compiled: %v", err)
			}
			lane, f := comp.NewLane(), comp.Flatten(pkt)
			var gotHops []HopSnapshot
			for _, sw := range path {
				comp.RunPacket(lane, []string{sw}, ctx, f)
				gotHops = append(gotHops, HopSnapshot{Switch: sw, Summary: f.Packet().Summary()})
			}
			if got := f.Packet(); got.Summary() != want.Summary() {
				t.Fatalf("final state:\n  interp:   %s\n  compiled: %s", want.Summary(), got.Summary())
			}
			if len(gotHops) != len(wantHops) {
				t.Fatalf("hop counts differ: %d vs %d", len(wantHops), len(gotHops))
			}
			for h := range wantHops {
				if gotHops[h].Switch != wantHops[h].Switch || gotHops[h].Summary != wantHops[h].Summary {
					t.Fatalf("hop %d diverges:\n  interp:   %s %s\n  compiled: %s %s", h,
						wantHops[h].Switch, wantHops[h].Summary, gotHops[h].Switch, gotHops[h].Summary)
				}
			}
		}
	}
}

// statefulSrc exercises globals (register arrays), header add/remove,
// hashing, packet ops, and table inserts — every stateful op the lowering
// handles.
const statefulSrc = `
header_type h_t { bit[32] a; bit[32] b; bit[32] out; }
header h_t h;
header_type probe_t { bit[32] stamp; }
header probe_t probe;
pipeline[ST]{statealg};
algorithm statealg {
  extern dict<bit[32] k, bit[32] v>[32] seen_table;
  global bit[32][16] counters;
  bit[32] idx;
  bit[32] c;
  idx = h.a & 15;
  c = counters[idx] + 1;
  counters[idx] = c;
  if (c > 2) {
    add_header(probe);
    probe.stamp = crc16_hash(h.a, c);
    insert(seen_table, h.a, c);
  }
  if (h.a in seen_table) {
    h.out = seen_table[h.a] + counters[idx];
  } else {
    h.out = c;
  }
  if (h.b == 1) { drop(); }
  if (h.b == 2) { forward(h.a & 7); }
}
`

const statefulScope = `statealg: [ ToR3 | PER-SW | - ]`

// TestEngineStatefulSequence runs a packet sequence through one lane of the
// unfused lowering and through the interpreter on a fresh deployment each,
// asserting identical evolution of register state, inserted entries, and
// packet outputs (TestCompiledStatefulSequence: the fused lowering).
func TestEngineStatefulSequence(t *testing.T) {
	plan, _ := compile(t, statefulSrc, statefulScope)
	tables := NewTables()
	tables.Set("seen_table", 999, 5)

	depInterp, err := NewDeployment(plan, tables)
	if err != nil {
		t.Fatal(err)
	}
	depUnfused, err := NewDeployment(plan, tables)
	if err != nil {
		t.Fatal(err)
	}
	comp := unfusedCompiled(t, depUnfused)
	lane := comp.NewLane()

	ctx := &Context{SwitchID: 3, QueueLen: 2}
	rng := rand.New(rand.NewSource(11))
	path := []string{"ToR3"}
	for i := 0; i < 64; i++ {
		pkt := NewPacket()
		pkt.Valid["h"] = true
		pkt.Fields["h.a"] = uint64(rng.Intn(8)) // collide often: counters advance
		pkt.Fields["h.b"] = uint64(rng.Intn(4))
		want, err := depInterp.RunPath(path, ctx, pkt)
		if err != nil {
			t.Fatalf("interpreter: %v", err)
		}
		f := comp.Flatten(pkt)
		comp.RunPacket(lane, path, ctx, f)
		got := f.Packet()
		if got.Summary() != want.Summary() {
			t.Fatalf("packet %d diverges:\n  interp:  %s\n  unfused: %s", i, want.Summary(), got.Summary())
		}
	}
}

// TestEngineInsertIsLaneLocal: a lane's data-plane inserts must not leak
// into the deployment's shared control-plane maps (copy-on-write), so
// parallel lanes never race and the interpreter's view stays pristine.
func TestEngineInsertIsLaneLocal(t *testing.T) {
	plan, _ := compile(t, statefulSrc, statefulScope)
	tables := NewTables()
	dep, err := NewDeployment(plan, tables)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := dep.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	lane := comp.NewLane()
	ctx := &Context{}
	for i := 0; i < 4; i++ { // same key four times: crosses the c>2 insert threshold
		pkt := NewPacket()
		pkt.Valid["h"] = true
		pkt.Fields["h.a"] = 5
		f := comp.Flatten(pkt)
		comp.RunPacket(lane, []string{"ToR3"}, ctx, f)
	}
	if st := dep.shardTables["ToR3"]; st != nil {
		if _, hit := st.Lookup("seen_table", 5); hit {
			t.Fatal("data-plane insert leaked into the deployment's shard tables")
		}
	}
	// And a second, fresh lane must not see the first lane's inserts.
	lane2 := comp.NewLane()
	pkt := NewPacket()
	pkt.Valid["h"] = true
	pkt.Fields["h.a"] = 5
	f := comp.Flatten(pkt)
	comp.RunPacket(lane2, []string{"ToR3"}, ctx, f)
	got := f.Packet()
	if got.Fields["h.out"] != 1 { // fresh counters, no seen_table hit
		t.Fatalf("fresh lane saw another lane's state: h.out=%d, want 1", got.Fields["h.out"])
	}
}

// TestEngineInvalidatedOnTableMutation: SetSwitchEntry must invalidate the
// mutated switch's lowered table state — without dropping the engine or the
// compiled backend. The lowered code never depends on table contents, so
// both (and any lanes bound to them) survive the mutation; only the affected switch's
// table generation bumps, and lanes rebind that switch's views on their
// next run through it.
func TestEngineInvalidatedOnTableMutation(t *testing.T) {
	dep, _, paths := lbDeployment(t)
	comp, err := dep.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	eng := comp.Engine()
	if dep.engine == nil || dep.externKeys == nil {
		t.Fatal("expected caches to be populated")
	}
	tor := paths[0][len(paths[0])-1]
	gen := eng.tableGen[eng.switchUnits[tor].stateIdx]
	// A lane that has already executed the switch holds stale views.
	lane := comp.NewLane()
	warm := NewPacket()
	warm.Valid["ipv4"] = true
	warm.Valid["tcp"] = true
	warm.Fields["ipv4.dstAddr"] = 99
	warm.Fields["ipv4.protocol"] = 6
	comp.RunPacket(lane, paths[0], &Context{SwitchID: 1}, comp.Flatten(warm))

	dep.SetSwitchEntry(tor, "vip_table", 99, 0xdead)
	if dep.engine != eng || dep.compiled != comp {
		t.Fatal("SetSwitchEntry dropped the cached engine; expected a generation bump instead")
	}
	if dep.externKeys == nil {
		t.Fatal("SetSwitchEntry dropped extern metadata; it does not depend on table contents")
	}
	if got := eng.tableGen[eng.switchUnits[tor].stateIdx]; got != gen+1 {
		t.Fatalf("mutated switch generation = %d, want %d", got, gen+1)
	}

	pkt := NewPacket()
	pkt.Valid["ipv4"] = true
	pkt.Valid["tcp"] = true
	pkt.Fields["ipv4.dstAddr"] = 99
	pkt.Fields["ipv4.protocol"] = 6
	ctx := &Context{SwitchID: 1}
	want, err := dep.RunPath(paths[0], ctx, pkt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dep.RunPathCompiled(paths[0], ctx, pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Summary() != want.Summary() {
		t.Fatalf("post-mutation divergence:\n  interp:   %s\n  compiled: %s", want.Summary(), got.Summary())
	}
	// The pre-existing lane must also observe the new entry (lazy rebind).
	f := comp.Flatten(pkt.Clone())
	comp.RunPacket(lane, paths[0], ctx, f)
	if laneGot := f.Packet(); laneGot.Summary() != want.Summary() {
		t.Fatalf("stale lane after mutation:\n  interp: %s\n  lane:   %s", want.Summary(), laneGot.Summary())
	}

	// Mutating one switch must not touch the others' generations.
	other := ""
	for sw, u := range eng.switchUnits {
		if sw != tor && u != nil {
			other = sw
			break
		}
	}
	if other != "" {
		before := eng.tableGen[eng.switchUnits[other].stateIdx]
		dep.SetSwitchEntry(tor, "vip_table", 100, 0xbeef)
		if after := eng.tableGen[eng.switchUnits[other].stateIdx]; after != before {
			t.Fatalf("unrelated switch generation moved: %d -> %d", before, after)
		}
	}
	// Mutating a switch with no placed program must be harmless.
	dep.ClearSwitchTable(paths[0][0], "conn_table")
	if dep.engine != eng {
		t.Fatal("ClearSwitchTable dropped the cached engine; expected a generation bump instead")
	}
}

// TestEngineRunBatchMatchesSequential: batched, sharded replay of the
// unfused lowering must produce the same per-packet outputs as its
// single-worker run for a stateless workload, at every worker count.
func TestEngineRunBatchMatchesSequential(t *testing.T) {
	dep, _, paths := lbDeployment(t)
	comp := unfusedCompiled(t, dep)
	ctx := &Context{SwitchID: 2}
	const n = 256
	mk := func() []*FlatPacket {
		r := rand.New(rand.NewSource(5))
		out := make([]*FlatPacket, n)
		for i := range out {
			out[i] = comp.Flatten(randomLBPacket(r))
		}
		return out
	}
	base := mk()
	comp.RunBatch(paths[0], ctx, base, 1)
	for _, workers := range []int{2, 4, 7} {
		got := mk()
		comp.RunBatch(paths[0], ctx, got, workers)
		for i := range got {
			if got[i].Packet().Summary() != base[i].Packet().Summary() {
				t.Fatalf("workers=%d packet %d diverges from sequential", workers, i)
			}
		}
	}
}

// TestEngineSteadyStateZeroAlloc is the acceptance gate at the Executor
// interface, where the per-packet layout-ownership check lives: running a
// packet or a single-worker batch through ExecutorFor(TierCompiled) must
// not allocate once lanes and packets exist.
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	dep, _, paths := lbDeployment(t)
	eng, err := dep.Engine()
	if err != nil {
		t.Fatal(err)
	}
	x, err := dep.ExecutorFor(TierCompiled)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Context{SwitchID: 2, IngressTS: 5}
	rng := rand.New(rand.NewSource(6))
	tmpl := eng.Flatten(randomLBPacket(rng))
	f := eng.NewFlatPacket()
	path := paths[0]
	run := func() {
		f.CopyFrom(tmpl)
		if err := x.RunPacket(path, ctx, f); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up (first runs may grow runtime stacks).
	for i := 0; i < 10; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("steady-state execute loop allocates %.1f times per packet, want 0", allocs)
	}
	// Single-worker batches run inline on lane 0 and stay allocation-free
	// too.
	batch := []*FlatPacket{f}
	runBatch := func() {
		f.CopyFrom(tmpl)
		if err := x.RunBatch(path, ctx, batch, 1); err != nil {
			t.Fatal(err)
		}
	}
	runBatch()
	if allocs := testing.AllocsPerRun(200, runBatch); allocs != 0 {
		t.Fatalf("single-worker RunBatch allocates %.1f times per packet, want 0", allocs)
	}
}

// BenchmarkInterpreterPath measures the tree-walking interpreter on the LB
// flow path — the baseline BenchmarkCompiledPath is judged against.
func BenchmarkInterpreterPath(b *testing.B) {
	dep, _, paths := lbDeployment(b)
	rng := rand.New(rand.NewSource(8))
	pkts := make([]*Packet, 1024)
	for i := range pkts {
		pkts[i] = randomLBPacket(rng)
	}
	ctx := &Context{SwitchID: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dep.RunPath(paths[0], ctx, pkts[i%len(pkts)]); err != nil {
			b.Fatal(err)
		}
	}
	reportPPS(b)
}

func reportPPS(b *testing.B) {
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
	}
}
