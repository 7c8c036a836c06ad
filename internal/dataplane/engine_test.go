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

// TestEngineMatchesInterpreterLB checks byte-identical output (full map
// reconstruction, not just the summary) between RunPath and the engine on
// the LB workload across every flow path. Unlike
// TestCompiledMatchesInterpreterLB, which takes a fresh lane per packet,
// one lane and one reused FlatPacket serve the whole sweep, and the paths
// alternate packet by packet, so a stale register, a stale table view or a
// stale resolved-path cache entry carried from one run into the next shows.
func TestEngineMatchesInterpreterLB(t *testing.T) {
	dep, _, paths := lbDeployment(t)
	eng, err := dep.Engine()
	if err != nil {
		t.Fatal(err)
	}
	lane, f := eng.newLane(), eng.NewFlatPacket()
	rng := rand.New(rand.NewSource(2))
	ctx := &Context{SwitchID: 7, IngressTS: 1000, EgressTS: 1500, QueueLen: 3}
	for i := 0; i < 50; i++ {
		pkt := randomLBPacket(rng)
		tmpl := eng.Flatten(pkt)
		for _, path := range paths {
			want, err := dep.RunPath(path, ctx, pkt)
			if err != nil {
				t.Fatalf("interpreter: %v", err)
			}
			f.CopyFrom(tmpl)
			eng.runPacket(lane, path, ctx, f)
			got := f.Packet()
			if got.Summary() != want.Summary() {
				t.Fatalf("packet %d path %v:\n  interp: %s\n  engine: %s",
					i, path, want.Summary(), got.Summary())
			}
			if diffs := DiffPackets(want, got, nil); len(diffs) > 0 {
				t.Fatalf("packet %d path %v diffs: %v", i, path, diffs)
			}
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
			eng, err := depB.Engine()
			if err != nil {
				t.Fatalf("compiled: %v", err)
			}
			lane, f := eng.newLane(), eng.Flatten(pkt)
			var gotHops []HopSnapshot
			for _, sw := range path {
				eng.runPacket(lane, []string{sw}, ctx, f)
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

// TestEngineStatefulSequence runs a packet sequence through the engine's
// single-worker batches and through the interpreter on a fresh deployment
// each, asserting identical evolution of register state, inserted entries,
// and packet outputs. TestCompiledStatefulSequence feeds one lane packet by
// packet; here the sequence is cut into batches of uneven size, so the
// state must carry across runBatch calls on the engine's pooled lane.
func TestEngineStatefulSequence(t *testing.T) {
	plan, _ := compile(t, statefulSrc, statefulScope)
	tables := NewTables()
	tables.Set("seen_table", 999, 5)

	depInterp, err := NewDeployment(plan, tables)
	if err != nil {
		t.Fatal(err)
	}
	depEng, err := NewDeployment(plan, tables)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := depEng.Engine()
	if err != nil {
		t.Fatal(err)
	}

	ctx := &Context{SwitchID: 3, QueueLen: 2}
	rng := rand.New(rand.NewSource(11))
	path := []string{"ToR3"}
	i := 0
	for _, size := range []int{1, 5, 2, 13, 3, 8, 32} { // 64 packets in all
		var want []*Packet
		batch := make([]*FlatPacket, size)
		for j := range batch {
			pkt := NewPacket()
			pkt.Valid["h"] = true
			pkt.Fields["h.a"] = uint64(rng.Intn(8)) // collide often: counters advance
			pkt.Fields["h.b"] = uint64(rng.Intn(4))
			w, err := depInterp.RunPath(path, ctx, pkt)
			if err != nil {
				t.Fatalf("interpreter: %v", err)
			}
			want = append(want, w)
			batch[j] = eng.Flatten(pkt)
		}
		eng.runBatch(path, ctx, batch, 1)
		for j, f := range batch {
			if got := f.Packet(); got.Summary() != want[j].Summary() {
				t.Fatalf("packet %d (batch of %d) diverges:\n  interp: %s\n  engine: %s",
					i, size, want[j].Summary(), got.Summary())
			}
			i++
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
	eng, err := dep.Engine()
	if err != nil {
		t.Fatal(err)
	}
	lane := eng.newLane()
	ctx := &Context{}
	for i := 0; i < 4; i++ { // same key four times: crosses the c>2 insert threshold
		pkt := NewPacket()
		pkt.Valid["h"] = true
		pkt.Fields["h.a"] = 5
		f := eng.Flatten(pkt)
		eng.runPacket(lane, []string{"ToR3"}, ctx, f)
	}
	if st := dep.shardTables["ToR3"]; st != nil {
		if _, hit := st.Lookup("seen_table", 5); hit {
			t.Fatal("data-plane insert leaked into the deployment's shard tables")
		}
	}
	// And a second, fresh lane must not see the first lane's inserts.
	lane2 := eng.newLane()
	pkt := NewPacket()
	pkt.Valid["h"] = true
	pkt.Fields["h.a"] = 5
	f := eng.Flatten(pkt)
	eng.runPacket(lane2, []string{"ToR3"}, ctx, f)
	got := f.Packet()
	if got.Fields["h.out"] != 1 { // fresh counters, no seen_table hit
		t.Fatalf("fresh lane saw another lane's state: h.out=%d, want 1", got.Fields["h.out"])
	}
}

// TestEngineInvalidatedOnTableMutation: SetSwitchEntry must invalidate the
// mutated switch's table state without dropping the engine. The compiled
// code never depends on table contents, so it (and any lanes bound to it)
// survives the mutation; only the affected switch's table generation
// bumps, and lanes rebind that switch's views on their next run through it.
func TestEngineInvalidatedOnTableMutation(t *testing.T) {
	dep, _, paths := lbDeployment(t)
	eng, err := dep.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if dep.engine == nil || dep.externKeys == nil {
		t.Fatal("expected caches to be populated")
	}
	tor := paths[0][len(paths[0])-1]
	gen := eng.tableGen[eng.bySwitch[tor].stateIdx]
	// A lane that has already executed the switch holds stale views.
	lane := eng.newLane()
	warm := NewPacket()
	warm.Valid["ipv4"] = true
	warm.Valid["tcp"] = true
	warm.Fields["ipv4.dstAddr"] = 99
	warm.Fields["ipv4.protocol"] = 6
	eng.runPacket(lane, paths[0], &Context{SwitchID: 1}, eng.Flatten(warm))

	dep.SetSwitchEntry(tor, "vip_table", 99, 0xdead)
	if dep.engine != eng {
		t.Fatal("SetSwitchEntry dropped the cached engine; expected a generation bump instead")
	}
	if dep.externKeys == nil {
		t.Fatal("SetSwitchEntry dropped extern metadata; it does not depend on table contents")
	}
	if got := eng.tableGen[eng.bySwitch[tor].stateIdx]; got != gen+1 {
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
	f := eng.Flatten(pkt.Clone())
	eng.runPacket(lane, paths[0], ctx, f)
	if laneGot := f.Packet(); laneGot.Summary() != want.Summary() {
		t.Fatalf("stale lane after mutation:\n  interp: %s\n  lane:   %s", want.Summary(), laneGot.Summary())
	}

	// Mutating one switch must not touch the others' generations.
	other := ""
	for sw := range eng.bySwitch {
		if sw != tor {
			other = sw
			break
		}
	}
	if other != "" {
		before := eng.tableGen[eng.bySwitch[other].stateIdx]
		dep.SetSwitchEntry(tor, "vip_table", 100, 0xbeef)
		if after := eng.tableGen[eng.bySwitch[other].stateIdx]; after != before {
			t.Fatalf("unrelated switch generation moved: %d -> %d", before, after)
		}
	}
	// Mutating a switch with no placed program must be harmless.
	dep.ClearSwitchTable(paths[0][0], "conn_table")
	if dep.engine != eng {
		t.Fatal("ClearSwitchTable dropped the cached engine; expected a generation bump instead")
	}
}

// TestEngineRunBatchMatchesSequential: batched, sharded replay must
// produce, on every flow path and at every worker count, the same
// per-packet outputs as running each packet alone on a fresh lane.
// TestCompiledRunBatchMatchesSequential compares worker counts on one path
// with each other; this pins every batch to the one-packet runs.
func TestEngineRunBatchMatchesSequential(t *testing.T) {
	dep, _, paths := lbDeployment(t)
	eng, err := dep.Engine()
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Context{SwitchID: 2}
	const n = 96
	r := rand.New(rand.NewSource(5))
	pkts := make([]*Packet, n)
	for i := range pkts {
		pkts[i] = randomLBPacket(r)
	}
	for _, path := range paths {
		want := make([]string, n)
		for i, pkt := range pkts {
			got, err := dep.RunPathCompiled(path, ctx, pkt)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = got.Summary()
		}
		for _, workers := range []int{1, 3, 8} {
			batch := make([]*FlatPacket, n)
			for i, pkt := range pkts {
				batch[i] = eng.Flatten(pkt)
			}
			eng.runBatch(path, ctx, batch, workers)
			for i, f := range batch {
				if got := f.Packet().Summary(); got != want[i] {
					t.Fatalf("path %v workers=%d packet %d:\n  alone: %s\n  batch: %s",
						path, workers, i, want[i], got)
				}
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
