package dataplane

import (
	"fmt"
	"math/rand"
	"testing"

	"lyra/internal/backend"
)

// TestCompiledMatchesInterpreterLB checks byte-identical output between
// RunPath and the compiled backend on the LB workload across every flow
// path.
func TestCompiledMatchesInterpreterLB(t *testing.T) {
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
			got, err := dep.RunPathCompiled(path, ctx, pkt)
			if err != nil {
				t.Fatalf("compiled: %v", err)
			}
			if got.Summary() != want.Summary() {
				t.Fatalf("packet %d path %v:\n  interp:   %s\n  compiled: %s",
					i, path, want.Summary(), got.Summary())
			}
			if diffs := DiffPackets(want, got, nil); len(diffs) > 0 {
				t.Fatalf("packet %d path %v diffs: %v", i, path, diffs)
			}
		}
	}
}

// TestCompiledStatefulSequence runs a packet sequence through one compiled
// lane and through the interpreter on a fresh deployment each, asserting
// identical evolution of register state, inserts, and packet outputs.
func TestCompiledStatefulSequence(t *testing.T) {
	plan, _ := compile(t, statefulSrc, statefulScope)
	tables := NewTables()
	tables.Set("seen_table", 999, 5)

	depInterp, err := NewDeployment(plan, tables)
	if err != nil {
		t.Fatal(err)
	}
	depComp, err := NewDeployment(plan, tables)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := depComp.Engine()
	if err != nil {
		t.Fatal(err)
	}
	lane := eng.newLane()

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
		f := eng.Flatten(pkt)
		eng.runPacket(lane, path, ctx, f)
		got := f.Packet()
		if got.Summary() != want.Summary() {
			t.Fatalf("packet %d diverges:\n  interp:   %s\n  compiled: %s", i, want.Summary(), got.Summary())
		}
	}
}

// TestCompiledRunBatchMatchesSequential: sharded compiled replay must
// match one-at-a-time execution at every worker count.
func TestCompiledRunBatchMatchesSequential(t *testing.T) {
	dep, _, paths := lbDeployment(t)
	eng, err := dep.Engine()
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Context{SwitchID: 2}
	const n = 256
	mk := func() []*FlatPacket {
		r := rand.New(rand.NewSource(5))
		out := make([]*FlatPacket, n)
		for i := range out {
			out[i] = eng.Flatten(randomLBPacket(r))
		}
		return out
	}
	base := mk()
	eng.runBatch(paths[0], ctx, base, 1)
	for _, workers := range []int{2, 4, 7} {
		got := mk()
		eng.runBatch(paths[0], ctx, got, workers)
		for i := range got {
			if got[i].Packet().Summary() != base[i].Packet().Summary() {
				t.Fatalf("workers=%d packet %d diverges from sequential", workers, i)
			}
		}
	}
}

// TestCompiledHonoursShardGates: a key an upstream shard of a split table
// resolves must skip the downstream shards of that table (Algorithm 2).
// The LB places conn_table and vip_table as two shards, on ToR3 and then
// ToR4, which no scoped flow path crosses together, so the path here is
// the pod's ToR3 → Agg3 → ToR4. ToR4 looks its keys up again on the packet
// ToR3 rewrote, so it is given an entry for each rewritten key, and a
// ToR4 table that runs ungated rewrites the packet a second time. One
// packet hits conn_table upstream, the other misses it and hits vip_table,
// so both of ToR4's gates are exercised. The interpreter with ToR4's hit
// guards dropped shows the entries make each gate observable; the compiled
// tier must agree with the interpreter that keeps them.
func TestCompiledHonoursShardGates(t *testing.T) {
	plan, _ := compile(t, lbSrc, lbScope)
	path := []string{"ToR3", "Agg3", "ToR4"}
	mkPkt := func(srcPort uint64) *Packet {
		p := NewPacket()
		p.Valid["ipv4"], p.Valid["tcp"] = true, true
		p.Fields["ipv4.srcAddr"] = 0x0A000001
		p.Fields["ipv4.dstAddr"] = 5
		p.Fields["ipv4.protocol"] = 6
		p.Fields["tcp.srcPort"] = srcPort
		p.Fields["tcp.dstPort"] = 80
		return p
	}
	connKey := func(dst uint64) uint64 {
		return hashOf("crc32_hash", []uint64{0x0A000001, dst, 6, 1234, 80}, 32)
	}
	deploy := func(dropGuards bool) *Deployment {
		dep, err := NewDeployment(plan, NewTables())
		if err != nil {
			t.Fatal(err)
		}
		dep.SetSwitchEntry("ToR3", "conn_table", connKey(5), 0x0A0000A0)
		dep.SetSwitchEntry("ToR3", "vip_table", 5, 7)
		dep.SetSwitchEntry("ToR4", "conn_table", connKey(0x0A0000A0), 0x0A0000B0)
		dep.SetSwitchEntry("ToR4", "vip_table", 7, 9)
		if dropGuards {
			backend.MutationDropHitGuards("ToR4", dep.Programs["ToR4"])
		}
		return dep
	}
	for _, in := range []*Packet{mkPkt(1234), mkPkt(4321)} {
		want, err := deploy(false).RunPath(path, nil, in)
		if err != nil {
			t.Fatal(err)
		}
		ungated, err := deploy(true).RunPath(path, nil, in)
		if err != nil {
			t.Fatal(err)
		}
		if ungated.Summary() == want.Summary() {
			t.Fatalf("dropping ToR4's hit guards changes nothing for %s: the test is vacuous", in.Summary())
		}
		got, err := deploy(false).RunPathCompiled(path, nil, in)
		if err != nil {
			t.Fatal(err)
		}
		if diffs := DiffPackets(want, got, nil); len(diffs) > 0 {
			t.Fatalf("%s diverges: %v\n  interp:   %s\n  compiled: %s", in.Summary(), diffs, want.Summary(), got.Summary())
		}
	}
}

// TestCompiledGuardHoisting: the block grouping must actually group — the
// stateful program's three-statement if branch if-converts to adjacent
// instructions under one guard, so its block should hold multiple ops
// with the guard hoisted rather than one op each.
func TestCompiledGuardHoisting(t *testing.T) {
	plan, _ := compile(t, statefulSrc, statefulScope)
	dep, err := NewDeployment(plan, NewTables())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := dep.Engine()
	if err != nil {
		t.Fatal(err)
	}
	hoisted := false
	for _, cu := range eng.units {
		ops, guarded := 0, 0
		for _, b := range cu.blocks {
			ops += len(b.ops)
			if len(b.guards) > 0 && len(b.ops) > 1 {
				guarded++
			}
		}
		if len(cu.blocks) < ops && guarded > 0 {
			hoisted = true
		}
	}
	if !hoisted {
		t.Fatal("no unit produced a multi-op guarded block; guard hoisting is not happening")
	}
}

// TestCompiledSteadyStateZeroAlloc is the acceptance gate for the compiled
// tier: the compiled execute loop must not allocate once lanes and packets
// exist.
func TestCompiledSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	dep, _, paths := lbDeployment(t)
	eng, err := dep.Engine()
	if err != nil {
		t.Fatal(err)
	}
	lane := eng.newLane()
	ctx := &Context{SwitchID: 2, IngressTS: 5}
	rng := rand.New(rand.NewSource(6))
	tmpl := eng.Flatten(randomLBPacket(rng))
	f := eng.NewFlatPacket()
	path := paths[0]
	for i := 0; i < 10; i++ { // warm up: first runs may grow runtime stacks
		f.CopyFrom(tmpl)
		eng.runPacket(lane, path, ctx, f)
	}
	allocs := testing.AllocsPerRun(200, func() {
		f.CopyFrom(tmpl)
		eng.runPacket(lane, path, ctx, f)
	})
	if allocs != 0 {
		t.Fatalf("steady-state compiled loop allocates %.1f times per packet, want 0", allocs)
	}
	batch := []*FlatPacket{f}
	eng.runBatch(path, ctx, batch, 1)
	allocs = testing.AllocsPerRun(200, func() {
		f.CopyFrom(tmpl)
		eng.runBatch(path, ctx, batch, 1)
	})
	if allocs != 0 {
		t.Fatalf("single-worker compiled RunBatch allocates %.1f times per packet, want 0", allocs)
	}
}

// BenchmarkCompiledPath measures single-packet compiled execution — the
// number to hold against BenchmarkInterpreterPath.
func BenchmarkCompiledPath(b *testing.B) {
	dep, _, paths := lbDeployment(b)
	eng, err := dep.Engine()
	if err != nil {
		b.Fatal(err)
	}
	lane := eng.newLane()
	rng := rand.New(rand.NewSource(8))
	tmpls := make([]*FlatPacket, 1024)
	for i := range tmpls {
		tmpls[i] = eng.Flatten(randomLBPacket(rng))
	}
	f := eng.NewFlatPacket()
	ctx := &Context{SwitchID: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.CopyFrom(tmpls[i%len(tmpls)])
		eng.runPacket(lane, paths[0], ctx, f)
	}
	reportPPS(b)
}

// BenchmarkCompiledBatch measures sharded compiled batch replay.
func BenchmarkCompiledBatch(b *testing.B) {
	for _, bench := range []struct {
		batch   int
		workers int
	}{{64, 1}, {1024, 1}, {1024, 0}} {
		name := fmt.Sprintf("batch=%d/workers=%d", bench.batch, bench.workers)
		b.Run(name, func(b *testing.B) {
			dep, _, paths := lbDeployment(b)
			eng, err := dep.Engine()
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(8))
			tmpls := make([]*FlatPacket, bench.batch)
			work := make([]*FlatPacket, bench.batch)
			for i := range tmpls {
				tmpls[i] = eng.Flatten(randomLBPacket(rng))
				work[i] = eng.NewFlatPacket()
			}
			ctx := &Context{SwitchID: 2}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range work {
					work[j].CopyFrom(tmpls[j])
				}
				eng.runBatch(paths[0], ctx, work, bench.workers)
			}
			b.StopTimer()
			pkts := float64(b.N) * float64(bench.batch)
			b.ReportMetric(pkts/b.Elapsed().Seconds(), "pkts/s")
		})
	}
}

// handBuilt compiles one hand-built lowered unit as the one switch unit of
// an engine whose layout holds the packet fields h.x and h.y, the unit's
// only input and output. It returns a function running one packet with the
// given h.x on a single shared lane and reporting its h.y. Units lowered
// from front-end IR, which is SSA and if-converted, do not exercise the two
// guards tested below, so only a hand-built unit reaches them.
func handBuilt(t *testing.T, u *compiledUnit) (run func(x uint64) uint64) {
	t.Helper()
	lay := newLayout()
	lay.ensureField("h.x", 8)
	y := lay.ensureField("h.y", 8)
	e := engineOn(lay, u)
	lane := e.newLane()
	return func(x uint64) uint64 {
		f := lay.newFlat()
		f.SetField("h.x", x)
		runUnit(lane, e.units[0], &zeroCtx, f)
		return f.w[y]
	}
}

// unguarded and guardedBy build the hand-built units' instructions: an
// 8-bit assign from src to a register or to the field slot dest, ungated.
func unguarded(destKind uint8, dest int32, src opRef) binstr {
	return binstr{op: bAssign, destKind: destKind, dest: dest, destMask: 0xff, a: src, gate: -1}
}

func guardedBy(guard int32, destKind uint8, dest int32, src opRef) binstr {
	in := unguarded(destKind, dest, src)
	in.guardOff, in.guardEnd = guard, guard+1
	return in
}

// TestCompiledClearsStaleRegisters: a register written only under a guard
// and read unconditionally must read 0 on a packet whose guard is false,
// not the value an earlier packet left on the lane — clearSet names it for
// zeroing between packets.
func TestCompiledClearsStaleRegisters(t *testing.T) {
	x, y := opRef{kind: oField, idx: 0}, int32(1)
	u := &compiledUnit{
		numRegs: 2,
		guards:  []guardRef{{reg: 1}},
		code: []binstr{
			unguarded(dReg, 1, x),                            // r1 = h.x
			guardedBy(0, dReg, 0, opRef{kind: oConst, c: 7}), // if r1: r0 = 7
			unguarded(dField, y, opRef{kind: oReg, idx: 0}),  // h.y = r0
		},
	}
	if got := clearSet(u); len(got) != 1 || got[0] != 0 {
		t.Errorf("clearSet = %v, want [0]: r0 is read where its write may not have run, r1 never is", got)
	}
	run := handBuilt(t, u)
	if got := run(1); got != 7 {
		t.Fatalf("guard true: h.y = %d, want 7", got)
	}
	if got := run(0); got != 0 {
		t.Fatalf("guard false after a guard-true packet: h.y = %d, want 0 (the previous packet's r0 leaked)", got)
	}
}

// TestCompiledBlockEndsWhenGuardClobbered: an instruction that writes the
// register its block's guard tests closes the block, so the next
// instruction under the same guard checks it again, as the interpreter
// does instruction by instruction.
func TestCompiledBlockEndsWhenGuardClobbered(t *testing.T) {
	x, y := opRef{kind: oField, idx: 0}, int32(1)
	u := &compiledUnit{
		numRegs: 2,
		guards:  []guardRef{{reg: 1}, {reg: 1}, {reg: 1}},
		code: []binstr{
			unguarded(dReg, 1, x),                              // r1 = h.x
			guardedBy(0, dField, y, opRef{kind: oConst, c: 5}), // if r1: h.y = 5
			guardedBy(1, dReg, 1, opRef{kind: oConst, c: 0}),   // if r1: r1 = 0
			guardedBy(2, dField, y, opRef{kind: oConst, c: 9}), // if r1: h.y = 9 (never runs)
		},
	}
	run := handBuilt(t, u)
	if got := run(1); got != 5 {
		t.Fatalf("h.y = %d, want 5: the write after the guard was cleared ran under the stale guard", got)
	}
	if got := run(0); got != 0 {
		t.Fatalf("guard false: h.y = %d, want 0", got)
	}
}
