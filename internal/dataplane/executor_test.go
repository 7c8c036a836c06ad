package dataplane

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// TestExecutorTiersAgree runs the same packet stream through both executor
// tiers and asserts byte-identical outputs packet by packet.
func TestExecutorTiersAgree(t *testing.T) {
	plan, _ := compile(t, lbSrc, lbScope)
	tables := NewTables()
	for vip := uint64(0); vip < 16; vip++ {
		tables.Set("vip_table", vip, 0xC0A80000+vip)
	}
	mkDep := func() *Deployment {
		dep, err := NewDeployment(plan, tables)
		if err != nil {
			t.Fatal(err)
		}
		return dep
	}
	// One deployment per tier: the interpreter tier mutates shared
	// per-switch globals while the compiled tier keeps state in lanes.
	deps := map[ExecutorTier]*Deployment{
		TierInterpreter: mkDep(),
		TierCompiled:    mkDep(),
	}
	execs := map[ExecutorTier]Executor{}
	engines := map[ExecutorTier]*Engine{}
	for tier, dep := range deps {
		x, err := dep.ExecutorFor(tier)
		if err != nil {
			t.Fatalf("%v: %v", tier, err)
		}
		if x.Tier() != tier {
			t.Fatalf("ExecutorFor(%v) reports tier %v", tier, x.Tier())
		}
		execs[tier] = x
		// Each deployment's engine flattens its own packets (executors
		// reject packets from a foreign layout).
		eng, err := dep.Engine()
		if err != nil {
			t.Fatal(err)
		}
		engines[tier] = eng
	}
	paths := flowPaths(t, plan, "loadbalancer")
	ctx := &Context{SwitchID: 3, IngressTS: 50}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 30; i++ {
		pkt := randomLBPacket(rng)
		outs := map[ExecutorTier]string{}
		for tier, x := range execs {
			f := engines[tier].Flatten(pkt)
			if err := x.RunPacket(paths[0], ctx, f); err != nil {
				t.Fatalf("%v RunPacket: %v", tier, err)
			}
			outs[tier] = f.Packet().Summary()
		}
		if outs[TierCompiled] != outs[TierInterpreter] {
			t.Fatalf("packet %d tier divergence:\n  interp:   %s\n  compiled: %s",
				i, outs[TierInterpreter], outs[TierCompiled])
		}
	}
}

// TestExecutorBatchAgree runs one batch through each tier's RunBatch.
func TestExecutorBatchAgree(t *testing.T) {
	plan, _ := compile(t, lbSrc, lbScope)
	tables := NewTables()
	for vip := uint64(0); vip < 16; vip++ {
		tables.Set("vip_table", vip, 0xC0A80000+vip)
	}
	paths := flowPaths(t, plan, "loadbalancer")
	ctx := &Context{SwitchID: 2}
	const n = 64
	var want []string
	for _, tier := range []ExecutorTier{TierInterpreter, TierCompiled} {
		dep, err := NewDeployment(plan, tables)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := dep.Engine()
		if err != nil {
			t.Fatal(err)
		}
		x, err := dep.ExecutorFor(tier)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(14))
		pkts := make([]*FlatPacket, n)
		for i := range pkts {
			pkts[i] = eng.Flatten(randomLBPacket(rng))
		}
		if err := x.RunBatch(paths[0], ctx, pkts, 2); err != nil {
			t.Fatalf("%v RunBatch: %v", tier, err)
		}
		if tier == TierInterpreter {
			for _, f := range pkts {
				want = append(want, f.Packet().Summary())
			}
			continue
		}
		for i, f := range pkts {
			if got := f.Packet().Summary(); got != want[i] {
				t.Fatalf("%v packet %d diverges:\n  interp: %s\n  got:    %s", tier, i, want[i], got)
			}
		}
	}
}

// TestTiersAgreeOnHeaderRemoval: a run that removes a header the packet
// arrived with must clear its valid bit in every tier and entry point. The
// interpreter tier loads its output over the packet it ran, so a stale bit
// there would keep the stripped INT probe valid (and serialized).
func TestTiersAgreeOnHeaderRemoval(t *testing.T) {
	plan, _ := compile(t, testProgram(t, "egress_int"), "int_out: [ ToR3 | PER-SW | - ]")
	tables := NewTables()
	tables.Set("int_sink_filter", 5, 1)
	path := []string{"ToR3"}
	ctx := &Context{SwitchID: 3, IngressTS: 10, EgressTS: 25}
	rng := rand.New(rand.NewSource(18))
	in := make([]*Packet, 32)
	for i := range in {
		p := NewPacket()
		p.Valid["ethernet"], p.Valid["int_probe_hdr"] = true, true
		p.Fields["ethernet.ether_type"] = 0x0800
		p.Fields["int_probe_hdr.msg_type"] = uint64(5 + rng.Intn(2)) // 5 is a sink
		p.Fields["int_probe_hdr.hop_count"] = uint64(rng.Intn(8))
		in[i] = p
	}
	newDep := func() *Deployment {
		dep, err := NewDeployment(plan, tables)
		if err != nil {
			t.Fatal(err)
		}
		return dep
	}
	ref, stripped := newDep(), 0
	want := make([]*Packet, len(in))
	for i, p := range in {
		out, err := ref.RunPath(path, ctx, p.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := out.Valid["int_probe_hdr"]; ok && !v {
			stripped++
		}
		want[i] = out
	}
	if stripped == 0 || stripped == len(in) {
		t.Fatalf("%d of %d packets stripped the probe: the test is vacuous", stripped, len(in))
	}
	run := map[string]func(dep *Deployment, tier ExecutorTier, pkts []*FlatPacket) error{
		"RunPacket": func(dep *Deployment, tier ExecutorTier, pkts []*FlatPacket) error {
			x, err := dep.ExecutorFor(tier)
			for _, f := range pkts {
				if err == nil {
					err = x.RunPacket(path, ctx, f)
				}
			}
			return err
		},
		"RunBatch": func(dep *Deployment, tier ExecutorTier, pkts []*FlatPacket) error {
			x, err := dep.ExecutorFor(tier)
			if err == nil {
				err = x.RunBatch(path, ctx, pkts, 2)
			}
			return err
		},
		"Stream": func(dep *Deployment, tier ExecutorTier, pkts []*FlatPacket) error {
			s, err := dep.OpenStream(path, StreamOptions{Tier: tier, Lanes: 1, BatchSize: 8, Ctx: ctx})
			if err == nil {
				err = s.Feed(pkts...)
				s.Close()
			}
			return err
		},
	}
	for mode, fn := range run {
		for _, tier := range []ExecutorTier{TierInterpreter, TierCompiled} {
			dep := newDep()
			eng, err := dep.Engine()
			if err != nil {
				t.Fatal(err)
			}
			pkts := make([]*FlatPacket, len(in))
			for i, p := range in {
				pkts[i] = eng.Flatten(p)
			}
			if err := fn(dep, tier, pkts); err != nil {
				t.Fatalf("%s %v: %v", mode, tier, err)
			}
			for i, f := range pkts {
				if diff := DiffPackets(want[i], f.Packet(), nil); len(diff) > 0 {
					t.Fatalf("%s %v packet %d diverges from RunPath: %v", mode, tier, i, diff)
				}
			}
		}
	}
}

// TestExecutorSelection: ExecutorFor hands out the tier asked for, and each
// tier's stats count only what ran through it.
func TestExecutorSelection(t *testing.T) {
	plan, _ := compile(t, lbSrc, lbScope)
	dep, err := NewDeployment(plan, NewTables())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := dep.Engine()
	if err != nil {
		t.Fatal(err)
	}
	paths := flowPaths(t, plan, "loadbalancer")
	for _, tier := range []ExecutorTier{TierInterpreter, TierCompiled} {
		x, err := dep.ExecutorFor(tier)
		if err != nil {
			t.Fatal(err)
		}
		if x.Tier() != tier {
			t.Fatalf("ExecutorFor(%v) selected %v", tier, x.Tier())
		}
		rng := rand.New(rand.NewSource(15))
		pkts := make([]*FlatPacket, 8)
		for i := range pkts {
			pkts[i] = eng.Flatten(randomLBPacket(rng))
		}
		if err := x.RunBatch(paths[0], &Context{SwitchID: 1}, pkts, 1); err != nil {
			t.Fatal(err)
		}
		st := x.Stats()
		if st.Tier != tier.String() {
			t.Fatalf("stats tier = %q, want %q", st.Tier, tier.String())
		}
		if st.Packets != 8 || st.Batches != 1 {
			t.Fatalf("%v stats = %+v, want 8 packets / 1 batch", tier, st)
		}
	}

	if _, err := dep.ExecutorFor(ExecutorTier(42)); err == nil {
		t.Fatal("unknown tier must error")
	}
}

// TestExecutorCachedPerTier: repeated Executor calls return the same
// instance, so stats accumulate across calls.
func TestExecutorCachedPerTier(t *testing.T) {
	dep, _, paths := lbDeployment(t)
	x1, err := dep.ExecutorFor(TierCompiled)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := dep.ExecutorFor(TierCompiled)
	if err != nil {
		t.Fatal(err)
	}
	if x1 != x2 {
		t.Fatal("ExecutorFor rebuilt an executor instead of returning the cache")
	}
	eng, err := dep.Engine()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(16))
	f := eng.Flatten(randomLBPacket(rng))
	for i := 0; i < 3; i++ {
		if err := x1.RunPacket(paths[0], &Context{}, f); err != nil {
			t.Fatal(err)
		}
	}
	if st := x2.Stats(); st.Packets != 3 {
		t.Fatalf("stats did not accumulate across the cached instance: %+v", st)
	}
}

// TestExecutorForInvalidTier: out-of-range tiers — negative, one past the
// last, and far out — are typed errors naming the tier, never a panic or a
// nil executor, and they leave the deployment usable.
func TestExecutorForInvalidTier(t *testing.T) {
	plan, _ := compile(t, lbSrc, lbScope)
	dep, err := NewDeployment(plan, NewTables())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []ExecutorTier{ExecutorTier(-1), ExecutorTier(2), ExecutorTier(42)} {
		x, err := dep.ExecutorFor(bad)
		if err == nil {
			t.Fatalf("ExecutorFor(%v) succeeded with executor %v", bad, x)
		}
		if x != nil {
			t.Fatalf("ExecutorFor(%v) returned a non-nil executor alongside the error", bad)
		}
		if !strings.Contains(err.Error(), "unknown executor tier") ||
			!strings.Contains(err.Error(), bad.String()) {
			t.Fatalf("ExecutorFor(%v) error does not name the tier: %v", bad, err)
		}
	}
	// Valid tiers still work on the same deployment afterwards.
	x, err := dep.ExecutorFor(TierCompiled)
	if err != nil {
		t.Fatal(err)
	}
	if x.Tier() != TierCompiled {
		t.Fatalf("deployment damaged by invalid-tier probes: tier = %v", x.Tier())
	}
}

// TestExecutorObservesTableMutationsMidReplay drives control-plane churn
// through a live executor: entries installed with SetSwitchEntry become
// visible to the next packet through the same Executor instance (the
// per-switch generation bump rebinds the lane's table views), and
// ClearSwitchTable makes them vanish again. Checked on both tiers: on the
// compiled one lowered table state is cached and invalidation is
// load-bearing; the interpreter reads the shard tables directly and says
// what the mutation means.
func TestExecutorObservesTableMutationsMidReplay(t *testing.T) {
	plan, _ := compile(t, lbSrc, lbScope)
	for _, tier := range []ExecutorTier{TierInterpreter, TierCompiled} {
		// No VIP entries: the packet's dstAddr passes through unchanged
		// until the mutation installs a mapping.
		dep, err := NewDeployment(plan, NewTables())
		if err != nil {
			t.Fatal(err)
		}
		x, err := dep.ExecutorFor(tier)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := dep.Engine()
		if err != nil {
			t.Fatal(err)
		}
		path := flowPaths(t, plan, "loadbalancer")[0]
		ctx := &Context{SwitchID: 1}
		mkPkt := func() *FlatPacket {
			p := NewPacket()
			p.Valid["ipv4"] = true
			p.Valid["tcp"] = true
			p.Fields["ipv4.srcAddr"] = 0x0A000001
			p.Fields["ipv4.dstAddr"] = 5
			p.Fields["ipv4.protocol"] = 6
			p.Fields["tcp.srcPort"] = 1234
			p.Fields["tcp.dstPort"] = 80
			return eng.Flatten(p)
		}
		runDst := func() uint64 {
			f := mkPkt()
			if err := x.RunPacket(path, ctx, f); err != nil {
				t.Fatalf("%v RunPacket: %v", tier, err)
			}
			return f.Packet().Fields["ipv4.dstAddr"]
		}

		if got := runDst(); got != 5 {
			t.Fatalf("%v: empty tables rewrote dstAddr to %#x", tier, got)
		}
		for _, sw := range path {
			dep.SetSwitchEntry(sw, "vip_table", 5, 0xDEAD)
		}
		if got := runDst(); got != 0xDEAD {
			t.Fatalf("%v: mid-replay SetSwitchEntry not observed: dstAddr = %#x, want 0xdead", tier, got)
		}
		for _, sw := range path {
			dep.ClearSwitchTable(sw, "vip_table")
		}
		if got := runDst(); got != 5 {
			t.Fatalf("%v: mid-replay ClearSwitchTable not observed: dstAddr = %#x, want 5", tier, got)
		}
		if st := x.Stats(); st.Packets != 3 {
			t.Fatalf("%v: stats = %+v, want 3 packets", tier, st)
		}
	}
}

// TestExecutorTierString covers the tier names the JSON artifacts key on.
func TestExecutorTierString(t *testing.T) {
	for tier, want := range map[ExecutorTier]string{
		TierInterpreter:  "interpreter",
		TierCompiled:     "compiled",
		ExecutorTier(42): "tier(42)",
	} {
		if got := tier.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(tier), got, want)
		}
	}
}

// TestBatchRejectsForeignPacketAtAnyIndex: a packet laid out by another
// deployment is refused wherever it sits in the call, by both batch entry
// points, before any packet of the call is run or enqueued. The foreign
// layout here is the smaller one, so trusting index >= 1 would index this
// layout's slots past that packet's slabs.
func TestBatchRejectsForeignPacketAtAnyIndex(t *testing.T) {
	dep, _, paths := lbDeployment(t)
	eng, err := dep.Engine()
	if err != nil {
		t.Fatal(err)
	}
	otherPlan, _ := compile(t, statefulSrc, statefulScope)
	otherDep, err := NewDeployment(otherPlan, NewTables())
	if err != nil {
		t.Fatal(err)
	}
	otherEng, err := otherDep.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if len(otherEng.layout.fieldName) >= len(eng.layout.fieldName) {
		t.Fatal("test premise: the foreign layout must be the smaller one")
	}
	rng := rand.New(rand.NewSource(17))
	mixed := func() ([]*FlatPacket, string) {
		own := eng.Flatten(randomLBPacket(rng))
		return []*FlatPacket{own, otherEng.NewFlatPacket(), eng.NewFlatPacket()}, own.Packet().Summary()
	}

	x, err := dep.ExecutorFor(TierCompiled)
	if err != nil {
		t.Fatal(err)
	}
	pkts, before := mixed()
	if err := x.RunBatch(paths[0], &Context{SwitchID: 1}, pkts, 1); !errors.Is(err, errForeignLayout) {
		t.Fatalf("RunBatch with a foreign packet at index 1: err = %v, want %v", err, errForeignLayout)
	}
	if st := x.Stats(); st.Packets != 0 || st.Batches != 0 {
		t.Fatalf("rejected batch was counted: %+v", st)
	}
	if after := pkts[0].Packet().Summary(); after != before {
		t.Fatalf("rejected batch ran its first packet:\n  before: %s\n  after:  %s", before, after)
	}

	s, err := dep.OpenStream(paths[0], StreamOptions{Tier: TierCompiled, Lanes: 2, BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pkts, before = mixed()
	if err := s.Feed(pkts...); !errors.Is(err, errForeignLayout) {
		t.Fatalf("Feed with a foreign packet at index 1: err = %v, want %v", err, errForeignLayout)
	}
	if st := s.Stats(); st.Packets != 0 {
		t.Fatalf("rejected Feed enqueued %d packets", st.Packets)
	}
	s.Flush()
	if after := pkts[0].Packet().Summary(); after != before {
		t.Fatalf("rejected Feed ran its first packet:\n  before: %s\n  after:  %s", before, after)
	}
}
