package dataplane

import (
	"math/rand"
	"testing"

	"lyra/internal/encode"
	"lyra/internal/frontend"
	"lyra/internal/ir"
	"lyra/internal/lang/checker"
	"lyra/internal/lang/parser"
	"lyra/internal/scope"
	"lyra/internal/topo"
)

// flowPaths lists the flow paths of an algorithm's scope, sorted.
func flowPaths(t testing.TB, plan *encode.Plan, alg string) [][]string {
	t.Helper()
	paths, err := plan.Input.Scopes[alg].PathList()
	if err != nil {
		t.Fatalf("paths of %s: %v", alg, err)
	}
	return paths
}

func compile(t testing.TB, src, scopeText string) (*encode.Plan, *ir.Program) {
	t.Helper()
	prog, err := parser.Parse("test.lyra", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := checker.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	irp, err := frontend.Preprocess(prog)
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	frontend.Analyze(irp)
	spec, err := scope.Parse(scopeText)
	if err != nil {
		t.Fatalf("scope: %v", err)
	}
	net := topo.Testbed()
	scopes, err := spec.Resolve(net)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	plan, err := encode.Solve(&encode.Input{IR: irp, Net: net, Scopes: scopes}, nil)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	return plan, irp
}

const lbSrc = `
header_type ipv4_t { bit[32] srcAddr; bit[32] dstAddr; bit[8] protocol; }
header ipv4_t ipv4;
header_type tcp_t { bit[16] srcPort; bit[16] dstPort; }
header tcp_t tcp;
pipeline[LB]{loadbalancer};
algorithm loadbalancer {
  extern dict<bit[32] hash, bit[32] ip>[64] conn_table;
  extern dict<bit[32] vip, bit[32] dip>[64] vip_table;
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

const lbScope = `loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]`

func randomLBPacket(rng *rand.Rand) *Packet {
	p := NewPacket()
	p.Valid["ipv4"] = true
	p.Valid["tcp"] = true
	p.Fields["ipv4.srcAddr"] = uint64(rng.Uint32())
	p.Fields["ipv4.dstAddr"] = uint64(rng.Intn(16)) // small space to force VIP hits
	p.Fields["ipv4.protocol"] = 6
	p.Fields["tcp.srcPort"] = uint64(rng.Intn(1 << 16))
	p.Fields["tcp.dstPort"] = 80
	return p
}

// TestLBEquivalence is the core compilation-correctness property: for every
// flow path, the distributed compiled programs transform packets exactly as
// the one-big-pipeline reference semantics.
func TestLBEquivalence(t *testing.T) {
	plan, irp := compile(t, lbSrc, lbScope)
	rng := rand.New(rand.NewSource(1))

	tables := NewTables()
	// Populate VIP table fully and conn_table sparsely.
	for vip := uint64(0); vip < 16; vip++ {
		tables.Set("vip_table", vip, 0xC0A80000+vip)
	}
	// Install conn entries for hashes of a few known packets.
	var knownPkts []*Packet
	for i := 0; i < 8; i++ {
		p := randomLBPacket(rng)
		knownPkts = append(knownPkts, p)
		h := hashOf("crc32_hash", []uint64{
			p.Fields["ipv4.srcAddr"], p.Fields["ipv4.dstAddr"], p.Fields["ipv4.protocol"],
			p.Fields["tcp.srcPort"], p.Fields["tcp.dstPort"],
		}, 32)
		tables.Set("conn_table", h, 0x0A000000+uint64(i))
	}

	dep, err := NewDeployment(plan, tables)
	if err != nil {
		t.Fatalf("deployment: %v", err)
	}
	ctx := &Context{SwitchID: 7, IngressTS: 1000, EgressTS: 1500, QueueLen: 3}
	paths := flowPaths(t, plan, "loadbalancer")

	check := func(p *Packet, label string) {
		ref, err := RunReference(irp, tables, ctx, p)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		for _, path := range paths {
			got, err := dep.RunPath(path, ctx, p)
			if err != nil {
				t.Fatalf("path %v: %v", path, err)
			}
			if got.Summary() != ref.Summary() {
				t.Errorf("%s on %v:\n  ref:  %s\n  dist: %s", label, path, ref.Summary(), got.Summary())
			}
		}
	}
	for i, p := range knownPkts {
		check(p, "known")
		_ = i
	}
	for i := 0; i < 200; i++ {
		check(randomLBPacket(rng), "random")
	}
}

// TestLBSplitEquivalence repeats the property with a ConnTable too large
// for one switch, exercising shard gating and bridge-variable transport.
func TestLBSplitEquivalence(t *testing.T) {
	big := replaceAll(lbSrc, "[64] conn_table", "[4000000] conn_table")
	big = replaceAll(big, "[64] vip_table", "[1000000] vip_table")
	plan, irp := compile(t, big, lbScope)

	if shards := plan.ShardsOf("conn_table"); len(shards) < 2 {
		t.Fatalf("conn_table not split: %v", shards)
	}

	rng := rand.New(rand.NewSource(2))
	tables := NewTables()
	for vip := uint64(0); vip < 16; vip++ {
		tables.Set("vip_table", vip, 0xC0A80000+vip)
	}
	var knownPkts []*Packet
	for i := 0; i < 32; i++ {
		p := randomLBPacket(rng)
		knownPkts = append(knownPkts, p)
		h := hashOf("crc32_hash", []uint64{
			p.Fields["ipv4.srcAddr"], p.Fields["ipv4.dstAddr"], p.Fields["ipv4.protocol"],
			p.Fields["tcp.srcPort"], p.Fields["tcp.dstPort"],
		}, 32)
		tables.Set("conn_table", h, 0x0A000000+uint64(i))
	}
	dep, err := NewDeployment(plan, tables)
	if err != nil {
		t.Fatalf("deployment: %v", err)
	}
	ctx := &Context{}
	paths := flowPaths(t, plan, "loadbalancer")
	for _, p := range append(knownPkts, manyRandom(rng, 100)...) {
		ref, err := RunReference(irp, tables, ctx, p)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		for _, path := range paths {
			got, err := dep.RunPath(path, ctx, p)
			if err != nil {
				t.Fatalf("path: %v", err)
			}
			if got.Summary() != ref.Summary() {
				t.Errorf("split mismatch on %v:\n  ref:  %s\n  dist: %s", path, ref.Summary(), got.Summary())
			}
		}
	}
}

func manyRandom(rng *rand.Rand, n int) []*Packet {
	out := make([]*Packet, n)
	for i := range out {
		out[i] = randomLBPacket(rng)
	}
	return out
}

func replaceAll(s, old, new string) string {
	for {
		i := -1
		for j := 0; j+len(old) <= len(s); j++ {
			if s[j:j+len(old)] == old {
				i = j
				break
			}
		}
		if i < 0 {
			return s
		}
		s = s[:i] + new + s[i+len(old):]
	}
}

func TestReferenceArithmetic(t *testing.T) {
	src := `
header_type h_t { bit[32] a; bit[32] b; bit[32] out; }
header h_t h;
pipeline[P]{calc};
algorithm calc {
  bit[32] x;
  x = (h.a - h.b) & 0x0fffffff;
  x = x | (h.a << 4);
  if (h.a == h.b) {
    h.out = 1;
  } else {
    h.out = x;
  }
}
`
	plan, irp := compile(t, src, "calc: [ ToR3 | PER-SW | - ]")
	_ = plan
	tables := NewTables()
	ctx := &Context{}
	mk := func(a, b uint64) *Packet {
		p := NewPacket()
		p.Valid["h"] = true
		p.Fields["h.a"] = a
		p.Fields["h.b"] = b
		return p
	}
	out, err := RunReference(irp, tables, ctx, mk(5, 5))
	if err != nil {
		t.Fatal(err)
	}
	if out.Fields["h.out"] != 1 {
		t.Errorf("equal branch: out = %d", out.Fields["h.out"])
	}
	out, _ = RunReference(irp, tables, ctx, mk(10, 4))
	want := ((uint64(10)-4)&0x0fffffff | (10 << 4)) & 0xffffffff
	if out.Fields["h.out"] != want {
		t.Errorf("out = %d, want %d", out.Fields["h.out"], want)
	}
}

func TestPerSwitchEquivalence(t *testing.T) {
	src := `
header_type h_t { bit[32] a; bit[32] out; }
header h_t h;
pipeline[P]{marker};
algorithm marker {
  extern list<bit[32] k>[16] watch;
  if (h.a in watch) {
    h.out = h.a + 1;
    forward(3);
  }
}
`
	// PER-SW on ToRs: each path (single ToR) runs exactly one copy.
	plan, irp := compile(t, src, "marker: [ ToR3 | PER-SW | - ]")
	tables := NewTables()
	for k := uint64(0); k < 16; k += 2 {
		tables.Set("watch", k, 0)
	}
	dep, err := NewDeployment(plan, tables)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Context{}
	for a := uint64(0); a < 20; a++ {
		p := NewPacket()
		p.Valid["h"] = true
		p.Fields["h.a"] = a
		ref, _ := RunReference(irp, tables, ctx, p)
		got, err := dep.RunPath([]string{"ToR3"}, ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Summary() != ref.Summary() {
			t.Errorf("a=%d:\n  ref:  %s\n  dist: %s", a, ref.Summary(), got.Summary())
		}
	}
}

func TestGlobalCounter(t *testing.T) {
	src := `
header_type h_t { bit[8] idx; bit[32] seen; }
header h_t h;
pipeline[P]{count};
algorithm count {
  global bit[32][16] counter;
  counter[h.idx] = counter[h.idx] + 1;
  h.seen = counter[h.idx];
}
`
	plan, irp := compile(t, src, "count: [ ToR3 | PER-SW | - ]")
	tables := NewTables()
	dep, err := NewDeployment(plan, tables)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Context{}
	// Statefulness across packets: the distributed switch and a fresh
	// reference store must agree packet-by-packet.
	refGlobals := globalStore{}
	for i := 1; i <= 5; i++ {
		p := NewPacket()
		p.Valid["h"] = true
		p.Fields["h.idx"] = 3
		// Reference with persistent globals.
		x := &execEnv{env: map[*ir.Var]uint64{}, pkt: p.Clone(), tables: tables,
			globals: refGlobals, ctx: ctx, irp: irp, lookup: tables.Lookup}
		for _, instr := range irp.Algorithm("count").Instrs {
			if guardHolds(instr.Guard, x.env) {
				if err := x.step(instr); err != nil {
					t.Fatal(err)
				}
			}
		}
		got, err := dep.RunPath([]string{"ToR3"}, ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fields["h.seen"] != uint64(i) || x.pkt.Fields["h.seen"] != uint64(i) {
			t.Errorf("packet %d: dist=%d ref=%d", i, got.Fields["h.seen"], x.pkt.Fields["h.seen"])
		}
	}
}

func TestPacketOps(t *testing.T) {
	src := `
header_type h_t { bit[8] kind; }
header h_t h;
pipeline[P]{sec};
algorithm sec {
  if (h.kind == 1) { drop(); }
  if (h.kind == 2) { mirror(); }
  if (h.kind == 3) { copy_to_cpu(); }
  if (h.kind == 4) { forward(9); }
}
`
	_, irp := compile(t, src, "sec: [ ToR3 | PER-SW | - ]")
	ctx := &Context{}
	tables := NewTables()
	cases := []struct {
		kind  uint64
		check func(*Packet) bool
	}{
		{1, func(p *Packet) bool { return p.Dropped }},
		{2, func(p *Packet) bool { return p.Mirrored }},
		{3, func(p *Packet) bool { return p.ToCPU }},
		{4, func(p *Packet) bool { return p.EgressPort == 9 }},
	}
	for _, c := range cases {
		p := NewPacket()
		p.Valid["h"] = true
		p.Fields["h.kind"] = c.kind
		out, err := RunReference(irp, tables, ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if !c.check(out) {
			t.Errorf("kind %d: %s", c.kind, out.Summary())
		}
	}
}

func TestHeaderAddRemove(t *testing.T) {
	src := `
header_type probe_t { bit[8] hops; }
header probe_t probe;
header_type h_t { bit[8] f; }
header h_t h;
pipeline[P]{intish};
algorithm intish {
  if (h.f == 1) {
    add_header(probe);
    probe.hops = 0;
  }
  if (h.f == 2) {
    remove_header(probe);
  }
}
`
	_, irp := compile(t, src, "intish: [ ToR3 | PER-SW | - ]")
	tables := NewTables()
	ctx := &Context{}
	p := NewPacket()
	p.Valid["h"] = true
	p.Fields["h.f"] = 1
	out, err := RunReference(irp, tables, ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Valid["probe"] || out.Fields["probe.hops"] != 0 {
		t.Errorf("probe not added: %s", out.Summary())
	}
	p.Fields["h.f"] = 2
	p.Valid["probe"] = true
	out, _ = RunReference(irp, tables, ctx, p)
	if out.Valid["probe"] {
		t.Error("probe not removed")
	}
}

func TestExternInsertStateful(t *testing.T) {
	src := `
header_type h_t { bit[32] key; bit[32] out; }
header h_t h;
pipeline[P]{learn};
algorithm learn {
  extern dict<bit[32] k, bit[32] v>[16] cache;
  if (h.key in cache) {
    h.out = cache[h.key];
  } else {
    insert(cache, h.key, 42);
  }
}
`
	_, irp := compile(t, src, "learn: [ ToR3 | PER-SW | - ]")
	tables := NewTables()
	ctx := &Context{}
	p := NewPacket()
	p.Valid["h"] = true
	p.Fields["h.key"] = 5
	// First packet misses and installs; second hits.
	out1, err := RunReference(irp, tables, ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if out1.Fields["h.out"] != 0 {
		t.Errorf("first packet should miss, out=%d", out1.Fields["h.out"])
	}
	out2, _ := RunReference(irp, tables, ctx, p)
	if out2.Fields["h.out"] != 42 {
		t.Errorf("second packet should hit, out=%d", out2.Fields["h.out"])
	}
}

func TestMaskRespectsWidths(t *testing.T) {
	if mask(0x1ff, 8) != 0xff {
		t.Error("mask 8 failed")
	}
	if mask(5, 0) != 5 || mask(5, 64) != 5 {
		t.Error("mask passthrough failed")
	}
}
