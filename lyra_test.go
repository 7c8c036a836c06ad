package lyra

import (
	"context"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lyra/internal/dataplane"
)

const quickLB = `
header_type ipv4_t { bit[32] srcAddr; bit[32] dstAddr; bit[8] protocol; }
header ipv4_t ipv4;
pipeline[LB]{loadbalancer};
algorithm loadbalancer {
  extern dict<bit[32] hash, bit[32] ip>[1024] conn_table;
  bit[32] hash;
  hash = crc32_hash(ipv4.srcAddr, ipv4.dstAddr, ipv4.protocol);
  if (hash in conn_table) {
    ipv4.dstAddr = conn_table[hash];
  }
}
`

const quickScope = `loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]`

func TestCompileEndToEnd(t *testing.T) {
	res, err := New().Compile(context.Background(), quickLB, quickScope, Testbed())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if len(res.Artifacts) == 0 {
		t.Fatal("no artifacts")
	}
	if res.CompileTime <= 0 {
		t.Error("no compile time recorded")
	}
	for _, rep := range res.Reports {
		if !rep.OK {
			t.Errorf("%s failed verification: %v", rep.Switch, rep.Problems)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	net := Testbed()
	cases := []struct {
		name          string
		source, scope string
		net           *Network
		want          string
	}{
		{"no network", quickLB, quickScope, nil, "network is required"},
		{"syntax", "algorithm {", quickScope, net, "parse"},
		{"semantic", "algorithm a { ghost(); }", "a: [ToR1|PER-SW|-]", net, "check"},
		{"scope", quickLB, "loadbalancer: [oops", net, "scope"},
		{"missing scope", quickLB, "", net, "no scope"},
	}
	for _, c := range cases {
		_, err := New().Compile(context.Background(), c.source, c.scope, c.net)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestWriteTo(t *testing.T) {
	res, err := New().Compile(context.Background(), quickLB, quickScope, Testbed())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.WriteTo(dir); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	var code, cp int
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".p4", ".npl":
			code++
		case ".py":
			cp++
		}
	}
	if code == 0 || cp == 0 {
		t.Errorf("dir has %d code files and %d control-plane files", code, cp)
	}
}

func TestSimulateRoundTrip(t *testing.T) {
	res, err := New().Compile(context.Background(), quickLB, quickScope, Testbed())
	if err != nil {
		t.Fatal(err)
	}
	tables := NewTables()
	sim, err := res.Simulate(tables)
	if err != nil {
		t.Fatal(err)
	}
	pkt := NewPacket()
	pkt.Valid["ipv4"] = true
	pkt.Fields["ipv4.srcAddr"] = 0x0A000001
	pkt.Fields["ipv4.dstAddr"] = 0x0B000002
	pkt.Fields["ipv4.protocol"] = 6
	ctx := &SimContext{}
	ref, err := sim.RunReference(ctx, pkt)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range res.FlowPaths("loadbalancer") {
		got, err := sim.RunPath(path, ctx, pkt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Summary() != ref.Summary() {
			t.Errorf("path %v mismatch:\n  ref:  %s\n  dist: %s", path, ref.Summary(), got.Summary())
		}
	}
}

// TestShardedTableDeploysAlongPaths: a result lists its flow paths and
// deploys a table too big for one switch partitioned along each path, within
// each host's shard allotment — not as if every host were a path of its own,
// with the table replicated onto all of them.
func TestShardedTableDeploysAlongPaths(t *testing.T) {
	src := strings.Replace(quickLB, "[1024] conn_table", "[5500000] conn_table", 1)
	res, err := New().Compile(context.Background(), src, quickScope, Testbed())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	paths := res.FlowPaths("loadbalancer")
	if len(paths) != 4 {
		t.Fatalf("FlowPaths = %v, want 4", paths)
	}
	if len(res.Shards("conn_table")) < 2 {
		t.Fatalf("test premise: conn_table must be sharded, got %v", res.Shards("conn_table"))
	}

	// 1000 entries, the first 20 keyed by the hash of a packet we replay.
	probe, err := res.Simulate(NewTables())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := probe.Deployment().Engine()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := eng.FlowKeyHash("crc32_hash", 32, 0, "ipv4.srcAddr", "ipv4.dstAddr", "ipv4.protocol")
	if err != nil {
		t.Fatal(err)
	}
	tables := NewTables()
	var pkts []*Packet
	for i := uint64(0); i < 1000; i++ {
		key := i * 2654435761 & 0xffffffff
		if i < 20 {
			pkt := NewPacket()
			pkt.Valid["ipv4"] = true
			pkt.Fields["ipv4.srcAddr"] = 0x0A000000 + i
			pkt.Fields["ipv4.dstAddr"] = 0x0B000002
			pkt.Fields["ipv4.protocol"] = 6
			pkts = append(pkts, pkt)
			key = hash(eng.Flatten(pkt))
		}
		tables.Set("conn_table", key, 0xC0A80000+i)
	}
	keys := make([]uint64, 0, 1000)
	for k := range tables.Externs["conn_table"].Entries {
		keys = append(keys, k)
	}

	sim, got := heldShards(t, res, tables, paths[0], keys)
	for host, allot := range res.Shards("conn_table") {
		if int64(len(got[host])) > allot {
			t.Errorf("%s holds %d entries, past its shard allotment of %d", host, len(got[host]), allot)
		}
	}
	// Partitioned: the hosts on a path hold each entry once between them (a
	// replicated table would hold it on every host).
	for _, path := range paths {
		held := 0
		for _, sw := range path {
			held += len(got[sw])
		}
		if held != len(keys) {
			t.Errorf("the hosts on %v hold %d entries between them, want each of the %d once", path, held, len(keys))
		}
	}
	ctx := &SimContext{}
	for i, pkt := range pkts {
		ref, err := sim.RunReference(ctx, pkt)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Fields["ipv4.dstAddr"] != 0xC0A80000+uint64(i) {
			t.Fatalf("packet %d missed conn_table under the reference semantics: %s", i, ref.Summary())
		}
		for _, path := range paths {
			out, err := sim.RunPath(path, ctx, pkt)
			if err != nil {
				t.Fatal(err)
			}
			if out.Summary() != ref.Summary() {
				t.Errorf("packet %d path %v:\n  ref:  %s\n  dist: %s", i, path, ref.Summary(), out.Summary())
			}
		}
	}
}

// heldShards simulates res with tables and reads what each conn_table host
// holds of keys, through an interpreter-tier stream on path (which reads the
// deployment's shard tables).
func heldShards(t *testing.T, res *Result, tables *Tables, path []string, keys []uint64) (*Simulation, map[string]map[uint64]uint64) {
	t.Helper()
	sim, err := res.Simulate(tables)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	s, err := sim.Deployment().OpenStream(path, dataplane.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	held := map[string]map[uint64]uint64{}
	for host := range res.Shards("conn_table") {
		held[host] = map[uint64]uint64{}
		for _, k := range keys {
			if v, ok, err := s.TableEntry(0, host, "conn_table", k); err != nil {
				t.Fatal(err)
			} else if ok {
				held[host][k] = v
			}
		}
	}
	return sim, held
}

// TestResultValuesAreCallersOwn: the shard map and the host list a Result
// hands out are the caller's. Emptying every allotment of the one and
// overwriting the other changes neither what a later Simulate distributes
// where, nor what a Recompile of the same result produces, nor what the next
// call returns.
func TestResultValuesAreCallersOwn(t *testing.T) {
	ctx := context.Background()
	c := New()
	src := strings.Replace(quickLB, "[1024] conn_table", "[5500000] conn_table", 1)
	res, err := c.Compile(ctx, src, quickScope, Testbed())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	shards, placed := res.Shards("conn_table"), res.PlacedSwitches("loadbalancer")
	if len(shards) < 2 || len(placed) == 0 {
		t.Fatalf("test premise: conn_table must be sharded, got %v on %v", shards, placed)
	}
	tables := NewTables()
	var keys []uint64
	for i := uint64(0); i < 1000; i++ {
		keys = append(keys, i*2654435761&0xffffffff)
		tables.Set("conn_table", keys[i], i)
	}
	path := res.FlowPaths("loadbalancer")[0]
	down := Scenario{Events: []FaultEvent{SwitchDown("ToR4")}}
	_, wantHeld := heldShards(t, res, tables, path, keys)
	wantInc, _, err := c.Recompile(ctx, res, down)
	if err != nil {
		t.Fatalf("recompile: %v", err)
	}

	wantShards := maps.Clone(shards)
	for host := range shards {
		shards[host] = 0
	}
	placed[0] = "nowhere"
	if got := res.Shards("conn_table"); !reflect.DeepEqual(got, wantShards) {
		t.Errorf("Shards after the caller edited the last map it returned: %v, want %v", got, wantShards)
	}
	if got := res.PlacedSwitches("loadbalancer"); got[0] == "nowhere" {
		t.Errorf("PlacedSwitches after the caller edited the last list it returned: %v", got)
	}
	if _, got := heldShards(t, res, tables, path, keys); !reflect.DeepEqual(got, wantHeld) {
		for host := range wantHeld {
			t.Errorf("%s holds %d entries after the caller edited the shard map, %d before", host, len(got[host]), len(wantHeld[host]))
		}
	}
	inc, _, err := c.Recompile(ctx, res, down)
	if err != nil {
		t.Fatalf("recompile: %v", err)
	}
	sameAsCompile(t, "recompile after the caller edited the shard map", inc, wantInc)
}

func TestDialectOption(t *testing.T) {
	res, err := New(WithDialect(P416)).Compile(context.Background(), quickLB, quickScope, Testbed())
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range res.Switches() {
		a := res.Artifact(sw)
		if a.Model.Lang.String() == "P4" && a.Dialect != "P4_16" {
			t.Errorf("%s: got %s", sw, a.Dialect)
		}
	}
}

func TestObjectiveMinSwitches(t *testing.T) {
	res, err := New(WithObjective(ObjectiveMinSwitches)).Compile(context.Background(), quickLB, quickScope, Testbed())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Artifacts) > 2 {
		t.Errorf("min-switches produced %d artifacts", len(res.Artifacts))
	}
}

func TestRunPathBytes(t *testing.T) {
	src := `
header_type eth_t { bit[48] src_mac; bit[16] ether_type; }
header eth_t eth;
header_type tag_t { bit[8] mark; }
header tag_t tag;
parser_node start {
  extract(eth);
  select(eth.ether_type) {
    0x0900: parse_tag;
    default: accept;
  }
}
parser_node parse_tag { extract(tag); }
pipeline[P]{marker};
algorithm marker {
  extern list<bit[48] mac>[8] watch;
  if (eth.src_mac in watch) {
    add_header(tag);
    tag.mark = 7;
    eth.ether_type = 0x0900;
  }
}
`
	res, err := New().Compile(context.Background(), src, "marker: [ ToR3 | PER-SW | - ]", Testbed())
	if err != nil {
		t.Fatal(err)
	}
	tables := NewTables()
	tables.Set("watch", 0x112233445566, 1)
	sim, err := res.Simulate(tables)
	if err != nil {
		t.Fatal(err)
	}
	in := NewPacket()
	in.Valid["eth"] = true
	in.Fields["eth.src_mac"] = 0x112233445566
	in.Fields["eth.ether_type"] = 0x0800
	wire, err := sim.Serialize(in, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.RunPathBytes([]string{"ToR3"}, &SimContext{}, wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(wire)+1 { // tag_t adds one byte
		t.Fatalf("wire %d -> %d bytes, want +1", len(wire), len(out))
	}
	pkt, payload, err := sim.ParseBytes(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "payload" {
		t.Errorf("payload = %q", payload)
	}
	if !pkt.Valid["tag"] || pkt.Fields["tag.mark"] != 7 {
		t.Errorf("tag missing: %s", pkt.Summary())
	}
}

// TestWithOptimize drives the rewrite search through the public API: the
// option threads the search into the pipeline, the report lands on the
// Result, and the winning program ships strictly fewer tables than the
// plain compile of the same nested-gateway source.
func TestWithOptimize(t *testing.T) {
	const src = `
header_type ipv4_t { bit[32] srcAddr; bit[32] dstAddr; bit[8] tos; bit[8] ttl; }
header ipv4_t ipv4;
pipeline[ACL]{acl};
algorithm acl {
  if (ipv4.tos == 1) {
    if (ipv4.ttl == 2) {
      drop();
    }
  }
}
`
	const scopeSpec = "acl: [ ToR1 | PER-SW | - ]"
	ctx := context.Background()

	plain, err := New().Compile(ctx, src, scopeSpec, Testbed())
	if err != nil {
		t.Fatalf("plain compile: %v", err)
	}
	if plain.Optimization != nil {
		t.Fatal("plain compile carries an optimization report")
	}

	res, err := New(WithOptimize(OptimizeOptions{Seed: 1})).Compile(ctx, src, scopeSpec, Testbed())
	if err != nil {
		t.Fatalf("optimized compile: %v", err)
	}
	rep := res.Optimization
	if rep == nil {
		t.Fatal("WithOptimize produced no optimization report")
	}
	if !rep.Improved || len(rep.Applied) == 0 {
		t.Fatalf("search found no certified improvement:\n%s", rep)
	}
	if !rep.BestCost.Less(rep.BaseCost) {
		t.Fatalf("best cost %s not below base %s", rep.BestCost, rep.BaseCost)
	}
	if rep.CertifyAttempts == 0 || rep.Rejected != 0 {
		t.Fatalf("certification bookkeeping off: attempts=%d rejected=%d",
			rep.CertifyAttempts, rep.Rejected)
	}
	pt, ot := plain.Artifact("ToR1").Tables, res.Artifact("ToR1").Tables
	if ot >= pt {
		t.Fatalf("optimized artifact has %d tables, plain has %d — no reduction shipped", ot, pt)
	}
}
