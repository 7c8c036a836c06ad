package encode

import (
	"sort"
	"testing"

	"lyra/internal/ir"
	"lyra/internal/scope"
	"lyra/internal/topo"
)

const lbSrc = `
header_type ipv4_t { bit[32] srcAddr; bit[32] dstAddr; bit[8] protocol; }
header ipv4_t ipv4;
header_type tcp_t { bit[16] srcPort; bit[16] dstPort; }
header tcp_t tcp;
pipeline[LB]{loadbalancer};
algorithm loadbalancer {
  extern dict<bit[32] hash, bit[32] ip>[CONNSIZE] conn_table;
  extern dict<bit[32] vip, bit[32] dip>[VIPSIZE] vip_table;
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

func buildInput(t *testing.T, src, scopeText string, net *topo.Network) *Input {
	t.Helper()
	return buildInputOpts(t, src, scopeText, net, scope.ResolveOpts{})
}

// pathsOf lists a scope's flow paths, sorted.
func pathsOf(t *testing.T, rs *scope.Resolved) [][]string {
	t.Helper()
	paths, err := rs.PathList()
	if err != nil {
		t.Fatalf("paths: %v", err)
	}
	return paths
}

// mustPartition is Partition of an input whose scopes are within the path
// budget.
func mustPartition(t *testing.T, in *Input) []*Component {
	t.Helper()
	comps, err := Partition(in)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	return comps
}

func subst(src, conn, vip string) string {
	out := ""
	for _, line := range []byte(src) {
		out += string(line)
	}
	return replaceAll(replaceAll(src, "CONNSIZE", conn), "VIPSIZE", vip)
}

func replaceAll(s, old, new string) string {
	for {
		i := index(s, old)
		if i < 0 {
			return s
		}
		s = s[:i] + new + s[i+len(old):]
	}
}

func index(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

const lbScope = `loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]`

func TestSolveLBSmall(t *testing.T) {
	in := buildInput(t, subst(lbSrc, "1024", "1024"), lbScope, topo.Testbed())
	plan, err := Solve(in, nil)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	// Every instruction is placed somewhere.
	alg := in.IR.Algorithm("loadbalancer")
	for _, inst := range alg.Instrs {
		hosts := hostsOf(plan, "loadbalancer", inst.ID)
		if len(hosts) == 0 {
			t.Errorf("instr %d unplaced", inst.ID)
		}
	}
	// Paths covered: each non-shared instruction appears exactly once per
	// path; shared (lookup/member) at least once.
	for _, p := range pathsOf(t, in.Scopes["loadbalancer"]) {
		for _, inst := range alg.Instrs {
			count := 0
			for _, sw := range p {
				for _, h := range hostsOf(plan, "loadbalancer", inst.ID) {
					if h == sw {
						count++
					}
				}
			}
			shared := inst.Op == ir.IMember || inst.Op == ir.ILookup
			if shared && count < 1 {
				t.Errorf("shared instr %d not on path %v", inst.ID, p)
			}
			if !shared && count != 1 {
				t.Errorf("instr %d appears %d times on path %v", inst.ID, count, p)
			}
		}
	}
	// Dependency ordering along each path.
	for _, p := range pathsOf(t, in.Scopes["loadbalancer"]) {
		pos := map[string]int{}
		for i, sw := range p {
			pos[sw] = i
		}
		for _, inst := range alg.Instrs {
			for _, dep := range inst.Deps {
				maxDep, minInst := -1, 1<<30
				for _, h := range hostsOf(plan, "loadbalancer", dep) {
					if pp, ok := pos[h]; ok && pp > maxDep {
						maxDep = pp
					}
				}
				for _, h := range hostsOf(plan, "loadbalancer", inst.ID) {
					if pp, ok := pos[h]; ok && pp < minInst {
						minInst = pp
					}
				}
				if maxDep >= 0 && minInst < (1<<30) && maxDep > minInst {
					t.Errorf("ordering violated on %v: dep %d at %d after instr %d at %d",
						p, dep, maxDep, inst.ID, minInst)
				}
			}
		}
	}
	// Allocations exist for every hosting switch.
	plan.EachHost(func(sw string, _ []*ir.Instr) {
		if len(plan.TablesOf(sw)) > 0 && plan.AllocationOf(sw) == nil {
			t.Errorf("no allocation for %s", sw)
		}
	})
}

func TestSolvePerSwitchINT(t *testing.T) {
	src := `
header_type ipv4_t { bit[32] src_ip; bit[32] dst_ip; }
header ipv4_t ipv4;
pipeline[INT]{int_in};
algorithm int_in {
  extern list<bit[32] ip>[1024] watch;
  if (ipv4.src_ip in watch) {
    int_enable = 1;
  }
}
`
	in := buildInput(t, src, "int_in: [ ToR* | PER-SW | - ]", topo.Testbed())
	plan, err := Solve(in, nil)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	alg := in.IR.Algorithm("int_in")
	for _, inst := range alg.Instrs {
		hosts := hostsOf(plan, "int_in", inst.ID)
		if len(hosts) != 4 {
			t.Errorf("PER-SW instr %d on %v, want all 4 ToRs", inst.ID, hosts)
		}
	}
	// Each ToR gets a full-size copy of the extern.
	shards := plan.ShardsOf("watch")
	for _, sw := range []string{"ToR1", "ToR2", "ToR3", "ToR4"} {
		if shards[sw] != 1024 {
			t.Errorf("%s shard = %d, want full copy", sw, shards[sw])
		}
	}
}

func TestSolveConnTableSplit(t *testing.T) {
	// §7.2: a 4M-entry ConnTable exceeds any single switch and must be
	// split across Agg and ToR along each path.
	in := buildInput(t, subst(lbSrc, "4000000", "1000000"), lbScope, topo.Testbed())
	plan, err := Solve(in, nil)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	shards := plan.ShardsOf("conn_table")
	if len(shards) < 2 {
		t.Fatalf("conn_table not split: %v", shards)
	}
	// Each flow path must see the full 4M entries.
	for _, p := range pathsOf(t, in.Scopes["loadbalancer"]) {
		var total int64
		for _, sw := range p {
			total += shards[sw]
		}
		if total < 4_000_000 {
			t.Errorf("path %v covers only %d entries", p, total)
		}
	}
}

func TestSolveImpossible(t *testing.T) {
	// 40M entries cannot fit anywhere in the pod.
	in := buildInput(t, subst(lbSrc, "40000000", "1000000"), lbScope, topo.Testbed())
	if _, err := Solve(in, nil); err == nil {
		t.Fatal("want infeasibility error")
	}
}

func TestSolveMissingScope(t *testing.T) {
	in := buildInput(t, subst(lbSrc, "1024", "1024"), lbScope, topo.Testbed())
	delete(in.Scopes, "loadbalancer")
	if _, err := Solve(in, nil); err == nil {
		t.Fatal("want missing-scope error")
	}
}

func TestSolveMinSwitchesObjective(t *testing.T) {
	in := buildInput(t, subst(lbSrc, "1024", "1024"), lbScope, topo.Testbed())
	opts := DefaultOptions()
	opts.Objective = ObjMinSwitches
	plan, err := Solve(in, opts)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	used := map[string]bool{}
	plan.EachHost(func(sw string, _ []*ir.Instr) { used[sw] = true })
	// A small LB fits on the two ToRs (every path ends in a ToR), so an
	// optimal plan uses at most 2 switches.
	if len(used) > 2 {
		t.Errorf("min-switches used %d switches: %v", len(used), used)
	}
}

func TestBridgesComputed(t *testing.T) {
	// Force hash computation upstream and use downstream: with min-switch
	// objective off, just verify bridge bookkeeping is consistent: any var
	// written on switch A and read on switch B≠A appears in A's bridges.
	in := buildInput(t, subst(lbSrc, "4000000", "1000000"), lbScope, topo.Testbed())
	plan, err := Solve(in, nil)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	alg := in.IR.Algorithm("loadbalancer")
	writer := map[string]int{}
	for _, inst := range alg.Instrs {
		if v := inst.WritesVar(); v != nil {
			writer[v.String()] = inst.ID
		}
	}
	for _, inst := range alg.Instrs {
		for _, v := range inst.Reads() {
			wID, ok := writer[v.String()]
			if !ok {
				continue
			}
			for _, rh := range hostsOf(plan, "loadbalancer", inst.ID) {
				for _, wh := range hostsOf(plan, "loadbalancer", wID) {
					if rh == wh {
						continue
					}
					found := false
					for _, b := range plan.BridgesOf(wh) {
						if b.Var == v {
							found = true
						}
					}
					if !found {
						t.Errorf("var %s written on %s read on %s but not bridged", v, wh, rh)
					}
				}
			}
		}
	}
}

func TestSolvePreferSwitchObjective(t *testing.T) {
	in := buildInput(t, subst(lbSrc, "1024", "1024"), lbScope, topo.Testbed())
	opts := DefaultOptions()
	opts.Objective = ObjPreferSwitch
	opts.PreferSwitch = "ToR4"
	plan, err := Solve(in, opts)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	// Everything that CAN sit on ToR4 should: the paths ending at ToR3
	// still need their own copies, but no Agg placements should remain.
	onToR4, elsewhere := 0, 0
	for _, inst := range in.IR.Algorithm("loadbalancer").Instrs {
		for _, h := range hostsOf(plan, "loadbalancer", inst.ID) {
			if h == "ToR4" {
				onToR4++
			} else if h == "Agg3" || h == "Agg4" {
				elsewhere++
			}
		}
	}
	if onToR4 == 0 {
		t.Error("nothing placed on the preferred switch")
	}
	if elsewhere > 0 {
		t.Errorf("%d placements on Aggs despite ToR preference", elsewhere)
	}
}

func TestHeterogeneousCapacityPlacement(t *testing.T) {
	// A table too large for the smaller Tofino-64Q but fitting the 32Q:
	// MULTI-SW placement over {ToR1 (32Q), ToR2 (64Q)} must either split
	// the table or favor the larger chip — and the plan must be admitted
	// by both chips' models.
	src := `
header_type h_t { bit[32] key; bit[32] out; }
header h_t h;
pipeline[P]{big};
algorithm big {
  extern dict<bit[32] k, bit[32] v>[2000000] big_table;
  if (h.key in big_table) {
    h.out = big_table[h.key];
  }
}
`
	// Pod 1 path ToR?? — ToR1 and ToR2 are in pod 1 but not adjacent; use
	// Agg1 as the relay: path Agg1 -> ToR1 / ToR2.
	in := buildInput(t, src, "big: [ ToR1,ToR2,Agg1 | MULTI-SW | (Agg1->ToR1,ToR2) ]", topo.Testbed())
	plan, err := Solve(in, nil)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	shards := plan.ShardsOf("big_table")
	var total int64
	for _, n := range shards {
		total += n
	}
	if total < 2_000_000 {
		t.Errorf("shards cover only %d entries: %v", total, shards)
	}
	// The 64Q's shard (if any) must itself be admissible: its allocation
	// exists in the plan.
	for sw := range shards {
		if plan.AllocationOf(sw) == nil {
			t.Errorf("no allocation recorded for %s", sw)
		}
	}
}

func TestSwitchOverflowConflictPath(t *testing.T) {
	// PER-SW on the small chip alone with an oversized table: the theory
	// must veto every assignment and the solve must fail cleanly.
	src := `
header_type h_t { bit[32] key; }
header h_t h;
pipeline[P]{big};
algorithm big {
  extern dict<bit[32] k, bit[32] v>[9000000] big_table;
  if (h.key in big_table) {
    x = big_table[h.key];
  }
}
`
	in := buildInput(t, src, "big: [ ToR2 | PER-SW | - ]", topo.Testbed())
	_, err := Solve(in, nil)
	if err == nil {
		t.Fatal("oversized PER-SW table must be infeasible")
	}
}

// scopeUnion returns the sorted union of an input's scope switches: the
// numbering of a component that colour refinement does not split.
func scopeUnion(in *Input) []string {
	seen := map[string]bool{}
	var union []string
	for _, a := range in.IR.Algorithms {
		rs := in.Scopes[a.Name]
		if rs == nil {
			continue
		}
		for _, sw := range in.Net.NamesOf(rs.IDs) {
			if !seen[sw] {
				seen[sw] = true
				union = append(union, sw)
			}
		}
	}
	sort.Strings(union)
	return union
}

// nameWalk is the reference for the flow paths a component's numbering lays
// out by index: each algorithm's paths listed by name (PathList), each hop its
// place in union, -1 off it, and the ids of union's switches.
func nameWalk(t testing.TB, in *Input, union []string) *hopLists {
	t.Helper()
	at := map[string]int32{}
	for i, sw := range union {
		at[sw] = int32(i)
	}
	l := &hopLists{}
	for _, sw := range union {
		l.ids = append(l.ids, in.Net.Switch(sw).ID())
	}
	for _, a := range in.IR.Algorithms {
		rs := in.Scopes[a.Name]
		if rs != nil && rs.Deploy == scope.MultiSwitch {
			paths, err := rs.PathList()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range paths {
				for _, sw := range p {
					i, ok := at[sw]
					if !ok {
						i = -1
					}
					l.hops = append(l.hops, i)
				}
				l.ends = append(l.ends, int32(len(l.hops)))
			}
		}
		l.algEnd = append(l.algEnd, int32(len(l.ends)))
	}
	return l
}
