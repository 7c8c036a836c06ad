package encode

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"lyra/internal/asic"
	"lyra/internal/frontend"
	"lyra/internal/ir"
	"lyra/internal/lang/checker"
	"lyra/internal/lang/parser"
	"lyra/internal/scope"
	"lyra/internal/smt"
	"lyra/internal/topo"
)

// buildInputOpts is buildInput with explicit scope-resolution options, so
// tests can resolve leniently, as a recompile does.
func buildInputOpts(t *testing.T, src, scopeText string, net *topo.Network, ropts scope.ResolveOpts) *Input {
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
	scopes, err := spec.ResolveWith(net, ropts)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	return &Input{IR: irp, Net: net, Scopes: scopes}
}

// podNet builds a pods-pod fat-tree slice with a uniform chip model, the
// maximally symmetric workload: every pod is an exact rename of every other.
func podNet(pods, k int) *topo.Network {
	return topo.MultiPodFatTree(pods, k, func(layer string, idx int) *asic.Model {
		return asic.Tofino32Q
	})
}

const podLBScope = `loadbalancer: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]`

// hostsOf returns the switches hosting one instruction, sorted (nil when it is
// placed nowhere). It walks the whole plan per call.
func hostsOf(p *Plan, alg string, id int) []string {
	var hosts []string
	p.EachHost(func(sw string, instrs []*ir.Instr) {
		if slices.ContainsFunc(instrs, func(in *ir.Instr) bool { return in.Alg == alg && in.ID == id }) {
			hosts = append(hosts, sw)
		}
	})
	sort.Strings(hosts)
	return hosts
}

// sliceView is what a plan says about some of its switches: the hosts among
// them of every instruction, each one's tables, bridge exports and chip
// allocation, and every extern's shards on them. A nil switch list stands for
// every switch of the plan, and adds what only the whole plan decides: shape
// hashes, shard groups, fingerprints and the bridge layout.
func sliceView(p *Plan, switches []string) map[string]any {
	in := map[string]bool{}
	for _, sw := range switches {
		in[sw] = true
	}
	keep := func(sw string) bool { return switches == nil || in[sw] }
	hosts := map[string][]string{}
	shards := map[string]map[string]int64{}
	tables, bridges, allocs := map[string][]*PlacedTable{}, map[string][]BridgeVar{}, map[string]*asic.Allocation{}
	shapes, groups := map[string]string{}, map[string][]Shard{}
	for _, a := range p.Input.IR.Algorithms {
		for _, inst := range a.Instrs {
			var on []string
			for _, sw := range hostsOf(p, a.Name, inst.ID) {
				if keep(sw) {
					on = append(on, sw)
				}
			}
			hosts[fmt.Sprintf("%s/%d", a.Name, inst.ID)] = on
		}
	}
	p.EachHost(func(sw string, _ []*ir.Instr) {
		if !keep(sw) {
			return
		}
		tables[sw], bridges[sw], allocs[sw] = p.TablesOf(sw), p.BridgesOf(sw), p.AllocationOf(sw)
		shapes[sw] = p.Shape(sw)
		for _, a := range p.Input.IR.Algorithms {
			for _, e := range a.Externs {
				if g := p.ShardGroup(e.Name, sw); g != nil {
					groups[e.Name+"@"+sw] = g
				}
			}
		}
	})
	for _, a := range p.Input.IR.Algorithms {
		for _, e := range a.Externs {
			for sw, n := range p.ShardsOf(e.Name) {
				if keep(sw) {
					if shards[e.Name] == nil {
						shards[e.Name] = map[string]int64{}
					}
					shards[e.Name][sw] = n
				}
			}
		}
	}
	v := map[string]any{"hosts": hosts, "tables": tables, "bridges": bridges, "allocations": allocs, "shards": shards}
	if switches == nil {
		v["shapes"], v["shard groups"], v["fingerprints"], v["bridge layout"] = shapes, groups, p.Fingerprints(), p.BridgeLayout()
	}
	return v
}

// planEqual asserts two plans say the same about every switch, instruction
// and extern — per-switch fingerprints (which cover placement, tables, shard
// geometry, bridges, and chip model: everything codegen consumes) included.
func planEqual(t *testing.T, ctx string, a, b *Plan) {
	t.Helper()
	fa, fb := a.Fingerprints(), b.Fingerprints()
	for sw, f := range fa {
		if fb[sw] != f {
			t.Errorf("%s: switch %s fingerprint differs:\n  a=%s\n  b=%s", ctx, sw, f, fb[sw])
		}
	}
	for sw := range fb {
		if _, ok := fa[sw]; !ok {
			t.Errorf("%s: switch %s only in second plan", ctx, sw)
		}
	}
	va, vb := sliceView(a, nil), sliceView(b, nil)
	for k := range va {
		if !reflect.DeepEqual(va[k], vb[k]) {
			t.Errorf("%s: %s differ:\n  a=%v\n  b=%v", ctx, k, va[k], vb[k])
		}
	}
}

// TestSymmetryDedupByteIdenticalMultiSW: a MULTI-SW algorithm over a
// 4-pod fat tree scope-splits into 4 isomorphic per-pod components; the
// dedup path must solve one and bind the rest into a plan byte-identical
// to solving all four. Run under -race in CI (representatives are solved in
// parallel).
func TestSymmetryDedupByteIdenticalMultiSW(t *testing.T) {
	net := podNet(4, 4)
	src := subst(lbSrc, "4096", "1024")

	inDedup := buildInput(t, src, podLBScope, net)
	dedup, err := Solve(inDedup, DefaultOptions())
	if err != nil {
		t.Fatalf("dedup solve: %v", err)
	}

	inBase := buildInput(t, src, podLBScope, net)
	baseOpts := DefaultOptions()
	baseOpts.NoSymmetryDedup = true
	base, err := Solve(inBase, baseOpts)
	if err != nil {
		t.Fatalf("baseline solve: %v", err)
	}

	planEqual(t, "dedup vs no-dedup", dedup, base)

	if dedup.Classes != 1 {
		t.Errorf("Classes = %d, want 1 (all pods isomorphic)", dedup.Classes)
	}
	if dedup.Replayed != 3 {
		t.Errorf("Replayed = %d, want 3", dedup.Replayed)
	}
	if base.Replayed != 0 || base.Classes != 4 {
		t.Errorf("baseline Classes/Replayed = %d/%d, want 4/0", base.Classes, base.Replayed)
	}

	// Every single link-down of one k=8 pod, with a table split along the
	// paths: after the first, the damaged pod is bound from the memo under
	// other names each time, and must equal a direct solve of every component.
	// The direct solves must all make one search: the encoding of a damaged
	// pod reads its numbering, not its names.
	net8 := podNet(2, 8)
	in8 := buildInput(t, subst(lbSrc, "4000000", "100000"), podLBScope, net8)
	opts := DefaultOptions()
	opts.Cache = NewCache()
	var search smt.Stats
	for i := 1; i <= 4; i++ {
		for j := 1; j <= 4; j++ {
			tor, agg := fmt.Sprintf("ToR1_%d", i), fmt.Sprintf("Agg1_%d", j)
			cut := resolvedOn(t, in8, podLBScope, cutLink(t, net8, tor, agg))
			dedup, err := Solve(cut, opts)
			if err != nil {
				t.Fatalf("%s—%s: dedup solve: %v", tor, agg, err)
			}
			direct, err := Solve(cut, &Options{NoSymmetryDedup: true})
			if err != nil {
				t.Fatalf("%s—%s: baseline solve: %v", tor, agg, err)
			}
			planEqual(t, tor+"—"+agg+": memo vs no-dedup", dedup, direct)
			if len(dedup.ShardsOf("conn_table")) < 2 {
				t.Fatalf("%s—%s: conn_table is not split — the shard checks are vacuous", tor, agg)
			}
			if i+j == 2 {
				search = direct.Stats
				continue
			}
			if dedup.Classes != 0 {
				t.Errorf("%s—%s: %d classes solved, want the damaged pod from the memo", tor, agg, dedup.Classes)
			}
			if direct.Stats != search {
				t.Errorf("%s—%s: the direct solves searched %+v, those of ToR1_1—Agg1_1 %+v", tor, agg, direct.Stats, search)
			}
		}
	}
}

// cutLink returns a clone of net without the link between a and b.
func cutLink(t *testing.T, net *topo.Network, a, b string) *topo.Network {
	t.Helper()
	cut := net.Clone()
	if err := cut.RemoveLink(a, b); err != nil {
		t.Fatal(err)
	}
	return cut
}

// resolvedOn is in's program with the scope specification resolved on net, so
// solves of both share one root IR, as a recompile's do.
func resolvedOn(t *testing.T, in *Input, scopeText string, net *topo.Network) *Input {
	t.Helper()
	spec, err := scope.Parse(scopeText)
	if err != nil {
		t.Fatal(err)
	}
	scopes, err := spec.Resolve(net)
	if err != nil {
		t.Fatal(err)
	}
	return &Input{IR: in.IR, Net: net, Scopes: scopes}
}

// renamedNet is net with every switch renamed by name.
func renamedNet(t *testing.T, net *topo.Network, name func(string) string) *topo.Network {
	t.Helper()
	out := topo.New()
	for _, s := range net.Switches {
		if _, err := out.AddSwitch(name(s.Name), s.Layer, s.ASIC); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range net.Names() {
		for _, b := range net.Neighbors(a) {
			if a < b {
				if err := out.AddLink(name(a), name(b)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return out
}

// TestLinkDownsOneClass: a k=16 pod with one (ToR, Agg) link cut is the same
// graph for each of its 64 links, up to renaming, so every single link-down
// must land in one class, with the cut ToR and Agg at the same indices
// whatever their names.
func TestLinkDownsOneClass(t *testing.T) {
	const half = 8
	net := podNet(1, 2*half)
	in := buildInput(t, subst(lbSrc, "4000000", "100000"), podLBScope, net)
	classes := map[string][]string{}
	var at [2]int
	for i := 1; i <= half; i++ {
		for j := 1; j <= half; j++ {
			tor, agg := fmt.Sprintf("ToR1_%d", i), fmt.Sprintf("Agg1_%d", j)
			comps := mustPartition(t, resolvedOn(t, in, podLBScope, cutLink(t, net, tor, agg)))
			if len(comps) != 1 {
				t.Fatalf("%s—%s: %d components, want the one pod", tor, agg, len(comps))
			}
			union, class, err := getNumbering().number(context.Background(), comps[0], true)
			if err != nil || class == "" {
				t.Fatalf("%s—%s: no canonical form (%v)", tor, agg, err)
			}
			classes[class] = append(classes[class], tor+"—"+agg)
			cutAt := [2]int{slices.Index(union, tor), slices.Index(union, agg)}
			if i == 1 && j == 1 {
				at = cutAt
			} else if cutAt != at {
				t.Errorf("%s—%s: the cut switches are numbered %v, %v for ToR1_1—Agg1_1", tor, agg, cutAt, at)
			}
		}
	}
	if len(classes) != 1 {
		for _, links := range classes {
			t.Logf("class of %d link-downs, first %s", len(links), links[0])
		}
		t.Errorf("%d single link-downs of one pod fall into %d classes, want 1", half*half, len(classes))
	}
}

// TestRenamedDamagedPodKeepsClass: a renaming that swaps a k=8 fabric's two
// pods and permutes their ToR and Agg indices — the cut link with them — keeps
// every class: a solve of the renamed fabric finds both pods in the memo, and
// binds them to the plan a direct solve gives.
func TestRenamedDamagedPodKeepsClass(t *testing.T) {
	net := cutLink(t, podNet(2, 8), "ToR1_1", "Agg1_2")
	in := buildInput(t, subst(lbSrc, "4000000", "100000"), podLBScope, net)
	opts := DefaultOptions()
	opts.Cache = NewCache()
	first, err := Solve(in, opts)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if first.Classes != 2 {
		t.Fatalf("Classes = %d, want 2: the damaged pod and the intact one", first.Classes)
	}
	perm := map[string][4]int{"ToR": {3, 1, 4, 2}, "Agg": {2, 4, 1, 3}}
	renamed := renamedNet(t, net, func(sw string) string {
		var layer string
		var pod, i int
		if _, err := fmt.Sscanf(sw, "%3s%d_%d", &layer, &pod, &i); err != nil {
			return sw // a core
		}
		return fmt.Sprintf("%s%d_%d", layer, 3-pod, perm[layer][i-1])
	})
	if !renamed.HasLink("ToR2_4", "Agg2_1") || renamed.HasLink("ToR2_3", "Agg2_4") {
		t.Fatal("the renaming does not move the cut to ToR2_3—Agg2_4")
	}
	in2 := resolvedOn(t, in, podLBScope, renamed)
	again, err := Solve(in2, opts)
	if err != nil {
		t.Fatalf("solve of the renamed fabric: %v", err)
	}
	if again.Classes != 0 || again.Stats.CacheHits != 2 {
		t.Errorf("renamed fabric: Classes = %d, CacheHits = %d, want 0 and 2", again.Classes, again.Stats.CacheHits)
	}
	direct, err := Solve(in2, &Options{NoSymmetryDedup: true})
	if err != nil {
		t.Fatalf("baseline solve: %v", err)
	}
	planEqual(t, "renamed fabric: memo vs no-dedup", again, direct)
}

// TestSymmetryDedupByteIdenticalPerSW: PER-SW deployment over identical
// chips is the other symmetric shape — every single-switch component is a
// rename of the first.
func TestSymmetryDedupByteIdenticalPerSW(t *testing.T) {
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
	net := podNet(2, 4)
	scopeText := "int_in: [ ToR* | PER-SW | - ]"

	inDedup := buildInput(t, src, scopeText, net)
	dedup, err := Solve(inDedup, DefaultOptions())
	if err != nil {
		t.Fatalf("dedup solve: %v", err)
	}
	inBase := buildInput(t, src, scopeText, net)
	baseOpts := DefaultOptions()
	baseOpts.NoSymmetryDedup = true
	base, err := Solve(inBase, baseOpts)
	if err != nil {
		t.Fatalf("baseline solve: %v", err)
	}
	planEqual(t, "per-sw dedup vs no-dedup", dedup, base)
	// A PER-SW scope is one component (per-switch independence is already
	// internal to the encoder), so dedup has nothing to bind twice — the
	// assertion is that enabling it changes nothing.
	if dedup.Replayed != 0 {
		t.Errorf("Replayed = %d for a single-component PER-SW solve, want 0", dedup.Replayed)
	}
}

// TestSymmetryDedupHeterogeneousChipsNoFalseSharing: pods with different
// ASIC models are NOT isomorphic and must each be solved; the fingerprint
// has to separate them even though the path shapes match.
func TestSymmetryDedupHeterogeneousChipsNoFalseSharing(t *testing.T) {
	net := topo.MultiPodFatTree(2, 4, func(layer string, idx int) *asic.Model {
		// Pod 1 switches get Tofino, pod 2 Trident-4: idx 0..3 are pod 1.
		if idx < 4 {
			return asic.Tofino32Q
		}
		return asic.Trident4
	})
	src := subst(lbSrc, "4096", "1024")
	in := buildInput(t, src, podLBScope, net)
	plan, err := Solve(in, DefaultOptions())
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if plan.Replayed != 0 {
		t.Errorf("Replayed = %d over heterogeneous pods, want 0", plan.Replayed)
	}
	if plan.Classes != 2 {
		t.Errorf("Classes = %d, want 2", plan.Classes)
	}
}

// TestScopeSplitPodComponents: one MULTI-SW algorithm whose scope spans
// every pod splits into per-pod path-connected components (the flows never
// leave a pod because Core switches are outside the region).
func TestScopeSplitPodComponents(t *testing.T) {
	net := podNet(3, 4)
	src := subst(lbSrc, "4096", "1024")
	in := buildInput(t, src, podLBScope, net)
	comps := mustPartition(t, in)
	if len(comps) != 3 {
		for _, c := range comps {
			t.Logf("component %s: %v", c.Label(), scopeUnion(c.In))
		}
		t.Fatalf("Partition returned %d components, want 3 (one per pod)", len(comps))
	}
	for _, c := range comps {
		sws := scopeUnion(c.In)
		if len(sws) != 4 {
			t.Errorf("component %s spans %d switches %v, want 4", c.Label(), len(sws), sws)
		}
	}
}

// TestScopeSplitGlobalStateExempt: an algorithm touching global state
// requires network-wide consistency, so its scope must never split even
// when the flow paths are disconnected.
func TestScopeSplitGlobalStateExempt(t *testing.T) {
	src := `
header_type ipv4_t { bit[32] srcAddr; bit[32] dstAddr; }
header ipv4_t ipv4;
pipeline[C]{counter_alg};
algorithm counter_alg {
  global bit[32][1024] counter;
  counter[5] = counter[5] + 1;
}
`
	net := podNet(3, 4)
	in := buildInput(t, src, `counter_alg: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]`,
		net)
	comps := mustPartition(t, in)
	if len(comps) != 1 {
		t.Fatalf("global-state algorithm split into %d components, want 1", len(comps))
	}
	if got := len(scopeUnion(comps[0].In)); got != 12 {
		t.Errorf("component spans %d switches, want all 12", got)
	}
}

// TestPathMetricsBounded: with lazy enumeration the plan must report how
// many paths were streamed and the peak number of unique candidate-hop
// sequences held — and the peak must stay below the total across a
// multi-component compile, whose isomorphic pods are bound, not solved.
func TestPathMetricsBounded(t *testing.T) {
	net := podNet(4, 4)
	src := subst(lbSrc, "4096", "1024")
	in := buildInput(t, src, podLBScope, net)
	plan, err := Solve(in, DefaultOptions())
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if plan.PathsEnumerated == 0 {
		t.Error("PathsEnumerated = 0")
	}
	if plan.PeakPathsHeld == 0 {
		t.Error("PeakPathsHeld = 0")
	}
	if plan.PeakPathsHeld >= plan.PathsEnumerated {
		t.Errorf("PeakPathsHeld (%d) not below PathsEnumerated (%d) across %d components",
			plan.PeakPathsHeld, plan.PathsEnumerated, plan.Classes+plan.Replayed)
	}
	if plan.Classes != 1 || plan.Replayed != 3 {
		t.Errorf("Classes/Replayed = %d/%d, want 1/3: the pods must be bound to one solved class", plan.Classes, plan.Replayed)
	}
	if plan.EncodedVars == 0 || plan.EncodedClauses == 0 {
		t.Errorf("encoded size not recorded: vars=%d clauses=%d", plan.EncodedVars, plan.EncodedClauses)
	}
}

// TestCacheLRUBound: the class memo must hold at most its cap, evict
// least-recently-used, and count hits and evictions.
func TestCacheLRUBound(t *testing.T) {
	c := NewCacheLimited(2)
	root := buildInput(t, subst(lbSrc, "1024", "1024"), lbScope, topo.Testbed()).IR
	t1, t2, t3 := &Template{}, &Template{}, &Template{}
	if ev := c.put(root, "k1", t1); ev {
		t.Error("put k1 evicted from empty cache")
	}
	if ev := c.put(root, "k2", t2); ev {
		t.Error("put k2 evicted below cap")
	}
	// Touch k1 so k2 becomes LRU.
	if c.get(root, "k1") != t1 {
		t.Fatal("get k1 missed")
	}
	if ev := c.put(root, "k3", t3); !ev {
		t.Error("put k3 at cap did not evict")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	if c.get(root, "k2") != nil {
		t.Error("k2 survived eviction; LRU order wrong")
	}
	if c.get(root, "k1") != t1 {
		t.Error("k1 (recently used) was evicted")
	}
	if c.get(&ir.Program{}, "k1") != nil {
		t.Error("another root program hit k1")
	}
	if c.Hits() != 2 {
		t.Errorf("Hits = %d, want 2", c.Hits())
	}
	if c.Evictions() != 1 {
		t.Errorf("Evictions = %d, want 1", c.Evictions())
	}
}

// TestCacheStatsInPlan: a Recompile-style second solve over an unchanged
// component must report the cache hit in the plan's solver stats.
func TestCacheStatsInPlan(t *testing.T) {
	cache := NewCache()
	in := buildInput(t, subst(lbSrc, "1024", "1024"), lbScope, topo.Testbed())
	opts := DefaultOptions()
	opts.Cache = cache
	if _, err := Solve(in, opts); err != nil {
		t.Fatalf("first solve: %v", err)
	}
	plan2, err := Solve(in, opts)
	if err != nil {
		t.Fatalf("second solve: %v", err)
	}
	if plan2.Stats.CacheHits == 0 {
		t.Errorf("second solve CacheHits = %d, want > 0", plan2.Stats.CacheHits)
	}
	if cache.Hits() == 0 {
		t.Error("cache reports no hits")
	}
}

// TestDedupScalesClasses sanity-checks the headline speedup mechanism: at
// 8 pods the solve count must stay at 1 class regardless of pod count.
func TestDedupScalesClasses(t *testing.T) {
	for _, pods := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("pods=%d", pods), func(t *testing.T) {
			net := podNet(pods, 4)
			src := subst(lbSrc, "4096", "1024")
			in := buildInput(t, src, podLBScope, net)
			plan, err := Solve(in, DefaultOptions())
			if err != nil {
				t.Fatalf("solve: %v", err)
			}
			if plan.Classes != 1 || plan.Replayed != pods-1 {
				t.Errorf("pods=%d: Classes=%d Replayed=%d, want 1/%d",
					pods, plan.Classes, plan.Replayed, pods-1)
			}
		})
	}
}

// TestMemoHoldsNoInput: a memoised class must not pin the Input — and through
// it the network and the scopes' path sets — of the compile that solved it. A
// long churn loop keeps up to the memo's cap of them alive.
func TestMemoHoldsNoInput(t *testing.T) {
	in := buildInput(t, subst(lbSrc, "4000000", "100000"), podLBScope, podNet(3, 4))
	opts := DefaultOptions()
	opts.Cache = NewCache()
	if _, err := Solve(in, opts); err != nil {
		t.Fatalf("solve: %v", err)
	}
	if opts.Cache.Len() == 0 {
		t.Fatal("nothing memoised")
	}
	pins := map[reflect.Type]bool{
		reflect.TypeOf(&Input{}): true, reflect.TypeOf(&topo.Network{}): true, reflect.TypeOf(&topo.Switch{}): true,
		reflect.TypeOf(&topo.PathSet{}): true, reflect.TypeOf(&scope.Resolved{}): true, reflect.TypeOf(&Plan{}): true,
	}
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[v.Pointer()] {
				return
			}
			if pins[v.Type()] {
				t.Errorf("memo entry reaches a %s at %s", v.Type(), path)
				return
			}
			seen[v.Pointer()] = true
			walk(v.Elem(), path)
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), path+"[]")
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Value(), path+"[]")
			}
		}
	}
	for _, e := range opts.Cache.entries {
		walk(reflect.ValueOf(e.tmpl), "template")
	}
}
