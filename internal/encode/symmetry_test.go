package encode

import (
	"fmt"
	"reflect"
	"testing"

	"lyra/internal/asic"
	"lyra/internal/frontend"
	"lyra/internal/ir"
	"lyra/internal/lang/checker"
	"lyra/internal/lang/parser"
	"lyra/internal/scope"
	"lyra/internal/topo"
)

// buildInputOpts is buildInput with explicit scope-resolution options, so
// tests can exercise the lazy path-enumeration mode end to end.
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

// planEqual asserts two plans generate byte-identical artifacts: identical
// per-switch fingerprints (which cover placement, tables, shard geometry,
// bridges, and chip model — everything codegen consumes).
func planEqual(t *testing.T, ctx string, a, b *Plan) {
	t.Helper()
	fa, fb := a.Fingerprints(), b.Fingerprints()
	if !reflect.DeepEqual(fa, fb) {
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
	}
	if !reflect.DeepEqual(a.Placement, b.Placement) {
		t.Errorf("%s: placements differ", ctx)
	}
	if !reflect.DeepEqual(a.Shards, b.Shards) {
		t.Errorf("%s: shards differ", ctx)
	}
}

// TestSymmetryDedupByteIdenticalMultiSW: a MULTI-SW algorithm over a
// 4-pod fat tree scope-splits into 4 isomorphic per-pod components; the
// dedup path must solve one and bind the rest into a plan byte-identical
// to solving all four. Run under -race in CI (representatives are solved in
// parallel).
func TestSymmetryDedupByteIdenticalMultiSW(t *testing.T) {
	net := podNet(4, 4)
	ropts := scope.ResolveOpts{LazyPaths: true}
	src := subst(lbSrc, "4096", "1024")

	inDedup := buildInputOpts(t, src, podLBScope, net, ropts)
	dedup, err := Solve(inDedup, DefaultOptions())
	if err != nil {
		t.Fatalf("dedup solve: %v", err)
	}

	inBase := buildInputOpts(t, src, podLBScope, net, ropts)
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
	ropts := scope.ResolveOpts{LazyPaths: true}
	scopeText := "int_in: [ ToR* | PER-SW | - ]"

	inDedup := buildInputOpts(t, src, scopeText, net, ropts)
	dedup, err := Solve(inDedup, DefaultOptions())
	if err != nil {
		t.Fatalf("dedup solve: %v", err)
	}
	inBase := buildInputOpts(t, src, scopeText, net, ropts)
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
	in := buildInputOpts(t, src, podLBScope, net, scope.ResolveOpts{LazyPaths: true})
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
	in := buildInputOpts(t, src, podLBScope, net, scope.ResolveOpts{LazyPaths: true})
	comps := Partition(in)
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
	in := buildInputOpts(t, src, `counter_alg: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]`,
		net, scope.ResolveOpts{LazyPaths: true})
	comps := Partition(in)
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
	in := buildInputOpts(t, src, podLBScope, net, scope.ResolveOpts{LazyPaths: true})
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
			in := buildInputOpts(t, src, podLBScope, net, scope.ResolveOpts{LazyPaths: true})
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
	in := buildInputOpts(t, subst(lbSrc, "4000000", "100000"), podLBScope, podNet(3, 4), scope.ResolveOpts{LazyPaths: true})
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
