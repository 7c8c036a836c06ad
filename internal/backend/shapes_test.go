package backend_test

import (
	"context"
	"reflect"
	"testing"

	"lyra/internal/asic"
	"lyra/internal/core"
	"lyra/internal/faults"
	"lyra/internal/topo"
)

// podLB splits a connection table too large for one switch along every pod's
// Agg->ToR paths, so each pod is one placement component and a pod with one
// ToR down is the same class whichever pod and ToR it is.
const podLB = `
header_type ipv4_t { bit[32] srcAddr; bit[32] dstAddr; bit[8] protocol; }
header ipv4_t ipv4;
pipeline[LB]{loadbalancer};
algorithm loadbalancer {
  extern dict<bit[32] hash, bit[32] ip>[4000000] conn_table;
  extern dict<bit[32] vip, bit[32] dip>[100000] vip_table;
  bit[32] hash;
  hash = crc32_hash(ipv4.srcAddr, ipv4.dstAddr, ipv4.protocol);
  if (hash in conn_table) {
    ipv4.dstAddr = conn_table[hash];
  } else {
    if (ipv4.dstAddr in vip_table) {
      ipv4.dstAddr = vip_table[ipv4.dstAddr];
    }
  }
}
`

// TestSiblingRecompilesShareShapes: two switch-downs of different pods,
// recompiled from one k=8 base, damage their pods the same way. The first
// prints and verifies the damaged pod's shapes into the family memo; the
// second prints and verifies nothing, and hands back exactly what a recompile
// from a base that carries no plan, class memo or shape memo does.
func TestSiblingRecompilesShareShapes(t *testing.T) {
	ctx := context.Background()
	net := topo.MultiPodFatTree(8, 8, func(string, int) *asic.Model { return asic.Tofino32Q })
	req := core.Request{Source: podLB, ScopeSpec: `loadbalancer: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]`, Network: net}
	base, err := core.CompileContext(ctx, req)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	down := func(prev *core.Result, sw string) (*core.Result, *core.Delta) {
		t.Helper()
		degraded, err := faults.Scenario{Events: []faults.Event{faults.SwitchDown(sw)}}.Applied(net)
		if err != nil {
			t.Fatal(err)
		}
		r := req
		r.Network = degraded
		res, delta, err := core.Recompile(ctx, prev, r, degraded)
		if err != nil {
			t.Fatalf("%s down: %v", sw, err)
		}
		return res, delta
	}
	if printed, checked := base.Shapes.Work(); printed+checked != 0 {
		t.Fatalf("a compile printed %d shapes and verified %d into the memo; only recompiles fill it", printed, checked)
	}
	first, _ := down(base, "ToR2_3")
	if first.Shapes != base.Shapes {
		t.Fatal("a recompile does not share its base's shape memo")
	}
	printed, checked := base.Shapes.Work()
	if printed == 0 || checked == 0 {
		t.Fatalf("the first sibling printed %d shapes and verified %d; the test is vacuous", printed, checked)
	}
	got, gotDelta := down(base, "ToR5_1")
	if p, c := base.Shapes.Work(); p != printed || c != checked {
		t.Errorf("the second sibling printed %d shapes and verified %d, want 0 and 0", p-printed, c-checked)
	}
	if len(gotDelta.Reprogram) == 0 {
		t.Fatal("the second sibling reprograms nothing")
	}

	memoless := *base
	memoless.Plan, memoless.Cache, memoless.Shapes = nil, nil, nil
	want, wantDelta := down(&memoless, "ToR5_1")
	if !reflect.DeepEqual(gotDelta, wantDelta) {
		t.Errorf("delta %v, from a memo-less base %v", gotDelta, wantDelta)
	}
	if !reflect.DeepEqual(got.Fingerprints, want.Fingerprints) || !reflect.DeepEqual(got.Reports, want.Reports) {
		t.Error("fingerprints or reports differ from a recompile from a memo-less base")
	}
	if len(got.Artifacts) != len(want.Artifacts) {
		t.Fatalf("%d artifacts, from a memo-less base %d", len(got.Artifacts), len(want.Artifacts))
	}
	for sw, w := range want.Artifacts {
		if g := got.Artifacts[sw]; g == nil || !reflect.DeepEqual(*g, *w) {
			t.Errorf("%s: artifact differs from a recompile from a memo-less base", sw)
		}
	}
}
