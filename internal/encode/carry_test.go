package encode

import (
	"reflect"
	"testing"

	"lyra/internal/asic"
	"lyra/internal/scope"
	"lyra/internal/topo"
)

// intSrc is a PER-SW algorithm: its scope never splits, so its one component
// spans every switch it names and is carried whole or not at all.
const intSrc = `
header_type ipv4_t { bit[32] srcAddr; bit[32] dstAddr; bit[8] protocol; }
header ipv4_t ipv4;
pipeline[A]{acl};
pipeline[N]{nat};
pipeline[INT]{int_in};
algorithm acl {
  extern list<bit[32] ip>[200000] deny;
  if (ipv4.srcAddr in deny) {
    ipv4.protocol = 0;
  }
}
algorithm nat {
  extern dict<bit[32] vip, bit[32] dip>[300000] vips;
  if (ipv4.dstAddr in vips) {
    ipv4.dstAddr = vips[ipv4.dstAddr];
  }
}
algorithm int_in {
  extern list<bit[32] ip>[1024] watch;
  if (ipv4.srcAddr in watch) {
    ipv4.protocol = 1;
  }
}
`

// TestCarryOverEqualsPartition: a solve that follows a previous plan must
// arrive at the decomposition — components, their order, classes, labels —
// and the plan that a solve of the degraded network from nothing arrives at,
// whether it carried components over or had to hand the whole network back
// to Partition, and must carry over exactly the components no fault touched.
func TestCarryOverEqualsPartition(t *testing.T) {
	type fault func(*topo.Network) error
	down := func(sw string) fault { return func(n *topo.Network) error { return n.RemoveSwitch(sw) } }
	cut := func(a, b string) fault { return func(n *topo.Network) error { return n.RemoveLink(a, b) } }
	degrade := func(sw string) fault {
		return func(n *topo.Network) error {
			return n.DegradeASIC(sw, func(m *asic.Model) *asic.Model { return asic.Scale(m, 1, 0.8, 1) })
		}
	}
	const podPair = "acl: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]\nnat: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]\n"
	for _, tc := range []struct {
		name, src, scope string
		pods, k          int
		faults           []fault
		carried          int // components taken over as they were; -1: the carry must give up
	}{
		{"identity", lbSrc, podLBScope, 4, 4, nil, 4},
		{"tor down", lbSrc, podLBScope, 4, 4, []fault{down("ToR2_1")}, 3},
		{"first pod's agg down", lbSrc, podLBScope, 4, 4, []fault{down("Agg1_1")}, 3},
		{"pod numbers interleave", lbSrc, podLBScope, 11, 4, []fault{cut("ToR10_1", "Agg10_2"), down("ToR1_2")}, 9},
		{"link down", lbSrc, podLBScope, 4, 4, []fault{cut("ToR3_2", "Agg3_1")}, 3},
		{"degrade", lbSrc, podLBScope, 4, 4, []fault{degrade("Agg4_2")}, 3},
		{"core down touches every pod", lbSrc, podLBScope, 4, 4, []fault{down("Core1")}, -1},
		{"a pod splits in two", lbSrc, podLBScope, 3, 4, []fault{cut("ToR2_1", "Agg2_2"), cut("ToR2_2", "Agg2_1")}, 2},
		{"a switch left on no path", lbSrc, podLBScope, 3, 4, []fault{cut("ToR2_1", "Agg2_1"), cut("ToR2_1", "Agg2_2")}, -1},
		{"a pod is gone", lbSrc, podLBScope, 3, 4, []fault{down("ToR2_1"), down("ToR2_2"), down("Agg2_1"), down("Agg2_2")}, -1},
		{"a switch appears", lbSrc, podLBScope, 3, 4, []fault{func(n *topo.Network) error {
			_, err := n.AddSwitch("ToR9_9", "ToR", asic.Tofino32Q)
			return err
		}}, -1},
		{"two algorithms per pod", podTwoAlgSrc, podPair, 3, 4, []fault{down("ToR3_1")}, 2},
		{"per-switch scope beside pods, untouched", intSrc, podPair + "int_in: [ Core* | PER-SW | - ]\n", 3, 4, []fault{cut("ToR1_1", "Agg1_1")}, 3},
		{"per-switch scope beside pods, touched", intSrc, podPair + "int_in: [ Core* | PER-SW | - ]\n", 3, 4, []fault{down("Core2")}, -1},
		{"per-switch scope over the pods", intSrc, podPair + "int_in: [ ToR* | PER-SW | - ]\n", 3, 4, []fault{down("ToR2_2")}, -1},
	} {
		for _, lazy := range []bool{true, false} {
			t.Run(tc.name, func(t *testing.T) {
				src := tc.src
				if src == lbSrc {
					src = subst(lbSrc, "4000000", "100000")
				}
				base := podNet(tc.pods, tc.k)
				in := buildInputOpts(t, src, tc.scope, base, scope.ResolveOpts{LazyPaths: lazy})
				opts := DefaultOptions()
				opts.Cache = NewCache()
				prev, err := Solve(in, opts)
				if err != nil {
					t.Fatalf("base solve: %v", err)
				}

				net := base.Clone()
				for _, f := range tc.faults {
					if err := f(net); err != nil {
						t.Fatal(err)
					}
				}
				spec, err := scope.Parse(tc.scope)
				if err != nil {
					t.Fatal(err)
				}
				ropts := scope.ResolveOpts{AllowMissing: true, LazyPaths: lazy}
				scopes, err := spec.ResolveAfter(in.Scopes, net, net.Since(base), ropts)
				if err != nil {
					t.Fatalf("resolve: %v", err)
				}
				follow := *opts
				follow.Prev = prev
				got, err := Solve(&Input{IR: in.IR, Net: net, Scopes: scopes}, &follow)
				if err != nil {
					t.Fatalf("following solve: %v", err)
				}
				fresh, err := spec.ResolveWith(net, ropts)
				if err != nil {
					t.Fatal(err)
				}
				scratch := DefaultOptions()
				scratch.Cache = NewCache() // a memo of its own: nothing to hit, but classes are computed
				want, err := Solve(&Input{IR: in.IR, Net: net, Scopes: fresh}, scratch)
				if err != nil {
					t.Fatalf("from-scratch solve: %v", err)
				}

				planEqual(t, "following vs from-scratch", got, want)
				if !reflect.DeepEqual(got.Shapes(), want.Shapes()) {
					t.Error("shapes differ from a from-scratch solve")
				}
				gb, wb := got.Bindings(), want.Bindings()
				if len(gb) != len(wb) {
					t.Fatalf("%d components, from scratch %d", len(gb), len(wb))
				}
				carried := 0
				for i := range gb {
					if !reflect.DeepEqual(gb[i].Switches, wb[i].Switches) || gb[i].Class != wb[i].Class ||
						gb[i].label != wb[i].label || gb[i].at != wb[i].at || !reflect.DeepEqual(gb[i].algs, wb[i].algs) {
						t.Errorf("component %d is %s %v at %+v, from scratch %s %v at %+v",
							i, gb[i].label, gb[i].Switches, gb[i].at, wb[i].label, wb[i].Switches, wb[i].at)
					}
					for _, pb := range prev.Bindings() {
						if &pb.Switches[0] == &gb[i].Switches[0] && pb.Template == gb[i].Template {
							carried++
						}
					}
				}
				if want := max(tc.carried, 0); carried != want {
					t.Errorf("%d components carried over, want %d", carried, want)
				}
				for i, a := range got.Diagnostics.Attempts {
					if w := want.Diagnostics.Attempts[i]; a.Component != w.Component || a.Step != w.Step || a.Outcome != w.Outcome {
						t.Errorf("attempt %d is %s/%s:%s, from scratch %s/%s:%s", i, a.Component, a.Step, a.Outcome, w.Component, w.Step, w.Outcome)
					}
				}
				if got.Instances != want.Instances || got.PathsEnumerated != want.PathsEnumerated || got.PeakPathsHeld != want.PeakPathsHeld {
					t.Errorf("Instances/PathsEnumerated/PeakPathsHeld = %d/%d/%d, from scratch %d/%d/%d",
						got.Instances, got.PathsEnumerated, got.PeakPathsHeld, want.Instances, want.PathsEnumerated, want.PeakPathsHeld)
				}
			})
		}
	}
}

// TestCarryOverRefusesAnotherProblem: a previous plan of another program, of
// another scope specification or solved under other options is not followed.
func TestCarryOverRefusesAnotherProblem(t *testing.T) {
	src := subst(lbSrc, "4000000", "100000")
	net := podNet(3, 4)
	ropts := scope.ResolveOpts{LazyPaths: true}
	in := buildInputOpts(t, src, podLBScope, net, ropts)
	opts := DefaultOptions()
	opts.Cache = NewCache()
	prev, err := Solve(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	shaping := opts.shaping()
	if ca := carryOver(in, prev, shaping); ca == nil || len(ca.kept) != 3 {
		t.Fatalf("the same problem on the same network carries %+v, want all three components", ca)
	}
	other := buildInputOpts(t, src, podLBScope, net, ropts) // parsed again: another root program
	if carryOver(other, prev, shaping) != nil {
		t.Error("a plan of another root program was followed")
	}
	narrow := buildInputOpts(t, src, "loadbalancer: [ ToR1_*,Agg1_* | MULTI-SW | (Agg1_*->ToR1_*) ]", net, ropts)
	narrow.IR = in.IR
	if carryOver(narrow, prev, shaping) != nil {
		t.Error("a plan of another scope specification was followed")
	}
	eager := buildInputOpts(t, src, podLBScope, net, scope.ResolveOpts{})
	eager.IR = in.IR
	if carryOver(eager, prev, shaping) != nil {
		t.Error("a lazily resolved plan was followed by an eagerly resolved solve")
	}
	minimise := *opts
	minimise.Objective = ObjMinPlacements
	if carryOver(in, prev, minimise.shaping()) != nil {
		t.Error("a plan solved under another objective was followed")
	}
	got, err := Solve(in, &minimise)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Encodes != 1 || got.Bindings()[0].Template == prev.Bindings()[0].Template {
		t.Errorf("another objective was answered from the first one's work: %+v", got.Stats)
	}
}
