package encode

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"lyra/internal/asic"
	"lyra/internal/ir"
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
// Each case runs twice: with the degraded network's scopes resolved from the
// previous resolution (ResolveAfter, as a recompile does) and from nothing.
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
		for _, after := range []bool{true, false} {
			t.Run(tc.name, func(t *testing.T) {
				src := tc.src
				if src == lbSrc {
					src = subst(lbSrc, "4000000", "100000")
				}
				base := podNet(tc.pods, tc.k)
				in := buildInput(t, src, tc.scope, base)
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
				ropts := scope.ResolveOpts{AllowMissing: true}
				scopes, err := spec.ResolveWith(net, ropts)
				if after {
					scopes, err = spec.ResolveAfter(in.Scopes, net, net.Since(base), ropts)
				}
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
				// Looked up by name, every switch of the fabric before the fault
				// — those now in no component too — is what it is from scratch.
				for _, sw := range base.Names() {
					if got.Shape(sw) != want.Shape(sw) || !reflect.DeepEqual(got.TablesOf(sw), want.TablesOf(sw)) ||
						!reflect.DeepEqual(got.AllocationOf(sw), want.AllocationOf(sw)) {
						t.Errorf("%s: looked up by name, differs from a from-scratch solve", sw)
					}
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
	ropts := scope.ResolveOpts{}
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

// TestCarriedIndexChain: each solve of a chain follows the one before it, so
// its switch index is an overlay on that solve's when that one is indexed
// whole, and whole when it is an overlay itself. Every link must locate every
// switch as a from-scratch solve does.
func TestCarriedIndexChain(t *testing.T) {
	src := subst(lbSrc, "4000000", "100000")
	net := podNet(4, 4)
	ropts := scope.ResolveOpts{AllowMissing: true}
	in := buildInputOpts(t, src, podLBScope, net, ropts)
	spec, err := scope.Parse(podLBScope)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Cache = NewCache()
	prev, err := Solve(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 8; step++ {
		next := net.Clone()
		sw := fmt.Sprintf("Agg%d_%d", 1+step%4, 1+step%2) // a pod the last step did not touch
		if err := next.DegradeASIC(sw, func(m *asic.Model) *asic.Model { return asic.Scale(m, 1, 0.95, 1) }); err != nil {
			t.Fatal(err)
		}
		scopes, err := spec.ResolveAfter(prev.Input.Scopes, next, next.Since(net), ropts)
		if err != nil {
			t.Fatal(err)
		}
		follow := *opts
		follow.Prev = prev
		got, err := Solve(&Input{IR: in.IR, Net: next, Scopes: scopes}, &follow)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		fresh, err := spec.ResolveWith(next, ropts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Solve(&Input{IR: in.IR, Net: next, Scopes: fresh}, DefaultOptions())
		if err != nil {
			t.Fatalf("step %d: from-scratch solve: %v", step, err)
		}
		planEqual(t, fmt.Sprintf("step %d, %s degraded", step, sw), got, want)
		if overlay := got.at.base != nil; overlay != (prev.at.base == nil) {
			t.Errorf("step %d: indexed as an overlay %v, following an overlay %v", step, overlay, prev.at.base != nil)
		}
		prev, net = got, next
	}
}

// TestCarriedHashesEqualFresh: a plan whose solve carried bindings over takes
// the hashes of the plan it follows for every other switch where no plan-wide
// fact a hash reads moved, and hashes the rest from its templates' slot texts.
// Its Fingerprints, BridgeLayout, Shape and Imports must be what hashing the
// same bindings from nothing gives, after every single switch-down, link-down
// and chip degrade of the carry-test fabrics and after a second fault chained
// onto each: one down of each exporter of each bridged variable, which can
// take a variable's last exporter and so a field out of the layout (some case
// must). The layout may move only with the set of its fields. Every switch
// Rehashed leaves out must hash as it did in the plan followed. And a template
// bound in two plans whose exporters differ gets the shapes of each, whether
// its plan follows another or none (oneTemplateTwoPlans).
func TestCarriedHashesEqualFresh(t *testing.T) {
	t.Run("faults", carriedHashesAfterFaults)
	t.Run("one template in two plans", oneTemplateTwoPlans)
}

func carriedHashesAfterFaults(t *testing.T) {
	const podPair = "acl: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]\nnat: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]\n"
	type fault struct {
		name string
		do   func(*topo.Network) error
	}
	down := func(sw string) fault {
		return fault{"down " + sw, func(n *topo.Network) error { return n.RemoveSwitch(sw) }}
	}
	ropts := scope.ResolveOpts{AllowMissing: true}
	cases, carried, setMoved := 0, 0, 0
	for _, fab := range []struct {
		name, src, scope string
		net              *topo.Network
	}{
		{"one algorithm", subst(lbSrc, "4000000", "100000"), podLBScope, podNet(4, 4)},
		{"one aggregation switch per pod", subst(lbSrc, "4000000", "100000"), podLBScope, oneAggPods(3)},
		{"two algorithms per pod", podTwoAlgSrc, podPair, podNet(3, 4)},
		{"per-switch scope beside pods", intSrc, podPair + "int_in: [ Core* | PER-SW | - ]\n", podNet(3, 4)},
	} {
		base := fab.net
		in := buildInputOpts(t, fab.src, fab.scope, base, ropts)
		spec, err := scope.Parse(fab.scope)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Cache = NewCache() // one family: its templates are shared by every case
		root, err := Solve(in, opts)
		if err != nil {
			t.Fatalf("%s: base solve: %v", fab.name, err)
		}
		follow := func(prev *Plan, f fault) *Plan {
			net := prev.Input.Net.Clone()
			if err := f.do(net); err != nil {
				t.Fatal(err)
			}
			scopes, err := spec.ResolveAfter(prev.Input.Scopes, net, net.Since(prev.Input.Net), ropts)
			if err != nil {
				t.Fatalf("%s: %s: resolve: %v", fab.name, f.name, err)
			}
			o := *opts
			o.Prev = prev
			got, err := Solve(&Input{IR: in.IR, Net: net, Scopes: scopes}, &o)
			if err != nil {
				t.Fatalf("%s: %s: %v", fab.name, f.name, err)
			}
			return got
		}
		check := func(label string, got, prev *Plan) {
			t.Helper()
			cases++
			fresh := &Plan{Input: got.Input, bound: got.bound, at: got.at}
			if !reflect.DeepEqual(got.Fingerprints(), fresh.Fingerprints()) {
				t.Errorf("%s: fingerprints differ from a fresh hash", label)
			}
			if !reflect.DeepEqual(got.BridgeLayout(), fresh.BridgeLayout()) {
				t.Errorf("%s: bridge layout %s, fresh %s", label, layoutOf(got), layoutOf(fresh))
			}
			fields := fieldsOf(got)
			if slices.Equal(fields, fieldsOf(prev)) {
				if layoutOf(got) != layoutOf(prev) {
					t.Errorf("%s: the bridge layout moved from %s to %s with its fields", label, layoutOf(prev), layoutOf(got))
				}
			} else {
				setMoved++
			}
			if len(slices.Compact(fields)) != len(fields) {
				t.Errorf("%s: the bridge layout %s holds a field twice", label, layoutOf(got))
			}
			for _, sw := range prev.Input.Net.Names() {
				if got.Shape(sw) != fresh.Shape(sw) {
					t.Errorf("%s: %s: shape differs from a fresh hash", label, sw)
				}
			}
			got.EachHost(func(sw string, instrs []*ir.Instr) {
				if !reflect.DeepEqual(got.Imports(sw, instrs), fresh.Imports(sw, instrs)) {
					t.Errorf("%s: %s: imports differ from a fresh hash", label, sw)
				}
			})
			rehashed, ok := got.Rehashed()
			if !ok {
				return
			}
			carried++
			for _, sw := range prev.Input.Net.Names() {
				if slices.Contains(rehashed, sw) {
					continue
				}
				if got.Fingerprints()[sw] != prev.Fingerprints()[sw] || got.Shape(sw) != prev.Shape(sw) {
					t.Errorf("%s: %s is not rehashed but hashes otherwise than in the plan followed", label, sw)
				}
			}
		}

		var faults []fault
		for _, sw := range base.Names() {
			faults = append(faults, down(sw), fault{"degrade " + sw, func(n *topo.Network) error {
				return n.DegradeASIC(sw, func(m *asic.Model) *asic.Model { return asic.Scale(m, 1, 0.8, 1) })
			}})
			for _, nb := range base.Neighbors(sw) {
				if sw < nb {
					faults = append(faults, fault{"cut " + sw + "–" + nb, func(n *topo.Network) error { return n.RemoveLink(sw, nb) }})
				}
			}
		}
		for _, f := range faults {
			got := follow(root, f)
			check(fab.name+": "+f.name, got, root)
			for _, sw := range exportersOf(got) {
				check(fab.name+": "+f.name+", then down "+sw, follow(got, down(sw)), got)
			}
		}
	}
	// The cases must reach both the carried hashes and a layout whose fields
	// moved.
	t.Logf("%d cases: %d took the carried hashes, %d moved the layout's fields", cases, carried, setMoved)
	if carried == 0 || setMoved == 0 {
		t.Errorf("%d cases took the carried hashes, %d moved the layout's fields; want both", carried, setMoved)
	}
}

// oneAggPods builds pods of one Agg linked to two ToRs each: the Agg is its
// pod's only exporter of what it bridges.
func oneAggPods(pods int) *topo.Network {
	net := topo.New()
	for p := 1; p <= pods; p++ {
		agg := fmt.Sprintf("Agg%d", p)
		net.AddSwitch(agg, "Agg", asic.Tofino32Q)
		for i := 1; i <= 2; i++ {
			tor := fmt.Sprintf("ToR%d_%d", p, i)
			net.AddSwitch(tor, "ToR", asic.Tofino32Q)
			net.AddLink(agg, tor)
		}
	}
	return net
}

// exportersOf lists the switches exporting anything in a plan, sorted.
func exportersOf(p *Plan) []string {
	var out []string
	p.EachHost(func(sw string, _ []*ir.Instr) {
		if len(p.BridgesOf(sw)) > 0 {
			out = append(out, sw)
		}
	})
	sort.Strings(out)
	return out
}

// fieldsOf renders a plan's bridge layout's fields, sorted.
func fieldsOf(p *Plan) []string {
	var out []string
	for _, bv := range p.BridgeLayout() {
		out = append(out, string(appendBridgeVar(nil, bv)))
	}
	sort.Strings(out)
	return out
}

// layoutOf renders a plan's bridge layout's fields in order.
func layoutOf(p *Plan) string {
	var b []byte
	for _, bv := range p.BridgeLayout() {
		b = appendBridgeVar(b, bv)
		b = append(b, ',')
	}
	return string(b)
}

// oneTemplateTwoPlans: a template the class memo hands to two plans, in one of
// which another pod exports what a slot reads and in the other nothing else
// does, gets the shapes a fresh hash of each plan gives — which differ at that
// slot — and not the other plan's, whether its plan follows none, follows one
// that binds nothing, or follows the base plan, which binds both pods.
func oneTemplateTwoPlans(t *testing.T) {
	// One Agg per pod: it is its pod's only exporter of the hash it reads.
	net := oneAggPods(2)
	in := buildInput(t, subst(lbSrc, "4000000", "100000"), podLBScope, net)
	opts := DefaultOptions()
	opts.Cache = NewCache()
	base, err := Solve(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	b := base.Bindings()
	if len(b) != 2 || b[0].Template != b[1].Template {
		t.Fatalf("%d bindings; want the two pods bound to one template", len(b))
	}
	empty := &Plan{Input: in, at: newIndex(nil)}
	plans := map[string]func(bound []*Binding) *Plan{
		"follows none": func(bound []*Binding) *Plan {
			return &Plan{Input: in, bound: bound, at: newIndex(bound)}
		},
		"follows a plan binding nothing": func(bound []*Binding) *Plan {
			p := &Plan{Input: in, bound: bound, at: newIndex(bound)}
			p.hashes.carry(empty, make([]bool, len(bound)), nil)
			return p
		},
		"follows the base": func(bound []*Binding) *Plan {
			p := &Plan{Input: in, bound: bound, at: newIndex(bound)}
			p.hashes.carry(base, []bool{true, true}[:len(bound)], b[len(bound):])
			return p
		},
	}
	alone := plans["follows none"]
	both, one := alone(b), alone(b[:1])
	if both.Shape("Agg1") == one.Shape("Agg1") {
		t.Error("Agg1 imports its hash in one plan and not in the other, yet has one shape")
	}
	for name, planOf := range plans {
		for _, c := range []struct {
			name        string
			plan, fresh *Plan
		}{{"both pods", planOf(b), both}, {"pod 1 alone", planOf(b[:1]), one}} {
			for _, sw := range net.Names() {
				if c.plan.Shape(sw) != c.fresh.Shape(sw) {
					t.Errorf("%s, %s: %s: shape differs from the plan that follows none", name, c.name, sw)
				}
			}
		}
	}
}

// scanBridgeFacts is the bridge facts as a scan of every export of the
// bindings, slot by slot, finds them: per variable, the exporter count and the
// last exporter, which is the only one when the count is 1.
func scanBridgeFacts(bound []*Binding) map[*ir.Var]exporter {
	exporters := map[*ir.Var]exporter{}
	for _, bd := range bound {
		for i, sw := range bd.Switches {
			for _, bv := range bd.Template.slots[i].bridges {
				exporters[bv.Var] = exporter{bv, exporters[bv.Var].count + 1, sw}
			}
		}
	}
	return exporters
}

// TestBridgeFactsEqualScan: the bridge facts bridgeFacts derives from the
// templates' export sums are what a scan of every export of the bindings
// gives — per variable, the exporter count and the exporter when it is the
// only one — and the layout and its digest are those of the scanned
// variables. Random templates of random sizes export a few variables from
// random slots, so one template often exports a variable from several slots,
// and a variable's one exporter often sits past a template's first slot.
func TestBridgeFactsEqualScan(t *testing.T) {
	vars := []*ir.Var{{Name: "a", Ver: 1}, {Name: "b", Ver: 1}, {Name: "b", Ver: 2}}
	rng := rand.New(rand.NewSource(1))
	bind := func(n int) *Binding {
		tmpl := &Template{slots: make([]slot, n)}
		switches := make([]string, n)
		for i := range switches {
			switches[i] = fmt.Sprintf("S%d", rng.Intn(1000))
			for _, v := range vars {
				if rng.Intn(3) == 0 {
					tmpl.slots[i].bridges = append(tmpl.slots[i].bridges, BridgeVar{Alg: "x", Var: v, Bits: 8 * v.Ver})
				}
			}
		}
		tmpl.exports = sumExports(tmpl.slots)
		return &Binding{Template: tmpl, Switches: switches}
	}
	several, onlyPastFirst := 0, 0
	for round := 0; round < 3000; round++ {
		var bound []*Binding
		for range 1 + rng.Intn(4) {
			bound = append(bound, bind(1+rng.Intn(4)))
		}
		for _, bd := range bound {
			for _, e := range bd.Template.exports {
				if e.n > 1 {
					several++
				}
			}
		}
		var got switchHashes
		got.bridgeFacts(bound)
		want := scanBridgeFacts(bound)
		if len(got.exporters) != len(want) {
			t.Fatalf("round %d: %d exported variables, a scan finds %d", round, len(got.exporters), len(want))
		}
		var layout []BridgeVar
		for v, w := range want {
			if g := got.exporters[v]; g.count != w.count || g.bv != w.bv || (w.count == 1 && g.only != w.only) {
				t.Fatalf("round %d: %s exported %+v, a scan finds %+v", round, v, g, w)
			}
			if w.count == 1 && !slices.ContainsFunc(bound, func(bd *Binding) bool { return bd.Switches[0] == w.only }) {
				onlyPastFirst++
			}
			layout = append(layout, w.bv)
		}
		ir.SortByVar(layout, bridgeOrder)
		if !slices.Equal(got.layout, layout) {
			t.Fatalf("round %d: layout %v, a scan gives %v", round, got.layout, layout)
		}
		var b []byte
		for _, bv := range layout {
			b = append(appendBridgeVar(b, bv), ',')
		}
		if got.bridgeDigest != hexSum(b) {
			t.Fatalf("round %d: the layout digest is not the scanned layout's", round)
		}
	}
	t.Logf("%d template sums of several slots, %d single exporters past a first slot", several, onlyPastFirst)
	if several < 500 || onlyPastFirst < 500 {
		t.Errorf("%d template sums of several slots and %d single exporters past a first slot; want 500 of each", several, onlyPastFirst)
	}
}

// TestShapeTellsWhichReadsImport: the shape of a slot reading two variables
// names which of them the switch imports, not only how many, so each subset
// some other switch exports gives the slot a shape of its own.
func TestShapeTellsWhichReadsImport(t *testing.T) {
	a, b := &ir.Var{Name: "a", Ver: 1}, &ir.Var{Name: "b", Ver: 1}
	reads := &ir.Instr{Alg: "x", ID: 1, Args: []ir.Operand{ir.VarOp(a), ir.VarOp(b)}}
	tmpl := &Template{slots: []slot{{instrs: []*ir.Instr{reads}}}}
	bd := &Binding{Template: tmpl, Switches: []string{"S1"}}
	seen := map[string][]*ir.Var{}
	for _, exported := range [][]*ir.Var{nil, {a}, {b}, {a, b}} {
		h := &switchHashes{exporters: map[*ir.Var]exporter{}}
		for _, v := range exported {
			h.exporters[v] = exporter{BridgeVar{Alg: "x", Var: v, Bits: 8}, 1, "S2"}
		}
		var buf []byte
		var scratch []*ir.Var
		shape := bd.shapes(nil, h, &buf, &scratch)[0]
		if other, dup := seen[shape]; dup {
			t.Errorf("S1 importing %v has the shape of S1 importing %v", exported, other)
		}
		seen[shape] = exported
	}
}
