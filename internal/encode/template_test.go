package encode

import (
	"context"
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"lyra/internal/asic"
	"lyra/internal/scope"
	"lyra/internal/topo"
)

// podTwoAlgSrc holds two algorithms; given the same MULTI-SW pod scope, every
// pod is one component placing both.
const podTwoAlgSrc = `
header_type ipv4_t { bit[32] srcAddr; bit[32] dstAddr; bit[8] protocol; }
header ipv4_t ipv4;
pipeline[A]{acl};
pipeline[N]{nat};
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
`

const perSwSrc = `
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

// TestBindEqualsSolve: binding a class's template to a component must give,
// field by field, the plan a direct solve of that component gives — placement,
// table lists (deeply: synthesis is per solve, so the direct solve's tables
// are other objects with equal content), bridges, allocations, shards, path
// metrics. Checked for every component of each fabric, twin or representative:
// a representative is bound through the same substitution.
func TestBindEqualsSolve(t *testing.T) {
	lb := subst(lbSrc, "4000000", "100000")
	hetero := func(layer string, idx int) *asic.Model {
		if idx >= 4 && idx < 8 { // pod 2 of a k=4 tree
			return asic.Trident4
		}
		return asic.Tofino32Q
	}
	for _, tc := range []struct {
		name, src, scope string
		net              *topo.Network
		classes, twins   int
	}{
		{"multi-sw", lb, podLBScope, podNet(4, 4), 1, 3},
		{"per-sw", perSwSrc, "int_in: [ ToR* | PER-SW | - ]", podNet(2, 4), 1, 0},
		{"two-algorithms", podTwoAlgSrc,
			"acl: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]\nnat: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]",
			podNet(3, 4), 1, 2},
		{"heterogeneous-chips", lb, podLBScope, topo.MultiPodFatTree(3, 4, hetero), 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := buildInput(t, tc.src, tc.scope, tc.net)
			plan, err := Solve(in, DefaultOptions())
			if err != nil {
				t.Fatalf("solve: %v", err)
			}
			if plan.Classes != tc.classes || plan.Replayed != tc.twins {
				t.Fatalf("Classes/Replayed = %d/%d, want %d/%d", plan.Classes, plan.Replayed, tc.classes, tc.twins)
			}
			comps := mustPartition(t, in)
			if len(comps) != len(plan.Bindings()) {
				t.Fatalf("%d bindings for %d components", len(plan.Bindings()), len(comps))
			}
			var enumerated int64
			for i, c := range comps {
				b := plan.Bindings()[i]
				union := scopeUnion(c.In)
				if !reflect.DeepEqual(b.Switches, union) {
					t.Fatalf("%s: bound to %v, scope union is %v", c.Label(), b.Switches, union)
				}
				r := solveComponent(context.Background(), c.In, union, &phvIndex{prog: in.IR}, DefaultOptions(), time.Time{}, c.Label())
				if r.err != nil {
					t.Fatalf("%s: direct solve: %v", c.Label(), r.err)
				}
				// The direct solve as a plan of its own, under the component's
				// switch names.
				direct := &Plan{Input: c.In, bound: []*Binding{{Template: r.tmpl, Switches: union, algs: c.Algs}}}
				direct.bound[0].layGroups()
				direct.at = newIndex(direct.bound)
				bound, want := sliceView(plan, b.Switches), sliceView(direct, union)
				for f := range want {
					if !reflect.DeepEqual(bound[f], want[f]) {
						t.Errorf("%s: %s differ between binding and direct solve:\n  bound  %v\n  direct %v", c.Label(), f, bound[f], want[f])
					}
				}
				for _, f := range []struct {
					field     string
					got, want any
				}{
					{"PathsEnumerated", b.Template.pathsEnumerated, r.tmpl.pathsEnumerated},
					{"PeakPathsHeld", b.Template.peakPathsHeld, r.tmpl.peakPathsHeld},
				} {
					if !reflect.DeepEqual(f.got, f.want) {
						t.Errorf("%s: %s differs between binding and direct solve:\n  bound  %v\n  direct %v", c.Label(), f.field, f.got, f.want)
					}
				}
				enumerated += r.tmpl.pathsEnumerated
			}
			if plan.PathsEnumerated != enumerated {
				t.Errorf("PathsEnumerated = %d, direct solves walked %d", plan.PathsEnumerated, enumerated)
			}
			if tc.name == "heterogeneous-chips" {
				bs := plan.Bindings()
				if bs[0].Template == bs[1].Template || bs[0].Template != bs[2].Template {
					t.Errorf("the Trident-4 pod must be a class of its own, and pods 1 and 3 one class")
				}
			}
		})
	}
}

// templateSnapshot deep-copies everything of a template that binding reads, so
// a later comparison shows any write into it.
type templateSnapshot struct {
	shards map[string][]indexShard
	slots  []slot
	tables [][]PlacedTable // the PlacedTable values behind the slots' pointers
}

func snapshotTemplate(t *Template) templateSnapshot {
	s := templateSnapshot{shards: map[string][]indexShard{}}
	for ext, at := range t.shards {
		s.shards[ext] = append([]indexShard(nil), at...)
	}
	for _, sl := range t.slots {
		cp := sl
		cp.instrs = append(cp.instrs[:0:0], sl.instrs...)
		cp.tables = append(cp.tables[:0:0], sl.tables...)
		cp.bridges = append(cp.bridges[:0:0], sl.bridges...)
		s.slots = append(s.slots, cp)
		var vals []PlacedTable
		for _, pt := range sl.tables {
			vals = append(vals, *pt)
		}
		s.tables = append(s.tables, vals)
	}
	return s
}

// TestTwinPlansReusedByContent: every member of a class is a binding of one
// template and takes its per-switch values from it by reference; a second
// solve on the same memo solves nothing and binds every pod to that template
// again into an identical plan; a fault in one pod puts that pod in a class
// of its own, the only one solved, while the other twins stay bound — not
// re-derived — with unchanged fingerprints, which is what lets a recompile
// keep their artifacts; the result is the plan a memo-less solve produces;
// and nothing ever writes into a template, which concurrent compiles share.
func TestTwinPlansReusedByContent(t *testing.T) {
	net := podNet(4, 4)
	ropts := scope.ResolveOpts{AllowMissing: true}
	src := subst(lbSrc, "4000000", "100000")
	in := buildInputOpts(t, src, podLBScope, net, ropts)
	opts := DefaultOptions()
	opts.Cache = NewCache()

	// boundByReference demands that every switch of the plan holds its
	// binding's template values themselves, not copies or re-derivations.
	boundByReference := func(label string, p *Plan) {
		t.Helper()
		for _, b := range p.Bindings() {
			for i, sw := range b.Switches {
				s := &b.Template.slots[i]
				if len(s.tables) > 0 && &p.TablesOf(sw)[0] != &s.tables[0] {
					t.Errorf("%s: %s: table list is not the template's", label, sw)
				}
				if len(s.bridges) > 0 && &p.BridgesOf(sw)[0] != &s.bridges[0] {
					t.Errorf("%s: %s: bridge list is not the template's", label, sw)
				}
				if p.AllocationOf(sw) != s.alloc {
					t.Errorf("%s: %s: allocation is not the template's", label, sw)
				}
			}
		}
	}

	first, err := Solve(in, opts)
	if err != nil {
		t.Fatalf("first solve: %v", err)
	}
	if first.Classes != 1 || first.Replayed != 3 {
		t.Fatalf("first solve Classes/Replayed = %d/%d, want 1/3", first.Classes, first.Replayed)
	}
	tmpl := first.Bindings()[0].Template
	for i, b := range first.Bindings() {
		if b.Template != tmpl {
			t.Errorf("component %d is not bound to the class's template", i)
		}
	}
	boundByReference("first solve", first)
	snap := snapshotTemplate(tmpl)

	again, err := Solve(in, opts)
	if err != nil {
		t.Fatalf("second solve: %v", err)
	}
	if again.Classes != 0 || again.Replayed != 4 {
		t.Errorf("second solve Classes/Replayed = %d/%d, want 0/4", again.Classes, again.Replayed)
	}
	if again.Stats.CacheHits != 1 || again.Stats.Encodes != 0 || again.Stats.SolveCalls != 0 {
		t.Errorf("second solve stats = %+v, want the one class answered from the memo and nothing solved", again.Stats)
	}
	for i, b := range again.Bindings() {
		if b.Template != tmpl {
			t.Errorf("second solve: component %d is not bound to the memoised template", i)
		}
	}
	planEqual(t, "second solve vs first", again, first)
	// Degrade an Agg of the last pod: that pod becomes a class of its own and
	// is solved, the intact class comes from the memo, and the three other
	// pods are bound to its template as before.
	degraded := net.Clone()
	if err := degraded.DegradeASIC("Agg4_1", func(m *asic.Model) *asic.Model { return asic.Scale(m, 1, 0.8, 1) }); err != nil {
		t.Fatal(err)
	}
	spec, err := scope.Parse(podLBScope)
	if err != nil {
		t.Fatal(err)
	}
	scopes, err := spec.ResolveWith(degraded, ropts)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := Solve(&Input{IR: in.IR, Net: degraded, Scopes: scopes}, opts)
	if err != nil {
		t.Fatalf("degraded solve: %v", err)
	}
	if inc.Classes != 1 || inc.Replayed != 3 || inc.Stats.CacheHits != 1 || inc.Stats.Encodes != 1 {
		t.Errorf("degraded solve Classes/Replayed = %d/%d, stats %+v: want 1/3, one memo hit and one encode",
			inc.Classes, inc.Replayed, inc.Stats)
	}
	bs := inc.Bindings()
	if bs[0].Template != tmpl {
		t.Errorf("degraded solve: the intact pods are not bound to the memoised template")
	}
	if bs[1].Template != bs[0].Template || bs[2].Template != bs[0].Template || bs[3].Template == bs[0].Template {
		t.Errorf("degraded solve: pods 2 and 3 must be bound to pod 1's template and pod 4 to its own")
	}
	boundByReference("degraded solve", inc)
	for sw, fp := range first.Fingerprints() {
		if strings.Contains(sw, "4_") {
			continue
		}
		if inc.Fingerprints()[sw] != fp {
			t.Errorf("%s: fingerprint changed although only pod 4 was degraded", sw)
		}
	}
	if inc.Fingerprints()["Agg4_1"] == first.Fingerprints()["Agg4_1"] {
		t.Errorf("Agg4_1: fingerprint unchanged by its degradation")
	}
	scratch, err := Solve(&Input{IR: in.IR, Net: degraded, Scopes: scopes}, DefaultOptions())
	if err != nil {
		t.Fatalf("cache-less degraded solve: %v", err)
	}
	planEqual(t, "degraded solve vs cache-less solve", inc, scratch)

	if !reflect.DeepEqual(snapshotTemplate(tmpl), snap) {
		t.Error("a later solve wrote into the first solve's template")
	}
}

// canonicalFingerprintFmt is canonicalFingerprint as it was rendered through
// fmt, kept as the reference the hand-rolled rendering is pinned against.
func canonicalFingerprintFmt(c *Component) string {
	in := c.In
	union := scopeUnion(in)
	set := map[string]int{}
	for i, sw := range union {
		set[sw] = i
	}
	h := sha256.New()
	for _, a := range in.IR.Algorithms {
		rs := in.Scopes[a.Name]
		fmt.Fprintf(h, "alg %s deploy=%d sw=", a.Name, rs.Deploy)
		for _, sw := range rs.Switches {
			fmt.Fprintf(h, "%d,", set[sw])
		}
		if rs.Deploy == scope.MultiSwitch {
			rs.EachPath(func(p []string) bool {
				for _, sw := range p {
					fmt.Fprintf(h, "%d.", set[sw])
				}
				h.Write([]byte{';'})
				return true
			})
		}
		h.Write([]byte{'\n'})
	}
	for _, sw := range union {
		fmt.Fprintf(h, "asic %+v\n", *in.Net.Switch(sw).ASIC)
	}
	return string(h.Sum(nil))
}

// specKeyFmt is specKey as it was rendered through fmt.
func specKeyFmt(model *asic.Model, spec *asic.ProgramSpec) string {
	var b strings.Builder
	b.WriteString(model.Name)
	for _, ts := range spec.Tables {
		fmt.Fprintf(&b, "|%s:%d:%d:%d:%d:%v:%v", ts.Name, ts.Entries, ts.MatchBits, ts.ActionBits, ts.Actions, ts.Stateful, ts.Deps)
	}
	fmt.Fprintf(&b, "#%v#%d#%d", spec.Fields, spec.ParserEntries, spec.CodePathLen)
	return b.String()
}

// TestRenderersMatchFmt pins the two hand-rolled hot renderers to the bytes
// fmt produced for them, so class fingerprints and allocator memo keys are
// what they were.
func TestRenderersMatchFmt(t *testing.T) {
	lb := subst(lbSrc, "4000000", "100000")
	for _, tc := range []struct {
		name, src, scope string
		net              *topo.Network
	}{
		{"multi-sw pods", lb, podLBScope, podNet(12, 4)}, // two-digit pod numbers and indices
		{"per-sw", perSwSrc, "int_in: [ ToR* | PER-SW | - ]", podNet(2, 4)},
		{"two algorithms, mixed chips", podTwoAlgSrc,
			"acl: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]\nnat: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]",
			topo.MultiPodFatTree(2, 4, func(layer string, _ int) *asic.Model {
				if layer == "Agg" {
					return asic.Trident4
				}
				return asic.Tofino32Q
			})},
	} {
		in := buildInput(t, tc.src, tc.scope, tc.net)
		models := map[*asic.Model][]byte{}
		for _, c := range mustPartition(t, in) {
			got, err := canonicalFingerprint(c, scopeUnion(c.In), models)
			if err != nil || got == "" {
				t.Fatalf("%s: %s: no canonical form (%v)", tc.name, c.Label(), err)
			}
			if want := canonicalFingerprintFmt(c); got != want {
				t.Errorf("%s: %s: canonical fingerprint differs from the fmt rendering", tc.name, c.Label())
			}
		}
	}

	for _, spec := range []*asic.ProgramSpec{
		{},
		{Fields: []int{8}, ParserEntries: 3, CodePathLen: 2},
		{
			Tables: []asic.TableSpec{
				{Name: "t_hash", Entries: 1, MatchBits: 0, ActionBits: 104, Actions: 1},
				{Name: "conn_table", Entries: 5500000, MatchBits: 32, ActionBits: 32, Actions: 2, Deps: []int{0}},
				{Name: "counter", Entries: -1, MatchBits: 9, ActionBits: 0, Actions: 3, Stateful: true, Deps: []int{0, 1}},
			},
			Fields:        []int{32, 32, 8, 16, 16, 1, 1},
			ParserEntries: 5,
			CodePathLen:   11,
		},
	} {
		for _, m := range []*asic.Model{asic.Tofino32Q, asic.Trident4, asic.Scale(asic.Tofino32Q, 0.5, 1, 1)} {
			if got, want := string(appendSpecKey(nil, m, spec)), specKeyFmt(m, spec); got != want {
				t.Errorf("specKey differs from the fmt rendering:\n  got  %q\n  want %q", got, want)
			}
		}
	}
}
