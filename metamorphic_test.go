package lyra

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"lyra/internal/asic"
	"lyra/internal/encode"
	"lyra/internal/ir"
	"lyra/internal/topo"
)

// planSlice is what a plan says about a set of switches, with every switch
// name passed through a renaming: the hosts of every instruction, each
// switch's tables, bridge exports, chip allocation and shape hash, and every
// extern's shards and shard groups.
type planSlice struct {
	Hosts   map[string][]string
	Tables  map[string][]*encode.PlacedTable
	Bridges map[string][]encode.BridgeVar
	Allocs  map[string]*asic.Allocation
	Shapes  map[string]string
	Shards  map[string]map[string]int64
	Groups  map[string]map[string][]encode.Shard
}

// sliceOf returns the slice of res's plan over the switches keep accepts,
// under the names name gives them.
func sliceOf(res *Result, keep func(string) bool, name func(string) string) planSlice {
	p := res.plan
	s := planSlice{
		Hosts: map[string][]string{}, Tables: map[string][]*encode.PlacedTable{}, Bridges: map[string][]encode.BridgeVar{},
		Allocs: map[string]*asic.Allocation{}, Shapes: map[string]string{},
		Shards: map[string]map[string]int64{}, Groups: map[string]map[string][]encode.Shard{},
	}
	p.EachHost(func(sw string, instrs []*ir.Instr) {
		if keep(sw) {
			for _, in := range instrs {
				id := fmt.Sprintf("%s/%d", in.Alg, in.ID)
				s.Hosts[id] = append(s.Hosts[id], name(sw))
			}
		}
	})
	for _, hosts := range s.Hosts {
		sort.Strings(hosts)
	}
	for _, a := range p.Input.IR.Algorithms {
		for _, e := range a.Externs {
			for sw, n := range p.ShardsOf(e.Name) {
				if keep(sw) {
					if s.Shards[e.Name] == nil {
						s.Shards[e.Name] = map[string]int64{}
					}
					s.Shards[e.Name][name(sw)] = n
				}
			}
		}
	}
	for sw := range p.Fingerprints() {
		if !keep(sw) {
			continue
		}
		n := name(sw)
		s.Tables[n], s.Bridges[n], s.Allocs[n], s.Shapes[n] = p.TablesOf(sw), p.BridgesOf(sw), p.AllocationOf(sw), p.Shape(sw)
		for _, a := range p.Input.IR.Algorithms {
			for _, e := range a.Externs {
				var group []encode.Shard
				for _, s := range p.ShardGroup(e.Name, sw) {
					group = append(group, encode.Shard{Switch: name(s.Switch), Entries: s.Entries})
				}
				if group == nil {
					continue
				}
				if s.Groups[e.Name] == nil {
					s.Groups[e.Name] = map[string][]encode.Shard{}
				}
				s.Groups[e.Name][n] = group
			}
		}
	}
	return s
}

func everySwitch(string) bool { return true }

func sameName(sw string) string { return sw }

// sameSlice reports every part of two plan slices that differs.
func sameSlice(t *testing.T, label string, got, want planSlice) {
	t.Helper()
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			t.Errorf("%s: %s differ:\n  got  %v\n  want %v", label, g.Type().Field(i).Name, g.Field(i).Interface(), w.Field(i).Interface())
		}
	}
}

// renamedNet rebuilds net with every switch renamed, in the same declaration
// order.
func renamedNet(t *testing.T, net *Network, name func(string) string) *Network {
	t.Helper()
	out := topo.New()
	for _, s := range net.Switches {
		if _, err := out.AddSwitch(name(s.Name), s.Layer, s.ASIC); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range net.Names() {
		for _, b := range net.Neighbors(a) {
			if a >= b {
				continue
			}
			if err := out.AddLink(name(a), name(b)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// TestSwitchRenamingMetamorphic: a switch's name is not part of what it is
// given. Prefixing every switch name — in the topology and in the scope
// specification — keeps the names' order, and must give the plan the original
// names give, renamed: hosts per instruction, per-switch tables, allocations,
// bridges and shape hashes, shard entries and shard groups, and program text
// and control-plane stubs that differ in the names alone. A renaming that
// changes the names' order must leave the bridge layout as it was; only the
// layout is compared there, as shard indices still follow the names.
func TestSwitchRenamingMetamorphic(t *testing.T) {
	const prefix = "site_"
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		net  *Network
	}{
		{"mixed chips", mixedPods()},
		{"k=8", uniformPods(4, 8)},
	} {
		c := New()
		want, err := c.Compile(ctx, podLB, podScope, tc.net)
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		scopeText := strings.NewReplacer("ToR*", prefix+"ToR*", "Agg*", prefix+"Agg*").Replace(podScope)
		got, err := c.Compile(ctx, podLB, scopeText, renamedNet(t, tc.net, func(sw string) string { return prefix + sw }))
		if err != nil {
			t.Fatalf("%s: compile of the renamed fabric: %v", tc.name, err)
		}
		slice := sliceOf(want, everySwitch, sameName)
		if len(slice.Groups["conn_table"]) == 0 {
			t.Fatalf("%s: conn_table is not split — the test is vacuous", tc.name)
		}
		sameSlice(t, tc.name, sliceOf(got, everySwitch, func(sw string) string { return strings.TrimPrefix(sw, prefix) }), slice)
		if len(got.Artifacts) != len(want.Artifacts) {
			t.Fatalf("%s: %d switches programmed, %d under the original names", tc.name, len(got.Artifacts), len(want.Artifacts))
		}
		for _, sw := range want.Switches() {
			a, b := got.Artifact(prefix+sw), want.Artifact(sw)
			// The stub pads switch names into a column: compare it word by word.
			if a == nil || strings.ReplaceAll(a.Code, prefix, "") != b.Code ||
				!reflect.DeepEqual(strings.Fields(strings.ReplaceAll(a.ControlPlane, prefix, "")), strings.Fields(b.ControlPlane)) {
				t.Errorf("%s: %s: text differs in more than the switch names", tc.name, sw)
			}
		}
	}

	// The cores, which export int_in's fields, renamed to sort before the
	// pods, which export acl's and nat's.
	c := New()
	net := uniformPods(3, 4)
	want, err := c.Compile(ctx, threeAlgs, threeAlgScope, net)
	if err != nil {
		t.Fatalf("three algorithms: compile: %v", err)
	}
	coresFirst := func(sw string) string {
		if podOf(sw) == 0 {
			return "A_" + sw
		}
		return sw
	}
	got, err := c.Compile(ctx, threeAlgs, strings.Replace(threeAlgScope, "Core*", "A_Core*", 1), renamedNet(t, net, coresFirst))
	if err != nil {
		t.Fatalf("three algorithms: compile of the renamed fabric: %v", err)
	}
	if g, w := layoutFields(got), layoutFields(want); !reflect.DeepEqual(g, w) || len(w) < 3 {
		t.Errorf("three algorithms: the cores renamed first lay the bridge out as %v, the original names as %v; want one layout of three fields or more", g, w)
	}
}

// TestPodPermutationMetamorphic: four pods with four different chip mixes,
// then the same fabric with the mixes handed to the pods in another order.
// Pods are independent, so each pod's slice of the plan must be, switch names
// aside, the slice of the pod whose mix it now has.
func TestPodPermutationMetamorphic(t *testing.T) {
	const pods, k = 4, 4
	mixes := [pods]func(layer string) *asic.Model{
		func(string) *asic.Model { return asic.Tofino32Q },
		func(layer string) *asic.Model {
			if layer == "Agg" {
				return asic.Trident4
			}
			return asic.Tofino32Q
		},
		func(layer string) *asic.Model {
			if layer == "ToR" {
				return asic.Tofino64Q
			}
			return asic.Tofino32Q
		},
		func(layer string) *asic.Model {
			if layer == "Agg" {
				return asic.Scale(asic.Tofino32Q, 1, 0.8, 1)
			}
			return asic.Tofino32Q
		},
	}
	// fabric gives pod p the mix perm[p-1]; MultiPodFatTree numbers each pod's
	// k ToRs and Aggs consecutively, then the cores.
	fabric := func(perm [pods]int) *Network {
		return topo.MultiPodFatTree(pods, k, func(layer string, idx int) *asic.Model {
			if layer == "Core" {
				return asic.Tofino32Q
			}
			return mixes[perm[idx/k]](layer)
		})
	}
	ctx := context.Background()
	c := New()
	want, err := c.Compile(ctx, podLB, podScope, fabric([pods]int{0, 1, 2, 3}))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if want.plan.Classes != pods {
		t.Fatalf("%d symmetry classes, want one per pod — the test is vacuous", want.plan.Classes)
	}
	inPod := func(n int) func(string) bool { return func(sw string) bool { return podOf(sw) == n } }
	for _, perm := range [][pods]int{{1, 0, 2, 3}, {2, 3, 0, 1}, {3, 2, 1, 0}} {
		got, err := c.Compile(ctx, podLB, podScope, fabric(perm))
		if err != nil {
			t.Fatalf("perm %v: compile: %v", perm, err)
		}
		for p := 1; p <= pods; p++ {
			q := perm[p-1] + 1 // the pod of the original fabric with p's mix
			toQ := strings.NewReplacer(fmt.Sprintf("ToR%d_", p), fmt.Sprintf("ToR%d_", q), fmt.Sprintf("Agg%d_", p), fmt.Sprintf("Agg%d_", q))
			sameSlice(t, fmt.Sprintf("perm %v, pod %d", perm, p), sliceOf(got, inPod(p), toQ.Replace), sliceOf(want, inPod(q), sameName))
		}
	}
}

// exampleConst reads a raw-string constant, such as the Lyra `program` or
// its `scopeSpec`, out of an example's main.go.
func exampleConst(t *testing.T, example, name string) string {
	t.Helper()
	path := filepath.Join("examples", example, "main.go")
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(text), "const "+name+" = `")
	src, _, closed := strings.Cut(rest, "`")
	if !ok || !closed {
		t.Fatalf("%s has no %s constant", path, name)
	}
	return src
}

// scopeLines returns the algorithm lines of a scope specification, without
// blank and comment lines.
func scopeLines(spec string) []string {
	var lines []string
	for _, l := range strings.Split(spec, "\n") {
		if l = strings.TrimSpace(l); l != "" && !strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	return lines
}

// lineOrders returns six seeded orders of n lines, none of them the given
// order; every case of the test below has more than three lines.
func lineOrders(n int) [][]int {
	rng := rand.New(rand.NewSource(int64(n)))
	var orders [][]int
	for len(orders) < 6 {
		if o := rng.Perm(n); !slices.IsSorted(o) {
			orders = append(orders, o)
		}
	}
	return orders
}

// TestScopeLineOrderMetamorphic: the order of a scope specification's lines
// is not part of its meaning. Multi-algorithm programs compiled with their
// scope lines in six other seeded orders must give byte-identical
// artifacts, fingerprints and reports: the composition service chain one
// switch per algorithm, and Figure 7 — examples/intlb's program and scope,
// three INT lines plus the load balancer over pod 2 — on the testbed.
func TestScopeLineOrderMetamorphic(t *testing.T) {
	ctx := context.Background()
	c := New()
	for _, tc := range []struct {
		name, src string
		lines     []string
	}{
		{"composition", loadProgram(t, "composition"), scopeLines(compositionScopes)},
		{"intlb", exampleConst(t, "intlb", "program"), scopeLines(exampleConst(t, "intlb", "scopeSpec"))},
	} {
		want, err := c.Compile(ctx, tc.src, strings.Join(tc.lines, "\n"), Testbed())
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		if len(tc.lines) < 4 || len(want.Artifacts) == 0 {
			t.Fatalf("%s: %d scope lines, %d switches programmed: the test is vacuous", tc.name, len(tc.lines), len(want.Artifacts))
		}
		for _, order := range lineOrders(len(tc.lines)) {
			lines := make([]string, len(order))
			for i, j := range order {
				lines[i] = tc.lines[j]
			}
			got, err := c.Compile(ctx, tc.src, strings.Join(lines, "\n"), Testbed())
			if err != nil {
				t.Fatalf("%s %v: compile: %v", tc.name, order, err)
			}
			if !reflect.DeepEqual(got.Switches(), want.Switches()) {
				t.Fatalf("%s %v: programmed switches %v, want %v", tc.name, order, got.Switches(), want.Switches())
			}
			for _, sw := range want.Switches() {
				a, b := got.Artifact(sw), want.Artifact(sw)
				if a.Code != b.Code || a.ControlPlane != b.ControlPlane || a.Dialect != b.Dialect ||
					[5]int{a.Tables, a.Actions, a.Registers, a.LoC, a.LogicLoC} != [5]int{b.Tables, b.Actions, b.Registers, b.LoC, b.LogicLoC} {
					t.Errorf("%s %v: %s: artifact depends on the scope lines' order", tc.name, order, sw)
				}
			}
			if !reflect.DeepEqual(got.Fingerprints, want.Fingerprints) || got.ArtifactFingerprint() != want.ArtifactFingerprint() {
				t.Errorf("%s %v: fingerprints depend on the scope lines' order", tc.name, order)
			}
			if !reflect.DeepEqual(got.Reports, want.Reports) {
				t.Errorf("%s %v: reports depend on the scope lines' order", tc.name, order)
			}
		}
	}
}
