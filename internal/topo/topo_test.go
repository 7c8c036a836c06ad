package topo

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"lyra/internal/asic"
)

func TestTestbedShape(t *testing.T) {
	n := Testbed()
	if len(n.Switches) != 10 {
		t.Fatalf("switches = %d, want 10", len(n.Switches))
	}
	if n.Switch("ToR1").ASIC.Lang != asic.LangP4 {
		t.Error("ToR1 should be P4")
	}
	if n.Switch("Agg3").ASIC != asic.Trident4 {
		t.Error("Agg3 should be Trident-4")
	}
	if n.Switch("Core1").ASIC != asic.Tofino32Q {
		t.Error("Core1 should be Tofino (§7 testbed)")
	}
	if n.Switch("ToR2").ASIC != asic.Tofino64Q {
		t.Error("ToR2 should be the smaller Tofino-64Q")
	}
	// Pod structure: ToR3 connects to Agg3/Agg4 only.
	nb := n.Neighbors("ToR3")
	if strings.Join(nb, ",") != "Agg3,Agg4" {
		t.Errorf("ToR3 neighbors = %v", nb)
	}
}

func TestDuplicateSwitch(t *testing.T) {
	n := New()
	n.AddSwitch("s1", "ToR", asic.RMT)
	if _, err := n.AddSwitch("s1", "ToR", asic.RMT); err == nil {
		t.Fatal("duplicate must fail")
	}
	var zero Network // ready to use, like New()
	if _, err := zero.AddSwitch("s1", "ToR", asic.RMT); err != nil || zero.Switch("s1") == nil {
		t.Fatalf("AddSwitch on a zero Network: %v", err)
	}
}

func TestLinkUnknown(t *testing.T) {
	n := New()
	n.AddSwitch("a", "ToR", asic.RMT)
	if err := n.AddLink("a", "ghost"); err == nil {
		t.Fatal("unknown endpoint must fail")
	}
}

func TestMatchPatterns(t *testing.T) {
	n := Testbed()
	match := func(pattern string) []string {
		set := n.NewSet()
		n.Match(set, []string{pattern})
		return n.NamesOf(n.Sorted(set))
	}
	if got := len(match("ToR*")); got != 4 {
		t.Errorf("ToR* matched %d", got)
	}
	if got := len(match("Agg3")); got != 1 {
		t.Errorf("Agg3 matched %d", got)
	}
	if got := len(match("ghost")); got != 0 {
		t.Errorf("ghost matched %d", got)
	}
}

func TestPathsPod2(t *testing.T) {
	n := Testbed()
	paths := allPaths(n,
		[]string{"Agg3", "Agg4"},
		[]string{"ToR3", "ToR4"},
		[]string{"Agg3", "Agg4", "ToR3", "ToR4"})
	// Figure 7: exactly four possible direct flows Agg{3,4} -> ToR{3,4}.
	if len(paths) != 4 {
		t.Fatalf("paths = %v", paths)
	}
	for _, p := range paths {
		if len(p) != 2 {
			t.Errorf("path %v should be direct", p)
		}
	}
}

func TestPathsRespectScope(t *testing.T) {
	n := Testbed()
	paths := allPaths(n, []string{"Agg3"}, []string{"ToR3"}, []string{"Agg3", "ToR3"})
	if len(paths) != 1 || len(paths[0]) != 2 {
		t.Fatalf("paths = %v", paths)
	}
	// Without ToR3 in scope there is no path.
	paths = allPaths(n, []string{"Agg3"}, []string{"ToR3"}, []string{"Agg3"})
	if len(paths) != 0 {
		t.Fatalf("paths = %v", paths)
	}
}

func TestFatTreePod(t *testing.T) {
	n := FatTreePod(8, asic.Tofino32Q)
	if len(n.Switches) != 8 {
		t.Fatalf("switches = %d", len(n.Switches))
	}
	if len(n.Neighbors("Agg1")) != 4 {
		t.Errorf("Agg1 neighbors = %v", n.Neighbors("Agg1"))
	}
	paths := allPaths(n, []string{"Agg1"}, []string{"ToR1", "ToR2", "ToR3", "ToR4"}, nil)
	if len(paths) < 4 {
		t.Errorf("paths = %d", len(paths))
	}
}

func TestSameSwitchPath(t *testing.T) {
	n := Testbed()
	// from == to: the path is the single switch.
	paths := allPaths(n, []string{"ToR3"}, []string{"ToR3"}, []string{"ToR3"})
	if len(paths) != 1 || len(paths[0]) != 1 {
		t.Fatalf("paths = %v", paths)
	}
}

func TestDuplicateLink(t *testing.T) {
	n := New()
	n.AddSwitch("a", "ToR", asic.RMT)
	n.AddSwitch("b", "Agg", asic.RMT)
	if err := n.AddLink("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink("a", "b"); err == nil {
		t.Error("duplicate link must fail")
	}
	// Same link named from the other end is still a duplicate.
	if err := n.AddLink("b", "a"); err == nil {
		t.Error("reversed duplicate link must fail")
	}
	if err := n.AddLink("a", "a"); err == nil {
		t.Error("self-link must fail")
	}
}

func TestRemoveSwitch(t *testing.T) {
	n := Testbed()
	if err := n.RemoveSwitch("ghost"); err == nil {
		t.Fatal("removing a nonexistent switch must fail")
	}
	if err := n.RemoveSwitch("Agg3"); err != nil {
		t.Fatal(err)
	}
	if n.Switch("Agg3") != nil {
		t.Error("Agg3 still present")
	}
	if len(n.Switches) != 9 {
		t.Errorf("switches = %d, want 9", len(n.Switches))
	}
	// Neighbor adjacency must not dangle.
	for _, nb := range n.Neighbors("ToR3") {
		if nb == "Agg3" {
			t.Error("ToR3 still adjacent to removed Agg3")
		}
	}
	if n.HasLink("ToR3", "Agg3") {
		t.Error("link ToR3-Agg3 survived switch removal")
	}
	// A second removal of the same switch fails.
	if err := n.RemoveSwitch("Agg3"); err == nil {
		t.Error("double removal must fail")
	}
}

func TestRemoveLink(t *testing.T) {
	n := Testbed()
	if !n.HasLink("ToR3", "Agg3") {
		t.Fatal("testbed should link ToR3-Agg3")
	}
	if err := n.RemoveLink("ToR3", "Agg3"); err != nil {
		t.Fatal(err)
	}
	if n.HasLink("ToR3", "Agg3") || n.HasLink("Agg3", "ToR3") {
		t.Error("link survived removal")
	}
	if err := n.RemoveLink("ToR3", "Agg3"); err == nil {
		t.Error("removing a missing link must fail")
	}
	// Paths through the dead link disappear; the Agg4 path survives.
	paths := allPaths(n, []string{"Agg3", "Agg4"}, []string{"ToR3"}, []string{"Agg3", "Agg4", "ToR3"})
	for _, p := range paths {
		for i := 0; i+1 < len(p); i++ {
			if p[i] == "Agg3" && p[i+1] == "ToR3" {
				t.Errorf("path %v uses removed link", p)
			}
		}
	}
	if len(paths) == 0 {
		t.Error("no surviving paths at all")
	}
}

func TestCloneIndependence(t *testing.T) {
	n := Testbed()
	c := n.Clone()
	if err := c.RemoveSwitch("Agg3"); err != nil {
		t.Fatal(err)
	}
	if n.Switch("Agg3") == nil {
		t.Error("removal from clone mutated the original")
	}
	if !n.HasLink("ToR3", "Agg3") {
		t.Error("original lost a link")
	}
	if err := c.DegradeASIC("ToR1", func(m *asic.Model) *asic.Model {
		return asic.Scale(m, 0.5, 1, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if got, orig := c.Switch("ToR1").ASIC.Stages, n.Switch("ToR1").ASIC.Stages; got >= orig {
		t.Errorf("clone ToR1 stages = %d, want < original %d", got, orig)
	}
}

func TestDegradeASIC(t *testing.T) {
	n := Testbed()
	orig := n.Switch("ToR1").ASIC
	if err := n.DegradeASIC("ghost", nil); err == nil {
		t.Fatal("degrading a nonexistent switch must fail")
	}
	if err := n.DegradeASIC("ToR1", func(m *asic.Model) *asic.Model {
		return asic.Scale(m, 0.5, 0.25, 1)
	}); err != nil {
		t.Fatal(err)
	}
	got := n.Switch("ToR1").ASIC
	if got.Stages != orig.Stages/2 {
		t.Errorf("stages = %d, want %d", got.Stages, orig.Stages/2)
	}
	if got.SRAMBlocks != orig.SRAMBlocks/4 {
		t.Errorf("sram = %d, want %d", got.SRAMBlocks, orig.SRAMBlocks/4)
	}
	if got.PHV32 != orig.PHV32 {
		t.Errorf("phv untouched factor changed: %d vs %d", got.PHV32, orig.PHV32)
	}
	// The shared model value must not have been mutated in place.
	if orig.Stages != Testbed().Switch("ToR1").ASIC.Stages {
		t.Error("Scale mutated the shared chip model")
	}
}

func TestScaleClampsToOne(t *testing.T) {
	m := asic.Scale(asic.Tofino32Q, 0.0001, 0.0001, 0.0001)
	if m.Stages < 1 || m.SRAMBlocks < 1 || m.PHV8 < 1 || m.ParserEntries < 1 {
		t.Errorf("degraded model has zeroed resources: %+v", m)
	}
}

func TestMultiPodFatTreeShape(t *testing.T) {
	n := MultiPodFatTree(2, 4, func(layer string, idx int) *asic.Model {
		if layer == "Agg" {
			return asic.Trident4
		}
		return asic.Tofino32Q
	})
	// 2 pods x (2 ToR + 2 Agg) + 2 cores.
	if len(n.Switches) != 10 {
		t.Fatalf("switches = %d, want 10", len(n.Switches))
	}
	if n.Switch("Agg2_1").ASIC != asic.Trident4 {
		t.Error("Agg2_1 should use the Agg model")
	}
	// Intra-pod bipartite links, no cross-pod ToR-Agg links.
	if !n.HasLink("ToR1_1", "Agg1_2") {
		t.Error("missing intra-pod link ToR1_1-Agg1_2")
	}
	if n.HasLink("ToR1_1", "Agg2_1") {
		t.Error("unexpected cross-pod link")
	}
	// Every Agg uplinks to every core.
	for _, agg := range []string{"Agg1_1", "Agg1_2", "Agg2_1", "Agg2_2"} {
		for _, core := range []string{"Core1", "Core2"} {
			if !n.HasLink(agg, core) {
				t.Errorf("missing uplink %s-%s", agg, core)
			}
		}
	}
	// Paths from a pod-1 ToR to a pod-2 ToR cross an Agg, a core, an Agg.
	paths := allPaths(n, []string{"ToR1_1"}, []string{"ToR2_1"}, nil)
	if len(paths) == 0 {
		t.Fatal("no cross-pod paths")
	}
	for _, p := range paths {
		if len(p) < 5 {
			t.Errorf("cross-pod path too short: %v", p)
		}
	}
}

// render spells out everything a network holds, in registration order.
func render(n *Network) string {
	var b strings.Builder
	for _, s := range n.Switches {
		fmt.Fprintf(&b, "%s/%s/%s stages=%d %v\n", s.Name, s.Layer, s.ASIC.Name, s.ASIC.Stages, n.Neighbors(s.Name))
		if n.Switch(s.Name) != s {
			fmt.Fprintf(&b, "  index disagrees on %s\n", s.Name)
		}
	}
	return b.String()
}

// TestCloneIsolation: networks share storage after Clone and ReplaceWith, so
// every mutator must copy what it changes. Each mutation below is applied to
// one side of a sharing pair, in both directions, and the other side must
// read exactly as before; then clones are mutated concurrently while the base
// is being read.
func TestCloneIsolation(t *testing.T) {
	halve := func(m *asic.Model) *asic.Model { return asic.Scale(m, 0.5, 1, 1) }
	type mutation struct {
		name string
		do   func(*Network) error
	}
	// Two sets on different switches, so any pair applies to one network.
	set := func(agg, tor, other, added string) []mutation {
		return []mutation{
			{"RemoveSwitch", func(n *Network) error { return n.RemoveSwitch(agg) }},
			{"RemoveSwitch+AddSwitch", func(n *Network) error {
				// The name comes back on a new record with its old id.
				if err := n.RemoveSwitch(agg); err != nil {
					return err
				}
				if _, err := n.AddSwitch(agg, "Core", asic.Tofino32Q); err != nil {
					return err
				}
				return n.AddLink(agg, tor)
			}},
			{"RemoveLink", func(n *Network) error { return n.RemoveLink(tor, other) }},
			{"DegradeASIC", func(n *Network) error { return n.DegradeASIC(tor, halve) }},
			{"AddSwitch+AddLink", func(n *Network) error {
				if _, err := n.AddSwitch(added, "Agg", asic.Trident4); err != nil {
					return err
				}
				return n.AddLink(added, tor)
			}},
		}
	}
	mutations, others := set("Agg3", "ToR4", "Agg4", "Agg0"), set("Agg1", "ToR2", "Agg2", "Agg9")
	for _, first := range mutations {
		for _, second := range others {
			t.Run(first.name+"/"+second.name, func(t *testing.T) {
				base := Testbed()
				pristine := render(base)

				// Mutate the clone; the base must not move.
				c := base.Clone()
				if err := first.do(c); err != nil {
					t.Fatal(err)
				}
				if got := render(base); got != pristine {
					t.Fatalf("mutating a clone changed the base:\n%s", got)
				}
				afterFirst := render(c)
				if afterFirst == pristine {
					t.Fatal("mutation had no effect")
				}

				// Mutate the base after the clone was taken; the clone must not move.
				if err := second.do(base); err != nil {
					t.Fatal(err)
				}
				if got := render(c); got != afterFirst {
					t.Fatalf("mutating the base changed an earlier clone:\n%s", got)
				}

				// Commit a clone into a network (what Scenario.Apply does),
				// then mutate either side.
				live, work := Testbed(), Testbed().Clone()
				if err := first.do(work); err != nil {
					t.Fatal(err)
				}
				live.ReplaceWith(work)
				if render(live) != afterFirst {
					t.Fatal("ReplaceWith did not adopt the donor's state")
				}
				if err := second.do(live); err != nil {
					t.Fatal(err)
				}
				if got := render(work); got != afterFirst {
					t.Fatalf("mutating a network changed the donor it was replaced with:\n%s", got)
				}
				afterBoth := render(live)
				if err := work.RemoveLink("ToR1", "Agg1"); err != nil {
					t.Fatal(err)
				}
				if render(live) != afterBoth {
					t.Fatal("mutating the donor changed the network that adopted it")
				}
			})
		}
	}

	t.Run("concurrent", func(t *testing.T) {
		base := MultiPodFatTree(4, 4, func(string, int) *asic.Model { return asic.Tofino32Q })
		pristine := render(base)
		within := append(layerNames(base, "ToR"), layerNames(base, "Agg")...)
		sort.Strings(within)
		ps := base.PathSet(layerNames(base, "Agg"), layerNames(base, "ToR"), within)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					c := base.Clone()
					tor := fmt.Sprintf("ToR%d_%d", 1+w, 1+i%2)
					if err := c.RemoveLink(tor, fmt.Sprintf("Agg%d_1", 1+w)); err != nil {
						t.Error(err)
					}
					if err := c.RemoveSwitch(tor); err != nil {
						t.Error(err)
					}
					if err := c.DegradeASIC("Core1", halve); err != nil {
						t.Error(err)
					}
					if d := c.Since(base); len(d.Removed) != 1 || d.Grew {
						t.Errorf("delta of a clone after faults = %+v", d)
					}
				}
			}(w)
		}
		for i := 0; i < 50; i++ {
			if n, err := ps.Count(0); err != nil || n != 16 {
				t.Errorf("base path count = %d, %v while clones mutate", n, err)
			}
		}
		wg.Wait()
		if render(base) != pristine {
			t.Error("concurrent clone mutation changed the base")
		}
	})

	// A clone that adds a name gets a name order of its own: resolving a
	// region and walking its paths on the clone sees the new switch in its
	// place, and the same on the base, concurrently, does not.
	t.Run("name order", func(t *testing.T) {
		base := MultiPodFatTree(4, 4, func(string, int) *asic.Model { return asic.Tofino32Q })
		resolve := func(n *Network) ([]string, int64) {
			region, from, to := n.NewSet(), n.NewSet(), n.NewSet()
			n.Match(region, []string{"Agg*", "ToR*"})
			n.Match(from, []string{"Agg*"})
			n.Match(to, []string{"ToR*"})
			names := n.NamesOf(n.Sorted(region))
			count, err := n.Paths(from, to, region).Count(0)
			if err != nil {
				t.Error(err)
			}
			return names, count
		}
		names, count := resolve(base)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					c := base.Clone()
					added := fmt.Sprintf("Agg0_%d", w)
					if _, err := c.AddSwitch(added, "Agg", asic.Tofino32Q); err != nil {
						t.Error(err)
						return
					}
					if err := c.AddLink(added, "ToR1_1"); err != nil {
						t.Error(err)
					}
					got, n := resolve(c)
					if want := append([]string{added}, names...); !slices.Equal(got, want) || n != count+1 {
						t.Errorf("the clone resolves to %v with %d paths, want %v with %d", got, n, want, count+1)
					}
					if got, n := resolve(base); !slices.Equal(got, names) || n != count {
						t.Errorf("the base resolves to %v with %d paths after a clone added a name, want %v with %d", got, n, names, count)
					}
				}
			}(w)
		}
		for i := 0; i < 20; i++ {
			if got, n := resolve(base); !slices.Equal(got, names) || n != count {
				t.Errorf("the base resolves to %v with %d paths while clones add names, want %v with %d", got, n, names, count)
			}
		}
		wg.Wait()
		if !slices.IsSorted(names) || len(names) != 16 {
			t.Errorf("the base's region is %v", names)
		}
	})
}

// TestSince: the delta between a network and an earlier state names exactly
// the switches whose record was replaced, and flags anything gained.
func TestSince(t *testing.T) {
	base := Testbed()
	if d := base.Clone().Since(base); len(d.Touched) != 0 || d.Grew {
		t.Errorf("untouched clone: %+v", d)
	}
	c := base.Clone()
	c.RemoveSwitch("ToR3")
	c.DegradeASIC("Core2", func(m *asic.Model) *asic.Model { return asic.Scale(m, 1, 0.5, 1) })
	d := c.Since(base)
	if got := strings.Join(d.Touched, ","); got != "ToR3,Agg3,Agg4,Core2" {
		t.Errorf("Touched = %s", got)
	}
	if got := strings.Join(d.Removed, ","); got != "ToR3" || d.Grew {
		t.Errorf("Removed = %s, Grew = %v", got, d.Grew)
	}
	for _, s := range base.Switches {
		if same := c.Switch(s.Name) == s; same == strings.Contains(",ToR3,Agg3,Agg4,Core2,", ","+s.Name+",") {
			t.Errorf("%s: record shared = %v", s.Name, same)
		}
	}
	grown := base.Clone()
	grown.AddSwitch("ToR5", "ToR", asic.Tofino32Q)
	if d := grown.Since(base); !d.Grew {
		t.Errorf("added switch: %+v", d)
	}
	linked := base.Clone()
	linked.AddLink("ToR1", "ToR2")
	if d := linked.Since(base); !d.Grew || len(d.Touched) != 2 {
		t.Errorf("added link: %+v", d)
	}
	// A removed name added back, with one of the links it had, is a changed
	// switch under its old id, not a removed or a new one, and the name index
	// stays shared; with a link it never had, the network grew.
	back := base.Clone()
	back.RemoveSwitch("Agg3")
	back.AddSwitch("Agg3", "Agg", asic.Tofino32Q)
	back.AddLink("Agg3", "ToR3")
	d = back.Since(base)
	if got := strings.Join(d.Touched, ","); got != "ToR3,ToR4,Agg3,Core1,Core2" || len(d.Removed) != 0 || d.Grew {
		t.Errorf("re-added switch: %+v", d)
	}
	if now, was := back.Switch("Agg3"), base.Switch("Agg3"); now == was || now.id != was.id || back.idsGen != base.idsGen {
		t.Error("re-adding a name did not reuse its id in the shared index")
	}
	if base.Switch("Agg3").ASIC != asic.Trident4 || !base.HasLink("Agg3", "Core1") {
		t.Error("re-adding a name on a clone changed the original")
	}
	back.AddLink("Agg3", "ToR1")
	if d := back.Since(base); !d.Grew {
		t.Errorf("re-added switch with a new link: %+v", d)
	}
	// Networks built apart share no name index and are compared by name: an
	// unrelated network built under the same names — every record another,
	// registered in the opposite order so no name has its id in base — gets
	// the delta of a walk that looks every switch up by name, in either
	// direction, as does every pair above, which share their index.
	other := New()
	for i := len(base.Switches) - 1; i >= 0; i-- {
		s := base.Switches[i]
		other.AddSwitch(s.Name, s.Layer, s.ASIC)
	}
	for _, s := range base.Switches {
		for _, nb := range base.Neighbors(s.Name) {
			if s.Name < nb {
				other.AddLink(s.Name, nb)
			}
		}
	}
	other.RemoveSwitch("ToR3")
	other.DegradeASIC("Core2", func(m *asic.Model) *asic.Model { return asic.Scale(m, 1, 0.5, 1) })
	if other.idsGen == base.idsGen {
		t.Fatal("two networks built apart share a name index")
	}
	for _, tc := range []struct {
		name      string
		now, prev *Network
	}{
		{"unrelated", other, base}, {"unrelated, reversed", base, other}, {"unrelated, untouched", Testbed(), base},
		{"clone", c, base}, {"grown", grown, base}, {"linked", linked, base}, {"re-added", back, base},
	} {
		if got, want := tc.now.Since(tc.prev), sinceByName(tc.now, tc.prev); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Since = %+v, by name %+v", tc.name, got, want)
		}
	}
	if d := Testbed().Since(base); len(d.Touched) != len(base.Switches) || d.Grew {
		t.Errorf("an unrelated equal network: %+v, want every switch touched and nothing grown", d)
	}
}

// sinceByName is Since with every switch of prev looked up in n by name.
func sinceByName(n, prev *Network) Delta {
	var d Delta
	for _, was := range prev.Switches {
		now := n.Switch(was.Name)
		if now == was {
			continue
		}
		d.Touched = append(d.Touched, was.Name)
		if now == nil {
			d.Removed = append(d.Removed, was.Name)
			continue
		}
		for _, nb := range now.nbrs {
			if !prev.HasLink(was.Name, n.recs[nb].Name) {
				d.Grew = true
			}
		}
	}
	if len(n.Switches) != len(prev.Switches)-len(d.Removed) {
		d.Grew = true
	}
	return d
}

// cloneEdits are the first edits a recompile makes on a clone of a k ≥ 16
// multi-pod fat tree: a ToR down, a ToR–Agg link down and a chip swap.
var cloneEdits = []struct {
	name string
	do   func(*Network) error
}{
	{"RemoveSwitch", func(c *Network) error { return c.RemoveSwitch("ToR7_3") }},
	{"RemoveLink", func(c *Network) error { return c.RemoveLink("ToR7_3", "Agg7_5") }},
	{"DegradeASIC", func(c *Network) error {
		return c.DegradeASIC("Agg7_5", func(m *asic.Model) *asic.Model { return asic.Scale(m, 0.5, 1, 1) })
	}},
}

// TestCloneEditAllocBudget: a Clone followed by one edit copies the switch
// list, the record table and the records it changes, not the name index. At
// k=32 (1,040 switches) each of a ToR down, a ToR–Agg link down and a chip
// swap must stay within 24 KB; copying the name index cost 64–73 KB.
func TestCloneEditAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is meaningless under the race detector")
	}
	const budget = 24 << 10
	n := MultiPodFatTree(32, 32, func(string, int) *asic.Model { return asic.Tofino32Q })
	for _, e := range cloneEdits {
		const runs = 20
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := e.do(n.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("Clone + %s: %d bytes, %d mallocs", e.name, bytes, (after.Mallocs-before.Mallocs)/runs)
		if bytes > budget {
			t.Errorf("Clone + %s allocates %d bytes, budget %d", e.name, bytes, budget)
		}
	}
}

// TestInOrder checks both ways InOrder finds a map's switches — a lookup per
// switch for most of the network, a lookup per key for a few — against a
// sort of the keys, and that a key naming no switch, also a removed one, is
// an error naming the least such key.
func TestInOrder(t *testing.T) {
	net := MultiPodFatTree(4, 8, func(string, int) *asic.Model { return asic.Tofino32Q })
	if err := net.RemoveSwitch("Agg2_1"); err != nil {
		t.Fatal(err)
	}
	names := net.Names()
	for _, size := range []int{0, 1, 3, len(names) / 4, len(names) - 1, len(names)} {
		m := map[string]bool{}
		for _, i := range rand.New(rand.NewSource(int64(size))).Perm(len(names))[:size] {
			m[names[i]] = true
		}
		want := make([]string, 0, len(m))
		for name := range m {
			want = append(want, name)
		}
		sort.Strings(want)
		if got, err := InOrder(net, m); err != nil || !slices.Equal(got, want) {
			t.Fatalf("%d keys: InOrder = %v, %v; want %v", size, got, err, want)
		}
		m["Agg2_1"], m["Zzz"] = true, true
		if _, err := InOrder(net, m); err == nil || !strings.Contains(err.Error(), `"Agg2_1"`) {
			t.Fatalf("%d keys and two that are not switches: err = %v, want one naming Agg2_1", size, err)
		}
	}
}
