// Package topo models the target data-center network: switches with their
// ASIC models, links, and flow-path enumeration within algorithm scopes
// (§4.3 "Deployment constraints generation").
package topo

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"lyra/internal/asic"
)

// Switch is one network device together with its links. A record is
// immutable once a second network can see it: Clone shares records between
// networks, and a mutator that must change one a clone may see replaces it
// with an edited copy. A record pointer therefore identifies a switch's whole
// local state — chip model and neighbour list — and two networks holding the
// same pointer under a name agree on everything about that switch.
type Switch struct {
	Name  string
	Layer string // "ToR", "Agg", "Core" (free-form)
	ASIC  *asic.Model

	nbrs []string    // neighbour names, sorted
	gen  *generation // the edit generation that made this record and may still write it
}

// generation marks the records and containers one network made since it was
// last shared; only those may be written in place. It is compared by address.
type generation struct{ _ byte }

// Network is the topology plus per-switch configuration. It is a persistent
// structure: Clone is O(1) and shares everything, the first mutation after a
// Clone copies the two containers, and every mutation replaces only the
// records it changes.
type Network struct {
	Switches []*Switch // registration order; do not modify
	byName   map[string]*Switch
	// gen is the current edit generation, nil while the containers are shared
	// with another network (after Clone or ReplaceWith). Atomic because Clone,
	// which clears it, is a read as far as callers are concerned and may run
	// concurrently with other readers and other Clones.
	gen atomic.Pointer[generation]
}

// New creates an empty network.
func New() *Network { return &Network{} }

// edit returns the generation under which n may write in place, first taking
// private copies of the containers if they are shared.
func (n *Network) edit() *generation {
	if g := n.gen.Load(); g != nil {
		return g
	}
	n.Switches = append(make([]*Switch, 0, len(n.Switches)+1), n.Switches...)
	byName := make(map[string]*Switch, len(n.byName)+1)
	for name, s := range n.byName {
		byName[name] = s
	}
	n.byName = byName
	g := new(generation)
	n.gen.Store(g)
	return g
}

// editable returns the record of s that n may write under g: s itself when g
// made it, otherwise a copy (with its own neighbour list) installed in its
// place.
func (n *Network) editable(s *Switch, g *generation) *Switch {
	if s.gen == g {
		return s
	}
	cp := &Switch{Name: s.Name, Layer: s.Layer, ASIC: s.ASIC, gen: g}
	cp.nbrs = append(make([]string, 0, len(s.nbrs)+1), s.nbrs...)
	n.byName[s.Name] = cp
	for i, old := range n.Switches {
		if old == s {
			n.Switches[i] = cp
			break
		}
	}
	return cp
}

// AddSwitch registers a switch; duplicate names are rejected.
func (n *Network) AddSwitch(name, layer string, model *asic.Model) (*Switch, error) {
	if _, dup := n.byName[name]; dup {
		return nil, fmt.Errorf("topo: duplicate switch %q", name)
	}
	s := &Switch{Name: name, Layer: layer, ASIC: model, gen: n.edit()}
	n.Switches = append(n.Switches, s)
	n.byName[name] = s
	return s, nil
}

// AddLink connects two switches bidirectionally. Self-links and duplicate
// links are rejected.
func (n *Network) AddLink(a, b string) error {
	sa, sb := n.byName[a], n.byName[b]
	if sa == nil {
		return fmt.Errorf("topo: unknown switch %q", a)
	}
	if sb == nil {
		return fmt.Errorf("topo: unknown switch %q", b)
	}
	if a == b {
		return fmt.Errorf("topo: self-link on %q", a)
	}
	if contains(sa.nbrs, b) {
		return fmt.Errorf("topo: duplicate link %s—%s", a, b)
	}
	g := n.edit()
	n.editable(sa, g).link(b)
	n.editable(sb, g).link(a)
	return nil
}

// link inserts nb into the record's sorted neighbour list, in place: the
// caller owns the record. Construction is one shift per link, no copy.
func (s *Switch) link(nb string) {
	i := sort.SearchStrings(s.nbrs, nb)
	s.nbrs = append(s.nbrs, "")
	copy(s.nbrs[i+1:], s.nbrs[i:])
	s.nbrs[i] = nb
}

// unlink removes nb from the record's neighbour list, in place.
func (s *Switch) unlink(nb string) {
	i := sort.SearchStrings(s.nbrs, nb)
	s.nbrs = append(s.nbrs[:i], s.nbrs[i+1:]...)
}

// HasLink reports whether a direct link connects a and b.
func (n *Network) HasLink(a, b string) bool {
	s := n.byName[a]
	return s != nil && contains(s.nbrs, b)
}

// RemoveSwitch deletes a switch and every link touching it (a switch-down
// fault). Removing an unknown switch is an error.
func (n *Network) RemoveSwitch(name string) error {
	s := n.byName[name]
	if s == nil {
		return fmt.Errorf("topo: remove unknown switch %q", name)
	}
	g := n.edit()
	for _, nb := range s.nbrs {
		n.editable(n.byName[nb], g).unlink(name)
	}
	delete(n.byName, name)
	for i, old := range n.Switches {
		if old == s {
			n.Switches = append(n.Switches[:i], n.Switches[i+1:]...)
			break
		}
	}
	return nil
}

// RemoveLink disconnects two switches (a link-down fault). Removing a link
// that does not exist is an error.
func (n *Network) RemoveLink(a, b string) error {
	if !n.HasLink(a, b) {
		return fmt.Errorf("topo: remove unknown link %s—%s", a, b)
	}
	g := n.edit()
	n.editable(n.byName[a], g).unlink(b)
	n.editable(n.byName[b], g).unlink(a)
	return nil
}

// DegradeASIC swaps one switch's chip model for a (typically reduced)
// replacement — a partial-failure or chip-swap event. The transform
// receives the current model and returns the new one.
func (n *Network) DegradeASIC(name string, transform func(*asic.Model) *asic.Model) error {
	s := n.byName[name]
	if s == nil {
		return fmt.Errorf("topo: degrade unknown switch %q", name)
	}
	m := transform(s.ASIC)
	if m == nil {
		return fmt.Errorf("topo: degrade of %q produced a nil model", name)
	}
	n.editable(s, n.edit()).ASIC = m
	return nil
}

// Clone returns a network equal to n that shares all of n's storage: fault
// scenarios are applied to the clone without disturbing the original, and
// either side's later mutations copy what they change. ASIC models are
// immutable registry values and always shared.
func (n *Network) Clone() *Network {
	n.gen.Store(nil)
	return &Network{Switches: n.Switches, byName: n.byName}
}

// ReplaceWith overwrites n's contents with other's, sharing other's storage
// as a Clone would. It is the commit half of a clone-mutate-swap update:
// build the next topology state on a Clone, and swap it in only once every
// mutation succeeded, so n never exposes a half-applied sequence.
func (n *Network) ReplaceWith(other *Network) {
	other.gen.Store(nil)
	n.gen.Store(nil)
	n.Switches, n.byName = other.Switches, other.byName
}

// Delta is how a network differs from an earlier state of itself (see Since).
type Delta struct {
	// Touched names, in the earlier network's registration order, the switches
	// whose record is not the later network's: removed, or changed in chip
	// model or links. Every other switch is the same object in both.
	Touched []string
	// Removed is the sublist of Touched no longer present.
	Removed []string
	// Grew reports that the later network has something the earlier lacked —
	// a switch, or a link at a touched switch — so it is not the earlier one
	// minus faults.
	Grew bool
}

// Since compares n with prev, an earlier state it was derived from by Clone
// and mutation. Sharing makes it one pointer comparison per switch.
func (n *Network) Since(prev *Network) Delta {
	var d Delta
	for _, was := range prev.Switches {
		now := n.byName[was.Name]
		if now == was {
			continue
		}
		d.Touched = append(d.Touched, was.Name)
		if now == nil {
			d.Removed = append(d.Removed, was.Name)
			continue
		}
		for _, nb := range now.nbrs {
			if !contains(was.nbrs, nb) {
				d.Grew = true
			}
		}
	}
	if len(n.Switches) != len(prev.Switches)-len(d.Removed) {
		d.Grew = true
	}
	return d
}

// Switch returns a switch by name.
func (n *Network) Switch(name string) *Switch { return n.byName[name] }

// Neighbors returns the sorted neighbor names of a switch. The returned
// slice is owned by the caller.
func (n *Network) Neighbors(name string) []string {
	return append([]string(nil), n.neighbors(name)...)
}

// EachNeighbor calls f with every neighbor of a switch, in sorted order,
// without copying the list.
func (n *Network) EachNeighbor(name string, f func(nb string)) {
	for _, nb := range n.neighbors(name) {
		f(nb)
	}
}

// neighbors returns the switch's own sorted neighbor list, which is shared
// and must not be modified.
func (n *Network) neighbors(name string) []string {
	if s := n.byName[name]; s != nil {
		return s.nbrs
	}
	return nil
}

// Match returns the switches whose names match a region pattern. Patterns
// are either exact names ("Agg3") or a prefix wildcard ("ToR*", §3.3).
func (n *Network) Match(pattern string) []*Switch {
	var out []*Switch
	if strings.HasSuffix(pattern, "*") {
		prefix := strings.TrimSuffix(pattern, "*")
		for _, s := range n.Switches {
			if strings.HasPrefix(s.Name, prefix) || s.Layer == prefix {
				out = append(out, s)
			}
		}
		return out
	}
	if s := n.byName[pattern]; s != nil {
		out = append(out, s)
	}
	return out
}

// Paths enumerates all simple paths from any switch in from to any switch
// in to, restricted to the switches in within (the algorithm scope). Paths
// are returned in deterministic order. A nil within allows all switches.
func (n *Network) Paths(from, to []string, within []string) [][]string {
	paths, _ := n.PathSet(from, to, within).Materialize(0)
	return paths
}

// Testbed builds the paper's evaluation network (§7): a fat-tree testbed
// with four ToR switches (Tofino), four Agg switches (Trident-4), and two
// Core switches (Tofino). ToR1/ToR2 and Agg1/Agg2 form pod 1; ToR3/ToR4
// and Agg3/Agg4 form pod 2; all Aggs uplink to both cores. ToR2 is a
// Tofino-64Q (fewer MAUs, §2.1); the rest are Tofino-32Q.
func Testbed() *Network {
	n := New()
	tors := []string{"ToR1", "ToR2", "ToR3", "ToR4"}
	aggs := []string{"Agg1", "Agg2", "Agg3", "Agg4"}
	cores := []string{"Core1", "Core2"}
	torModels := []*asic.Model{asic.Tofino32Q, asic.Tofino64Q, asic.Tofino32Q, asic.Tofino32Q}
	for i, t := range tors {
		n.AddSwitch(t, "ToR", torModels[i])
	}
	for _, a := range aggs {
		n.AddSwitch(a, "Agg", asic.Trident4)
	}
	for _, c := range cores {
		n.AddSwitch(c, "Core", asic.Tofino32Q)
	}
	// Pod 1: ToR1,ToR2 <-> Agg1,Agg2 ; Pod 2: ToR3,ToR4 <-> Agg3,Agg4.
	for _, t := range []string{"ToR1", "ToR2"} {
		for _, a := range []string{"Agg1", "Agg2"} {
			n.AddLink(t, a)
		}
	}
	for _, t := range []string{"ToR3", "ToR4"} {
		for _, a := range []string{"Agg3", "Agg4"} {
			n.AddLink(t, a)
		}
	}
	for _, a := range aggs {
		for _, c := range cores {
			n.AddLink(a, c)
		}
	}
	return n
}

// FatTreePod builds one pod of a k-ary fat tree with k/2 aggregation and
// k/2 ToR switches (k switches total), the topology used for the Figure 10
// scalability experiment. The ASIC model of every switch is the given one.
func FatTreePod(k int, model *asic.Model) *Network {
	n := New()
	half := k / 2
	for i := 1; i <= half; i++ {
		n.AddSwitch(fmt.Sprintf("Agg%d", i), "Agg", model)
	}
	for i := 1; i <= half; i++ {
		n.AddSwitch(fmt.Sprintf("ToR%d", i), "ToR", model)
	}
	for i := 1; i <= half; i++ {
		for j := 1; j <= half; j++ {
			n.AddLink(fmt.Sprintf("Agg%d", i), fmt.Sprintf("ToR%d", j))
		}
	}
	return n
}

// MultiPodFatTree builds a pods-pod slice of a k-ary fat tree: each pod
// has k/2 ToR and k/2 Agg switches (full bipartite links inside the pod),
// and every Agg uplinks to each of the k/2 core switches. Switch names
// carry the pod number (ToR2_1 is pod 2's first ToR); cores are Core1..n.
// modelAt picks the ASIC per switch from its layer ("ToR", "Agg", "Core")
// and a global index, letting callers mix chip families — the
// heterogeneous-network shape of §2.1 and the random topologies of the
// differential tester.
func MultiPodFatTree(pods, k int, modelAt func(layer string, idx int) *asic.Model) *Network {
	n := New()
	half := k / 2
	idx := 0
	for p := 1; p <= pods; p++ {
		for i := 1; i <= half; i++ {
			n.AddSwitch(fmt.Sprintf("ToR%d_%d", p, i), "ToR", modelAt("ToR", idx))
			idx++
		}
		for i := 1; i <= half; i++ {
			n.AddSwitch(fmt.Sprintf("Agg%d_%d", p, i), "Agg", modelAt("Agg", idx))
			idx++
		}
		for i := 1; i <= half; i++ {
			for j := 1; j <= half; j++ {
				n.AddLink(fmt.Sprintf("ToR%d_%d", p, i), fmt.Sprintf("Agg%d_%d", p, j))
			}
		}
	}
	for c := 1; c <= half; c++ {
		n.AddSwitch(fmt.Sprintf("Core%d", c), "Core", modelAt("Core", idx))
		idx++
		for p := 1; p <= pods; p++ {
			for i := 1; i <= half; i++ {
				n.AddLink(fmt.Sprintf("Agg%d_%d", p, i), fmt.Sprintf("Core%d", c))
			}
		}
	}
	return n
}

// Names returns all switch names, sorted.
func (n *Network) Names() []string {
	out := make([]string, 0, len(n.Switches))
	for _, s := range n.Switches {
		out = append(out, s.Name)
	}
	sort.Strings(out)
	return out
}
