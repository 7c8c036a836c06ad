// Package topo models the target data-center network: switches with their
// ASIC models, links, and flow-path enumeration within algorithm scopes
// (§4.3 "Deployment constraints generation").
package topo

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
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

	id   int32       // the switch's index in the record table, the same for its name in every clone
	nbrs []int32     // neighbour ids, sorted by neighbour name
	gen  *generation // the edit generation that made this record and may still write it
}

// generation marks the records and containers one network made since it was
// last shared; only those may be written in place. It is compared by address.
type generation struct{ _ byte }

// Network is the topology plus per-switch configuration. It is a persistent
// structure: Clone is O(1) and shares everything, the first mutation after a
// Clone copies the switch list and the record table, and every mutation
// replaces only the records it changes.
type Network struct {
	Switches []*Switch // registration order; do not modify
	recs     []*Switch // by switch id; nil for a removed switch
	// ids maps every name the network has had to its switch id: a removed
	// switch keeps its entry and a re-added name its id, so clones share the
	// map until one adds a new name. order lists the same ids in name (byte)
	// order and is shared and copied with the map. idsGen, the generation that
	// may write both, tells whether two networks share them.
	ids    map[string]int32
	order  []int32
	idsGen *generation
	// gen is the current edit generation, nil while the containers are shared
	// with another network (after Clone or ReplaceWith). Atomic because Clone,
	// which clears it, is a read as far as callers are concerned and may run
	// concurrently with other readers and other Clones.
	gen atomic.Pointer[generation]
}

// New creates an empty network.
func New() *Network { return &Network{} }

// edit returns the generation under which n may write in place, first taking
// private copies of the switch list and record table if they are shared.
func (n *Network) edit() *generation {
	if g := n.gen.Load(); g != nil {
		return g
	}
	n.Switches = append(make([]*Switch, 0, len(n.Switches)+1), n.Switches...)
	n.recs = append(make([]*Switch, 0, len(n.recs)+1), n.recs...)
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
	cp := &Switch{Name: s.Name, Layer: s.Layer, ASIC: s.ASIC, id: s.id, gen: g}
	cp.nbrs = append(make([]int32, 0, len(s.nbrs)+1), s.nbrs...)
	n.recs[s.id] = cp
	for i, old := range n.Switches {
		if old == s {
			n.Switches[i] = cp
			break
		}
	}
	return cp
}

// AddSwitch registers a switch; duplicate names are rejected. A name the
// network had before gets its old id back.
func (n *Network) AddSwitch(name, layer string, model *asic.Model) (*Switch, error) {
	id, known := n.ids[name]
	if known && n.recs[id] != nil {
		return nil, fmt.Errorf("topo: duplicate switch %q", name)
	}
	g := n.edit()
	if !known {
		if n.idsGen != g {
			ids := make(map[string]int32, len(n.ids)+1)
			maps.Copy(ids, n.ids)
			n.ids, n.order, n.idsGen = ids, slices.Clip(n.order), g
		}
		id = int32(len(n.recs))
		at := sort.Search(len(n.order), func(i int) bool { return n.nameOf(n.order[i]) >= name })
		n.ids[name], n.order = id, slices.Insert(n.order, at, id)
		n.recs = append(n.recs, nil)
	}
	s := &Switch{Name: name, Layer: layer, ASIC: model, id: id, gen: g}
	n.recs[id] = s
	n.Switches = append(n.Switches, s)
	return s, nil
}

// nameOf returns the name of a switch id, also of a removed switch.
func (n *Network) nameOf(id int32) string {
	if s := n.recs[id]; s != nil {
		return s.Name
	}
	for name, i := range n.ids {
		if i == id {
			return name
		}
	}
	return ""
}

// AddLink connects two switches bidirectionally. Self-links and duplicate
// links are rejected.
func (n *Network) AddLink(a, b string) error {
	sa, sb := n.Switch(a), n.Switch(b)
	if sa == nil {
		return fmt.Errorf("topo: unknown switch %q", a)
	}
	if sb == nil {
		return fmt.Errorf("topo: unknown switch %q", b)
	}
	if a == b {
		return fmt.Errorf("topo: self-link on %q", a)
	}
	if n.HasLink(a, b) {
		return fmt.Errorf("topo: duplicate link %s—%s", a, b)
	}
	g := n.edit()
	n.link(n.editable(sa, g), sb)
	n.link(n.editable(sb, g), sa)
	return nil
}

// link inserts nb into the record's neighbour list at its name's place, in
// place: the caller owns the record. Construction is one shift per link, no
// copy.
func (n *Network) link(s, nb *Switch) {
	i := sort.Search(len(s.nbrs), func(i int) bool { return n.recs[s.nbrs[i]].Name >= nb.Name })
	s.nbrs = slices.Insert(s.nbrs, i, nb.id)
}

// unlink removes a neighbour from the record's list, in place.
func (s *Switch) unlink(id int32) {
	i := slices.Index(s.nbrs, id)
	s.nbrs = slices.Delete(s.nbrs, i, i+1)
}

// HasLink reports whether a direct link connects a and b.
func (n *Network) HasLink(a, b string) bool {
	sa, sb := n.Switch(a), n.Switch(b)
	return sa != nil && sb != nil && slices.Contains(sa.nbrs, sb.id)
}

// RemoveSwitch deletes a switch and every link touching it (a switch-down
// fault). Removing an unknown switch is an error.
func (n *Network) RemoveSwitch(name string) error {
	s := n.Switch(name)
	if s == nil {
		return fmt.Errorf("topo: remove unknown switch %q", name)
	}
	g := n.edit()
	for _, nb := range s.nbrs {
		n.editable(n.recs[nb], g).unlink(s.id)
	}
	n.recs[s.id] = nil
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
	sa, sb := n.Switch(a), n.Switch(b)
	g := n.edit()
	n.editable(sa, g).unlink(sb.id)
	n.editable(sb, g).unlink(sa.id)
	return nil
}

// DegradeASIC swaps one switch's chip model for a (typically reduced)
// replacement — a partial-failure or chip-swap event. The transform
// receives the current model and returns the new one.
func (n *Network) DegradeASIC(name string, transform func(*asic.Model) *asic.Model) error {
	s := n.Switch(name)
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
	return &Network{Switches: n.Switches, recs: n.recs, ids: n.ids, order: n.order, idsGen: n.idsGen}
}

// ReplaceWith overwrites n's contents with other's, sharing other's storage
// as a Clone would. It is the commit half of a clone-mutate-swap update:
// build the next topology state on a Clone, and swap it in only once every
// mutation succeeded, so n never exposes a half-applied sequence.
func (n *Network) ReplaceWith(other *Network) {
	other.gen.Store(nil)
	n.gen.Store(nil)
	n.Switches, n.recs, n.ids, n.order, n.idsGen = other.Switches, other.recs, other.ids, other.order, other.idsGen
}

// SharesIndex reports whether n and m give every name the same switch id, as
// networks do that one derived from the other by Clone and edits adding no
// new name.
func (n *Network) SharesIndex(m *Network) bool { return n.idsGen == m.idsGen }

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
// and mutation. Sharing makes it one pointer comparison per switch: while the
// two share their name index, a name has one id in both, so n's record of a
// switch is found by prev's id and a touched switch's links by comparing
// neighbour ids; otherwise both are looked up by name.
func (n *Network) Since(prev *Network) Delta {
	var d Delta
	shared := n.idsGen == prev.idsGen
	for _, was := range prev.Switches {
		var now *Switch
		if shared {
			now = n.recs[was.id]
		} else {
			now = n.Switch(was.Name)
		}
		if now == was {
			continue
		}
		d.Touched = append(d.Touched, was.Name)
		if now == nil {
			d.Removed = append(d.Removed, was.Name)
			continue
		}
		if shared {
			d.Grew = d.Grew || !within(now.nbrs, was.nbrs)
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

// within reports whether every id of sub is in set, two neighbour lists of
// one name index, so both in neighbour-name order.
func within(sub, set []int32) bool {
	j := 0
	for _, id := range sub {
		for j < len(set) && set[j] != id {
			j++
		}
		if j == len(set) {
			return false
		}
		j++
	}
	return true
}

// Switch returns a switch by name.
func (n *Network) Switch(name string) *Switch {
	if id, ok := n.ids[name]; ok {
		return n.recs[id]
	}
	return nil
}

// Neighbors returns the sorted neighbor names of a switch. The returned
// slice is owned by the caller.
func (n *Network) Neighbors(name string) []string {
	var out []string
	n.EachNeighbor(name, func(nb string) { out = append(out, nb) })
	return out
}

// EachNeighbor calls f with every neighbor of a switch, in sorted order,
// without copying the list.
func (n *Network) EachNeighbor(name string, f func(nb string)) {
	if s := n.Switch(name); s != nil {
		for _, id := range s.nbrs {
			f(n.recs[id].Name)
		}
	}
}

// Set is a set of switch ids of one name index (see SharesIndex).
type Set []uint64

// NewSet returns an empty set for n's switch ids.
func (n *Network) NewSet() Set { return make(Set, (len(n.recs)+63)/64) }

// Has reports whether id is in the set.
func (s Set) Has(id int32) bool { return int(id>>6) < len(s) && s[id>>6]&(1<<(id&63)) != 0 }

// Add puts id in the set.
func (s Set) Add(id int32) { s[id>>6] |= 1 << (id & 63) }

// empty reports whether the set holds no id.
func (s Set) empty() bool { return !slices.ContainsFunc(s, func(w uint64) bool { return w != 0 }) }

// live returns s less the switches n lacks, and whether it had any: s itself
// when it had none.
func (n *Network) live(s Set) (Set, bool) {
	out, cut := s, false
	for id, rec := range n.recs {
		if rec == nil && s.Has(int32(id)) {
			if !cut {
				out, cut = slices.Clone(s), true
			}
			out[id>>6] &^= 1 << (id & 63)
		}
	}
	return out, cut
}

// Match marks in set the switches that region patterns match — exact names,
// found through the name index, or prefix wildcards ("ToR*", §3.3) that also
// match a layer name, all matched in one pass over the switches — and returns
// the index of the first pattern that matches none, or -1.
func (n *Network) Match(set Set, patterns []string) (missing int) {
	hit := make([]bool, len(patterns))
	var wild []int
	for i, p := range patterns {
		if strings.HasSuffix(p, "*") {
			wild = append(wild, i)
		} else if s := n.Switch(p); s != nil {
			set.Add(s.id)
			hit[i] = true
		}
	}
	for _, s := range n.recs {
		for _, i := range wild {
			if prefix := patterns[i][:len(patterns[i])-1]; s != nil && (s.Layer == prefix || strings.HasPrefix(s.Name, prefix)) {
				set.Add(s.id)
				hit[i] = true
			}
		}
	}
	return slices.Index(hit, false)
}

// Sorted returns the ids of the switches of a set that n has, in name order.
func (n *Network) Sorted(set Set) []int32 {
	size := 0
	for _, w := range set {
		size += bits.OnesCount64(w)
	}
	ids := make([]int32, 0, size)
	for _, id := range n.order {
		if set.Has(id) && n.recs[id] != nil {
			ids = append(ids, id)
		}
	}
	return ids
}

// NamesOf renders switch ids as the switches' names, in a slice of the
// caller's.
func (n *Network) NamesOf(ids []int32) []string {
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = n.nameOf(id)
	}
	return names
}

// InOrder returns the keys of m, switches of n, in n's name order. A key that
// is not a switch of n is an error, which names the least such key.
func InOrder[V any](n *Network, m map[string]V) ([]string, error) {
	out := make([]string, 0, len(m))
	if 4*len(m) >= len(n.order) { // most of n: walk its order, looking each switch up in m
		for _, id := range n.order {
			if s := n.recs[id]; s != nil {
				if _, ok := m[s.Name]; ok {
					out = append(out, s.Name)
				}
			}
		}
	} else { // a few: sort them, looking each up in n
		for name := range m {
			if n.Switch(name) != nil {
				out = append(out, name)
			}
		}
		slices.Sort(out)
	}
	if len(out) == len(m) {
		return out, nil
	}
	unknown, missing := "", false
	for name := range m {
		if n.Switch(name) == nil && (!missing || name < unknown) {
			unknown, missing = name, true
		}
	}
	return nil, fmt.Errorf("topo: %q is not a switch of the network", unknown)
}

// Span bounds the network's switch ids.
func (n *Network) Span() int { return len(n.recs) }

// At returns the switch with an id, nil for a removed one.
func (n *Network) At(id int32) *Switch { return n.recs[id] }

// ID returns the switch's id, which names it in a Set and a path.
func (s *Switch) ID() int32 { return s.id }

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
	for _, id := range n.order {
		if s := n.recs[id]; s != nil {
			out = append(out, s.Name)
		}
	}
	return out
}
