package encode

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"lyra/internal/ir"
	"lyra/internal/scope"
	"lyra/internal/topo"
)

// Component is one independent slice of the placement problem: a set of
// algorithm scope groups whose switch sets are disjoint from every other
// component's. Because chip admission is per-switch and flow paths are
// confined to a scope's switches, a component can be encoded and solved as
// its own SMT instance with no loss of precision; the components' bindings
// together are exactly the plan a monolithic solve would admit.
type Component struct {
	// Algs lists the member algorithms in program declaration order.
	Algs []string
	// Tag disambiguates same-algorithm components after a scope split (the
	// component's smallest switch); empty otherwise.
	Tag string
	// In is the component's sub-problem: the original input with the
	// algorithm list and scope map filtered down to the members. The full
	// network is retained (candidate switches come from the scopes).
	In *Input

	at position
}

// position orders components: by their first fragment in (program order,
// group order), group order being the order of the groups' smallest on-path
// switches. It is a property of the component's own content, so a component a
// recompile carries over keeps its place among the ones made anew.
type position struct {
	alg  int    // index of the first member algorithm
	head string // smallest on-path switch of that algorithm's fragment; "" for an unsplit scope
}

func (a position) before(b position) bool {
	return a.alg < b.alg || (a.alg == b.alg && a.head < b.head)
}

// Label names the component for diagnostics: the member algorithms joined
// with "+", plus the disambiguating switch tag for split scopes.
func (c *Component) Label() string {
	l := strings.Join(c.Algs, "+")
	if c.Tag != "" {
		l += "@" + c.Tag
	}
	return l
}

// unit is one schedulable scope fragment: an algorithm bound to one
// path-connected switch group of its scope (or the whole scope when the
// scope does not split).
type unit struct {
	at    position
	rs    *scope.Resolved
	split bool // rs is a proper fragment of the original scope
}

// Partition splits the input into independent components by union-find over
// scope fragments that share a candidate switch. Two layers of splitting
// compose here:
//
//  1. Scope splitting: a MULTI-SW scope whose flow paths fall into several
//     path-disconnected switch groups (the pods of a fat tree) splits into
//     one fragment per group. Every deployment constraint of §5.5 —
//     coverage, exactly-one, ordering, and the theory's shard sizing — is
//     per-path, so constraints never couple two groups. Algorithms touching
//     global variables are exempt (global co-location spans the whole
//     scope), as are PER-SW scopes (each switch is independent anyway, and
//     splitting them would only add bookkeeping).
//  2. Component grouping: fragments (of the same or different algorithms)
//     whose switch sets overlap fuse into one component — the monolithic
//     fallback — so partitioning never changes what the solver can prove.
//
// The result is ordered by each component's first fragment in (program
// order, group order), which makes the decomposition — and everything
// downstream — independent of goroutine scheduling and of the configured
// parallelism. A scope whose flow paths exceed the path budget fails it with
// the *topo.PathLimitError.
func Partition(in *Input) ([]*Component, error) {
	comps, _, err := partition(context.Background(), in, nil, new(groupScratch))
	return comps, err
}

// partition is Partition, of the whole input when ca is nil and otherwise of
// the part of it ca leaves open: the surviving switches of the components a
// fault touched, beside the components carried over whole. It then reports
// false when it cannot show that the open part decomposes on its own exactly
// as it would inside a partition of everything — a switch left on no flow
// path (which attaches to the first group of the whole scope, possibly a
// carried one) or an algorithm that lost a group altogether (which may turn a
// split scope into an unsplit one) — and the caller partitions everything.
// Its path walks stop once ctx is done; st is their scratch.
func partition(ctx context.Context, in *Input, ca *carried, st *groupScratch) ([]*Component, bool, error) {
	algs := in.IR.Algorithms
	whole := []*Component{wholeComponent(in)}
	for _, a := range algs {
		if in.Scopes[a.Name] == nil {
			return whole, ca == nil, nil
		}
	}
	var units []unit
	for i, a := range algs {
		full := in.Scopes[a.Name]
		rs := full
		if ca != nil {
			if rs = ca.narrow(full); rs == nil {
				if ca.algs[a.Name] {
					return nil, false, nil
				}
				continue
			}
		}
		// Part of the scope sits in carried components: it is split there,
		// whatever the open part looks like.
		keptElsewhere := rs != full
		var groups []pathGroup
		if splittable(a, full) {
			var offPath bool
			var err error
			if groups, offPath, err = pathGroups(ctx, in.Net, rs, st); err != nil {
				return nil, false, fmt.Errorf("encode: scope of %q: %w", a.Name, err)
			}
			if ca != nil && (offPath || len(groups) == 0) {
				return nil, false, nil
			}
		}
		if !keptElsewhere && len(groups) < 2 {
			units = append(units, unit{at: position{alg: i}, rs: rs})
			continue
		}
		if len(groups) == 0 {
			return nil, false, nil // an unsplittable scope is carried whole or not at all
		}
		for _, g := range groups {
			units = append(units, unit{at: position{i, g.head}, rs: subResolved(rs, g), split: true})
		}
	}
	kept := 0
	if ca != nil {
		kept = len(ca.kept)
	}
	if len(units)+kept < 2 {
		return whole, ca == nil, nil
	}

	// Union fragments whose switch sets overlap.
	parent := make([]int, len(units))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	owner := zeroed(&st.owner, in.Net.Span()) // switch id -> 1 + the first unit index seen
	for i, u := range units {
		for _, id := range u.rs.IDs {
			if j := int(owner[id]) - 1; j >= 0 {
				ri, rj := find(i), find(j)
				if ri != rj {
					parent[ri] = rj
				}
			} else {
				owner[id] = int32(i + 1)
			}
		}
	}

	groups := map[int][]int{} // root -> member unit indices, ascending
	var roots []int
	for i := range units {
		r := find(i)
		if _, ok := groups[r]; !ok {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], i)
	}
	if len(roots)+kept < 2 {
		return whole, ca == nil, nil
	}
	// Order components by their earliest member unit (program order, then
	// group order within a split scope).
	sort.Slice(roots, func(a, b int) bool { return groups[roots[a]][0] < groups[roots[b]][0] })

	comps := make([]*Component, 0, len(roots))
	for _, r := range roots {
		c := &Component{at: units[groups[r][0]].at}
		sub := *in.IR // shallow copy; only the algorithm list narrows
		sub.Algorithms = nil
		scopes := map[string]*scope.Resolved{}
		// Collect member fragments per algorithm, preserving program order.
		byAlg := map[int][]unit{}
		var algOrder []int
		anySplit := false
		for _, ui := range groups[r] {
			u := units[ui]
			if _, ok := byAlg[u.at.alg]; !ok {
				algOrder = append(algOrder, u.at.alg)
			}
			byAlg[u.at.alg] = append(byAlg[u.at.alg], u)
			anySplit = anySplit || u.split
		}
		sort.Ints(algOrder)
		for _, ai := range algOrder {
			a := algs[ai]
			c.Algs = append(c.Algs, a.Name)
			sub.Algorithms = append(sub.Algorithms, a)
			scopes[a.Name] = mergeResolved(in.Net, in.Scopes[a.Name], byAlg[ai])
		}
		if anySplit {
			for _, rs := range scopes {
				if first := in.Net.At(rs.IDs[0]).Name; c.Tag == "" || first < c.Tag {
					c.Tag = first
				}
			}
		}
		c.In = &Input{IR: &sub, Net: in.Net, Scopes: scopes}
		comps = append(comps, c)
	}
	return comps, true, nil
}

// carried is what a solve takes over from the plan it follows: the components
// a fault left alone, and what is open again.
type carried struct {
	// kept are the previous plan's bindings none of whose switches the fault
	// touched, in component order, and dropped are the others.
	kept, dropped []*Binding
	// within marks, by id, the surviving switches of the touched components.
	within topo.Set
	// algs holds the algorithms the touched components placed.
	algs map[string]bool
}

// narrow confines a resolved scope to the open switches: the scope itself
// when all of it is open, nil when none of it is.
func (ca *carried) narrow(rs *scope.Resolved) *scope.Resolved {
	switch g := pick(rs, ca.within.Has); len(g.ids) {
	case 0:
		return nil
	case len(rs.IDs):
		return rs
	default:
		return subResolved(rs, g)
	}
}

// splittable reports whether a scope may split into path-connected groups at
// all: not a PER-SW deployment, and not an algorithm reading or writing
// globals (their co-location constraint spans the whole scope).
func splittable(a *ir.Algorithm, rs *scope.Resolved) bool {
	if rs.Deploy != scope.MultiSwitch || len(rs.IDs) < 2 {
		return false
	}
	for _, inst := range a.Instrs {
		if inst.Op == ir.IGlobalRead || inst.Op == ir.IGlobalWrite {
			return false
		}
	}
	return true
}

// pathGroup is one path-connected switch group of a scope: its members' ids
// in name order, and the name of the smallest of them on a flow path, which
// orders the groups.
type pathGroup struct {
	head string
	ids  []int32
}

// pathGroups walks a scope's flow paths on net once and returns the groups of
// switches they connect, ordered by head, and whether some scope switch is on
// no flow path, which the first group holds then. The union-find runs over
// the scope's places, found through a table by switch id in st; no path is
// kept. A walk past the path budget fails with the *topo.PathLimitError.
func pathGroups(ctx context.Context, net *topo.Network, rs *scope.Resolved, st *groupScratch) (groups []pathGroup, offPath bool, err error) {
	if rs.PathSet == nil {
		return nil, true, nil
	}
	n := len(rs.IDs)
	// place holds 1 + a switch's place in the scope by switch id, 0 off it.
	place := zeroed(&st.place, net.Span())
	for i, id := range rs.IDs {
		place[id] = int32(i + 1)
	}
	parent := resize(st.parent, n)
	st.parent = parent
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(i int32) int32 {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	onPath := zeroed(&st.onPath, n)
	err = rs.EachPath(polled(ctx, func(p []int32) bool {
		first := int32(-1)
		for _, id := range p {
			j := place[id] - 1
			if j < 0 {
				continue
			}
			onPath[j] = 1
			if first < 0 {
				first = j
			} else if ri, rj := find(first), find(j); ri != rj {
				parent[ri] = rj
			}
		}
		return true
	}))
	if ctx.Err() != nil {
		return nil, false, timeout(ctx)
	}
	if err != nil {
		return nil, false, err
	}
	at := resize(st.at, n) // root -> index into groups, -1 for none
	st.at = at
	for i := range at {
		at[i] = -1
	}
	for i, id := range rs.IDs { // scope order is name order: heads come out sorted
		if onPath[i] == 0 {
			offPath = true
		} else if r := find(int32(i)); at[r] < 0 {
			at[r] = int32(len(groups))
			groups = append(groups, pathGroup{head: net.At(id).Name})
		}
	}
	if len(groups) == 0 {
		return groups, offPath, nil
	}
	// A switch on no path is its own root and has no group: it attaches to
	// group 0, where it only ever receives "no flow traverses you" exclusions.
	for i, id := range rs.IDs {
		g := &groups[max(at[find(int32(i))], 0)]
		g.ids = append(g.ids, id)
	}
	return groups, offPath, nil
}

// subResolved narrows a resolved scope to one switch group. Every flow path
// lies entirely inside one group (that is what defines the groups), so the
// PathSet narrows to the group's switches and endpoints.
func subResolved(rs *scope.Resolved, g pathGroup) *scope.Resolved {
	sub := &scope.Resolved{Scope: rs.Scope, IDs: g.ids}
	if rs.PathSet != nil {
		sub.PathSet = rs.PathSet.Narrow(g.ids)
	}
	return sub
}

// mergeResolved reassembles scope fragments that landed in one component.
// All fragments derive from the same original scope; when every fragment of
// the scope is present the original is returned verbatim.
func mergeResolved(net *topo.Network, orig *scope.Resolved, parts []unit) *scope.Resolved {
	if len(parts) == 1 {
		return parts[0].rs
	}
	set, total := net.NewSet(), 0
	for _, p := range parts {
		for _, id := range p.rs.IDs {
			set.Add(id)
		}
		total += len(p.rs.IDs)
	}
	if total == len(orig.IDs) {
		return orig
	}
	return subResolved(orig, pick(orig, set.Has))
}

// pick returns the group of the switches of rs that keep holds, in name order.
func pick(rs *scope.Resolved, keep func(id int32) bool) (g pathGroup) {
	for _, id := range rs.IDs {
		if keep(id) {
			g.ids = append(g.ids, id)
		}
	}
	return g
}

func wholeComponent(in *Input) *Component {
	var names []string
	for _, a := range in.IR.Algorithms {
		names = append(names, a.Name)
	}
	return &Component{Algs: names, In: in}
}
