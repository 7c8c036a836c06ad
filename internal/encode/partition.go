package encode

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"lyra/internal/ir"
	"lyra/internal/scope"
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
	comps, _, err := partition(in, nil)
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
func partition(in *Input, ca *carried) ([]*Component, bool, error) {
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
			var offPath []string
			var err error
			if groups, offPath, err = pathGroups(rs); err != nil {
				return nil, false, fmt.Errorf("encode: scope of %q: %w", a.Name, err)
			}
			switch {
			case ca != nil && (len(offPath) > 0 || len(groups) == 0):
				return nil, false, nil
			case len(groups) > 0:
				// Switches on no path attach to the first group: they only ever
				// receive "no flow traverses you" exclusions.
				groups[0].members = append(groups[0].members, offPath...)
				sort.Strings(groups[0].members)
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
	owner := map[string]int{} // switch -> first unit index seen
	for i, u := range units {
		for _, sw := range u.rs.Switches {
			if j, ok := owner[sw]; ok {
				ri, rj := find(i), find(j)
				if ri != rj {
					parent[ri] = rj
				}
			} else {
				owner[sw] = i
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
		byAlg := map[int][]*scope.Resolved{}
		var algOrder []int
		anySplit := false
		for _, ui := range groups[r] {
			u := units[ui]
			if _, ok := byAlg[u.at.alg]; !ok {
				algOrder = append(algOrder, u.at.alg)
			}
			byAlg[u.at.alg] = append(byAlg[u.at.alg], u.rs)
			anySplit = anySplit || u.split
		}
		sort.Ints(algOrder)
		for _, ai := range algOrder {
			a := algs[ai]
			c.Algs = append(c.Algs, a.Name)
			sub.Algorithms = append(sub.Algorithms, a)
			scopes[a.Name] = mergeResolved(in.Scopes[a.Name], byAlg[ai])
		}
		if anySplit {
			tag := ""
			for _, rs := range scopes {
				for _, sw := range rs.Switches {
					if tag == "" || sw < tag {
						tag = sw
					}
				}
			}
			c.Tag = tag
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
	// within lists, sorted, the surviving switches of the touched components.
	within []string
	// algs holds the algorithms the touched components placed.
	algs map[string]bool
}

// narrow confines a resolved scope to the open switches: the scope itself
// when all of it is open, nil when none of it is.
func (ca *carried) narrow(rs *scope.Resolved) *scope.Resolved {
	g := pathGroup{members: intersect(ca.within, rs.Switches)}
	switch len(g.members) {
	case 0:
		return nil
	case len(rs.Switches):
		return rs
	}
	if rs.PathSet != nil {
		g.ends = [2][]string{intersect(rs.PathSet.From, g.members), intersect(rs.PathSet.To, g.members)}
	}
	return subResolved(rs, g)
}

// splittable reports whether a scope may split into path-connected groups at
// all: not a PER-SW deployment, and not an algorithm reading or writing
// globals (their co-location constraint spans the whole scope).
func splittable(a *ir.Algorithm, rs *scope.Resolved) bool {
	if rs.Deploy != scope.MultiSwitch || len(rs.Switches) < 2 {
		return false
	}
	for _, inst := range a.Instrs {
		if inst.Op == ir.IGlobalRead || inst.Op == ir.IGlobalWrite {
			return false
		}
	}
	return true
}

// pathGroup is one path-connected switch group of a scope: its members,
// sorted, and the smallest of them, which orders the groups.
type pathGroup struct {
	head    string
	members []string
	ends    [2][]string // the parts of the scope's PathSet.From and To among the members
}

// pathGroups walks a scope's flow paths once and returns the groups of
// switches they connect, ordered by head, and the scope switches no flow
// traverses. The scope's endpoints are split over the groups in one pass,
// those on no path going to the first group, where the switches on no path
// go. A walk past the path budget fails with the *topo.PathLimitError.
func pathGroups(rs *scope.Resolved) (groups []pathGroup, offPath []string, err error) {
	idx := make(map[string]int, len(rs.Switches))
	for i, sw := range rs.Switches {
		idx[sw] = i
	}
	parent := make([]int, len(rs.Switches))
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
	onPath := make([]bool, len(rs.Switches))
	err = rs.EachPath(func(p []string) bool {
		first := -1
		for _, sw := range p {
			j, ok := idx[sw]
			if !ok {
				continue
			}
			onPath[j] = true
			if first < 0 {
				first = j
			} else if ri, rj := find(first), find(j); ri != rj {
				parent[ri] = rj
			}
		}
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	at := map[int]int{}              // root -> index into groups
	for i, sw := range rs.Switches { // scope order is sorted: members and heads come out sorted
		if !onPath[i] {
			offPath = append(offPath, sw)
			continue
		}
		g, seen := at[find(i)]
		if !seen {
			g = len(groups)
			at[find(i)] = g
			groups = append(groups, pathGroup{head: sw})
		}
		groups[g].members = append(groups[g].members, sw)
	}
	if len(groups) > 0 {
		// A switch on no path is its own root and not in at: group 0.
		for e, ends := range [2][]string{rs.PathSet.From, rs.PathSet.To} {
			for _, sw := range ends {
				if j, ok := idx[sw]; ok {
					g := &groups[at[find(j)]]
					g.ends[e] = append(g.ends[e], sw)
				}
			}
		}
	}
	return groups, offPath, nil
}

// subResolved narrows a resolved scope to one switch group. Every flow path
// lies entirely inside one group (that is what defines the groups), so the
// PathSet narrows to the group's switches and endpoints.
func subResolved(rs *scope.Resolved, g pathGroup) *scope.Resolved {
	sub := &scope.Resolved{Scope: rs.Scope, Switches: g.members}
	if rs.PathSet != nil {
		sub.PathSet = rs.PathSet.Narrow(g.ends[0], g.ends[1], g.members)
	}
	return sub
}

// mergeResolved reassembles scope fragments that landed in one component.
// All fragments derive from the same original scope; when every fragment of
// the scope is present the original is returned verbatim.
func mergeResolved(orig *scope.Resolved, parts []*scope.Resolved) *scope.Resolved {
	if len(parts) == 1 {
		return parts[0]
	}
	var switches []string
	total := 0
	for _, p := range parts {
		switches = append(switches, p.Switches...)
		total += len(p.Switches)
	}
	if total == len(orig.Switches) {
		return orig
	}
	sort.Strings(switches)
	merged := &scope.Resolved{Scope: orig.Scope, Switches: switches}
	if orig.PathSet != nil {
		merged.PathSet = orig.PathSet.Narrow(intersect(orig.PathSet.From, switches), intersect(orig.PathSet.To, switches), switches)
	}
	return merged
}

// intersect returns, in order, the elements of xs in the sorted list set.
func intersect(xs, set []string) []string {
	var out []string
	for _, x := range xs {
		if has(set, x) {
			out = append(out, x)
		}
	}
	return out
}

// has reports whether x is in the sorted list set.
func has(set []string, x string) bool {
	_, ok := slices.BinarySearch(set, x)
	return ok
}

func wholeComponent(in *Input) *Component {
	var names []string
	for _, a := range in.IR.Algorithms {
		names = append(names, a.Name)
	}
	return &Component{Algs: names, In: in}
}
