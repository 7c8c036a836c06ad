package topo

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// ErrPathLimit is the sentinel behind PathLimitError: a path enumeration
// exceeded its budget. Callers surface it as a typed diagnostic instead of
// letting an exponential scope exhaust memory or wall clock.
var ErrPathLimit = errors.New("topo: path enumeration exceeded budget")

// PathLimitError reports that enumerating the simple paths of a scope blew
// past the configured cap. Seen is the number of paths produced before the
// enumeration was cut off (== Limit).
type PathLimitError struct {
	Limit int64
	From  []string
	To    []string
}

func (e *PathLimitError) Error() string {
	return fmt.Sprintf("topo: more than %d simple paths from %v to %v; narrow the scope", e.Limit, e.From, e.To)
}

func (e *PathLimitError) Unwrap() error { return ErrPathLimit }

// PathSet is a lazy representation of the simple flow paths from any switch
// in From to any switch in To, restricted to the switches in Within (nil
// allows all). Paths are never materialized by constructing a PathSet;
// consumers iterate with Each, count with Count, or materialize a bounded
// slice with Materialize. The set is a view over the network: it reflects
// the adjacency at iteration time, so it must not outlive topology
// mutations it is expected to be consistent with. Membership of To and
// Within is fixed when the set is made: it is marked by switch id then.
type PathSet struct {
	net    *Network
	From   []string
	To     []string
	Within []string // nil = all switches

	to, in bitset // To and Within by switch id (in is unused while Within is nil)
}

// bitset is a set of switch ids.
type bitset []uint64

func (b bitset) has(id int32) bool { return int(id>>6) < len(b) && b[id>>6]&(1<<(id&63)) != 0 }
func (b bitset) set(id int32)      { b[id>>6] |= 1 << (id & 63) }
func (b bitset) unset(id int32)    { b[id>>6] &^= 1 << (id & 63) }

// bits marks the named switches n has an id for.
func (n *Network) bits(names []string) bitset {
	b := make(bitset, (len(n.recs)+63)/64)
	for _, name := range names {
		if id, ok := n.ids[name]; ok {
			b.set(id)
		}
	}
	return b
}

// PathSet builds the lazy path view for a scope.
func (n *Network) PathSet(from, to, within []string) *PathSet {
	return &PathSet{net: n, From: from, To: to, Within: within, to: n.bits(to), in: n.bits(within)}
}

// After returns the path set of n, a state of the set's network that lost
// switches or links since, between from and to within within: the set's
// lists less the switches n lacks. While the two networks share their name
// index the set's marks serve n as they are — a mark on a switch n lacks is
// never read, as no walk reaches a switch that has no links — and otherwise
// they are made anew.
func (ps *PathSet) After(n *Network, from, to, within []string) *PathSet {
	if n.idsGen != ps.net.idsGen || (within == nil) != (ps.Within == nil) {
		return n.PathSet(from, to, within)
	}
	return &PathSet{net: n, From: from, To: to, Within: within, to: ps.to, in: ps.in}
}

// Narrow returns the paths of the set that stay inside within, a part of its
// Within, from and to being the parts of its From and To in there. Only
// within is looked up: the target marks are the set's, as a walk reads one
// only where it stands, which is inside within.
func (ps *PathSet) Narrow(from, to, within []string) *PathSet {
	return &PathSet{net: ps.net, From: from, To: to, Within: within, to: ps.to, in: ps.net.bits(within)}
}

// Each enumerates paths in deterministic DFS order (sorted start switches,
// sorted neighbor expansion; enumeration stops at the first target hit, as
// flows terminate there), each as the switch ids of its hops: Name renders an
// id, ID finds a name's, and every id is below Span. The yield callback
// receives a shared scratch slice valid only for the duration of the call —
// copy it to retain it. Yielding false stops the enumeration early without
// error. A limit > 0 bounds the number of paths enumerated; exceeding it
// returns a *PathLimitError. The returned count is the number of paths
// yielded.
func (ps *PathSet) Each(limit int64, yield func(path []int32) bool) (int64, error) {
	n := ps.net
	var count int64
	stop, overflow := false, false
	path := make([]int32, 0, 8)
	onPath := make(bitset, len(n.recs)/64+1) // the switches path holds
	emit := func() {
		if limit > 0 && count >= limit {
			overflow, stop = true, true
			return
		}
		count++
		stop = !yield(path)
	}
	var dfs func(id int32)
	dfs = func(id int32) {
		if ps.to.has(id) {
			emit()
			return
		}
		onPath.set(id)
		for _, nb := range n.recs[id].nbrs {
			if stop {
				break
			}
			if onPath.has(nb) || (ps.Within != nil && !ps.in.has(nb)) {
				continue
			}
			path = append(path, nb)
			dfs(nb)
			path = path[:len(path)-1]
		}
		onPath.unset(id)
	}
	starts := sorted(ps.From)
	for _, s := range starts {
		if stop {
			break
		}
		id, known := n.ids[s]
		switch live := known && n.recs[id] != nil; {
		case live && (ps.Within == nil || ps.in.has(id)):
			path = append(path[:0], id)
			dfs(id)
		case !live && ps.Within != nil && slices.Contains(ps.Within, s) && slices.Contains(ps.To, s):
			// A switch the network lacks has no links: a path by itself, when
			// it is a target. Its id is past the network's.
			path = append(path[:0], ps.ghost(starts, s))
			emit()
		}
	}
	if overflow {
		return count, &PathLimitError{Limit: limit, From: ps.From, To: ps.To}
	}
	return count, nil
}

// Span bounds the ids Each yields: the network's switch ids, then one for
// each start the network has no switch for.
func (ps *PathSet) Span() int { return len(ps.net.recs) + len(ps.From) }

// ghost is the id of a start the network has no switch for: past the
// network's ids, at the start's first place in the sorted From list.
func (ps *PathSet) ghost(starts []string, s string) int32 {
	return int32(len(ps.net.recs) + sort.SearchStrings(starts, s))
}

// Name renders a switch id Each yields.
func (ps *PathSet) Name(id int32) string {
	if recs := ps.net.recs; int(id) < len(recs) && recs[id] != nil {
		return recs[id].Name
	}
	return sorted(ps.From)[int(id)-len(ps.net.recs)]
}

// ID returns the id Each yields for a switch name, and false for a name no
// path of the set can hold: one the network lacks that is not a start.
func (ps *PathSet) ID(name string) (int32, bool) {
	n := ps.net
	if id, ok := n.ids[name]; ok && n.recs[id] != nil {
		return id, true
	}
	starts := sorted(ps.From)
	if i := sort.SearchStrings(starts, name); i < len(starts) && starts[i] == name {
		return int32(len(n.recs) + i), true
	}
	return 0, false
}

// sorted returns xs if it is sorted already, otherwise a sorted copy.
func sorted(xs []string) []string {
	if sort.StringsAreSorted(xs) {
		return xs
	}
	xs = append([]string(nil), xs...)
	sort.Strings(xs)
	return xs
}

// Count returns the number of paths in the set without materializing any,
// subject to the same budget semantics as Each.
func (ps *PathSet) Count(limit int64) (int64, error) {
	return ps.Each(limit, func([]int32) bool { return true })
}

// Any reports whether the set contains at least one path.
func (ps *PathSet) Any() bool {
	n, _ := ps.Each(0, func([]int32) bool { return false })
	return n > 0
}

// Materialize collects every path into a sorted slice (lexicographic on the
// ">"-joined rendering). A limit > 0 bounds the number of paths; exceeding it
// returns a *PathLimitError and no slice.
func (ps *PathSet) Materialize(limit int64) ([][]string, error) {
	var paths [][]string
	_, err := ps.Each(limit, func(p []int32) bool {
		names := make([]string, len(p))
		for i, id := range p {
			names[i] = ps.Name(id)
		}
		paths = append(paths, names)
		return true
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(paths, func(i, j int) bool { return PathLess(paths[i], paths[j]) })
	return paths, nil
}

// PathLess orders paths exactly as comparing strings.Join(p, ">") would,
// without allocating the joined strings: elements are compared bytewise
// with a virtual '>' separator between them.
func PathLess(a, b []string) bool {
	ai, bi := 0, 0 // element index
	ao, bo := 0, 0 // byte offset within element (-1 = at separator)
	for {
		ab, aok := pathByte(a, &ai, &ao)
		bb, bok := pathByte(b, &bi, &bo)
		if !aok || !bok {
			return !aok && bok
		}
		if ab != bb {
			return ab < bb
		}
	}
}

// pathByte yields the next byte of the ">"-joined rendering of p, advancing
// the cursor. ok is false when the rendering is exhausted.
func pathByte(p []string, i *int, o *int) (byte, bool) {
	for {
		if *i >= len(p) {
			return 0, false
		}
		if *o < len(p[*i]) {
			b := p[*i][*o]
			*o++
			return b, true
		}
		// End of element: emit the separator unless this is the last one.
		*i++
		*o = 0
		if *i < len(p) {
			return '>', true
		}
	}
}
