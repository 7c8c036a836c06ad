package topo

import (
	"errors"
	"fmt"
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
// mutations it is expected to be consistent with. Its switches are sets of
// switch ids, fixed when the set is made; From, To and Within render them in
// name order.
type PathSet struct {
	net    *Network
	From   []string
	To     []string
	Within []string // nil = all switches

	starts       []int32 // the ids of From, in its order
	from, to, in Set     // From, To and Within by switch id (in is nil while Within is)
}

// Paths builds the lazy path view of the flow paths from the switches of from
// to those of to, within those of within, whose names the caller has from
// Sorted.
func (n *Network) Paths(from, to, within Set, names []string) *PathSet {
	ps := &PathSet{net: n, Within: names, from: from, to: to, in: within}
	ps.starts, ps.From = n.Sorted(from)
	_, ps.To = n.Sorted(to)
	return ps
}

// After returns the set on n, a state of the set's network that shares its
// name index (SharesIndex) and lost switches or links since: the set less the
// switches n lacks, names being its Within switches n has. A set or list that
// loses none of them is shared.
func (ps *PathSet) After(n *Network, names []string) *PathSet {
	out := *ps
	out.net, out.Within = n, names
	var cut bool
	if out.from, cut = n.live(ps.from); cut {
		out.starts, out.From = n.Sorted(out.from)
	}
	if out.to, cut = n.live(ps.to); cut {
		_, out.To = n.Sorted(out.to)
	}
	out.in, _ = n.live(ps.in)
	return &out
}

// Narrow returns the paths of the set that stay inside some of its Within
// switches, given in name order by id and by name: its starts and targets
// among them. The endpoint marks are the set's, as a walk reads one only
// where it stands, which is inside within.
func (ps *PathSet) Narrow(within []int32, names []string) *PathSet {
	out := &PathSet{net: ps.net, Within: names, from: ps.from, to: ps.to, in: ps.net.NewSet()}
	for i, id := range within {
		out.in.Add(id)
		if ps.from.Has(id) {
			out.starts, out.From = append(out.starts, id), append(out.From, names[i])
		}
		if ps.to.Has(id) {
			out.To = append(out.To, names[i])
		}
	}
	return out
}

// Ends reports whether a switch is in From and whether it is in To.
func (ps *PathSet) Ends(id int32) (from, to bool) { return ps.from.Has(id), ps.to.Has(id) }

// Each enumerates paths in deterministic DFS order (sorted start switches,
// sorted neighbor expansion; enumeration stops at the first target hit, as
// flows terminate there), each as the switch ids of its hops: Name renders an
// id, and every id is below Span. The yield callback receives a shared
// scratch slice valid only for the duration of the call — copy it to retain
// it. Yielding false stops the enumeration early without error. A limit > 0
// bounds the number of paths enumerated; exceeding it returns a
// *PathLimitError. The returned count is the number of paths yielded.
func (ps *PathSet) Each(limit int64, yield func(path []int32) bool) (int64, error) {
	n := ps.net
	var count int64
	stop, overflow := false, false
	path := make([]int32, 0, 8)
	onPath := make(Set, len(n.recs)/64+1) // the switches path holds
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
		if ps.to.Has(id) {
			emit()
			return
		}
		onPath.Add(id)
		for _, nb := range n.recs[id].nbrs {
			if stop {
				break
			}
			if onPath.Has(nb) || (ps.in != nil && !ps.in.Has(nb)) {
				continue
			}
			path = append(path, nb)
			dfs(nb)
			path = path[:len(path)-1]
		}
		onPath[id>>6] &^= 1 << (id & 63)
	}
	for _, id := range ps.starts {
		if stop {
			break
		}
		path = append(path[:0], id)
		if int(id) >= len(n.recs) {
			emit() // a start the network has no switch for: a path by itself
		} else if n.recs[id] != nil && (ps.in == nil || ps.in.Has(id)) {
			dfs(id)
		}
	}
	if overflow {
		return count, &PathLimitError{Limit: limit, From: ps.From, To: ps.To}
	}
	return count, nil
}

// Span bounds the ids Each yields: the network's switch ids, then one for
// each start the network has no switch for.
func (ps *PathSet) Span() int { return ps.net.Span() + len(ps.From) }

// Name renders a switch id Each yields.
func (ps *PathSet) Name(id int32) string {
	if recs := ps.net.recs; int(id) < len(recs) && recs[id] != nil {
		return recs[id].Name
	}
	return sorted(ps.From)[int(id)-len(ps.net.recs)]
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
