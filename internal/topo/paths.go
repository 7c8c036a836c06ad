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
// past the configured cap, Limit, which is also the number of paths produced
// before the enumeration was cut off. From and To name the set's starts and
// targets in name order.
type PathLimitError struct {
	Limit int64
	From  []string
	To    []string
}

func (e *PathLimitError) Error() string {
	return fmt.Sprintf("topo: more than %d simple paths from %v to %v; narrow the scope", e.Limit, e.From, e.To)
}

func (e *PathLimitError) Unwrap() error { return ErrPathLimit }

// PathSet is a lazy representation of the simple flow paths from any of its
// start switches to any of its targets, restricted to the switches it is
// within (nil allows all). Its switches are sets of switch ids, fixed when the
// set is made. Paths are never materialized by constructing a PathSet;
// consumers iterate with Each, count with Count, or materialize a bounded
// slice with Materialize. The set is a view over the network: it reflects
// the adjacency at iteration time, so it must not outlive topology
// mutations it is expected to be consistent with.
type PathSet struct {
	net          *Network
	starts       []int32 // the start switches, in name order
	from, to, in Set     // starts, targets and the switches within (in is nil for all)
}

// Paths builds the lazy path view of the flow paths from the switches of from
// to those of to, within those of within (nil for all).
func (n *Network) Paths(from, to, within Set) *PathSet {
	return &PathSet{net: n, starts: n.Sorted(from), from: from, to: to, in: within}
}

// After returns the set on n, a state of the set's network that shares its
// name index (SharesIndex) and lost switches or links since: the set less the
// switches n lacks. A set that loses none of them is shared.
func (ps *PathSet) After(n *Network) *PathSet {
	out := *ps
	out.net = n
	var cut bool
	if out.from, cut = n.live(ps.from); cut {
		out.starts = n.Sorted(out.from)
	}
	out.to, _ = n.live(ps.to)
	out.in, _ = n.live(ps.in)
	return &out
}

// Narrow returns the paths of the set that stay inside some of its switches,
// given by id in name order, with its starts and targets among them.
func (ps *PathSet) Narrow(within []int32) *PathSet {
	n := ps.net
	out := &PathSet{net: n, from: n.NewSet(), to: n.NewSet(), in: n.NewSet()}
	for _, id := range within {
		out.in.Add(id)
		if ps.from.Has(id) {
			out.starts = append(out.starts, id)
			out.from.Add(id)
		}
		if ps.to.Has(id) {
			out.to.Add(id)
		}
	}
	return out
}

// HasEnds reports whether the set has a start and whether it has a target.
func (ps *PathSet) HasEnds() (from, to bool) { return len(ps.starts) > 0, !ps.to.empty() }

// Each enumerates paths in deterministic DFS order (sorted start switches,
// sorted neighbor expansion; enumeration stops at the first target hit, as
// flows terminate there), each as the switch ids of its hops. The yield
// callback receives a shared scratch slice valid only for the duration of the
// call — copy it to retain it. Yielding false stops the enumeration early
// without error. A limit > 0 bounds the number of paths enumerated; exceeding
// it returns a *PathLimitError. The returned count is the number of paths
// yielded.
func (ps *PathSet) Each(limit int64, yield func(path []int32) bool) (int64, error) {
	n := ps.net
	var count int64
	stop, overflow := false, false
	path := make([]int32, 0, 8)
	onPath := make(Set, len(n.recs)/64+1) // the switches path holds
	var dfs func(id int32)
	dfs = func(id int32) {
		if ps.to.Has(id) {
			if limit > 0 && count >= limit {
				overflow, stop = true, true
				return
			}
			count++
			stop = !yield(path)
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
		if n.recs[id] != nil && (ps.in == nil || ps.in.Has(id)) {
			path = append(path[:0], id)
			dfs(id)
		}
	}
	if overflow {
		return count, &PathLimitError{Limit: limit, From: n.NamesOf(ps.starts), To: n.NamesOf(n.Sorted(ps.to))}
	}
	return count, nil
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
		paths = append(paths, ps.net.NamesOf(p))
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
