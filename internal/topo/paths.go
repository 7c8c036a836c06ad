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
	return fmt.Sprintf("topo: more than %d simple paths from %v to %v; narrow the scope or raise the path budget", e.Limit, e.From, e.To)
}

func (e *PathLimitError) Unwrap() error { return ErrPathLimit }

// PathSet is a lazy representation of the simple flow paths from any switch
// in From to any switch in To, restricted to the switches in Within (nil
// allows all). Paths are never materialized by constructing a PathSet;
// consumers iterate with Each, count with Count, or materialize a bounded
// slice with Materialize. The set is a view over the network: it reflects
// the adjacency at iteration time, so it must not outlive topology
// mutations it is expected to be consistent with.
type PathSet struct {
	net    *Network
	From   []string
	To     []string
	Within []string // nil = all switches
}

// PathSet builds the lazy path view for a scope.
func (n *Network) PathSet(from, to, within []string) *PathSet {
	return &PathSet{net: n, From: from, To: to, Within: within}
}

// Each enumerates paths in deterministic DFS order (sorted start switches,
// sorted neighbor expansion; enumeration stops at the first target hit, as
// flows terminate there). The yield callback receives a shared scratch
// slice valid only for the duration of the call — copy it to retain it.
// Yielding false stops the enumeration early without error. A limit > 0
// bounds the number of paths enumerated; exceeding it returns a
// *PathLimitError. The returned count is the number of paths yielded.
func (ps *PathSet) Each(limit int64, yield func(path []string) bool) (int64, error) {
	n := ps.net
	// Membership in Within and To is a binary search of the caller's own
	// slices, which scope resolution hands over sorted; only an unsorted one
	// costs a copy. Any on a datacenter-wide scope stops at the first path and
	// must not pay for a set over the whole scope first.
	within, to := sorted(ps.Within), sorted(ps.To)
	allowed := func(sw string) bool { return ps.Within == nil || contains(within, sw) }
	var count int64
	stop := false
	overflow := false
	scratch := make([]string, 0, 8) // the path so far, which is also the visited set
	var dfs func(cur string)
	dfs = func(cur string) {
		if stop {
			return
		}
		if contains(to, cur) {
			if limit > 0 && count >= limit {
				overflow, stop = true, true
				return
			}
			count++
			if !yield(scratch) {
				stop = true
			}
			return
		}
	next:
		for _, nb := range n.neighbors(cur) {
			if stop {
				return
			}
			for _, seen := range scratch {
				if seen == nb {
					continue next
				}
			}
			if !allowed(nb) {
				continue
			}
			scratch = append(scratch, nb)
			dfs(nb)
			scratch = scratch[:len(scratch)-1]
		}
	}
	for _, s := range sorted(ps.From) {
		if stop {
			break
		}
		if !allowed(s) || (ps.Within == nil && n.byName[s] == nil) {
			continue
		}
		scratch = append(scratch[:0], s)
		dfs(s)
	}
	if overflow {
		return count, &PathLimitError{Limit: limit, From: ps.From, To: ps.To}
	}
	return count, nil
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

// contains reports whether x is in the sorted list.
func contains(sortedXs []string, x string) bool {
	i := sort.SearchStrings(sortedXs, x)
	return i < len(sortedXs) && sortedXs[i] == x
}

// Count returns the number of paths in the set without materializing any,
// subject to the same budget semantics as Each.
func (ps *PathSet) Count(limit int64) (int64, error) {
	return ps.Each(limit, func([]string) bool { return true })
}

// Any reports whether the set contains at least one path.
func (ps *PathSet) Any() bool {
	n, _ := ps.Each(0, func([]string) bool { return false })
	return n > 0
}

// Materialize collects every path into a sorted slice (the legacy
// Network.Paths order: lexicographic on the ">"-joined rendering). A
// limit > 0 bounds the number of paths; exceeding it returns a
// *PathLimitError and no slice.
func (ps *PathSet) Materialize(limit int64) ([][]string, error) {
	var paths [][]string
	_, err := ps.Each(limit, func(p []string) bool {
		paths = append(paths, append([]string(nil), p...))
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
