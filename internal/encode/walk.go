package encode

// A MULTI-SW scope's flow paths are walked as switch ids, and only the
// numbering lays them out: partition walks every splittable scope once to
// group its switches (pathGroups) and keeps no path, and the numbering walks
// each scope of a component, narrowed to its fragment, ranking every hop
// through a table by id, and lays the paths out by index, which is what the
// encoder's prepare reads. A fragment's own walk yields exactly the paths of
// its group, in the order a walk of the whole scope yields them: every path's
// hops lie in one group, and the walk takes its starts in name order.

// groupScratch is the partition's scratch, kept with the numbering's
// (symmetry.go) from one solve to the next: scope places by switch id, the
// union-find, each root's group, and which places are on a path; and the
// partition's first unit on each switch id.
type groupScratch struct{ place, parent, at, onPath, owner []int32 }

// zeroed returns *s resized to n and cleared, reallocating only when it is
// too short.
func zeroed(s *[]int32, n int) []int32 {
	*s = resize(*s, n)
	clear(*s)
	return *s
}
