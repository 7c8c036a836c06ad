package encode

import (
	"cmp"
	"runtime"
	"slices"

	"lyra/internal/topo"
)

// A MULTI-SW scope's flow paths are walked once per solve, as switch ids:
// partition walks every splittable scope (pathGroups) and hands each
// component its fragments' share of that walk; the numbering reads those
// paths, walking only a scope the partition did not keep (an unsplittable
// one, or one past keepHops), and lays every path out by index, which is what
// the encoder's prepare reads.

// walked is a scope's flow paths as one walk of a path set yielded them, by
// that set's switch ids (set.ID finds a name's): the paths of w.runs, each a
// range of the walk's paths, in walk order. A scope with no walk kept has no
// set.
type walked struct {
	set  *topo.PathSet
	walk *pathBuf
	runs []run
}

// run is the paths lo to hi-1 of a walk, all in one group: those of one start
// switch, or of consecutive starts.
type run struct{ group, lo, hi int32 }

// each calls visit with every path of w in walk order until it returns false.
func (w walked) each(visit func([]int32) bool) {
	for _, r := range w.runs {
		for p := r.lo; p < r.hi; p++ {
			if !visit(w.walk.path(p)) {
				return
			}
		}
	}
}

// pathStore holds the flow paths a solve walks, in buffers it keeps from one
// solve to the next, and the partition's scratch. buf hands a buffer out and
// reset takes every one back; the views into a buffer stay valid until then.
type pathStore struct {
	bufs []*pathBuf
	used int // bufs[:used] are handed out
	// pathGroups' scratch: scope places by switch id, the union-find, each
	// root's group, and which places are on a path; and the partition's first
	// unit on each switch id.
	place, parent, at, onPath, owner []int32
}

// pathBuf is one walk's paths: path p is hops[ends[p-1]:ends[p]], ends[-1]
// being 0, and runs splits them by group.
type pathBuf struct {
	hops, ends []int32
	runs       []run
}

// path returns path p.
func (b *pathBuf) path(p int32) []int32 {
	from := int32(0)
	if p > 0 {
		from = b.ends[p-1]
	}
	return b.hops[from:b.ends[p]]
}

// add appends a path, doubling a full buffer: a new buffer grows in a few
// allocations of at most twice what the walk needs.
func (b *pathBuf) add(p []int32) {
	if len(b.hops)+len(p) > cap(b.hops) {
		b.hops = slices.Grow(b.hops, len(b.hops)+len(p))
	}
	if len(b.ends) == cap(b.ends) {
		b.ends = slices.Grow(b.ends, len(b.ends)+1)
	}
	b.hops = append(b.hops, p...)
	b.ends = append(b.ends, int32(len(b.hops)))
}

// pathStores keeps path stores from one solve to the next, at most one per
// processor, in a free list a garbage collection does not empty as it does a
// sync.Pool. A store comes back without its buffers of more than storedHops
// hops (64 Ki, 256 KiB; the 1,040-switch fat tree's scope has 16 Ki), so a
// mesh compile leaves no walk's worth of memory behind.
var pathStores = make(chan *pathStore, runtime.GOMAXPROCS(0))

const storedHops = 1 << 16

func getPathStore() *pathStore {
	select {
	case st := <-pathStores:
		return st
	default:
		return new(pathStore)
	}
}

func putPathStore(st *pathStore) {
	st.reset()
	st.bufs = slices.DeleteFunc(st.bufs, func(b *pathBuf) bool { return cap(b.hops) > storedHops || cap(b.ends) > storedHops })
	select {
	case pathStores <- st:
	default:
	}
}

// buf hands out an empty buffer.
func (st *pathStore) buf() *pathBuf {
	if st.used == len(st.bufs) {
		st.bufs = append(st.bufs, new(pathBuf))
	}
	b := st.bufs[st.used]
	st.used++
	b.hops, b.ends, b.runs = b.hops[:0], b.ends[:0], b.runs[:0]
	return b
}

// reset takes every buffer back.
func (st *pathStore) reset() { st.used = 0 }

// split hands each group its share of a walk, group(id) being the group of
// the switch a path starts from. A walk takes its start switches in turn and
// a start's paths are all in its group, so a share is a list of runs of paths.
func split(b *pathBuf, set *topo.PathSet, groups []pathGroup, group func(id int32) int32) {
	start, g := int32(-1), int32(0)
	for p := int32(0); int(p) < len(b.ends); p++ {
		if s := b.path(p)[0]; s != start {
			start, g = s, group(s)
		}
		if n := len(b.runs); n > 0 && b.runs[n-1].group == g {
			b.runs[n-1].hi++
		} else {
			b.runs = append(b.runs, run{g, p, p + 1})
		}
	}
	slices.SortStableFunc(b.runs, func(x, y run) int { return cmp.Compare(x.group, y.group) })
	for lo := 0; lo < len(b.runs); {
		hi := lo + 1
		for hi < len(b.runs) && b.runs[hi].group == b.runs[lo].group {
			hi++
		}
		groups[b.runs[lo].group].paths = walked{set: set, walk: b, runs: b.runs[lo:hi:hi]}
		lo = hi
	}
}

// merge returns the paths of one scope's fragments that landed in one
// component, in walk order, or none when a fragment has no walk. The
// fragments are shares of one walk.
func merge(parts []unit) walked {
	if len(parts) == 1 {
		return parts[0].paths
	}
	var runs []run
	for _, u := range parts {
		if u.paths.set == nil {
			return walked{}
		}
		runs = append(runs, u.paths.runs...)
	}
	slices.SortFunc(runs, func(x, y run) int { return cmp.Compare(x.lo, y.lo) })
	return walked{set: parts[0].paths.set, walk: parts[0].paths.walk, runs: runs}
}

// wholeWalk returns, by algorithm, the paths of a partition that keeps the
// input whole: each algorithm's units merged.
func wholeWalk(algs int, units []unit) []walked {
	out := make([]walked, algs)
	var parts []unit
	for a := range out {
		parts = parts[:0]
		for _, u := range units {
			if u.at.alg == a {
				parts = append(parts, u)
			}
		}
		if len(parts) > 0 {
			out[a] = merge(parts)
		}
	}
	return out
}

// zeroed returns *s resized to n and cleared, reallocating only when it is
// too short.
func zeroed(s *[]int32, n int) []int32 {
	*s = resize(*s, n)
	clear(*s)
	return *s
}
