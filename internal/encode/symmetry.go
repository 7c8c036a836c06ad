package encode

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"hash/fnv"
	"slices"
	"strconv"
	"sync"

	"lyra/internal/asic"
	"lyra/internal/scope"
)

// Symmetry-aware solving. A datacenter network is massively symmetric: the
// pods of a fat tree are switch-renamings of one another, so after the scope
// split (partition.go) the placement problem decomposes into many components
// that differ only in switch names, and the CDCL search of two isomorphic
// instances lands on the same model modulo the renaming. So a class of
// isomorphic components is solved once, its solved form is kept name-free
// (Template), and every member is a binding of it.
//
// A component is numbered before it is solved or classed: its switches get
// indices 0..n-1, and a switch is its index to the encoder, the theory, the
// template and the binding alike. The numbering is colour refinement
// (1-dimensional Weisfeiler–Leman) over the component's flow-path graph. A
// switch starts from the colour of its chip model and, per algorithm, its
// scope membership, the deploy mode and its role on the flow paths (first,
// last or inner hop); a round recolours every switch by its own colour and the
// multiset of the colours of its path neighbours, upstream and downstream
// apart, until a round splits no class. When no round splits a starting
// class — every intact pod, every component of a compile on a symmetric
// fabric — the numbering is the name order. Otherwise the starting classes
// are ordered by their least name, the classes refinement split off inside
// one by their colour, and names order only the switches of one final class.
// Colours are computed from colours alone, never from names, so isomorphic
// components get the same colours, and a pod with its (ToR_i, Agg_j) link cut
// is numbered alike for every (i, j): the cut ToR and the cut Agg are classes
// of their own, in the same place. (Ordering the split-off classes by least
// name instead would tell "cut index 1" from "cut index 2".)
//
// The class key renders the component under its numbering: per algorithm its
// scope switches and its flow paths as index lists, sorted, then each distinct
// chip model once, in order of first appearance by index, and the ordinal of
// every index's model among them. It describes the whole component, so two components
// with equal renders are isomorphic under the index bijection, whatever
// numbering produced it; the numbering decides only how often isomorphic
// components render alike. Algorithm and extern names stay literal: the
// resource theory orders shard assignment by extern name, so only same-named
// algorithms — scope-split twins — may share a class. A component whose paths
// leave its switches or whose chip is unknown is numbered in name order and
// stays unclassed (""); a walk past the path budget fails with the
// *topo.PathLimitError.
//
// The numbering reads the flow paths the partition walked (walk.go) and walks
// only a scope the partition did not, ranking each hop's switch id through a
// table by id. It leaves the component's paths laid out by index (hopLists),
// which the encoder's prepare reads. The rendering is hand-rolled appends
// into reused buffers (it runs once per hop of every flow path of every
// compile and recompile), and a numbering keeps every buffer across
// components and, through a pool, across solves.
type numbering struct {
	// models carries each chip model's rendering and colour from one component
	// to the next.
	models map[*asic.Model]chip
	// The component in hand, its switches by rank in name order: chips holds
	// each rank's chip and the paths are by rank, then, once numbered, by
	// index. rankOf holds 1 + a switch's rank by switch id, 0 off the
	// component.
	chips []chip
	hopLists
	rankOf []int32
	// Refinement scratch: an algorithm's membership and path-role bits by
	// rank, the starting and current colours, the next round's, sorted copies
	// for counting classes, and the least rank of each starting colour.
	role, start, col, next, sorted []uint64
	first                          map[uint64]int32
	// A split component's numbering: the rank at every index, and the index
	// of every rank.
	rank, index []int32
	// Render scratch: an algorithm's scope switches, its path order, the
	// line being hashed, and the distinct chips in order of first appearance.
	sw       []int32
	paths    []int32
	buf      []byte
	distinct []chip
}

// hopLists is a component's flow paths by index: path p is
// hops[ends[p-1]:ends[p]], those of the algorithm at index a being paths
// algEnd[a-1] to algEnd[a]-1, and a hop off the component's switches is -1.
type hopLists struct{ hops, ends, algEnd []int32 }

// path returns flow path p.
func (l *hopLists) path(p int32) []int32 {
	from := int32(0)
	if p > 0 {
		from = l.ends[p-1]
	}
	return l.hops[from:l.ends[p]]
}

// clone returns a copy of l that owns its memory.
func (l *hopLists) clone() *hopLists {
	return &hopLists{hops: slices.Clone(l.hops), ends: slices.Clone(l.ends), algEnd: slices.Clone(l.algEnd)}
}

// chip is a chip model as the class key renders it, and its starting colour.
type chip struct {
	line   []byte
	colour uint64
}

// numberings keeps numbering scratch from one solve to the next: a served
// compile solves a few small components, and would otherwise pay for every
// buffer anew.
var numberings = sync.Pool{New: func() any {
	return &numbering{models: map[*asic.Model]chip{}, first: map[uint64]int32{}}
}}

// getNumbering returns numbering scratch for one solve; putNumbering hands it
// back, keeping no chip model of the solve alive.
func getNumbering() *numbering { return numberings.Get().(*numbering) }

func putNumbering(nb *numbering) {
	clear(nb.models)
	numberings.Put(nb)
}

// number returns a component's switches in index order and, when classed, its
// class key (fingerprint part; "" when it has no canonical form), and leaves
// the component's paths by index in nb.hopLists. The key is hashed as the
// paths are read, under name order; a component refinement splits is hashed
// again under its numbering. A walk of the paths stops once ctx is done.
func (nb *numbering) number(ctx context.Context, c *Component, classed bool) (union []string, fp string, err error) {
	in := c.In
	union, ids := switchesOf(in)
	n := len(union)
	if n == 0 {
		return union, "", nil
	}
	rankOf := zeroed(&nb.rankOf, in.Net.Span())
	for r, id := range ids {
		rankOf[id] = int32(r + 1)
	}
	// A component with a switch of no known chip, or a path off its
	// switches, has no canonical form; its paths are still laid out.
	canon := true
	nb.chips, nb.start = nb.chips[:0], resize(nb.start, n)
	for i, id := range ids {
		s := in.Net.At(id)
		if s == nil || s.ASIC == nil {
			canon = false
			nb.chips = append(nb.chips, chip{})
			nb.start[i] = 0
			continue
		}
		ch, ok := nb.models[s.ASIC]
		if !ok {
			// %+v covers every capacity fact the theory consults; equal renders
			// imply equal admission behavior. (The ExtraCheck hook renders as a
			// function address: registry models share pointers, so equal chips
			// compare equal, and a custom hook conservatively blocks dedup.)
			ch.line = []byte(fmt.Sprintf("asic %+v\n", *s.ASIC))
			h := fnv.New64a()
			h.Write(ch.line)
			ch.colour = h.Sum64()
			nb.models[s.ASIC] = ch
		}
		nb.chips = append(nb.chips, ch)
		nb.start[i] = ch.colour
	}

	// The flow paths, and every switch's membership and path role.
	var h hash.Hash
	if classed {
		h = sha256.New()
	}
	nb.hops, nb.ends, nb.algEnd = nb.hops[:0], nb.ends[:0], nb.algEnd[:0]
	nb.role = resize(nb.role, n)
	role := nb.role
	for a, alg := range in.IR.Algorithms {
		rs := in.Scopes[alg.Name]
		if rs == nil {
			return union, "", nil
		}
		clear(role)
		nb.sw = nb.sw[:0]
		for _, id := range rs.IDs {
			r := rankOf[id] - 1
			role[r] = 1
			nb.sw = append(nb.sw, r)
		}
		nb.head(h, alg.Name, rs.Deploy)
		if rs.Deploy == scope.MultiSwitch {
			var w walked
			if a < len(c.walked) {
				w = c.walked[a]
			}
			on, err := nb.readPaths(ctx, rs, w, h)
			if err != nil {
				return nil, "", err
			}
			canon = canon && on
		}
		nb.end(h)
		nb.algEnd = append(nb.algEnd, int32(len(nb.ends)))
		for i, r := range role {
			if r != 0 {
				nb.start[i] = mix(nb.start[i] + (uint64(a)<<16 | uint64(rs.Deploy)<<8 | r))
			}
		}
	}
	if !canon {
		return union, "", nil
	}
	if !nb.refine() {
		if h == nil {
			return union, "", nil
		}
		nb.writeChips(h, nil)
		return union, string(h.Sum(nil)), nil
	}
	nb.canonicalOrder()
	named := union
	union = make([]string, n)
	for k, r := range nb.rank {
		union[k] = named[r]
		nb.index[r] = int32(k)
	}
	for j, r := range nb.hops {
		nb.hops[j] = nb.index[r]
	}
	if !classed {
		return union, "", nil
	}
	return union, nb.render(c), nil
}

// switchesOf returns the switches of a component's scopes in name order, by
// name and by id: those of its one scope, or their union.
func switchesOf(in *Input) ([]string, []int32) {
	set, n := in.Net.NewSet(), 0
	var one *scope.Resolved
	for _, a := range in.IR.Algorithms {
		if rs := in.Scopes[a.Name]; rs != nil {
			for _, id := range rs.IDs {
				set.Add(id)
			}
			one, n = rs, n+1
		}
	}
	if n == 1 {
		return one.Switches, one.IDs
	}
	ids, names := in.Net.Sorted(set)
	return names, ids
}

// readPaths appends a MULTI-SW scope's flow paths to the component's by rank,
// marking each switch's path role in nb.role and writing each path into h: the
// paths w holds when the partition walked the scope, and otherwise a walk of
// its path set, polled against ctx. It reports whether every hop is one of
// the component's switches, ranked in nb.rankOf.
func (nb *numbering) readPaths(ctx context.Context, rs *scope.Resolved, w walked, h hash.Hash) (on bool, err error) {
	if w.set == nil && rs.PathSet == nil {
		return true, nil
	}
	on = true
	role, rankOf := nb.role, nb.rankOf
	add := func(p []int32) bool {
		from := len(nb.hops)
		for _, id := range p {
			r := rankOf[id] - 1
			on = on && r >= 0
			nb.hops = append(nb.hops, r)
		}
		nb.ends = append(nb.ends, int32(len(nb.hops)))
		if !on {
			return true
		}
		for k := from + 1; k < len(nb.hops)-1; k++ {
			role[nb.hops[k]] |= 8
		}
		role[nb.hops[from]] |= 2
		role[nb.hops[len(nb.hops)-1]] |= 4
		nb.writePath(h, nb.hops[from:])
		return true
	}
	if w.set != nil {
		w.each(polled(ctx, add))
	} else {
		err = rs.EachPath(polled(ctx, add))
	}
	if ctx.Err() != nil {
		return false, timeout(ctx)
	}
	return on, err
}

// refine runs colour refinement from the starting colours to a stable
// colouring in col, and reports whether it split any starting class. A
// component no round splits costs one round.
func (nb *numbering) refine() (split bool) {
	n := len(nb.start)
	nb.col = append(nb.col[:0], nb.start...)
	nb.next = resize(nb.next, n)
	classes := nb.classes(nb.col)
	initial := classes
	for {
		for i, c := range nb.col {
			nb.next[i] = mix(c)
		}
		p := int32(0)
		for a, end := range nb.algEnd {
			dir := uint64(a+1) * 0x9e3779b97f4a7c15
			for ; p < end; p++ {
				path := nb.path(p)
				for k := 1; k < len(path); k++ {
					u, v := path[k-1], path[k]
					nb.next[u] += mix(nb.col[v] + dir)
					nb.next[v] += mix(nb.col[u] - dir)
				}
			}
		}
		now := nb.classes(nb.next)
		if now == classes {
			return classes != initial
		}
		nb.col, nb.next = nb.next, nb.col
		classes = now
		if classes == n {
			return true
		}
	}
}

// classes counts the distinct colours of cs.
func (nb *numbering) classes(cs []uint64) int {
	nb.sorted = append(nb.sorted[:0], cs...)
	slices.Sort(nb.sorted)
	return len(slices.Compact(nb.sorted))
}

// canonicalOrder lays the ranks of a split component out in index order, in
// rank: by the least name of their starting class, then by their stable
// colour, then by name.
func (nb *numbering) canonicalOrder() {
	n := len(nb.start)
	nb.rank, nb.index = resize(nb.rank, n), resize(nb.index, n)
	clear(nb.first)
	for i, c := range nb.start {
		nb.rank[i] = int32(i)
		if _, ok := nb.first[c]; !ok {
			nb.first[c] = int32(i)
		}
	}
	slices.SortFunc(nb.rank, func(x, y int32) int {
		return cmp.Or(cmp.Compare(nb.first[nb.start[x]], nb.first[nb.start[y]]), cmp.Compare(nb.col[x], nb.col[y]), cmp.Compare(x, y))
	})
}

// head writes the line that opens an algorithm's part of the class key, with
// its scope switches, nb.sw, as indices in ascending order. A nil h hashes
// nothing. The key is written through nb.buf: head, writePath and end append
// to it, and writePath and end hand it to h in chunks.
func (nb *numbering) head(h hash.Hash, alg string, deploy scope.Deploy) {
	if h == nil {
		return
	}
	buf := append(nb.buf[:0], "alg "...)
	buf = append(buf, alg...)
	buf = append(buf, " deploy="...)
	buf = strconv.AppendInt(buf, int64(deploy), 10)
	buf = append(buf, " sw="...)
	for _, i := range nb.sw {
		buf = appendIndex(buf, i)
		buf = append(buf, ',')
	}
	nb.buf = buf
}

// writePath writes one flow path, as indices, into the class key.
func (nb *numbering) writePath(h hash.Hash, path []int32) {
	if h == nil {
		return
	}
	buf := nb.buf
	for _, i := range path {
		buf = appendIndex(buf, i)
		buf = append(buf, '.')
	}
	buf = append(buf, ';')
	if len(buf) >= 4096 {
		h.Write(buf)
		buf = buf[:0]
	}
	nb.buf = buf
}

// appendIndex appends a switch index in decimal, the indices below 100 (every
// pod of the gate's fabric) without a call.
func appendIndex(buf []byte, i int32) []byte {
	switch {
	case uint32(i) < 10:
		return append(buf, byte('0'+i))
	case uint32(i) < 100:
		return append(buf, byte('0'+i/10), byte('0'+i%10))
	}
	return strconv.AppendInt(buf, int64(i), 10)
}

// end closes an algorithm's part of the class key.
func (nb *numbering) end(h hash.Hash) {
	if h == nil {
		return
	}
	h.Write(append(nb.buf, '\n'))
	nb.buf = nb.buf[:0]
}

// render hashes a split component under its numbering: per algorithm its
// scope switches and its flow paths sorted in index order, then its chips.
func (nb *numbering) render(c *Component) string {
	h := sha256.New()
	p := int32(0)
	for a, alg := range c.In.IR.Algorithms {
		rs := c.In.Scopes[alg.Name]
		nb.sw = nb.sw[:0]
		for _, id := range rs.IDs {
			nb.sw = append(nb.sw, nb.index[nb.rankOf[id]-1])
		}
		slices.Sort(nb.sw)
		nb.head(h, alg.Name, rs.Deploy)
		nb.paths = nb.paths[:0]
		for ; p < nb.algEnd[a]; p++ {
			nb.paths = append(nb.paths, p)
		}
		slices.SortFunc(nb.paths, func(x, y int32) int { return slices.Compare(nb.path(x), nb.path(y)) })
		for _, q := range nb.paths {
			nb.writePath(h, nb.path(q))
		}
		nb.end(h)
	}
	nb.writeChips(h, nb.rank)
	return string(h.Sum(nil))
}

// writeChips writes the chips of the component into the class key: each
// distinct model's line once, in order of first appearance by index, then
// the ordinal of each index's model among them. order lists the ranks in
// index order; nil is name order.
func (nb *numbering) writeChips(h hash.Hash, order []int32) {
	nb.distinct, nb.sw = nb.distinct[:0], nb.sw[:0]
	for k := range nb.chips {
		r := int32(k)
		if order != nil {
			r = order[k]
		}
		ch := nb.chips[r]
		i := slices.IndexFunc(nb.distinct, func(m chip) bool { return m.colour == ch.colour && bytes.Equal(m.line, ch.line) })
		if i < 0 {
			i = len(nb.distinct)
			nb.distinct = append(nb.distinct, ch)
		}
		nb.sw = append(nb.sw, int32(i))
	}
	buf := append(nb.buf[:0], "models="...)
	buf = strconv.AppendInt(buf, int64(len(nb.distinct)), 10)
	buf = append(buf, '\n')
	h.Write(buf)
	for _, m := range nb.distinct {
		h.Write(m.line)
	}
	buf = buf[:0]
	for _, i := range nb.sw {
		buf = appendIndex(buf, i)
		buf = append(buf, ',')
	}
	h.Write(buf)
	nb.buf = buf
}

// mix is the splitmix64 finaliser: colours combine through it, so a sum of
// mixed neighbour colours is a multiset hash.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// resize returns s with length n, reallocated only when it is too short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
