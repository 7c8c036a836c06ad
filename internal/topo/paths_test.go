package topo

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"lyra/internal/asic"
)

// PathSet is the path view over name lists, as the tests write them:
// unsorted, with repeats, and naming switches the network lacks. A start the
// network has no switch for is a path by itself when Within and To name it;
// its id is past the network's, at the start's first place in the sorted
// From list.
func (n *Network) PathSet(from, to, within []string) *PathSet {
	ps := &PathSet{net: n, From: from, To: to, Within: within, from: n.marks(from), to: n.marks(to)}
	if within != nil {
		ps.in = n.marks(within)
	}
	starts := sorted(from)
	for _, s := range starts {
		if sw := n.Switch(s); sw != nil {
			ps.starts = append(ps.starts, sw.id)
		} else if within != nil && slices.Contains(within, s) && slices.Contains(to, s) {
			ps.starts = append(ps.starts, int32(len(n.recs)+sort.SearchStrings(starts, s)))
		}
	}
	return ps
}

// marks is the set of the named switches n has an id for.
func (n *Network) marks(names []string) Set {
	s := n.NewSet()
	for _, name := range names {
		if id, ok := n.ids[name]; ok {
			s.Add(id)
		}
	}
	return s
}

// narrowed is Narrow over name lists: the paths of ps that stay inside
// within, a part of its Within, from and to being the parts of its From and
// To in there. The lists, and the starts they give, are the caller's.
func narrowed(ps *PathSet, from, to, within []string) *PathSet {
	var ids []int32
	var known []string
	for _, name := range within {
		if id, ok := ps.net.ids[name]; ok {
			ids, known = append(ids, id), append(known, name)
		}
	}
	out := ps.Narrow(ids, known)
	out.From, out.To, out.Within, out.starts = from, to, within, ps.net.PathSet(from, to, within).starts
	return out
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

// allPaths enumerates all simple paths from any switch in from to any switch
// in to, restricted to the switches in within (nil allows all), in the
// sorted order of Materialize.
func allPaths(n *Network, from, to, within []string) [][]string {
	paths, _ := n.PathSet(from, to, within).Materialize(0)
	return paths
}

// legacyPaths is the pre-PathSet implementation of allPaths, kept as
// the reference for cross-checking the lazy iterator: fresh neighbor sort
// per visit, per-level append copies, strings.Join sort comparator.
func legacyPaths(n *Network, from, to []string, within []string) [][]string {
	allowed := map[string]bool{}
	if within == nil {
		for _, s := range n.Switches {
			allowed[s.Name] = true
		}
	} else {
		for _, w := range within {
			allowed[w] = true
		}
	}
	targets := map[string]bool{}
	for _, t := range to {
		targets[t] = true
	}
	neighbors := n.Neighbors
	var paths [][]string
	var dfs func(cur string, visited map[string]bool, path []string)
	dfs = func(cur string, visited map[string]bool, path []string) {
		if targets[cur] {
			paths = append(paths, append([]string(nil), path...))
			return
		}
		for _, nb := range neighbors(cur) {
			if visited[nb] || !allowed[nb] {
				continue
			}
			visited[nb] = true
			dfs(nb, visited, append(path, nb))
			visited[nb] = false
		}
	}
	starts := append([]string(nil), from...)
	sort.Strings(starts)
	for _, s := range starts {
		if !allowed[s] {
			continue
		}
		dfs(s, map[string]bool{s: true}, []string{s})
	}
	sort.Slice(paths, func(i, j int) bool {
		return strings.Join(paths[i], ">") < strings.Join(paths[j], ">")
	})
	return paths
}

func layerNames(n *Network, layer string) []string {
	var out []string
	for _, s := range n.Switches {
		if s.Layer == layer {
			out = append(out, s.Name)
		}
	}
	sort.Strings(out)
	return out
}

// TestPathSetMatchesLegacyDFS cross-checks the lazy enumerator against the
// legacy materializing DFS on structured and random seeded topologies,
// including names where one switch name is a prefix of another (ToR1 vs
// ToR10), which exercises the ">"-join ordering corner.
func TestPathSetMatchesLegacyDFS(t *testing.T) {
	type scenario struct {
		name   string
		net    *Network
		from   []string
		to     []string
		within []string
	}
	var cases []scenario

	tb := Testbed()
	cases = append(cases,
		scenario{"testbed-pod2", tb, []string{"Agg3", "Agg4"}, []string{"ToR3", "ToR4"}, []string{"Agg3", "Agg4", "ToR3", "ToR4"}},
		scenario{"testbed-core", tb, []string{"Core1", "Core2"}, []string{"ToR1", "ToR2", "ToR3", "ToR4"}, nil},
	)

	// k=20 gives ToR1..ToR10 per pod: name-prefix ordering corner.
	mp := MultiPodFatTree(3, 20, func(string, int) *asic.Model { return asic.Tofino32Q })
	within := append(layerNames(mp, "ToR"), layerNames(mp, "Agg")...)
	cases = append(cases, scenario{"multipod-k20", mp, layerNames(mp, "Agg"), layerNames(mp, "ToR"), within})

	// Seeded random graphs.
	rng := rand.New(rand.NewSource(7))
	for g := 0; g < 8; g++ {
		n := New()
		sz := 6 + rng.Intn(7)
		var names []string
		for i := 0; i < sz; i++ {
			// Mix of prefix-overlapping names.
			name := fmt.Sprintf("S%d", i)
			if i%3 == 0 {
				name = fmt.Sprintf("S%d0", i/3)
			}
			if _, err := n.AddSwitch(name, "L", asic.Tofino32Q); err != nil {
				continue
			}
			names = append(names, name)
		}
		for i := 0; i < sz*2; i++ {
			a := names[rng.Intn(len(names))]
			b := names[rng.Intn(len(names))]
			if a != b && !n.HasLink(a, b) {
				n.AddLink(a, b)
			}
		}
		from := []string{names[rng.Intn(len(names))]}
		to := []string{names[rng.Intn(len(names))], names[rng.Intn(len(names))]}
		cases = append(cases, scenario{fmt.Sprintf("rand-%d", g), n, from, to, nil})
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := legacyPaths(c.net, c.from, c.to, c.within)
			got := allPaths(c.net, c.from, c.to, c.within)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Paths mismatch: got %d paths, want %d\ngot:  %v\nwant: %v", len(got), len(want), got, want)
			}
			// The iterator yields the same multiset, and Count agrees.
			ps := c.net.PathSet(c.from, c.to, c.within)
			var iter [][]string
			if _, err := ps.Each(0, func(p []int32) bool {
				iter = append(iter, names(ps, p))
				return true
			}); err != nil {
				t.Fatal(err)
			}
			cnt, err := ps.Count(0)
			if err != nil {
				t.Fatal(err)
			}
			if int(cnt) != len(want) || len(iter) != len(want) {
				t.Fatalf("count mismatch: Each=%d Count=%d want %d", len(iter), cnt, len(want))
			}
			sort.Slice(iter, func(i, j int) bool { return PathLess(iter[i], iter[j]) })
			if !reflect.DeepEqual(iter, want) {
				t.Fatalf("iterated path set differs from legacy")
			}
		})
	}
}

func TestPathSetBudget(t *testing.T) {
	mp := MultiPodFatTree(4, 8, func(string, int) *asic.Model { return asic.Tofino32Q })
	within := append(layerNames(mp, "ToR"), layerNames(mp, "Agg")...)
	ps := mp.PathSet(layerNames(mp, "Agg"), layerNames(mp, "ToR"), within)
	total, err := ps.Count(0)
	if err != nil || total != 4*4*4 {
		t.Fatalf("Count = %d, %v; want 64", total, err)
	}
	if _, err := ps.Materialize(10); err == nil {
		t.Fatal("Materialize(10) should overflow")
	} else {
		var ple *PathLimitError
		if !errors.As(err, &ple) || !errors.Is(err, ErrPathLimit) {
			t.Fatalf("want *PathLimitError wrapping ErrPathLimit, got %T %v", err, err)
		}
		if ple.Limit != 10 {
			t.Fatalf("Limit = %d, want 10", ple.Limit)
		}
	}
	if ps.Any() != true {
		t.Fatal("Any = false")
	}
	empty := mp.PathSet([]string{"Core1"}, []string{"nope"}, []string{"Core1"})
	if empty.Any() {
		t.Fatal("empty set reports Any")
	}
}

func TestPathLessMatchesJoin(t *testing.T) {
	paths := [][]string{
		{"ToR1"}, {"ToR10"}, {"ToR1", "Agg1"}, {"ToR10", "Agg1"},
		{"A", "B"}, {"AB"}, {"A"}, {"A", "B", "C"}, {"ABC"},
		// Pod numbers interleave: "Agg10_1" < "Agg1_1" because '0' < '_'.
		{"Agg1_1", "ToR1_1"}, {"Agg10_1", "ToR10_1"}, {"Agg1_10", "ToR1_1"}, {"Agg2_1", "ToR2_1"},
	}
	for _, a := range paths {
		for _, b := range paths {
			want := strings.Join(a, ">") < strings.Join(b, ">")
			if got := PathLess(a, b); got != want {
				t.Fatalf("PathLess(%v, %v) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func scaleFixture() (*Network, []string, []string, []string) {
	n := MultiPodFatTree(16, 16, func(string, int) *asic.Model { return asic.Tofino32Q })
	within := append(layerNames(n, "ToR"), layerNames(n, "Agg")...)
	return n, layerNames(n, "Agg"), layerNames(n, "ToR"), within
}

func BenchmarkPaths(b *testing.B) {
	n, from, to, within := scaleFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := allPaths(n, from, to, within); len(got) != 16*8*8 {
			b.Fatalf("got %d paths", len(got))
		}
	}
}

func BenchmarkPathsIterate(b *testing.B) {
	n, from, to, within := scaleFixture()
	ps := n.PathSet(from, to, within)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cnt, err := ps.Count(0)
		if err != nil || cnt != 16*8*8 {
			b.Fatalf("count %d err %v", cnt, err)
		}
	}
}

// BenchmarkClone is a recompile's topology step: a Clone and the first edit
// on it, which copies what the edit may not share.
func BenchmarkClone(b *testing.B) {
	n, _, _, _ := scaleFixture()
	for _, e := range cloneEdits {
		b.Run(e.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := e.do(n.Clone()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// mapEach is PathSet.Each as it was when it kept its allowed, target and
// visited sets in maps built per call; the slice-based Each is pinned to its
// yield order, count and budget behaviour.
func mapEach(ps *PathSet, limit int64, yield func(path []string) bool) (int64, error) {
	n := ps.net
	allowed := map[string]bool{}
	if ps.Within == nil {
		for _, s := range n.Switches {
			allowed[s.Name] = true
		}
	} else {
		for _, w := range ps.Within {
			allowed[w] = true
		}
	}
	targets := map[string]bool{}
	for _, t := range ps.To {
		targets[t] = true
	}
	var count int64
	stop, overflow := false, false
	visited := map[string]bool{}
	scratch := make([]string, 0, 8)
	var dfs func(cur string)
	dfs = func(cur string) {
		if stop {
			return
		}
		if targets[cur] {
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
		for _, nb := range n.Neighbors(cur) {
			if stop {
				return
			}
			if visited[nb] || !allowed[nb] {
				continue
			}
			visited[nb] = true
			scratch = append(scratch, nb)
			dfs(nb)
			scratch = scratch[:len(scratch)-1]
			visited[nb] = false
		}
	}
	starts := append([]string(nil), ps.From...)
	sort.Strings(starts)
	for _, s := range starts {
		if stop {
			break
		}
		if !allowed[s] {
			continue
		}
		visited[s] = true
		scratch = append(scratch[:0], s)
		dfs(s)
		visited[s] = false
	}
	if overflow {
		return count, &PathLimitError{Limit: limit, From: ps.From, To: ps.To}
	}
	return count, nil
}

// eachCase draws one random graph from rng and a from/to/within triple over
// its names: unsorted, with repeats, and now and then naming a switch the
// graph lacks ("Ghost"); within is nil a third of the time.
func eachCase(rng *rand.Rand) (n *Network, names, from, to, within []string) {
	pick := func(names []string, k int) []string {
		out := make([]string, 0, k+1)
		for i := 0; i < k; i++ {
			out = append(out, names[rng.Intn(len(names))])
		}
		if rng.Intn(4) == 0 {
			out = append(out, "Ghost")
		}
		return out
	}
	n = New()
	sz := 4 + rng.Intn(9)
	for i := 0; i < sz; i++ {
		name := fmt.Sprintf("S%d_%d", 1+i%11, i/3) // "S10_0" sorts before "S1_0"
		if _, err := n.AddSwitch(name, "L", asic.Tofino32Q); err == nil {
			names = append(names, name)
		}
	}
	for i := 0; i < sz*2; i++ {
		a, b := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
		if a != b && !n.HasLink(a, b) {
			n.AddLink(a, b)
		}
	}
	if rng.Intn(3) > 0 {
		within = pick(names, 2+rng.Intn(len(names)))
	}
	from, to = pick(names, 1+rng.Intn(3)), pick(names, 1+rng.Intn(3))
	return n, names, from, to, within
}

// names renders a path Each yields.
func names(ps *PathSet, p []int32) []string {
	out := make([]string, len(p))
	for i, id := range p {
		out[i] = ps.Name(id)
	}
	return out
}

// nameEach is Each with every yielded path rendered by name, after checking
// that each id is below the set's Span and is what ID gives for its name.
func nameEach(ps *PathSet, limit int64, yield func([]string) bool) (int64, error) {
	var bad error
	n, err := ps.Each(limit, func(p []int32) bool {
		for _, id := range p {
			if got, ok := ps.ID(ps.Name(id)); int(id) >= ps.Span() || !ok || got != id {
				bad = fmt.Errorf("id %d (%s) of %v: span %d, ID gives %d, %v", id, ps.Name(id), names(ps, p), ps.Span(), got, ok)
				return false
			}
		}
		return yield(names(ps, p))
	})
	if bad != nil {
		return n, bad
	}
	return n, err
}

// matchMapEach walks ps with Each and with mapEach, with and without a budget
// and an early stop, and reports the first difference in yield sequence,
// count or error.
func matchMapEach(ps *PathSet) error {
	total, _ := mapEach(ps, 0, func([]string) bool { return true })
	for _, limit := range []int64{0, 1, total, total + 1} {
		for _, stopAt := range []int{-1, 0, 2} {
			run := func(each func(int64, func([]string) bool) (int64, error)) (seq []string, n int64, err error) {
				n, err = each(limit, func(p []string) bool {
					seq = append(seq, strings.Join(p, ">"))
					return len(seq) != stopAt+1
				})
				return
			}
			wantSeq, wantN, wantErr := run(func(l int64, y func([]string) bool) (int64, error) { return mapEach(ps, l, y) })
			gotSeq, gotN, gotErr := run(func(l int64, y func([]string) bool) (int64, error) { return nameEach(ps, l, y) })
			if !reflect.DeepEqual(gotSeq, wantSeq) || gotN != wantN || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				return fmt.Errorf("from=%v to=%v within=%v limit=%d stop=%d:\n got  %v (%d, %v)\n want %v (%d, %v)",
					ps.From, ps.To, ps.Within, limit, stopAt, gotSeq, gotN, gotErr, wantSeq, wantN, wantErr)
			}
			if (gotErr != nil) != errors.Is(gotErr, ErrPathLimit) {
				return fmt.Errorf("error %v is not a path-limit error", gotErr)
			}
		}
	}
	return nil
}

// TestEachMatchesMapBasedEach drives both enumerators over seeded random
// graphs with unsorted, duplicated and partly unknown From/To/Within lists,
// with and without a budget and an early stop, and demands the same yield
// sequence, count and error.
func TestEachMatchesMapBasedEach(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for g := 0; g < 200; g++ {
		n, _, from, to, within := eachCase(rng)
		if err := matchMapEach(n.PathSet(from, to, within)); err != nil {
			t.Fatalf("graph %d %v", g, err)
		}
	}
}

// FuzzPathSetEach holds the id walk to mapEach, the name walk, on networks
// edited after a Clone, where a stale id, a shared name index or a reused name
// would show. The input picks one of TestEachMatchesMapBasedEach's graphs and
// plays a script on a clone of it: switch and link removals, chip swaps,
// re-additions of removed names, links, and a switch under a name the graph
// never had ("Ghost", which the lists may name). After a marker the rest of
// the script edits the original instead. Each network, in the order the input
// gives, is then walked through a set made on it and a set narrowed from that
// one; every walk must yield what mapEach yields on the same lists.
func FuzzPathSetEach(f *testing.F) {
	scripts := [][]byte{
		nil,
		{0, 0, 0},
		{0, 0, 0, 3, 0, 1},
		{1, 0, 1, 2, 1, 0, 1, 2, 3},
		{4, 2, 0, 6, 0, 3},
		{0, 1, 0, 5, 0, 0, 0, 2, 0, 3, 2, 1},
		{0, 0, 0, 0, 1, 0, 3, 1, 0, 3, 0, 2, 6, 0, 1},
	}
	for g := 0; g < 200; g += 13 {
		f.Add(uint8(g), g%2 == 0, scripts[g%len(scripts)])
	}
	// A switch-down on the clone of a graph whose set has no Within: the
	// original's walk reads the record table, mapEach its switch list.
	f.Add(uint8(127), false, []byte("110"))
	halve := func(m *asic.Model) *asic.Model { return asic.Scale(m, 0.5, 1, 1) }
	f.Fuzz(func(t *testing.T, graph uint8, cloneFirst bool, script []byte) {
		rng := rand.New(rand.NewSource(11))
		var base *Network
		var names, from, to, within []string
		for i := 0; i <= int(graph)%200; i++ {
			base, names, from, to, within = eachCase(rng)
		}
		clone := base.Clone()
		target := clone
		for i := 0; i+2 < len(script) && i < 60; i += 3 {
			x, y := names[int(script[i+1])%len(names)], names[int(script[i+2])%len(names)]
			switch script[i] % 7 {
			case 0:
				target.RemoveSwitch(x)
			case 1:
				target.RemoveLink(x, y)
			case 2:
				target.DegradeASIC(x, halve)
			case 3:
				if _, err := target.AddSwitch(x, "L", asic.Tofino64Q); err == nil {
					target.AddLink(x, y)
				}
			case 4:
				if _, err := target.AddSwitch("Ghost", "L", asic.Tofino32Q); err == nil {
					target.AddLink("Ghost", x)
				}
			case 5:
				target = base
			case 6:
				target.AddLink(x, y)
			}
		}
		nets := []*Network{base, clone}
		if cloneFirst {
			nets[0], nets[1] = clone, base
		}
		for _, n := range nets {
			ps := n.PathSet(from, to, within)
			if err := matchMapEach(ps); err != nil {
				t.Fatalf("made on the %s: %v", label(n, base), err)
			}
			part := within
			if part == nil {
				part = append(n.Names(), "Ghost")
			}
			part = slices.Clone(part)[:(len(part)+1)/2]
			in := func(xs []string) []string {
				return slices.DeleteFunc(slices.Clone(xs), func(x string) bool { return !slices.Contains(part, x) })
			}
			if err := matchMapEach(narrowed(ps, in(from), in(to), part)); err != nil {
				t.Fatalf("narrowed on the %s to %v: %v", label(n, base), part, err)
			}
		}
	})
}

func label(n, base *Network) string {
	if n == base {
		return "original"
	}
	return "clone"
}
