package encode

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"lyra/internal/asic"
	"lyra/internal/scope"
	"lyra/internal/topo"
)

// globalPairSrc holds a splittable algorithm and one touching global state,
// whose scope never splits: where the two overlap, the first's fragments fuse
// into the second's component.
const globalPairSrc = `
header_type ipv4_t { bit[32] srcAddr; bit[32] dstAddr; bit[8] protocol; }
header ipv4_t ipv4;
pipeline[A]{acl};
pipeline[C]{counter_alg};
algorithm acl {
  extern list<bit[32] ip>[20000] deny;
  if (ipv4.srcAddr in deny) {
    ipv4.protocol = 0;
  }
}
algorithm counter_alg {
  global bit[32][1024] counter;
  counter[5] = counter[5] + 1;
}
`

// TestOneWalkEqualsNameWalk holds the one walk of a scope's flow paths on
// switch ids — partition's groups and their shares of the paths, the
// numbering that reads them, and prepare's hop lists read off the numbering —
// to a walk by name kept here as the reference: the paths listed by name
// (PathList), grouped through name maps, numbered by the same colour
// refinement from starting colours computed by name, and laid out through a
// name-to-index map. It runs over random multi-pod fabrics with link cuts, a
// switch down, mixed chips (a non-programmable one among them), programs with
// one, two and a global-touching algorithm (unsplittable, fusing the pods it
// overlaps), and over the partition of a recompile that carries a plan.
func TestOneWalkEqualsNameWalk(t *testing.T) {
	chips := []*asic.Model{asic.Tofino32Q, asic.Tofino32Q, asic.Tofino32Q, asic.Tofino64Q, asic.Trident4, asic.Tomahawk}
	programs := []struct{ src, scope string }{
		{subst(lbSrc, "100000", "1000"), podLBScope},
		{podTwoAlgSrc, "acl: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]\nnat: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]"},
		{globalPairSrc, "acl: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]\ncounter_alg: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]"},
		{globalPairSrc, "acl: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]\ncounter_alg: [ ToR1_*,ToR2_*,Agg1_*,Agg2_* | MULTI-SW | (Agg1_*,Agg2_*->ToR1_*,ToR2_*) ]"},
	}
	rng := rand.New(rand.NewSource(45))
	var checked struct{ groups, shares, comps, split, classes, prepared, carried int }
	for round := 0; round < 48; round++ {
		pods, k := 2+rng.Intn(4), 4+2*rng.Intn(2)
		mixed := rng.Intn(2) == 0
		base := topo.MultiPodFatTree(pods, k, func(string, int) *asic.Model {
			if !mixed {
				return asic.Tofino32Q
			}
			return chips[rng.Intn(len(chips))]
		})
		net := base.Clone()
		cuts := rng.Intn(3)
		for i := 0; i < cuts; i++ {
			p, a, b := 1+rng.Intn(pods), 1+rng.Intn(k/2), 1+rng.Intn(k/2)
			net.RemoveLink(fmt.Sprintf("ToR%d_%d", p, a), fmt.Sprintf("Agg%d_%d", p, b))
		}
		if rng.Intn(4) == 0 {
			net.RemoveSwitch(fmt.Sprintf("ToR%d_%d", 1+rng.Intn(pods), 1+rng.Intn(k/2)))
		}
		prog := programs[rng.Intn(len(programs))]
		label := fmt.Sprintf("round %d (%d pods, k=%d, mixed=%v, %d cuts)", round, pods, k, mixed, cuts)
		in := buildInput(t, prog.src, prog.scope, net)

		for _, a := range in.IR.Algorithms {
			rs := in.Scopes[a.Name]
			if splittable(a, rs) {
				checked.shares += sameGroups(t, label+" "+a.Name, rs)
				checked.groups++
			}
		}
		comps, _, err := partition(context.Background(), in, nil, new(pathStore))
		if err != nil {
			t.Fatalf("%s: partition: %v", label, err)
		}
		n := sameComponents(t, label, comps)
		checked.comps += len(comps)
		checked.split += n.split
		checked.classes += n.classes
		checked.prepared += n.prepared

		// A recompile after one more cut, from the plan of the base compile:
		// the partition of what the fault left open.
		if round%2 == 1 {
			continue
		}
		opts := DefaultOptions()
		opts.Cache = NewCache()
		prev, err := Solve(in, opts)
		if err != nil {
			continue // a mix of chips that admits no plan: nothing to carry
		}
		after := net.Clone()
		p := 1 + rng.Intn(pods)
		after.RemoveLink(fmt.Sprintf("ToR%d_1", p), fmt.Sprintf("Agg%d_1", p))
		spec, err := scope.Parse(prog.scope)
		if err != nil {
			t.Fatal(err)
		}
		ropts := scope.ResolveOpts{AllowMissing: true}
		scopes, err := spec.ResolveAfter(in.Scopes, after, after.Since(net), ropts)
		if err != nil {
			continue
		}
		in2 := &Input{IR: in.IR, Net: after, Scopes: scopes}
		opts.Prev = prev
		ca := carryOver(in2, prev, opts.shaping())
		if ca == nil || len(ca.algs) == 0 {
			continue
		}
		for _, a := range in2.IR.Algorithms {
			if rs := ca.narrow(in2.Scopes[a.Name]); rs != nil && splittable(a, in2.Scopes[a.Name]) {
				sameGroups(t, label+" carried "+a.Name, rs)
			}
		}
		comps, ok, err := partition(context.Background(), in2, ca, new(pathStore))
		if err != nil {
			t.Fatalf("%s: carried partition: %v", label, err)
		}
		if ok {
			sameComponents(t, label+" carried", comps)
			checked.carried++
		}
	}
	t.Logf("%+v", checked)
	if checked.shares == 0 || checked.split == 0 || checked.classes == 0 || checked.prepared == 0 || checked.carried == 0 {
		t.Errorf("a case the test is for never came up: %+v", checked)
	}
}

// refGroup is a path group as the name walk finds it.
type refGroup struct {
	head    string
	members []string
	ends    [2][]string
	paths   [][]string // sorted by topo.PathLess
}

// nameGroups is pathGroups by name: the paths listed by name, union-find over
// a name map, the switches on no path in the first group. leaves reports a
// path through a switch off the scope.
func nameGroups(t *testing.T, rs *scope.Resolved) (groups []refGroup, offPath []string, leaves bool) {
	t.Helper()
	paths, err := rs.PathList()
	if err != nil {
		t.Fatal(err)
	}
	in := map[string]bool{}
	for _, sw := range rs.Switches {
		in[sw] = true
	}
	parent := map[string]string{}
	var find func(string) string
	find = func(sw string) string {
		if p, ok := parent[sw]; ok && p != sw {
			parent[sw] = find(p)
			return parent[sw]
		}
		return sw
	}
	onPath := map[string]bool{}
	first := make([]string, len(paths))
	for i, p := range paths {
		for _, sw := range p {
			if !in[sw] {
				leaves = true
				continue
			}
			onPath[sw] = true
			if first[i] == "" {
				first[i] = sw
			} else if a, b := find(first[i]), find(sw); a != b {
				parent[a] = b
			}
		}
	}
	at := map[string]int{}
	for _, sw := range rs.Switches {
		if !onPath[sw] {
			offPath = append(offPath, sw)
			continue
		}
		g, ok := at[find(sw)]
		if !ok {
			g = len(groups)
			at[find(sw)] = g
			groups = append(groups, refGroup{head: sw})
		}
		groups[g].members = append(groups[g].members, sw)
	}
	if len(groups) == 0 {
		return groups, offPath, leaves
	}
	// Switches on no path attach to the first group.
	groups[0].members = append(groups[0].members, offPath...)
	sort.Strings(groups[0].members)
	for e, ends := range [2][]string{rs.PathSet.From, rs.PathSet.To} {
		for _, sw := range ends {
			if in[sw] {
				g := &groups[at[find(sw)]] // a switch on no path: group 0
				g.ends[e] = append(g.ends[e], sw)
			}
		}
	}
	for i, p := range paths {
		if first[i] != "" {
			g := &groups[at[find(first[i])]]
			g.paths = append(g.paths, p)
		}
	}
	return groups, offPath, leaves
}

// sameGroups checks pathGroups against nameGroups on one scope and reports
// how many groups had a share of the paths to compare.
func sameGroups(t *testing.T, label string, rs *scope.Resolved) (shares int) {
	t.Helper()
	got, gotOff, err := pathGroups(context.Background(), rs, new(pathStore))
	if err != nil {
		t.Fatalf("%s: pathGroups: %v", label, err)
	}
	want, wantOff, leaves := nameGroups(t, rs)
	if !slices.Equal(gotOff, wantOff) || len(got) != len(want) {
		t.Fatalf("%s: %d groups, off path %v; the name walk finds %d, off path %v", label, len(got), gotOff, len(want), wantOff)
	}
	for i, g := range got {
		w := want[i]
		frag := subResolved(rs, g).PathSet
		ends := [2][]string{frag.From, frag.To}
		if g.head != w.head || !slices.Equal(g.members, w.members) || !reflect.DeepEqual(ends, w.ends) {
			t.Fatalf("%s: group %d is %s %v ends %v; the name walk's is %s %v ends %v", label, i, g.head, g.members, ends, w.head, w.members, w.ends)
		}
		if leaves {
			if g.paths.set != nil {
				t.Fatalf("%s: group %d has a share of paths that leave the scope", label, i)
			}
			continue
		}
		var paths [][]string
		g.paths.each(func(p []int32) bool {
			var names []string
			for _, id := range p {
				names = append(names, g.paths.set.Name(id))
			}
			paths = append(paths, names)
			return true
		})
		slices.SortFunc(paths, func(a, b []string) int {
			if topo.PathLess(a, b) {
				return -1
			}
			return 1
		})
		if !reflect.DeepEqual(paths, w.paths) {
			t.Fatalf("%s: group %s holds paths %v; the name walk's are %v", label, g.head, paths, w.paths)
		}
		shares++
	}
	return shares
}

// nameNumber numbers a component from a walk by name: starting colours from
// each chip's rendering and each algorithm's scope membership and path roles,
// the paths laid out through a name-to-rank map, then the numbering's own
// colour refinement. canon is false when a chip is unknown or a path leaves
// the component's switches.
func nameNumber(t *testing.T, c *Component) (union []string, paths *hopLists, canon bool) {
	in := c.In
	union = scopeUnion(in)
	n := len(union)
	paths = nameWalk(t, in, union)
	canon = true
	start := make([]uint64, n)
	for i, sw := range union {
		s := in.Net.Switch(sw)
		if s == nil || s.ASIC == nil {
			canon = false
			continue
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "asic %+v\n", *s.ASIC)
		start[i] = h.Sum64()
	}
	at := map[string]int{}
	for i, sw := range union {
		at[sw] = i
	}
	from := int32(0)
	for a, alg := range in.IR.Algorithms {
		rs := in.Scopes[alg.Name]
		role := make([]uint64, n)
		for _, sw := range rs.Switches {
			role[at[sw]] = 1
		}
		for p := from; p < paths.algEnd[a]; p++ {
			path := paths.path(p)
			if slices.Contains(path, -1) {
				canon = false
				continue
			}
			for _, i := range path[1 : len(path)-1] {
				role[i] |= 8
			}
			role[path[0]] |= 2
			role[path[len(path)-1]] |= 4
		}
		from = paths.algEnd[a]
		for i, r := range role {
			if r != 0 {
				start[i] = mix(start[i] + (uint64(a)<<16 | uint64(rs.Deploy)<<8 | r))
			}
		}
	}
	if !canon {
		return union, paths, false
	}
	nb := &numbering{first: map[uint64]int32{}, start: start, hopLists: *paths}
	if !nb.refine() {
		return union, paths, true
	}
	nb.canonicalOrder()
	named := union
	union = make([]string, n)
	for k, r := range nb.rank {
		union[k] = named[r]
		nb.index[r] = int32(k)
	}
	return union, nameWalk(t, in, union), true
}

// byAlg returns each algorithm's paths of l, sorted.
func byAlg(l *hopLists) [][][]int32 {
	var out [][][]int32
	from := int32(0)
	for _, to := range l.algEnd {
		var paths [][]int32
		for p := from; p < to; p++ {
			paths = append(paths, l.path(p))
		}
		slices.SortFunc(paths, slices.Compare)
		out = append(out, paths)
		from = to
	}
	return out
}

type componentCounts struct{ split, classes, prepared int }

// sameComponents checks each component's numbering — index order, paths by
// index and class key — against nameNumber, which components share a class
// against the name walk's keys, and prepare on the numbering's paths against
// prepare on the name walk's.
func sameComponents(t *testing.T, label string, comps []*Component) (n componentCounts) {
	t.Helper()
	nb := getNumbering()
	defer putNumbering(nb)
	var gotKeys, wantKeys []string
	for _, c := range comps {
		union, fp, err := nb.number(context.Background(), c, true)
		if err != nil {
			t.Fatalf("%s: %s: number: %v", label, c.Label(), err)
		}
		wantUnion, wantPaths, canon := nameNumber(t, c)
		if !slices.Equal(union, wantUnion) {
			t.Fatalf("%s: %s: numbered %v; by the name walk %v", label, c.Label(), union, wantUnion)
		}
		if !reflect.DeepEqual(byAlg(&nb.hopLists), byAlg(wantPaths)) {
			t.Fatalf("%s: %s: paths by index %v; by the name walk %v", label, c.Label(), byAlg(&nb.hopLists), byAlg(wantPaths))
		}
		want := ""
		if canon {
			want = classKeyFmt(c, wantUnion)
		}
		if fp != want {
			t.Fatalf("%s: %s: class key differs from the name walk's (canonical: %v)", label, c.Label(), canon)
		}
		if !slices.Equal(union, scopeUnion(c.In)) {
			n.split++
		}
		gotKeys, wantKeys = append(gotKeys, fp), append(wantKeys, want)

		phv := &phvIndex{prog: c.In.IR}
		got, gotErr := prepared(c.In, union, nb.hopLists.clone(), phv)
		ref, refErr := prepared(c.In, wantUnion, nameWalk(t, c.In, wantUnion), phv)
		if fmt.Sprint(gotErr) != fmt.Sprint(refErr) {
			t.Fatalf("%s: %s: prepare: %v; on the name walk's paths: %v", label, c.Label(), gotErr, refErr)
		}
		if gotErr != nil {
			continue
		}
		for name, p := range got.prep {
			r := ref.prep[name]
			if !slices.Equal(p.cands, r.cands) || !slices.Equal(p.onPath, r.onPath) || !reflect.DeepEqual(p.hops, r.hops) || p.enumerated != r.enumerated {
				t.Fatalf("%s: %s: %s prepared cands %v on path %v hops %v of %d paths; on the name walk's %v %v %v of %d",
					label, c.Label(), name, p.cands, p.onPath, p.hops, p.enumerated, r.cands, r.onPath, r.hops, r.enumerated)
			}
		}
		n.prepared++
	}
	// Two components share a class exactly when their name-walk keys agree.
	for i := range comps {
		for j := range i {
			if (gotKeys[i] != "" && gotKeys[i] == gotKeys[j]) != (wantKeys[i] != "" && wantKeys[i] == wantKeys[j]) {
				t.Fatalf("%s: %s and %s share a class: %v; by the name walk: %v", label, comps[j].Label(), comps[i].Label(),
					gotKeys[i] == gotKeys[j], wantKeys[i] == wantKeys[j])
			}
			if gotKeys[i] != "" && gotKeys[i] == gotKeys[j] {
				n.classes++
			}
		}
	}
	return n
}

// prepared is an encoder of a component numbered union, its paths by index,
// after prepare.
func prepared(in *Input, union []string, paths *hopLists, phv *phvIndex) (*encoder, error) {
	e, err := newEncoder(in, union, paths, phv)
	if err != nil {
		return nil, err
	}
	defer e.solver.Release()
	return e, e.prepare(context.Background())
}
