package scope

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"lyra/internal/asic"
	"lyra/internal/topo"
)

// nameResolved is what the name resolver below gives for one scope: its
// switches, its flow endpoints and its flow paths, each joined by ">", in
// walk order.
type nameResolved struct {
	switches, from, to []string
	paths              []string
}

// nameResolve is ResolveWith as it was before resolution moved onto switch
// ids, kept as the reference the id resolver is held to: patterns matched
// into name maps, every list sorted by name, and the paths walked by name.
func nameResolve(s *Spec, net *topo.Network, opts ResolveOpts) (map[string]*nameResolved, error) {
	out := make(map[string]*nameResolved, len(s.Scopes))
	for _, sc := range s.Scopes {
		set := map[string]bool{}
		for _, pat := range sc.Region {
			matched := nameMatch(net, pat)
			if len(matched) == 0 && !opts.AllowMissing {
				return nil, resolveErr(sc.Alg, "region pattern %q matches no switch", pat)
			}
			for _, sw := range matched {
				set[sw] = true
			}
		}
		r := &nameResolved{switches: sortedKeys(set)}
		if sc.Deploy == MultiSwitch && len(set) > 0 {
			var err error
			if r.from, err = nameExpand(net, sc.Direct.From, opts); err != nil {
				return nil, resolveErr(sc.Alg, "%v", err)
			}
			if r.to, err = nameExpand(net, sc.Direct.To, opts); err != nil {
				return nil, resolveErr(sc.Alg, "%v", err)
			}
			r.paths = namePaths(net, r.from, r.to, r.switches)
		}
		if len(r.switches) == 0 {
			return nil, resolveErr(sc.Alg, "region %v matches no surviving switch", sc.Region)
		}
		if sc.Deploy == MultiSwitch && len(r.paths) == 0 {
			return nil, resolveErr(sc.Alg, "no flow path from %v to %v within %v", sc.Direct.From, sc.Direct.To, r.switches)
		}
		out[sc.Alg] = r
	}
	return out, nil
}

// nameMatch is the network's pattern match by name: an exact name, or a
// prefix wildcard that also matches a layer name.
func nameMatch(net *topo.Network, pattern string) []string {
	var out []string
	if prefix, ok := strings.CutSuffix(pattern, "*"); ok {
		for _, s := range net.Switches {
			if strings.HasPrefix(s.Name, prefix) || s.Layer == prefix {
				out = append(out, s.Name)
			}
		}
	} else if net.Switch(pattern) != nil {
		out = append(out, pattern)
	}
	return out
}

func nameExpand(net *topo.Network, patterns []string, opts ResolveOpts) ([]string, error) {
	set := map[string]bool{}
	for _, p := range patterns {
		ms := nameMatch(net, p)
		if len(ms) == 0 && !opts.AllowMissing {
			return nil, fmt.Errorf("pattern %q matches no switch", p)
		}
		for _, m := range ms {
			set[m] = true
		}
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("patterns %v match no surviving switch", patterns)
	}
	return sortedKeys(set), nil
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// namePaths walks the simple paths from the sorted starts to the first
// target, inside within, neighbours in name order, as name maps.
func namePaths(net *topo.Network, from, to, within []string) []string {
	allowed, targets, visited := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, w := range within {
		allowed[w] = true
	}
	for _, t := range to {
		targets[t] = true
	}
	var out, path []string
	var dfs func(cur string)
	dfs = func(cur string) {
		if targets[cur] {
			out = append(out, strings.Join(path, ">"))
			return
		}
		for _, nb := range net.Neighbors(cur) {
			if visited[nb] || !allowed[nb] {
				continue
			}
			visited[nb], path = true, append(path, nb)
			dfs(nb)
			visited[nb], path = false, path[:len(path)-1]
		}
	}
	for _, s := range from {
		if allowed[s] {
			visited[s], path = true, []string{s}
			dfs(s)
			visited[s] = false
		}
	}
	return out
}

// walk renders a resolution's flow paths, each joined by ">", in walk order.
func walk(r *Resolved) (seq []string) {
	r.EachPath(func(p []int32) bool {
		names := make([]string, len(p))
		for i, id := range p {
			names[i] = r.PathSet.Name(id)
		}
		seq = append(seq, strings.Join(names, ">"))
		return true
	})
	return seq
}

// matchesNameResolve resolves spec on net both ways and reports the first
// difference in error text, switches, their ids, flow endpoints or paths.
func matchesNameResolve(spec *Spec, net *topo.Network, opts ResolveOpts) error {
	got, gotErr := spec.ResolveWith(net, opts)
	want, wantErr := nameResolve(spec, net, opts)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Errorf("error %v, want %v", gotErr, wantErr)
	}
	for alg, w := range want {
		g := got[alg]
		if !reflect.DeepEqual(g.Switches, w.switches) || len(g.IDs) != len(g.Switches) {
			return fmt.Errorf("%s: switches %v (ids %v), want %v", alg, g.Switches, g.IDs, w.switches)
		}
		for i, id := range g.IDs {
			if s := net.At(id); s == nil || s.Name != g.Switches[i] {
				return fmt.Errorf("%s: id %d stands for %v, not %s", alg, id, s, g.Switches[i])
			}
		}
		if (g.PathSet == nil) != (w.from == nil) {
			return fmt.Errorf("%s: path set %v, want endpoints %v", alg, g.PathSet, w.from)
		}
		if g.PathSet == nil {
			continue
		}
		if !reflect.DeepEqual(g.PathSet.From, w.from) || !reflect.DeepEqual(g.PathSet.To, w.to) || !reflect.DeepEqual(g.PathSet.Within, w.switches) {
			return fmt.Errorf("%s: flows from %v to %v within %v, want %v to %v within %v", alg,
				g.PathSet.From, g.PathSet.To, g.PathSet.Within, w.from, w.to, w.switches)
		}
		if seq := walk(g); !reflect.DeepEqual(seq, w.paths) {
			i := 0
			for i < min(len(seq), len(w.paths)) && seq[i] == w.paths[i] {
				i++
			}
			return fmt.Errorf("%s: walks %d paths, want %d; first difference at path %d", alg, len(seq), len(w.paths), i)
		}
	}
	return nil
}

// randomNet builds a network whose registration order is not its name order
// (Agg2 before Agg10, a layer registered backwards) and whose core layer's
// names do not start with the layer name, so "Core*" matches by layer.
func randomNet(rng *rand.Rand) *topo.Network {
	type sw struct{ name, layer string }
	var sws []sw
	for i := 1 + rng.Intn(12); i > 0; i-- {
		sws = append(sws, sw{fmt.Sprintf("Agg%d", i), "Agg"}, sw{fmt.Sprintf("ToR%d", 2*i), "ToR"})
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		sws = append(sws, sw{fmt.Sprintf("Spine%c", 'A'+i), "Core"})
	}
	rng.Shuffle(len(sws), func(i, j int) { sws[i], sws[j] = sws[j], sws[i] })
	net := topo.New()
	for _, s := range sws {
		net.AddSwitch(s.name, s.layer, asic.Tofino32Q)
	}
	for i := 0; i < len(sws)+len(sws)/2; i++ {
		a, b := sws[rng.Intn(len(sws))].name, sws[rng.Intn(len(sws))].name
		if a != b && !net.HasLink(a, b) {
			net.AddLink(a, b)
		}
	}
	return net
}

// randomSpec draws scopes over overlapping exact, prefix and layer patterns,
// now and then one that matches nothing.
func randomSpec(rng *rand.Rand) *Spec {
	patterns := []string{"Agg*", "Agg1*", "Agg10", "Agg2", "ToR*", "ToR1*", "ToR4", "Core*", "Spine*", "SpineB", "*", "Ghost", "Zz*"}
	pick := func() []string {
		out := []string{patterns[rng.Intn(len(patterns))]}
		for rng.Intn(2) == 0 {
			out = append(out, patterns[rng.Intn(len(patterns))])
		}
		return out
	}
	spec := &Spec{}
	for i := 0; i < 1+rng.Intn(3); i++ {
		sc := Scope{Alg: fmt.Sprintf("alg%d", i), Region: pick()}
		if rng.Intn(3) > 0 {
			sc.Deploy, sc.Direct = MultiSwitch, &Direction{From: pick(), To: pick()}
		}
		spec.Scopes = append(spec.Scopes, sc)
	}
	return spec
}

// TestResolveMatchesNameResolve holds the id resolver to the name resolver
// above on random networks registered out of name order, with overlapping,
// layer-name and unmatched patterns, with and without AllowMissing: on each
// network, on a clone sharing its name index after switches were removed and
// names re-added, and on a clone that added a name of its own.
func TestResolveMatchesNameResolve(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	resolved := 0
	for round := 0; round < 300; round++ {
		base := randomNet(rng)
		faulted := base.Clone()
		names := faulted.Names()
		for i := rng.Intn(3); i > 0; i-- {
			victim := names[rng.Intn(len(names))]
			if faulted.RemoveSwitch(victim) == nil && rng.Intn(2) == 0 {
				faulted.AddSwitch(victim, "Agg", asic.Tofino64Q)
				faulted.AddLink(victim, names[rng.Intn(len(names))])
			}
		}
		grown := base.Clone()
		grown.AddSwitch("Agg0", "Agg", asic.Tofino32Q)
		grown.AddLink("Agg0", names[rng.Intn(len(names))])
		spec := randomSpec(rng)
		for _, net := range []*topo.Network{base, faulted, grown} {
			for _, allow := range []bool{false, true} {
				opts := ResolveOpts{AllowMissing: allow}
				if err := matchesNameResolve(spec, net, opts); err != nil {
					t.Fatalf("round %d, %v, AllowMissing %v: %v", round, spec.Scopes, allow, err)
				}
				if _, err := spec.ResolveWith(net, opts); err == nil {
					resolved++
				}
			}
		}
	}
	if resolved < 100 {
		t.Errorf("only %d of 1800 resolutions succeeded", resolved)
	}
}
