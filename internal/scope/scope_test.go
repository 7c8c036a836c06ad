package scope

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lyra/internal/asic"
	"lyra/internal/topo"
)

const figure7 = `
# Figure 7 of the paper.
int_in:       [ ToR* | PER-SW | - ]
int_transit:  [ Agg* | PER-SW | - ]
int_out:      [ ToR* | PER-SW | - ]
loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]
`

func TestParseFigure7(t *testing.T) {
	spec, err := Parse(figure7)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(spec.Scopes) != 4 {
		t.Fatalf("scopes = %d", len(spec.Scopes))
	}
	in, ok := spec.Get("int_in")
	if !ok || in.Deploy != PerSwitch || len(in.Region) != 1 || in.Region[0] != "ToR*" {
		t.Fatalf("int_in = %+v", in)
	}
	lb, _ := spec.Get("loadbalancer")
	if lb.Deploy != MultiSwitch || lb.Direct == nil {
		t.Fatalf("lb = %+v", lb)
	}
	if strings.Join(lb.Direct.From, ",") != "Agg3,Agg4" || strings.Join(lb.Direct.To, ",") != "ToR3,ToR4" {
		t.Fatalf("direct = %+v", lb.Direct)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"noBrackets: ToR*",
		"a: [ToR*|PER-SW]",                 // two fields
		"a: [ToR*|SOMETIMES|-]",            // bad deploy
		"a: [|PER-SW|-]",                   // empty region
		"a: [ToR*|MULTI-SW|-]",             // MULTI-SW without direct
		"a: [ToR*|MULTI-SW|(x)]",           // direct without arrow
		"a: [T|PER-SW|-]\na: [T|PER-SW|-]", // duplicate
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestResolveFigure7(t *testing.T) {
	spec, err := Parse(figure7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Resolve(topo.Testbed())
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	in := res["int_in"]
	if got := strings.Join(in.net.NamesOf(in.IDs), ","); got != "ToR1,ToR2,ToR3,ToR4" {
		t.Errorf("int_in switches = %v", got)
	}
	paths, err := res["loadbalancer"].PathList()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Errorf("lb paths = %v", paths)
	}
	for _, p := range paths {
		if !strings.HasPrefix(p[0], "Agg") || !strings.HasPrefix(p[len(p)-1], "ToR") {
			t.Errorf("path direction wrong: %v", p)
		}
	}
}

func TestResolveUnknownRegion(t *testing.T) {
	spec, _ := Parse("a: [ Spine* | PER-SW | - ]")
	if _, err := spec.Resolve(topo.Testbed()); err == nil {
		t.Fatal("unknown region must fail")
	}
}

func TestResolveNoPath(t *testing.T) {
	// ToR1 and ToR3 are in different pods; within the scope {ToR1, ToR3}
	// there is no path.
	spec, _ := Parse("a: [ ToR1,ToR3 | MULTI-SW | (ToR1->ToR3) ]")
	if _, err := spec.Resolve(topo.Testbed()); err == nil {
		t.Fatal("no-path must fail")
	}
}

func TestCommentsAndBlanks(t *testing.T) {
	spec, err := Parse("\n# comment\n\nint_in: [ ToR* | PER-SW | - ]\n")
	if err != nil || len(spec.Scopes) != 1 {
		t.Fatalf("spec = %+v err = %v", spec, err)
	}
}

// sameResolution compares what two resolutions hold: their switches by name
// and by id, whether they have flow endpoints, and the enumerated path
// sequence.
func sameResolution(t *testing.T, label string, got, want map[string]*Resolved) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scopes, want %d", label, len(got), len(want))
	}
	for alg, w := range want {
		g := got[alg]
		if g == nil {
			t.Fatalf("%s: no resolution for %s", label, alg)
		}
		if !reflect.DeepEqual(g.Scope, w.Scope) || !reflect.DeepEqual(g.net.NamesOf(g.IDs), w.net.NamesOf(w.IDs)) || !reflect.DeepEqual(g.IDs, w.IDs) ||
			(g.PathSet == nil) != (w.PathSet == nil) {
			t.Errorf("%s: %s resolves to %+v, want %+v", label, alg, g, w)
			continue
		}
		if g.PathSet != nil {
			gf, gt := g.PathSet.HasEnds()
			if wf, wt := w.PathSet.HasEnds(); gf != wf || gt != wt {
				t.Errorf("%s: %s has ends (%v, %v), want (%v, %v)", label, alg, gf, gt, wf, wt)
			}
		}
		if gs, ws := walk(g), walk(w); !reflect.DeepEqual(gs, ws) {
			t.Errorf("%s: %s walks %v, want %v", label, alg, gs, ws)
		}
	}
}

// TestResolveAfterEqualsResolveWith: re-resolving from a previous resolution
// and a fault delta gives what resolving the degraded network from nothing
// gives, the error text included when a region, an endpoint set or every path
// is gone; deltas it does not cover fall back.
func TestResolveAfterEqualsResolveWith(t *testing.T) {
	const text = figure7 + "acl: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]\npin: [ ToR1 | PER-SW | - ]\n"
	spec, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	type fault func(*topo.Network) error
	down := func(sw string) fault { return func(n *topo.Network) error { return n.RemoveSwitch(sw) } }
	cut := func(a, b string) fault { return func(n *topo.Network) error { return n.RemoveLink(a, b) } }
	degrade := func(sw string) fault {
		return func(n *topo.Network) error {
			return n.DegradeASIC(sw, func(m *asic.Model) *asic.Model { return asic.Scale(m, 1, 0.5, 1) })
		}
	}
	cases := map[string][]fault{
		"identity":            nil,
		"tor-down":            {down("ToR3")},
		"agg-down":            {down("Agg4")},
		"core-down":           {down("Core1")},
		"link-down":           {cut("ToR4", "Agg3")},
		"degrade":             {degrade("Agg3")},
		"two faults":          {down("ToR2"), cut("ToR3", "Agg4")},
		"region emptied":      {down("ToR1")},
		"from-set emptied":    {down("Agg3"), down("Agg4")},
		"to-set emptied":      {down("ToR3"), down("ToR4")},
		"every path cut":      {cut("ToR3", "Agg3"), cut("ToR3", "Agg4"), cut("ToR4", "Agg3"), cut("ToR4", "Agg4")},
		"grew (falls back)":   {func(n *topo.Network) error { _, err := n.AddSwitch("ToR9", "ToR", asic.Tofino32Q); return err }},
		"linked (falls back)": {func(n *topo.Network) error { return n.AddLink("ToR1", "Agg3") }},
	}
	opts := ResolveOpts{AllowMissing: true}
	base := topo.Testbed()
	prev, err := spec.Resolve(base)
	if err != nil {
		t.Fatal(err)
	}
	for name, faults := range cases {
		net := base.Clone()
		for _, f := range faults {
			if err := f(net); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		want, wantErr := spec.ResolveWith(net, opts)
		got, gotErr := spec.ResolveAfter(prev, net, net.Since(base), opts)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s: error %v, want %v", name, gotErr, wantErr)
			continue
		}
		if strings.Contains(name, "emptied") || strings.Contains(name, "every path") {
			if wantErr == nil {
				t.Errorf("%s: expected a resolution error", name)
			}
			continue
		}
		sameResolution(t, name, got, want)
		if name == "identity" && &got["acl"].IDs[0] != &prev["acl"].IDs[0] {
			t.Errorf("%s: an untouched switch list was copied", name)
		}
	}
	// A network built apart — registered in the opposite order, so no name
	// has its id in base — shares no name index with base: the path sets
	// mark their switches anew.
	apart := topo.New()
	for i := len(base.Switches) - 1; i >= 0; i-- {
		s := base.Switches[i]
		apart.AddSwitch(s.Name, s.Layer, s.ASIC)
	}
	for _, s := range base.Switches {
		for _, nb := range base.Neighbors(s.Name) {
			if s.Name < nb {
				apart.AddLink(s.Name, nb)
			}
		}
	}
	apart.RemoveSwitch("ToR3")
	wantApart, err := spec.ResolveWith(apart, opts)
	if err != nil {
		t.Fatal(err)
	}
	gotApart, err := spec.ResolveAfter(prev, apart, apart.Since(base), opts)
	if err != nil {
		t.Fatal(err)
	}
	sameResolution(t, "built apart", gotApart, wantApart)
	// Another spec must not be answered from prev.
	other, _ := Parse(strings.Replace(text, "ToR3,ToR4,Agg3,Agg4", "ToR3,Agg3,Agg4", 1))
	want, _ := other.ResolveWith(base, opts)
	got, err := other.ResolveAfter(prev, base, topo.Delta{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameResolution(t, "other spec", got, want)
}
