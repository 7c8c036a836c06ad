package scope

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"lyra/internal/asic"
	"lyra/internal/topo"
)

// FuzzScopeSpec feeds hostile scope specifications through Parse and then
// ResolveWith, with and without AllowMissing, on the testbed and on a k=4 fat
// tree. Every input must give an *Error or a resolution of every algorithm
// whose switches are sorted and are switches of the network; the error or
// resolution must be the name resolver's
// (nameResolve); no input may panic, and each must be done within two
// seconds.
func FuzzScopeSpec(f *testing.F) {
	files, _ := filepath.Glob("../../testdata/scopes/*.scope")
	for _, name := range files {
		if b, err := os.ReadFile(name); err == nil {
			f.Add(string(b), false)
		}
	}
	for _, s := range []string{
		"loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]",
		"lb: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]\nint_in: [ Core* | PER-SW | - ]",
		"lb: [ ToR1_*,Agg1_* | multi-sw | (Agg1_*->ToR1_*) ]",
		"lb: [ ToR* | MULTI-SW | (ToR*->ToR*) ]",
		"lb: [ Core*,Agg*,ToR* | MULTI-SW | (Core1->ToR1,ToR2_2) ]",
		"lb: [ Ghost,ToR1 | MULTI-SW | (Ghost->ToR1) ]",
		"lb: [ ToR1 | PER-SW | (ToR1->ToR1) ]",
		"# comment\n\n  a: [ * | PER-SW | ]  ",
		"a: [ ToR1 | PER-SW | - ]\na: [ ToR2 | PER-SW | - ]",
		"a [ ToR1 | PER-SW | - ]",
		"a: [ ToR1 | PER-SW ]",
		"a: [ | PER-SW | - ]",
		"a: [ ToR1 | SOME-SW | - ]",
		"a: [ ToR1 | MULTI-SW | - ]",
		"a: [ ToR1 | MULTI-SW | Agg1->ToR1 ]",
		"a: [ ToR1 | MULTI-SW | (Agg1 ToR1) ]",
		"a: [ ToR1 | MULTI-SW | (->ToR1) ]",
		"a: [ ToR1,(Agg1|x) | MULTI-SW | ((Agg1->ToR1)) ]",
		"a: [ ToR1 | MULTI-SW | (Agg1->ToR1) ] ]",
		":[|||]",
	} {
		f.Add(s, false)
		f.Add(s, true)
	}
	nets := []*topo.Network{
		topo.Testbed(),
		topo.MultiPodFatTree(4, 4, func(string, int) *asic.Model { return asic.Tofino32Q }),
	}
	f.Fuzz(func(t *testing.T, text string, allowMissing bool) {
		if len(text) > 4096 {
			return
		}
		start := time.Now()
		defer func() {
			if d := time.Since(start); d > 2*time.Second {
				t.Errorf("took %v", d)
			}
		}()
		var se *Error
		spec, err := Parse(text)
		if err != nil {
			if !errors.As(err, &se) {
				t.Fatalf("Parse: %T %v, want an *Error", err, err)
			}
			return
		}
		for _, net := range nets {
			if err := matchesNameResolve(spec, net, ResolveOpts{AllowMissing: allowMissing}); err != nil {
				t.Fatalf("the name resolver disagrees: %v", err)
			}
			res, err := spec.ResolveWith(net, ResolveOpts{AllowMissing: allowMissing})
			if err != nil {
				if !errors.As(err, &se) {
					t.Fatalf("ResolveWith: %T %v, want an *Error", err, err)
				}
				continue
			}
			if len(res) != len(spec.Scopes) {
				t.Fatalf("%d resolutions of %d scopes", len(res), len(spec.Scopes))
			}
			for _, sc := range spec.Scopes {
				r := res[sc.Alg]
				if r == nil || len(r.IDs) == 0 || slices.ContainsFunc(r.IDs, func(id int32) bool { return net.At(id) == nil }) {
					t.Fatalf("%s resolves to %+v", sc.Alg, r)
				}
				if names := net.NamesOf(r.IDs); !sort.StringsAreSorted(names) {
					t.Fatalf("%s resolves to switches %v out of name order", sc.Alg, names)
				}
				if (r.PathSet != nil) != (sc.Deploy == MultiSwitch) {
					t.Fatalf("%s (%v) resolves with path set %v", sc.Alg, sc.Deploy, r.PathSet)
				}
			}
		}
	})
}
