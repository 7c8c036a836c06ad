package dataplane

import (
	"strings"
	"testing"
)

func TestDiffPacketsFullComparison(t *testing.T) {
	ref, got := NewPacket(), NewPacket()
	ref.Fields["h.a"] = 1
	got.Fields["h.a"] = 2
	ref.Valid["h"] = true
	got.Dropped = true
	diffs := DiffPackets(ref, got, nil)
	joined := strings.Join(diffs, "\n")
	for _, want := range []string{"h.a: ref=1 got=2", "valid[h]: ref=true got=false", "drop: ref=false got=true"} {
		if !strings.Contains(joined, want) {
			t.Errorf("diffs missing %q:\n%s", want, joined)
		}
	}
}

func TestDiffPacketsOwnedFieldsOnly(t *testing.T) {
	ref, got := NewPacket(), NewPacket()
	ref.Fields["h.mine"] = 1 // differs, owned
	got.Fields["h.mine"] = 9
	ref.Fields["h.other"] = 5 // differs, not owned
	got.Fields["h.other"] = 6
	diffs := DiffPackets(ref, got, []string{"h.mine"})
	if len(diffs) != 1 || !strings.Contains(diffs[0], "h.mine") {
		t.Errorf("owned-field diff = %v, want only h.mine", diffs)
	}
}

func TestDiffPacketsEqual(t *testing.T) {
	ref := NewPacket()
	ref.Fields["h.a"] = 3
	ref.Valid["h"] = true
	if diffs := DiffPackets(ref, ref.Clone(), nil); len(diffs) != 0 {
		t.Errorf("identical packets diff: %v", diffs)
	}
}

// TestRunPathTracedMatchesRunPath: the hop-by-hop traced execution must end
// in exactly the state a single RunPath call produces, with one snapshot
// per hop.
func TestRunPathTracedMatchesRunPath(t *testing.T) {
	src := `
header_type h_t { bit[32] a; bit[32] out; }
header h_t h;
pipeline[P]{alg};
algorithm alg {
  extern dict<bit[32] k, bit[32] v>[64] tbl;
  if (h.a in tbl) {
    h.out = tbl[h.a];
  }
  h.out = h.out + 1;
}
`
	plan, _ := compile(t, src, "alg: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]")
	tables := NewTables()
	tables.Set("tbl", 7, 70)
	mk := func() *Deployment {
		dep, err := NewDeployment(plan, tables)
		if err != nil {
			t.Fatal(err)
		}
		return dep
	}
	ctx := &Context{SwitchID: 1}
	path := flowPaths(t, plan, "alg")[0]
	pkt := NewPacket()
	pkt.Valid["h"] = true
	pkt.Fields["h.a"] = 7

	want, err := mk().RunPath(path, ctx, pkt)
	if err != nil {
		t.Fatal(err)
	}
	got, trace, err := mk().RunPathTraced(path, ctx, pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Summary() != want.Summary() {
		t.Errorf("traced run diverges from RunPath:\n  want %s\n  got  %s", want.Summary(), got.Summary())
	}
	if len(trace) != len(path) {
		t.Fatalf("trace has %d snapshots, want %d", len(trace), len(path))
	}
	if trace[len(trace)-1].Summary != got.Summary() {
		t.Errorf("last snapshot %q != final state %q", trace[len(trace)-1].Summary, got.Summary())
	}
}
