package eval

import (
	"strings"
	"testing"
)

// TestTrafficReplayShape runs the replay comparison at reduced scale and
// checks the structural invariants the paper table depends on: a single
// interpreter baseline row, compiled rows at every batch size, a ≥10x
// compiled-tier speedup at batch ≥64, and an allocation-free execute loop.
func TestTrafficReplayShape(t *testing.T) {
	points, err := TrafficReplay(4, 20_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 4 {
		t.Fatalf("got %d points, want interpreter baseline + 3 batch sizes on the compiled tier", len(points))
	}
	if points[0].Engine != "interpreter" || points[0].Speedup != 1 {
		t.Fatalf("first point is not the interpreter baseline: %+v", points[0])
	}
	seen := map[int]bool{}
	for _, p := range points[1:] {
		if p.Engine != "compiled" {
			t.Fatalf("unexpected engine name %q", p.Engine)
		}
		seen[p.Batch] = true
		if p.Batch >= 64 {
			if p.Speedup < 10 {
				t.Errorf("%s batch=%d workers=%d: speedup %.1fx, want >= 10x", p.Engine, p.Batch, p.Workers, p.Speedup)
			}
			if p.Workers == 1 && p.AllocsPerPkt != 0 {
				t.Errorf("%s batch=%d: %.2f allocs/pkt in the execute loop, want 0", p.Engine, p.Batch, p.AllocsPerPkt)
			}
		}
	}
	for _, b := range []int{1, 64, 1024} {
		if !seen[b] {
			t.Errorf("no compiled measurement at batch=%d", b)
		}
	}
	out := FormatTraffic(points)
	for _, want := range []string{"interpreter", "compiled", "pkts/s", "allocs/pkt"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
	if v := CheckTrafficScaling(points, 0.01); len(v) > 0 {
		t.Errorf("near-zero slack scaling check flagged: %v", v)
	}
}

// TestCheckTrafficScaling exercises the violation path on synthetic rows.
func TestCheckTrafficScaling(t *testing.T) {
	pts := []TrafficPoint{
		{Engine: "interpreter", Batch: 1, Workers: 1, PktsPerSec: 100},
		{Engine: "compiled", Batch: 1024, Workers: 1, PktsPerSec: 2000},
		{Engine: "compiled", Batch: 1024, Workers: 2, PktsPerSec: 3600},
	}
	if v := CheckTrafficScaling(pts, 0.9); len(v) > 0 {
		t.Fatalf("clean curve flagged: %v", v)
	}
	// A worker regression on the curve.
	bad := append([]TrafficPoint(nil), pts...)
	bad[2].PktsPerSec = 500
	if v := CheckTrafficScaling(bad, 0.9); len(v) != 1 {
		t.Fatalf("regressing curve: got %d violations (%v), want 1", len(v), v)
	}
}
