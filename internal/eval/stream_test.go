package eval

import (
	"strings"
	"testing"
)

// TestStreamReplayShape runs the streaming experiment at reduced scale and
// checks its structural invariants: every scenario gets an interpreter
// baseline plus compiled rows, lane-safe scenarios also measure a
// fanned-out point, the sketch never fans out, the compiled tier beats the
// interpreter, and its steady state allocates nothing.
func TestStreamReplayShape(t *testing.T) {
	points, err := StreamReplay(4, 10_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]map[string][]int{} // scenario -> tier -> lane counts
	for _, p := range points {
		if rows[p.Scenario] == nil {
			rows[p.Scenario] = map[string][]int{}
		}
		rows[p.Scenario][p.Engine] = append(rows[p.Scenario][p.Engine], p.Lanes)
		if p.Drains == 0 {
			t.Errorf("%s %s lanes=%d: no drains recorded", p.Scenario, p.Engine, p.Lanes)
		}
		if p.Engine != "interpreter" {
			if p.Speedup < 2 {
				t.Errorf("%s %s lanes=%d: speedup %.1fx over interpreter, want >= 2x",
					p.Scenario, p.Engine, p.Lanes, p.Speedup)
			}
			if p.AllocsPerPkt != 0 {
				t.Errorf("%s %s lanes=%d: %.4f allocs/pkt in steady state, want 0",
					p.Scenario, p.Engine, p.Lanes, p.AllocsPerPkt)
			}
		}
	}
	for _, sc := range Scenarios() {
		got := rows[sc.Name]
		if got == nil {
			t.Fatalf("no measurements for scenario %s", sc.Name)
		}
		if n := len(got["interpreter"]); n != 1 {
			t.Errorf("%s: %d interpreter rows, want exactly 1", sc.Name, n)
		}
		want := 1
		if sc.LaneSafe {
			want = 2 // one lane plus the fanned-out point
		}
		if n := len(got["compiled"]); n != want {
			t.Errorf("%s compiled: %d lane points %v, want %d", sc.Name, n, got["compiled"], want)
		}
	}
	out := FormatStream(points)
	for _, want := range []string{"interpreter", "compiled", "pkts/s", "allocs/pkt", "lanes"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
	if v := CheckStreamAllocs(points, 0); len(v) > 0 {
		t.Errorf("zero-budget allocation check flagged: %v", v)
	}
}

// TestCheckStreamAllocs exercises the violation path on synthetic rows.
func TestCheckStreamAllocs(t *testing.T) {
	pts := []StreamPoint{
		{Scenario: "nat", Engine: "interpreter", Lanes: 1, AllocsPerPkt: 12},
		{Scenario: "nat", Engine: "compiled", Lanes: 1, AllocsPerPkt: 0},
		{Scenario: "nat", Engine: "compiled", Lanes: 2, AllocsPerPkt: 0.5},
	}
	v := CheckStreamAllocs(pts, 0.01)
	if len(v) != 1 || !strings.Contains(v[0], "compiled") {
		t.Fatalf("got violations %v, want exactly the compiled row", v)
	}
	if v := CheckStreamAllocs(pts[:2], 0.01); len(v) > 0 {
		t.Fatalf("clean rows flagged: %v", v)
	}
}
