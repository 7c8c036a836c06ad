package lyra

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestSolverTrajectory pins the search the gate benchmark's compiles and
// recompiles make: the scale load balancer (testdata/scale, the program of
// compile-scale and recompile-churn) on the k=8 and k=32 fat trees, and two
// faults recompiled from the k=32 base. Each line is the one symmetry class
// solved, so every counter is one solve's: decisions, propagations,
// conflicts, learnt clauses, theory checks and the checks the resource theory
// rejected. A change to the encoding, the solver or the theory's lemmas shows
// here as a different trajectory, even when the plan it lands on is the same.
func TestSolverTrajectory(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "scale", "lb_scale.lyra"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	trajectory := func(s SolverStats) [6]int64 {
		return [6]int64{s.Decisions, s.Propagations, s.Conflicts, s.Learned, s.TheoryChecks, s.TheoryFails}
	}
	check := func(what string, res *Result, want [6]int64) {
		t.Helper()
		if got := trajectory(res.SolverStats); got != want {
			t.Errorf("%s: decisions/propagations/conflicts/learned/checks/rejected %v, want %v", what, got, want)
		}
	}
	c := New(WithParallelism(1))
	small, err := c.Compile(ctx, string(src), podScope, uniformPods(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	check("k=8 compile", small, [6]int64{31, 143, 7, 5, 6, 5})
	base, err := c.Compile(ctx, string(src), podScope, uniformPods(32, 32))
	if err != nil {
		t.Fatal(err)
	}
	check("k=32 compile", base, [6]int64{391, 1144, 28, 17, 18, 17})
	for _, tc := range []struct {
		ev   FaultEvent
		want [6]int64
	}{
		{SwitchDown("ToR3_2"), [6]int64{393, 1072, 30, 17, 18, 17}},
		{LinkDown("ToR3_2", "Agg3_5"), [6]int64{405, 1234, 28, 17, 18, 17}},
	} {
		res, _, err := c.Recompile(ctx, base, Scenario{Events: []FaultEvent{tc.ev}})
		if err != nil {
			t.Fatalf("%s: %v", tc.ev, err)
		}
		check("k=32 "+tc.ev.String(), res, tc.want)
	}
}
