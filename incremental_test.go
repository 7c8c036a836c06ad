package lyra

import (
	"context"
	"errors"
	"testing"

	"lyra/internal/encode"
)

// TestRecompileSolvesOnlyNewClasses: a fault outside the deployment region
// changes switch records inside it (Agg3 and Agg4 lose a core link) but no
// flow path, so the component is re-canonicalised into the class the base
// already solved and Recompile binds that template — nothing encoded, nothing
// solved; a fault inside the region makes a new class, which is encoded and
// solved once, and the same fault a second time is a memo hit.
func TestRecompileSolvesOnlyNewClasses(t *testing.T) {
	base := compileQuickLB(t)
	if base.SolverStats.Encodes != 1 || base.SolverStats.SolveCalls != 1 {
		t.Fatalf("base stats = %+v, want one encode and one solve", base.SolverStats)
	}
	bound := func(res *Result) *encode.Template { return res.plan.Bindings()[0].Template }

	// Core1 carries no loadbalancer scope: same class, memo hit.
	res, delta, err := New().Recompile(context.Background(), base, Scenario{Name: "core1", Events: []FaultEvent{SwitchDown("Core1")}})
	if err != nil {
		t.Fatalf("recompile: %v", err)
	}
	if st := res.SolverStats; st.Encodes != 0 || st.SolveCalls != 0 || st.CacheHits != 1 {
		t.Errorf("stats after an irrelevant fault = %+v, want the class answered from the memo and nothing encoded or solved", st)
	}
	if bound(res) != bound(base) {
		t.Error("an irrelevant fault changed the template the component is bound to")
	}
	if len(delta.Reprogram)+len(delta.Removed) != 0 {
		t.Errorf("an irrelevant fault produced a device delta: %v", delta)
	}

	// Agg3 is inside the region: the scope resolution changes, the class is
	// new, and the component encodes fresh.
	res2, _, err := New().Recompile(context.Background(), base, Scenario{Name: "agg3", Events: []FaultEvent{SwitchDown("Agg3")}})
	if err != nil {
		t.Fatalf("recompile: %v", err)
	}
	if st := res2.SolverStats; st.Encodes != 1 || st.SolveCalls != 1 || st.CacheHits != 0 {
		t.Errorf("stats after in-region fault = %+v, want a fresh encode+solve", st)
	}
	if bound(res2) == bound(base) {
		t.Error("an in-region fault left the component bound to the base's template")
	}
	// The same fault again is a class the memo knows by now.
	res2b, _, err := New().Recompile(context.Background(), base, Scenario{Name: "agg3 again", Events: []FaultEvent{SwitchDown("Agg3")}})
	if err != nil {
		t.Fatalf("recompile: %v", err)
	}
	if st := res2b.SolverStats; st.Encodes != 0 || st.CacheHits != 1 || bound(res2b) != bound(res2) {
		t.Errorf("stats of a repeated fault = %+v, want the damaged class answered from the memo", st)
	}

	// Chained irrelevant faults keep binding the same template.
	res3, _, err := New().Recompile(context.Background(), res, Scenario{Name: "core2", Events: []FaultEvent{SwitchDown("Core2")}})
	if err != nil {
		t.Fatalf("chained recompile: %v", err)
	}
	if st := res3.SolverStats; st.Encodes != 0 || st.SolveCalls != 0 || bound(res3) != bound(base) {
		t.Errorf("stats after chained irrelevant fault = %+v, want nothing encoded or solved", st)
	}
	checkForwarding(t, res3, "chained-incremental")
}

// TestRecompileCancelledMidSolveIsTyped cancels the context between the
// scope and solve phases of a Recompile and demands two things: the error
// is the typed cancellation error (errors.Is ErrTimeout and ErrBudget, not
// a generic failure), and the previous Result stays fully usable — a
// daemon that timed one recompile out must be able to keep serving the old
// artifacts and retry later.
func TestRecompileCancelledMidSolveIsTyped(t *testing.T) {
	base := compileQuickLB(t)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The observer runs inline as each phase completes; cancelling right
	// after scope resolution guarantees the solver starts with a dead
	// context and trips its first cancellation poll — deterministically
	// "mid-solve" without any timing dependence.
	obs := ObserverFunc(func(pt PhaseTiming) {
		if pt.Phase == PhaseScope {
			cancel()
		}
	})
	sc := Scenario{Name: "agg3", Events: []FaultEvent{SwitchDown("Agg3")}}
	_, _, err := New(WithObserver(obs)).Recompile(ctx, base, sc)
	if err == nil {
		t.Fatal("cancelled recompile succeeded")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("cancelled recompile error = %v, want errors.Is(err, ErrTimeout)", err)
	}
	if !errors.Is(err, ErrBudget) {
		t.Errorf("cancelled recompile error = %v, want errors.Is(err, ErrBudget)", err)
	}
	var internal *InternalError
	if errors.As(err, &internal) {
		t.Errorf("cancellation surfaced as an internal error: %v", err)
	}

	// The previous result must be untouched: same scenario recompiles
	// cleanly from it and the recompiled network still forwards.
	res, delta, err := New().Recompile(context.Background(), base, sc)
	if err != nil {
		t.Fatalf("recompile after cancelled attempt: %v", err)
	}
	if delta == nil || len(res.Artifacts) == 0 {
		t.Fatalf("recompile after cancelled attempt produced no plan (delta=%v)", delta)
	}
	checkForwarding(t, res, "post-cancel")
}
