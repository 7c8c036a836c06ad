package encode

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"lyra/internal/smt"
	"lyra/internal/topo"
)

func TestLadderEscalatesConflictBudget(t *testing.T) {
	// The 4M-entry conn_table forces table splitting; the solver needs a
	// handful of theory conflicts to find a feasible shard layout, so a
	// budget of 1 fails. The policy must escalate (x8) and succeed.
	in := buildInput(t, subst(lbSrc, "4000000", "1000000"), lbScope, topo.Testbed())
	plan, err := solve(in, DefaultOptions(), attemptCfg{conflictBudget: 1})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	d := plan.Diagnostics
	if d == nil || !d.FellBack() {
		t.Fatalf("expected a recorded fallback, got %+v", d)
	}
	if len(d.Attempts) != 2 {
		t.Fatalf("attempts = %+v, want 2", d.Attempts)
	}
	if d.Attempts[0].Outcome != "conflict-budget" {
		t.Errorf("first outcome = %q", d.Attempts[0].Outcome)
	}
	if d.Attempts[1].Step != "escalate-budget" || d.Attempts[1].Outcome != "sat" {
		t.Errorf("second attempt = %+v", d.Attempts[1])
	}
	if d.Attempts[1].ConflictBudget != 8 {
		t.Errorf("escalated budget = %d, want 8", d.Attempts[1].ConflictBudget)
	}
	if got := d.Summary(); got != "initial:conflict-budget -> escalate-budget:sat" {
		t.Errorf("summary = %q", got)
	}
}

// TestEscalationKeepsObjective: an optimizing solve that runs out of conflicts
// is escalated with its objective, not first retried without it — dropping
// the objective repeats the failed search, since a minimization's first step
// is the plain solve under the same budget.
func TestEscalationKeepsObjective(t *testing.T) {
	in := buildInput(t, subst(lbSrc, "4000000", "1000000"), lbScope, topo.Testbed())
	opts := DefaultOptions()
	opts.Objective = ObjMinPlacements
	plan, err := solve(in, opts, attemptCfg{conflictBudget: 1})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	d := plan.Diagnostics
	if got := d.Summary(); got != "initial:conflict-budget -> escalate-budget:sat" {
		t.Fatalf("summary = %q", got)
	}
	if d.Attempts[1].Objective != ObjMinPlacements {
		t.Errorf("escalated attempt solved under %v, want min-placements", d.Attempts[1].Objective)
	}
	for _, deg := range d.Degraded {
		if strings.Contains(deg, "objective") {
			t.Errorf("concession %q gives up the objective", deg)
		}
	}
}

// TestTimeoutEndsTheSolve: every attempt shares the compile's context, so
// after a timeout nothing is retried and nothing is conceded.
func TestTimeoutEndsTheSolve(t *testing.T) {
	timeout := fmt.Errorf("encode: solver gave up: %w", smt.ErrTimeout)
	replicable := map[string]bool{"marker": true}
	for _, cfg := range []attemptCfg{
		{objective: ObjMinPlacements, conflictBudget: 10},
		{objective: ObjMinPlacements, conflictBudget: 80, escalated: true},
	} {
		if step, _ := fallback(&cfg, timeout, replicable); step != "" {
			t.Errorf("%+v: a timeout is followed by %s", cfg, step)
		}
	}

	// A PER-SW scope encodes without polling the context, so the one attempt
	// meets the cancelled context in the solver.
	in := buildInput(t, subst(lbSrc, "1024", "1024"), "loadbalancer: [ ToR3,ToR4 | PER-SW | - ]", topo.Testbed())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := solveComponent(ctx, in, scopeUnion(in), nameWalk(t, in, scopeUnion(in)), &phvIndex{prog: in.IR},
		attemptCfg{objective: ObjMinPlacements, conflictBudget: conflictBudget}, "")
	if !errors.Is(r.err, smt.ErrTimeout) {
		t.Fatalf("err = %v, want a timeout", r.err)
	}
	if got := r.trail.Summary(); got != "initial:timeout" || len(r.trail.Degraded) != 0 {
		t.Errorf("trail = %q with concessions %q, want one timed-out attempt and none", got, r.trail.Degraded)
	}
}

func TestLadderExhaustionReportsTrail(t *testing.T) {
	// 40M entries fit nowhere: every retry that applies still fails, and the
	// final error must carry the attempt trail.
	in := buildInput(t, subst(lbSrc, "40000000", "1000000"), lbScope, topo.Testbed())
	opts := DefaultOptions()
	_, err := Solve(in, opts)
	if err == nil {
		t.Fatal("want infeasibility")
	}
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

// TestRelaxationApplicability walks the policy for a program with nothing to
// replicate: conflict exhaustion escalates once, and nothing follows a second
// exhaustion, a timeout or an infeasible verdict.
func TestRelaxationApplicability(t *testing.T) {
	// loadbalancer reads ipv4.dstAddr and writes it: re-execution at a
	// second hop would hash the rewritten address, so it is NOT replicable.
	in := buildInput(t, subst(lbSrc, "1024", "1024"), lbScope, topo.Testbed())
	replicable := replicableAlgs(in)
	if len(replicable) != 0 {
		t.Fatalf("loadbalancer must not be classified replicable, got %v", replicable)
	}
	cfg := attemptCfg{objective: ObjMinSwitches, conflictBudget: 10}
	if step, _ := fallback(&cfg, smt.ErrTimeout, replicable); step != "" {
		t.Errorf("a timeout is followed by %s", step)
	}
	if step, _ := fallback(&cfg, ErrInfeasible, replicable); step != "" {
		t.Errorf("infeasibility with nothing replicable is followed by %s", step)
	}
	step, concession := fallback(&cfg, smt.ErrConflictBudget, replicable)
	if step != "escalate-budget" || concession != "conflict budget escalated 10 -> 80" {
		t.Fatalf("conflict exhaustion is followed by %q (%q), want escalate-budget", step, concession)
	}
	if cfg.conflictBudget != 80 || cfg.objective != ObjMinSwitches {
		t.Errorf("escalated cfg = %+v, want budget 80 and the objective kept", cfg)
	}
	if step, _ := fallback(&cfg, smt.ErrConflictBudget, replicable); step != "" {
		t.Errorf("a second exhaustion is followed by %s", step)
	}
}

const statelessSrc = `
header_type ipv4_t { bit[32] srcAddr; bit[32] dstAddr; bit[8] tos; }
header ipv4_t ipv4;
pipeline[P]{marker};
algorithm marker {
  ipv4.tos = 7;
}
`

func TestReplicableClassification(t *testing.T) {
	// marker writes only ipv4.tos from a constant: re-executing it at every
	// hop is idempotent, so it IS replicable.
	in := buildInput(t, statelessSrc,
		"marker: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]",
		topo.Testbed())
	algs := replicableAlgs(in)
	if !algs["marker"] {
		t.Fatalf("marker should be replicable, got %v", algs)
	}
	cfg := attemptCfg{conflictBudget: 10}
	step, concession := fallback(&cfg, ErrInfeasible, algs)
	if step != "relax-replication" || !cfg.replicate {
		t.Fatalf("infeasibility is followed by %q, want relax-replication", step)
	}
	if !strings.Contains(concession, "marker") {
		t.Errorf("concession = %q should name the algorithm", concession)
	}
	if step, _ := fallback(&cfg, ErrInfeasible, algs); step != "" {
		t.Errorf("relax-replication is followed by %s", step)
	}
	if step, _ := fallback(&cfg, smt.ErrConflictBudget, algs); step != "" {
		t.Errorf("escalation came after replication: %s", step)
	}
	// Out of conflicts again after the escalation, replication follows.
	cfg = attemptCfg{conflictBudget: 80, escalated: true}
	if step, _ := fallback(&cfg, smt.ErrConflictBudget, algs); step != "relax-replication" {
		t.Errorf("a second exhaustion is followed by %q, want relax-replication", step)
	}
}

func TestReplicationSolveStillCoversPaths(t *testing.T) {
	// Relaxed replication turns exactly-one into at-least-one; every flow
	// path must still execute every instruction at least once.
	in := buildInput(t, statelessSrc,
		"marker: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]",
		topo.Testbed())
	plan, err := solve(in, DefaultOptions(), attemptCfg{conflictBudget: conflictBudget, replicate: true})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	rs := in.Scopes["marker"]
	for _, path := range pathsOf(t, rs) {
		for _, inst := range in.IR.Algorithm("marker").Instrs {
			id, hosts := inst.ID, hostsOf(plan, "marker", inst.ID)
			covered := false
			for _, h := range hosts {
				for _, sw := range path {
					if h == sw {
						covered = true
					}
				}
			}
			if !covered {
				t.Errorf("instr %d not covered on path %v (hosts %v)", id, path, hosts)
			}
		}
	}
}

func TestFingerprintStability(t *testing.T) {
	solve := func() *Plan {
		in := buildInput(t, subst(lbSrc, "1024", "1024"), lbScope, topo.Testbed())
		plan, err := Solve(in, DefaultOptions())
		if err != nil {
			t.Fatalf("solve: %v", err)
		}
		return plan
	}
	a, b := solve(), solve()
	fa, fb := a.Fingerprints(), b.Fingerprints()
	if len(fa) == 0 {
		t.Fatal("no fingerprints")
	}
	for sw, fp := range fa {
		if fb[sw] != fp {
			t.Errorf("fingerprint for %s differs across identical solves", sw)
		}
	}
}
