package encode

import (
	"errors"
	"strings"
	"testing"

	"lyra/internal/smt"
	"lyra/internal/topo"
)

func TestLadderEscalatesConflictBudget(t *testing.T) {
	// The 4M-entry conn_table forces table splitting; the solver needs a
	// handful of theory conflicts to find a feasible shard layout, so a
	// budget of 1 fails. The ladder must escalate (x8) and succeed.
	in := buildInput(t, subst(lbSrc, "4000000", "1000000"), lbScope, topo.Testbed())
	opts := DefaultOptions()
	opts.ConflictBudget = 1
	plan, err := Solve(in, opts)
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

func TestLadderExhaustionReportsTrail(t *testing.T) {
	// 40M entries fit nowhere: every rung that applies still fails, and the
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

func TestLadderDisabled(t *testing.T) {
	in := buildInput(t, subst(lbSrc, "4000000", "1000000"), lbScope, topo.Testbed())
	opts := DefaultOptions()
	opts.ConflictBudget = 1
	opts.Ladder = nil
	_, err := Solve(in, opts)
	if !errors.Is(err, smt.ErrConflictBudget) {
		t.Fatalf("err = %v, want raw conflict-budget failure with no ladder", err)
	}
}

func TestRelaxationApplicability(t *testing.T) {
	in := buildInput(t, subst(lbSrc, "1024", "1024"), lbScope, topo.Testbed())
	timeout := smt.ErrTimeout
	conflict := smt.ErrConflictBudget

	cfg := attemptCfg{objective: ObjMinSwitches, conflictBudget: 100}
	if !RelaxObjective.applicable(cfg, timeout, in) {
		t.Error("relax-objective should apply to a timed-out optimizing solve")
	}
	if RelaxObjective.applicable(cfg, ErrInfeasible, in) {
		t.Error("relax-objective cannot fix infeasibility")
	}
	cfgNone := attemptCfg{objective: ObjNone}
	if RelaxObjective.applicable(cfgNone, timeout, in) {
		t.Error("relax-objective needs an objective to drop")
	}

	if !EscalateBudget.applicable(cfg, conflict, in) {
		t.Error("escalate-budget should apply to conflict exhaustion")
	}
	if EscalateBudget.applicable(cfg, timeout, in) {
		t.Error("escalate-budget cannot fix a wall-clock timeout")
	}

	// loadbalancer reads ipv4.dstAddr and writes it: re-execution at a
	// second hop would hash the rewritten address, so it is NOT replicable.
	if RelaxReplication.applicable(cfg, ErrInfeasible, in) {
		t.Error("loadbalancer must not be classified replicable")
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
	cfg := attemptCfg{objective: ObjNone}
	if !RelaxReplication.applicable(cfg, ErrInfeasible, in) {
		t.Error("relax-replication should apply")
	}
	if RelaxReplication.applicable(attemptCfg{replicate: true}, ErrInfeasible, in) {
		t.Error("relax-replication must not apply twice")
	}
	if !strings.Contains(RelaxReplication.describe(cfg, in), "marker") {
		t.Errorf("describe = %q should name the algorithm", RelaxReplication.describe(cfg, in))
	}
}

func TestReplicationSolveStillCoversPaths(t *testing.T) {
	// ForceReplication relaxes exactly-one to at-least-one; every flow path
	// must still execute every instruction at least once.
	in := buildInput(t, statelessSrc,
		"marker: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]",
		topo.Testbed())
	opts := DefaultOptions()
	opts.ForceReplication = true
	plan, err := Solve(in, opts)
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

func TestNextRungConsumesLadder(t *testing.T) {
	in := buildInput(t, subst(lbSrc, "1024", "1024"), lbScope, topo.Testbed())
	cfg := attemptCfg{objective: ObjMinSwitches, conflictBudget: 10}
	rung, rest, ok := nextRung(DefaultLadder(), cfg, smt.ErrConflictBudget, in)
	if !ok || rung != RelaxObjective {
		t.Fatalf("rung = %v ok=%v, want relax-objective", rung, ok)
	}
	rung.apply(&cfg, in)
	// Same failure again: relax-objective is consumed, escalation is next.
	rung, rest, ok = nextRung(rest, cfg, smt.ErrConflictBudget, in)
	if !ok || rung != EscalateBudget {
		t.Fatalf("rung = %v ok=%v, want escalate-budget", rung, ok)
	}
	rung.apply(&cfg, in)
	if cfg.conflictBudget != 80 {
		t.Errorf("budget = %d, want 80", cfg.conflictBudget)
	}
	// Nothing applicable remains for this (non-replicable) program.
	if _, _, ok = nextRung(rest, cfg, smt.ErrConflictBudget, in); ok {
		t.Error("ladder should be exhausted")
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
