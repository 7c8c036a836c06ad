package encode

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"lyra/internal/ir"
	"lyra/internal/scope"
	"lyra/internal/smt"
)

// conflictBudget bounds the conflicts of a component's first solve attempt.
const conflictBudget = 2_000_000

// fallback is the one policy a failed attempt meets. A component that ran out
// of conflicts is retried once with eight times the budget, objective kept;
// one that is infeasible, or out of conflicts again, is retried once with
// exactly-one placement relaxed to coverage for its replicable algorithms
// (replicableAlgs), if it has any. Escalation comes only before replication. A
// timeout or any other error ends the solve: every attempt shares the
// compile's context, so no retry under it can finish. fallback applies the
// concession to cfg and returns the trail step naming it and what it gives
// up, or "" when nothing follows.
func fallback(cfg *attemptCfg, err error, replicable map[string]bool) (step, concession string) {
	budget := errors.Is(err, smt.ErrConflictBudget)
	switch {
	case cfg.replicate: // nothing is left to give up
	case budget && !cfg.escalated:
		concession = fmt.Sprintf("conflict budget escalated %d -> %d", cfg.conflictBudget, cfg.conflictBudget*8)
		cfg.conflictBudget *= 8
		cfg.escalated = true
		return "escalate-budget", concession
	case (budget || errors.Is(err, ErrInfeasible)) && len(replicable) > 0:
		cfg.replicate = true
		return "relax-replication", fmt.Sprintf("exactly-one placement relaxed to coverage for %s: instructions may execute at multiple hops",
			strings.Join(sortedKeys(replicable), ","))
	}
	return "", ""
}

// replicableAlgs returns the MULTI-SW algorithms whose instructions are
// safe to re-execute at multiple hops along a path: no switch-local state
// (globals), no environment reads (library calls differ per switch), no
// control-plane writes, and no instruction reading a header field the
// algorithm also writes (re-execution downstream would observe the
// modified value and diverge).
func replicableAlgs(in *Input) map[string]bool {
	out := map[string]bool{}
	for _, a := range in.IR.Algorithms {
		rs := in.Scopes[a.Name]
		if rs == nil || rs.Deploy != scope.MultiSwitch {
			continue
		}
		if replicable(a) {
			out[a.Name] = true
		}
	}
	return out
}

func replicable(a *ir.Algorithm) bool {
	written := map[string]bool{}
	for _, in := range a.Instrs {
		switch in.Op {
		case ir.IGlobalRead, ir.IGlobalWrite, ir.ILib, ir.IExternInsert:
			return false
		}
		if in.Dest.Kind == ir.DestField {
			written[in.Dest.Hdr+"."+in.Dest.Field] = true
		}
	}
	for _, in := range a.Instrs {
		for _, arg := range in.Args {
			if arg.Kind == ir.OpdField && written[arg.Hdr+"."+arg.Field] {
				return false
			}
		}
	}
	return true
}

// Attempt records one solve attempt of a component.
type Attempt struct {
	// Component names the partition component this attempt solved ("" when
	// the problem was not split).
	Component string
	// Step is "initial" or the concession that preceded this attempt
	// ("escalate-budget" or "relax-replication").
	Step           string
	Objective      Objective
	ConflictBudget int64
	Replication    bool
	// Outcome is "sat", "infeasible", "timeout", "conflict-budget", or
	// "error".
	Outcome  string
	Err      string
	Duration time.Duration
	// Core names the violated constraint families (the minimized failed-
	// assumption unsat core) when the attempt was infeasible.
	Core []string
}

// Diagnostics is the structured degradation trail of a solve: every
// attempt made and every concession granted, in order, so a caller (or an
// operator reading logs) knows exactly what a returned plan gave up.
type Diagnostics struct {
	Attempts []Attempt
	// Degraded lists, in the order they were granted, human-readable
	// descriptions of each concession that was applied.
	Degraded []string
}

func (d *Diagnostics) record(component, step string, cfg attemptCfg, err error, dur time.Duration, core []string) {
	a := Attempt{
		Component:      component,
		Step:           step,
		Objective:      cfg.objective,
		ConflictBudget: cfg.conflictBudget,
		Replication:    cfg.replicate,
		Outcome:        outcomeOf(err),
		Duration:       dur,
		Core:           core,
	}
	if err != nil {
		a.Err = err.Error()
	}
	d.Attempts = append(d.Attempts, a)
}

// FellBack reports whether the plan required any concession.
func (d *Diagnostics) FellBack() bool { return d != nil && len(d.Degraded) > 0 }

// UnsatCore returns the named unsat core of the most recent infeasible
// attempt, or nil if every attempt had a verdict other than infeasible (or
// the contradiction was rooted in permanent clauses and has no named
// groups).
func (d *Diagnostics) UnsatCore() []string {
	if d == nil {
		return nil
	}
	for i := len(d.Attempts) - 1; i >= 0; i-- {
		if len(d.Attempts[i].Core) > 0 {
			return d.Attempts[i].Core
		}
	}
	return nil
}

// Summary renders the trail compactly: "initial:conflict-budget -> escalate-budget:sat".
// Attempts from a split solve are prefixed with their component label.
func (d *Diagnostics) Summary() string {
	if d == nil || len(d.Attempts) == 0 {
		return "no attempts"
	}
	parts := make([]string, len(d.Attempts))
	for i, a := range d.Attempts {
		parts[i] = a.Step + ":" + a.Outcome
		if a.Component != "" {
			parts[i] = a.Component + "/" + parts[i]
		}
	}
	return strings.Join(parts, " -> ")
}

// String renders the full trail in a stable, operator-readable form: the
// attempt summary on the first line, then one indented line per concession
// granted. It is the canonical CLI representation of a degraded solve.
func (d *Diagnostics) String() string {
	if d == nil || len(d.Attempts) == 0 {
		return "no solve attempts"
	}
	var b strings.Builder
	b.WriteString(d.Summary())
	for _, deg := range d.Degraded {
		b.WriteString("\n  concession: ")
		b.WriteString(deg)
	}
	if core := d.UnsatCore(); len(core) > 0 {
		b.WriteString("\n  unsat core: ")
		b.WriteString(strings.Join(core, ", "))
	}
	return b.String()
}

func outcomeOf(err error) string {
	switch {
	case err == nil:
		return "sat"
	case errors.Is(err, smt.ErrTimeout):
		return "timeout"
	case errors.Is(err, smt.ErrConflictBudget):
		return "conflict-budget"
	case errors.Is(err, ErrInfeasible):
		return "infeasible"
	}
	return "error"
}

func (o Objective) String() string {
	switch o {
	case ObjNone:
		return "none"
	case ObjMinPlacements:
		return "min-placements"
	case ObjMinSwitches:
		return "min-switches"
	case ObjPreferSwitch:
		return "prefer-switch"
	}
	return fmt.Sprintf("objective(%d)", int(o))
}
