package encode

import (
	"context"
	"fmt"
	"sync"
	"time"

	"lyra/internal/smt"
)

// Portfolio solving races several solver configurations per component: the
// canonical incremental fallback-ladder solver (exactly what a sequential
// Solve runs) plus Portfolio−1 seeded racers, each a fresh encoder whose
// VSIDS phases and activities are deterministically perturbed by its seed.
//
// Determinism rules:
//   - The canonical solver is always authoritative when it succeeds — the
//     resulting plan is byte-identical to a non-portfolio solve, and its
//     completion cancels the racers.
//   - Racers are consulted only after the canonical attempt has failed, in
//     ascending seed order; the first successful racer's plan is adopted.
//     Racer outcomes are conflict-budget-driven and each racer is itself
//     deterministic, so adoption is reproducible run to run (wall-clock
//     cancellation can only occur on paths where the canonical result wins
//     anyway).
//   - Every racer's solver statistics fold into the returned plan's Stats,
//     so the extra search work is always attributed.
type raceOut struct {
	plan  *Plan
	stats smt.Stats
	err   error
}

// solvePortfolio wraps solveComponent with opts.Portfolio−1 seeded racers.
func solvePortfolio(ctx context.Context, in *Input, phv *phvIndex, opts *Options, deadline time.Time, label string) (*Plan, time.Duration, time.Duration, error) {
	nRacers := opts.Portfolio - 1
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	outs := make([]raceOut, nRacers)
	var wg sync.WaitGroup
	for i := 0; i < nRacers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = runRacer(raceCtx, in, phv, opts, deadline, uint64(i+1))
		}(i)
	}
	plan, enc, slv, err := solveComponent(ctx, in, phv, opts, deadline, label)
	cancel()
	wg.Wait()

	if err == nil {
		plan.PortfolioRacers = nRacers
		for _, o := range outs {
			plan.Stats.Add(o.stats)
		}
		return plan, enc, slv, nil
	}
	for i, o := range outs {
		if o.err != nil || o.plan == nil {
			continue
		}
		p := o.plan
		if p.Diagnostics == nil {
			p.Diagnostics = &Diagnostics{}
		}
		p.Diagnostics.Degraded = append(p.Diagnostics.Degraded,
			fmt.Sprintf("portfolio: adopted seed-%d racer after canonical failure (%v)", i+1, err))
		p.PortfolioRacers = nRacers
		p.PortfolioAdopted = 1
		for j, o2 := range outs {
			if j != i {
				p.Stats.Add(o2.stats)
			}
		}
		return p, enc, slv, nil
	}
	return nil, enc, slv, err
}

// runRacer encodes the component on a fresh, seed-perturbed solver and runs
// one solve attempt with the initial (unrelaxed) configuration. Racers never
// walk the fallback ladder — relaxation decisions stay with the canonical
// solver so a racer can only ever contribute a plan the strictest
// configuration admits.
func runRacer(ctx context.Context, in *Input, phv *phvIndex, opts *Options, deadline time.Time, seed uint64) raceOut {
	e, err := newEncoder(in, phv)
	if err != nil {
		return raceOut{err: err}
	}
	e.solver.SeedVSIDS(seed)
	if err := e.encode(); err != nil {
		return raceOut{err: err}
	}
	e.solver.NoteEncode()
	cfg := attemptCfg{
		objective:      opts.Objective,
		prefer:         opts.PreferSwitch,
		conflictBudget: opts.ConflictBudget,
		replicate:      opts.ForceReplication,
	}
	p, aerr := solveAttempt(ctx, e, cfg, deadline)
	stats := e.solver.Statistics()
	if aerr != nil {
		return raceOut{stats: stats, err: aerr}
	}
	return raceOut{plan: p, stats: stats}
}
