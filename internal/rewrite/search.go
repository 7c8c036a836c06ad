package rewrite

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"lyra/internal/encode"
	"lyra/internal/ir"
	"lyra/internal/scope"
	"lyra/internal/synth"
	"lyra/internal/topo"
)

// node is one program variant in the search frontier.
type node struct {
	prog  *ir.Program
	fp    string
	stat  staticCost
	rules []string // rule chain from the base program

	plan *encode.Plan // set once solved feasible
	cost Cost
}

// Search explores semantics-preserving rewrites of base and returns the
// best certified variant (or base itself) plus a full report. The returned
// program is base exactly when no candidate both beat the base cost and
// passed certification; the caller then proceeds with its normal pipeline
// on whichever program comes back. Every solve, the base program's
// included, runs under the enclosing compile's objective and worker bound.
//
// The walk is deterministic for a fixed seed: rules apply in library order
// over the frontier in insertion order, candidates dedupe by canonical
// fingerprint, the beam ranks by (static cost, fingerprint), and solved
// survivors rank by (solved cost, fingerprint).
//
// Search never fails the compile: on an unsolvable base or a cancelled
// context it returns base with the condition in Report.Note.
func Search(ctx context.Context, base *ir.Program, net *topo.Network, scopes map[string]*scope.Resolved, o Options, obj encode.Objective, parallelism int) (*ir.Program, *Report) {
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	return search(ctx, base, net, scopes, seed, obj, parallelism, library)
}

// search is Search over the given rule list; tests pass broken rules here.
func search(ctx context.Context, base *ir.Program, net *topo.Network, scopes map[string]*scope.Resolved, seed int64, obj encode.Objective, parallelism int, rules []rule) (*ir.Program, *Report) {
	rep := &Report{BaseFingerprint: Fingerprint(base)}
	rep.WinnerFingerprint = rep.BaseFingerprint
	if ctx == nil {
		ctx = context.Background()
	}

	solve := func(p *ir.Program) (*encode.Plan, error) {
		sctx, cancel := context.WithTimeout(ctx, solveBudget)
		defer cancel()
		opts := encode.DefaultOptions()
		opts.Objective = obj
		opts.Ctx = sctx
		opts.Parallelism = parallelism
		return encode.Solve(&encode.Input{IR: p, Net: net, Scopes: scopes}, opts)
	}

	basePlan, err := solve(base)
	if err != nil {
		rep.Note = fmt.Sprintf("base program did not solve (%v); search skipped", err)
		return base, rep
	}
	rep.BaseCost = solvedCost(basePlan, synth.Summarize(base))
	rep.BestCost = rep.BaseCost

	seen := map[string]bool{rep.BaseFingerprint: true}
	frontier := []*node{{prog: base, fp: rep.BaseFingerprint, stat: staticCostOf(base)}}
	var evaluated []*node

	for depth := 1; depth <= maxDepth && len(frontier) > 0; depth++ {
		if ctx.Err() != nil {
			rep.Note = "search cancelled: " + ctx.Err().Error()
			break
		}
		var gen []*node
		for _, nd := range frontier {
			for _, r := range rules {
				for _, q := range r.apply(nd.prog) {
					rep.Explored++
					Normalize(q)
					fp := Fingerprint(q)
					if seen[fp] {
						rep.Deduped++
						continue
					}
					seen[fp] = true
					chain := append(append([]string(nil), nd.rules...), r.name())
					gen = append(gen, &node{prog: q, fp: fp, stat: staticCostOf(q), rules: chain})
				}
			}
		}
		sort.SliceStable(gen, func(i, j int) bool {
			if gen[i].stat != gen[j].stat {
				return gen[i].stat.less(gen[j].stat)
			}
			return gen[i].fp < gen[j].fp
		})
		if len(gen) > beamWidth {
			rep.Pruned += len(gen) - beamWidth
			gen = gen[:beamWidth]
		}
		for _, nd := range gen {
			if rep.Solved >= maxCandidates {
				rep.Pruned++
				continue
			}
			if ctx.Err() != nil {
				break
			}
			plan, err := solve(nd.prog)
			rep.Solved++
			if err != nil {
				rep.Infeasible++
				continue
			}
			nd.plan = plan
			nd.cost = solvedCost(plan, synth.Summarize(nd.prog))
			evaluated = append(evaluated, nd)
		}
		// Infeasible and unsolved beam survivors still seed the next depth:
		// a variant that cannot place on its own may rewrite further into
		// one that can.
		frontier = gen
		if rep.Solved >= maxCandidates {
			break
		}
	}

	sort.SliceStable(evaluated, func(i, j int) bool {
		if evaluated[i].cost != evaluated[j].cost {
			return evaluated[i].cost.Less(evaluated[j].cost)
		}
		return evaluated[i].fp < evaluated[j].fp
	})

	winner := base
	for _, nd := range evaluated {
		if !nd.cost.Less(rep.BaseCost) {
			break // sorted: nothing further beats base either
		}
		rep.CertifyAttempts++
		if err := certify(base, nd.prog, nd.plan, seed); err != nil {
			rep.Rejected++
			if rep.RejectionDetail == "" {
				rep.RejectionDetail = fmt.Sprintf("rule chain [%s]: %v", strings.Join(nd.rules, " "), err)
			}
			continue
		}
		rep.Improved = true
		rep.Applied = nd.rules
		rep.BestCost = nd.cost
		rep.WinnerFingerprint = nd.fp
		winner = nd.prog
		break
	}
	return winner, rep
}
