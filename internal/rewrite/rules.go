package rewrite

import (
	"lyra/internal/ir"
)

// rule is one local rewrite. apply returns zero or more rewritten deep clones
// of p (the input is never mutated); the search normalizes and fingerprints
// every candidate. Rules must be deterministic: the same input program yields
// the same candidates in the same order.
type rule interface {
	name() string
	apply(p *ir.Program) []*ir.Program
}

// library is the rule library in application order: the three rules that
// win a search (EXPERIMENTS E28, E29). None is the inverse of another, so no
// chain undoes its own step. Every rule returns fresh clones; the
// equivalence argument for each is stated on the rule. All rules iterate
// algorithms and instructions in program order, so candidate order is
// deterministic.
var library = []rule{mergeGatewayRule{}, reorderGuardRule{}, reshapeASAPRule{}}

// guardHasPrefix reports whether g starts with the terms of prefix.
func guardHasPrefix(g, prefix ir.Guard) bool {
	if len(g) < len(prefix) {
		return false
	}
	for i, t := range prefix {
		if g[i].Var != t.Var || g[i].Neg != t.Neg {
			return false
		}
	}
	return true
}

// comparisonShape reports whether in is a comparison of a header field
// against a constant that defines an SSA variable — the shape synth can
// absorb into a table match when the result is only ever used as a guard.
func comparisonShape(in *ir.Instr) *ir.Var {
	v := in.WritesVar()
	if v == nil || in.Op != ir.IBin || !in.BinOp.IsComparison() {
		return nil
	}
	fieldConst := (in.Args[0].Kind == ir.OpdField && in.Args[1].Kind == ir.OpdConst) ||
		(in.Args[1].Kind == ir.OpdField && in.Args[0].Kind == ir.OpdConst)
	if !fieldConst {
		return nil
	}
	return v
}

// readersRespectPrefix verifies merge-gateway's hoistability condition: v is never read as a data operand, and every guard that
// tests v carries prefix as its leading terms with v appearing only after
// them. Under these conditions v's value is observable only when prefix
// holds, so computing it unconditionally cannot change any observable
// behavior.
func readersRespectPrefix(a *ir.Algorithm, v *ir.Var, prefix ir.Guard) bool {
	used := false
	for _, j := range a.Instrs {
		for _, arg := range j.Args {
			if arg.Kind == ir.OpdVar && arg.Var == v {
				return false // read as data: hoisting would be observable
			}
		}
		for k, t := range j.Guard {
			if t.Var != v {
				continue
			}
			if k < len(prefix) || !guardHasPrefix(j.Guard, prefix) {
				return false
			}
			used = true
		}
	}
	return used
}

// mergeGatewayRule (table merge): hoists a guarded field-vs-constant
// comparison to unconditional when its result is only read in guards that
// extend the comparison's own guard. The hoisted comparison becomes
// absorbable, so its compute table merges into the gateway tables it feeds
// — the paper's §7.1 NetCache-style multi-field match merge.
//
// Equivalence: the comparison writes one SSA variable and nothing else.
// When its original guard holds, the hoisted instruction computes the same
// value at the same position. When the guard fails, the freshly computed
// value is unobservable: every read site's guard starts with the same
// (failed) prefix, so no reading instruction executes.
type mergeGatewayRule struct{}

func (mergeGatewayRule) name() string { return "merge-gateway" }

func (mergeGatewayRule) apply(p *ir.Program) []*ir.Program {
	var out []*ir.Program
	for ai, a := range p.Algorithms {
		for ii, in := range a.Instrs {
			if len(in.Guard) == 0 {
				continue
			}
			v := comparisonShape(in)
			if v == nil {
				continue
			}
			if !readersRespectPrefix(a, v, in.Guard) {
				continue
			}
			q := p.Clone()
			q.Algorithms[ai].Instrs[ii].Guard = nil
			out = append(out, q)
		}
	}
	return out
}

// reorderGuardRule (predicate-block reorder): re-sorts each algorithm's
// instructions into a dependency-respecting order that keeps same-guard
// instructions adjacent, so synthesis groups them into fewer predicate
// blocks.
//
// Equivalence: the analyzer's dependency edges capture every read-after-
// write, write-after-read, and write-after-write hazard (memory edges
// between mutually exclusive guards are omitted precisely because those
// instruction pairs never both execute). Any topological order of the
// dependency graph therefore executes identically on every packet.
type reorderGuardRule struct{}

func (reorderGuardRule) name() string { return "reorder-guard" }

func (reorderGuardRule) apply(p *ir.Program) []*ir.Program {
	perm, changed := groupedTopoOrder(p)
	if !changed {
		return nil
	}
	return []*ir.Program{permute(p, perm)}
}

// groupedTopoOrder computes, per algorithm, a Kahn topological order that
// prefers continuing the current guard group, breaking ties by original
// position. Returns the permutations and whether any differs from identity.
func groupedTopoOrder(p *ir.Program) ([][]int, bool) {
	perms := make([][]int, len(p.Algorithms))
	changed := false
	for ai, a := range p.Algorithms {
		n := len(a.Instrs)
		indeg := make([]int, n)
		succ := make([][]int, n)
		for i, in := range a.Instrs {
			for _, d := range in.Deps {
				succ[d] = append(succ[d], i)
				indeg[i]++
			}
		}
		ready := make([]bool, n)
		for i := 0; i < n; i++ {
			ready[i] = indeg[i] == 0
		}
		order := make([]int, 0, n)
		done := make([]bool, n)
		lastKey := ""
		for len(order) < n {
			pick := -1
			for i := 0; i < n; i++ {
				if ready[i] && !done[i] && a.Instrs[i].Guard.String() == lastKey {
					pick = i
					break
				}
			}
			if pick < 0 {
				for i := 0; i < n; i++ {
					if ready[i] && !done[i] {
						pick = i
						break
					}
				}
			}
			done[pick] = true
			order = append(order, pick)
			lastKey = a.Instrs[pick].Guard.String()
			for _, s := range succ[pick] {
				indeg[s]--
				if indeg[s] == 0 {
					ready[s] = true
				}
			}
		}
		perms[ai] = order
		for i, o := range order {
			if i != o {
				changed = true
			}
		}
	}
	return perms, changed
}

// reshapeASAPRule (stage reshape): re-sorts each algorithm's instructions
// by as-soon-as-possible dependency depth (ties by original position),
// presenting the placement encoder a schedule whose block structure follows
// dependency levels. Equivalence: same topological-order argument as
// reorderGuardRule.
type reshapeASAPRule struct{}

func (reshapeASAPRule) name() string { return "reshape-asap" }

func (reshapeASAPRule) apply(p *ir.Program) []*ir.Program {
	perms := make([][]int, len(p.Algorithms))
	changed := false
	for ai, a := range p.Algorithms {
		n := len(a.Instrs)
		depth := make([]int, n)
		for i, in := range a.Instrs {
			d := 0
			for _, dep := range in.Deps {
				if depth[dep]+1 > d {
					d = depth[dep] + 1
				}
			}
			depth[i] = d
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		// Stable insertion sort by (depth, original index).
		for i := 1; i < n; i++ {
			for j := i; j > 0; j-- {
				a1, b1 := order[j-1], order[j]
				if depth[a1] > depth[b1] || (depth[a1] == depth[b1] && a1 > b1) {
					order[j-1], order[j] = order[j], order[j-1]
				} else {
					break
				}
			}
		}
		perms[ai] = order
		for i, o := range order {
			if i != o {
				changed = true
			}
		}
	}
	if !changed {
		return nil
	}
	return []*ir.Program{permute(p, perms)}
}

// permute clones p and reorders each algorithm's instructions per the given
// permutation (perm[ai][k] = original index of the instruction now at k).
func permute(p *ir.Program, perms [][]int) *ir.Program {
	q := p.Clone()
	for ai, perm := range perms {
		a := q.Algorithms[ai]
		instrs := make([]*ir.Instr, len(a.Instrs))
		for k, o := range perm {
			instrs[k] = a.Instrs[o]
		}
		a.Instrs = instrs
	}
	return q
}
