package encode

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"

	"lyra/internal/scope"
)

// Symmetry-aware solving. A datacenter network is massively symmetric: the
// pods of a fat tree are switch-renamings of one another, so after the scope
// split (partition.go) the placement problem decomposes into many components
// that differ only in switch names. Solving each of them is redundant work —
// the CDCL search of two isomorphic instances visits the same states in the
// same order and lands on the same model, modulo the renaming.
//
// canonicalFingerprint renders a component with its switches replaced by
// indices into the sorted switch union, so two isomorphic components hash
// identically. Algorithm and extern names stay literal: the resource theory
// orders shard assignment by extern name (sortedKeys), so only same-named
// algorithms — scope-split twins — may share a class, and within a class the
// literal names make every name-ordered iteration congruent.
//
// Replay is byte-identical to solving the twin directly. The bijection maps
// the i-th switch of the representative's sorted union to the i-th of the
// twin's, which is monotonic: sorted host lists stay sorted under renaming,
// so every name-sorted loop in plan extraction and the theory walks both
// components in the same order. The twin's plan is then the representative's
// placement renamed, with tables, shards, allocations, and bridges re-derived
// from the twin's own synthesis — *synth.Table pointers are never shared
// across components.
func canonicalFingerprint(c *Component) (string, bool) {
	in := c.In
	set := map[string]int{}
	var union []string
	for _, a := range in.IR.Algorithms {
		rs := in.Scopes[a.Name]
		if rs == nil {
			return "", false
		}
		for _, sw := range rs.Switches {
			if _, ok := set[sw]; !ok {
				set[sw] = 0
				union = append(union, sw)
			}
		}
	}
	if len(union) == 0 {
		return "", false
	}
	sort.Strings(union)
	for i, sw := range union {
		set[sw] = i
	}

	h := sha256.New()
	for _, a := range in.IR.Algorithms {
		rs := in.Scopes[a.Name]
		fmt.Fprintf(h, "alg %s deploy=%d sw=", a.Name, rs.Deploy)
		for _, sw := range rs.Switches {
			fmt.Fprintf(h, "%d,", set[sw])
		}
		if rs.Deploy == scope.MultiSwitch {
			ok := true
			err := rs.EachPath(func(p []string) bool {
				for _, sw := range p {
					j, known := set[sw]
					if !known {
						ok = false
						return false
					}
					fmt.Fprintf(h, "%d.", j)
				}
				h.Write([]byte{';'})
				return true
			})
			if err != nil || !ok {
				return "", false
			}
		}
		h.Write([]byte{'\n'})
	}
	for _, sw := range union {
		s := in.Net.Switch(sw)
		if s == nil || s.ASIC == nil {
			return "", false
		}
		// %+v covers every capacity fact the theory consults; equal renders
		// imply equal admission behavior. (The ExtraCheck hook renders as a
		// function address: registry models share pointers, so equal chips
		// compare equal, and a custom hook conservatively blocks dedup.)
		fmt.Fprintf(h, "asic %+v\n", *s.ASIC)
	}
	return string(h.Sum(nil)), true
}

// scopeUnion returns the sorted union of an input's scope switches.
func scopeUnion(in *Input) []string {
	seen := map[string]bool{}
	var union []string
	for _, a := range in.IR.Algorithms {
		rs := in.Scopes[a.Name]
		if rs == nil {
			continue
		}
		for _, sw := range rs.Switches {
			if !seen[sw] {
				seen[sw] = true
				union = append(union, sw)
			}
		}
	}
	sort.Strings(union)
	return union
}

// twinKey is the exact content key of a twin component: its symmetry class
// (the canonical fingerprint — algorithms, index-renamed scopes and paths, the
// chip model behind every index), the concrete switches the indices stand
// for, and the rendered options that shape a plan. Replay is byte-identical
// to solving the twin directly, and a direct solve is a function of exactly
// this content, so a plan memoised under the key is the plan any later solve
// of the same content would be given.
func twinKey(classFP string, in *Input, optsKey string) string {
	return "twin\x00" + optsKey + "\x00" + classFP + "\x00" + strings.Join(scopeUnion(in), ",")
}

// replayComponent transplants a representative component's solved placement
// onto an isomorphic twin: placements are renamed through the index-aligned
// switch bijection and the twin's tables, shards, allocations, and bridges
// are re-derived by the resource theory from the twin's own synthesis. Any
// failure (which the isomorphism argument rules out) is returned so the
// caller can fall back to a direct solve. The plan carries no Input: it is
// memoised across compiles and must not pin this compile's network.
func replayComponent(twin, rep *Input, repPlan *Plan) (*Plan, error) {
	tu, ru := scopeUnion(twin), scopeUnion(rep)
	if len(tu) != len(ru) {
		return nil, fmt.Errorf("encode: replay: scope size mismatch (%d vs %d switches)", len(tu), len(ru))
	}
	swMap := make(map[string]string, len(ru))
	for i, sw := range ru {
		swMap[sw] = tu[i]
	}

	e, err := newEncoder(twin)
	if err != nil {
		return nil, err
	}
	if err := e.prepare(); err != nil {
		return nil, err
	}

	placement := make(map[string]map[int][]string, len(repPlan.Placement))
	placed := map[string]map[string][]int{} // switch -> alg -> instr IDs
	for alg, m := range repPlan.Placement {
		pm := make(map[int][]string, len(m))
		for id, hosts := range m {
			renamed := make([]string, len(hosts))
			for k, h := range hosts {
				t, ok := swMap[h]
				if !ok {
					return nil, fmt.Errorf("encode: replay: host %q outside representative scope", h)
				}
				renamed[k] = t
			}
			pm[id] = renamed
			for _, t := range renamed {
				if placed[t] == nil {
					placed[t] = map[string][]int{}
				}
				placed[t][alg] = append(placed[t][alg], id)
			}
		}
		placement[alg] = pm
	}

	th := newResourceTheory(e)
	out, conflict := th.derive(placed)
	if conflict != nil {
		return nil, fmt.Errorf("encode: replay: %s", conflict.reason)
	}
	plan := &Plan{
		Placement:   placement,
		Tables:      out.placedTables,
		Bridges:     map[string][]BridgeVar{},
		Allocations: out.allocations,
		Shards:      out.shards,
		Diagnostics: &Diagnostics{},
	}
	e.computeBridges(plan)
	plan.PathsEnumerated, plan.PeakPathsHeld = e.pathMetrics()
	return plan, nil
}
