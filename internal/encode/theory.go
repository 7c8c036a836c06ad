package encode

import (
	"fmt"
	"os"
	"sort"
	"strconv"

	"lyra/internal/asic"
	"lyra/internal/ir"
	"lyra/internal/scope"
	"lyra/internal/smt"
	"lyra/internal/synth"
)

// resourceTheory is the DPLL(T) resource plugin: it re-derives the table
// set implied by a full boolean placement, splits extern tables across
// their hosting switches, and admits every switch's program through the
// chip allocator. Infeasibility becomes a conflict clause over the true
// placement literals involved (see package comment for the soundness
// discussion).
type resourceTheory struct {
	e *encoder

	// Materialized on the last successful Check.
	allocations  map[string]*asic.Allocation
	placedTables map[string][]*PlacedTable
	shards       map[string]map[string]int64
	lastReason   string
}

// Check implements smt.Theory.
func (t *resourceTheory) Check(m *smt.Model) []smt.Lit {
	// 1. Which instructions sit on which switch?
	placed := map[string]map[string][]int{} // switch -> alg -> instr IDs
	for _, pv := range t.e.placeVars {
		if !m.Value(pv.lit) {
			continue
		}
		if placed[pv.sw] == nil {
			placed[pv.sw] = map[string][]int{}
		}
		placed[pv.sw][pv.alg] = append(placed[pv.sw][pv.alg], pv.instr)
	}
	conflict := t.derive(placed)
	if conflict == nil {
		return nil
	}
	t.lastReason = conflict.reason
	if conflict.path != nil {
		return t.conflictForPath(m, conflict.alg, conflict.path, conflict.extern)
	}
	return t.conflictForSwitch(m, conflict.sw)
}

// deriveConflict names the infeasibility derive hit: either a switch whose
// admission failed (sw) or an extern whose entries do not fit along one flow
// path (alg/path/extern).
type deriveConflict struct {
	reason string
	sw     string
	alg    string
	path   []string
	extern string
}

// derive runs the model-free half of the theory check: from the placement
// map (switch -> alg -> instruction IDs) it determines valid tables, splits
// externs into shards along the flow paths, and admits every switch through
// its chip allocator, materializing the result on the theory when everything
// fits. It is deterministic in its input alone, which is what makes a solved
// component a template for its whole symmetry class (see Template).
func (t *resourceTheory) derive(placed map[string]map[string][]int) *deriveConflict {
	e := t.e
	switches := sortedKeys(placed)

	// 2. Determine per-switch valid tables and extern hosting sets.
	valid := map[string][]*swTable{}     // switch -> tables
	externHosts := map[string][]string{} // extern name -> hosting switches
	externDecl := map[string]*ir.ExternDecl{}
	for _, sw := range switches {
		model := e.in.Net.Switch(sw).ASIC
		for _, alg := range sortedKeys(placed[sw]) {
			ids := placed[sw][alg]
			idSet := map[int]bool{}
			for _, id := range ids {
				idSet[id] = true
			}
			res := e.p4[alg]
			if model.Lang == asic.LangNPL {
				res = e.npl[alg]
			}
			for _, tab := range res.Tables {
				var mine []int
				for _, in := range tab.Instrs() {
					if idSet[in.ID] {
						mine = append(mine, in.ID)
					}
				}
				if len(mine) == 0 {
					continue // table not valid on this switch (Eq. 4)
				}
				valid[sw] = append(valid[sw], &swTable{tab: tab, placedIn: mine})
				if tab.Kind == synth.MatchExtern {
					name := tab.Extern.Name
					externDecl[name] = tab.Extern
					if !containsStr(externHosts[name], sw) {
						externHosts[name] = append(externHosts[name], sw)
					}
				}
			}
		}
	}

	// 3. Resolve extern shard sizes.
	shards := map[string]map[string]int64{} // extern -> switch -> entries
	splittable := map[string]bool{}
	for _, name := range sortedKeys(externHosts) {
		decl := externDecl[name]
		hosts := externHosts[name]
		sort.Strings(hosts)
		algScope := e.in.Scopes[decl.Alg]
		shards[name] = map[string]int64{}
		if algScope.Deploy == scope.PerSwitch || len(hosts) == 1 {
			for _, h := range hosts {
				shards[name][h] = int64(decl.Size)
			}
			continue
		}
		splittable[name] = true
	}

	// 4. First-pass admission with fixed tables only; compute leftover
	// capacity per switch for shard resolution.
	leftoverBlocks := map[string]int64{}
	for _, sw := range switches {
		model := e.in.Net.Switch(sw).ASIC
		spec := t.buildSpec(sw, valid[sw], shards, splittable, placed[sw])
		alloc, err := e.allocate(model, spec)
		if err != nil {
			return &deriveConflict{reason: err.Error(), sw: sw}
		}
		total := int64(model.Stages) * int64(model.SRAMBlocks)
		if model.Stages == 0 {
			total = model.TotalEntryCapacity
		}
		leftoverBlocks[sw] = total - alloc.BlocksUsed
	}

	// 5. Assign shards greedily per flow path (upstream first), bounded by
	// leftover capacity.
	for _, name := range sortedKeys(externHosts) {
		if !splittable[name] {
			continue
		}
		decl := externDecl[name]
		hosts := externHosts[name]
		rowBits := decl.KeyBits() + decl.ValueBits()
		capOf := func(sw string) int64 {
			model := e.in.Net.Switch(sw).ASIC
			if model.Stages == 0 {
				w := int64(model.SRAMBlockWidth)
				if w == 0 {
					w = 80
				}
				rows := (int64(rowBits) + w - 1) / w
				if rows == 0 {
					rows = 1
				}
				return leftoverBlocks[sw] / rows
			}
			return asic.EntriesInBlocks(model, leftoverBlocks[sw], rowBits)
		}
		// Iterate the unique candidate-hop sequences instead of raw paths:
		// hosts are always candidates, so crediting and assignment see the
		// same switches, and a duplicate hop sequence would be a no-op (its
		// demand is already credited).
		for _, p := range e.prep[decl.Alg].hops {
			var need int64 = int64(decl.Size)
			// Credit shards already assigned on this path.
			for _, sw := range p {
				need -= shards[name][sw]
			}
			for _, sw := range p {
				if need <= 0 {
					break
				}
				if !containsStr(hosts, sw) {
					continue
				}
				avail := capOf(sw)
				if avail <= 0 {
					continue
				}
				take := need
				if take > avail {
					take = avail
				}
				shards[name][sw] += take
				model := e.in.Net.Switch(sw).ASIC
				if model.Stages == 0 {
					w := int64(model.SRAMBlockWidth)
					if w == 0 {
						w = 80
					}
					rows := (int64(rowBits) + w - 1) / w
					if rows == 0 {
						rows = 1
					}
					leftoverBlocks[sw] -= take * rows
				} else {
					leftoverBlocks[sw] -= model.MemoryBlocksFor(take, rowBits)
				}
				need -= take
			}
			if need > 0 {
				return &deriveConflict{
					reason: fmt.Sprintf("extern %s: %d entries do not fit along path %v", name, need, p),
					alg:    decl.Alg, path: p, extern: name,
				}
			}
		}
		// Hosts that received no shard still run the lookup against an
		// empty shard; give them a minimal shard of 1 so the generated
		// table exists.
		for _, h := range hosts {
			if shards[name][h] == 0 {
				shards[name][h] = 1
			}
		}
	}

	// 6. Final admission per switch with concrete shard sizes.
	allocations := map[string]*asic.Allocation{}
	placedTables := map[string][]*PlacedTable{}
	for _, sw := range switches {
		model := e.in.Net.Switch(sw).ASIC
		spec := t.buildSpec(sw, valid[sw], shards, nil, placed[sw])
		alloc, err := e.allocate(model, spec)
		if err != nil {
			return &deriveConflict{reason: err.Error(), sw: sw}
		}
		allocations[sw] = alloc
		for _, st := range valid[sw] {
			entries := st.tab.Entries()
			idx, count := 0, 1
			if st.tab.Kind == synth.MatchExtern {
				name := st.tab.Extern.Name
				entries = shards[name][sw]
				hosts := externHosts[name]
				sort.Strings(hosts)
				count = len(hosts)
				for i, h := range hosts {
					if h == sw {
						idx = i
					}
				}
			}
			placedTables[sw] = append(placedTables[sw], &PlacedTable{
				Table: st.tab, Entries: entries,
				ShardIndex: idx, ShardCount: count,
			})
		}
	}
	t.allocations, t.placedTables, t.shards = allocations, placedTables, shards
	return nil
}

// swTable pairs a conditional table with the instructions of it that the
// model placed on one switch.
type swTable struct {
	tab      *synth.Table
	placedIn []int
}

// buildSpec creates an admission spec. Pass 1 excludes the splittable externs
// (their shards are sized afterwards against leftover capacity); the final
// pass passes none and admits every table at its concrete shard size.
func (t *resourceTheory) buildSpec(sw string, tabs []*swTable, shards map[string]map[string]int64, splittable map[string]bool, placedAlgs map[string][]int) *asic.ProgramSpec {
	return t.spec(sw, tabs, func(tb *synth.Table) (int64, bool) {
		if tb.Kind == synth.MatchExtern {
			name := tb.Extern.Name
			if splittable[name] {
				return 0, false // sized in pass 2
			}
			if sh := shards[name][sw]; sh > 0 {
				return sh, true
			}
		}
		return tb.Entries(), true
	}, placedAlgs)
}

// allocate admits a program through the chip allocator, once per distinct
// (chip model, program): switches with identical implied programs (PER-SW
// replicas, the ToRs of a pod) share one allocator run, mirroring the paper's
// parallel generation of identical per-switch code (§7.2 "the compilation
// time stays the same"). The memo belongs to the encoder, not to one theory
// check, so across the checks and ladder attempts of a solve only the switches
// whose implied program changed between models are re-admitted; it is dropped
// when the solver is parked in the cache (Cache.put), so a parked solver pins
// no allocation its last plan does not use. Allocations are immutable once
// made.
func (e *encoder) allocate(model *asic.Model, spec *asic.ProgramSpec) (*asic.Allocation, error) {
	key := specKey(model, spec)
	if a, ok := e.allocs[key]; ok {
		return a, nil
	}
	a, err := asic.Allocate(model, spec)
	if err == nil {
		if e.allocs == nil {
			e.allocs = map[string]*asic.Allocation{}
		}
		e.allocs[key] = a
	}
	return a, err
}

// specKey is the memo key of an admission check: the chip model's name and
// everything of the program the allocator reads.
func specKey(model *asic.Model, spec *asic.ProgramSpec) string {
	b := make([]byte, 0, 64+48*len(spec.Tables)+4*len(spec.Fields))
	b = append(b, model.Name...)
	for _, ts := range spec.Tables {
		b = append(b, '|')
		b = append(b, ts.Name...)
		for _, n := range [...]int64{ts.Entries, int64(ts.MatchBits), int64(ts.ActionBits), int64(ts.Actions)} {
			b = append(b, ':')
			b = strconv.AppendInt(b, n, 10)
		}
		b = append(b, ':')
		b = strconv.AppendBool(b, ts.Stateful)
		b = append(b, ':')
		b = appendInts(b, ts.Deps)
	}
	b = append(b, '#')
	b = appendInts(b, spec.Fields)
	b = append(b, '#')
	b = strconv.AppendInt(b, int64(spec.ParserEntries), 10)
	b = append(b, '#')
	b = strconv.AppendInt(b, int64(spec.CodePathLen), 10)
	return string(b)
}

// appendInts renders xs the way fmt's %v does: "[1 2 3]".
func appendInts(b []byte, xs []int) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// spec assembles an asic.ProgramSpec from the valid tables on a switch.
func (t *resourceTheory) spec(sw string, tabs []*swTable, entriesOf func(*synth.Table) (int64, bool), placedAlgs map[string][]int) *asic.ProgramSpec {
	spec := &asic.ProgramSpec{}
	index := map[*synth.Table]int{}
	var included []*synth.Table
	for _, st := range tabs {
		e, ok := entriesOf(st.tab)
		if !ok {
			continue
		}
		index[st.tab] = len(spec.Tables)
		included = append(included, st.tab)
		spec.Tables = append(spec.Tables, asic.TableSpec{
			Name:       st.tab.Name,
			Entries:    e,
			MatchBits:  st.tab.MatchBits(),
			ActionBits: st.tab.ActionBits(),
			Actions:    len(st.tab.Actions),
			Stateful:   st.tab.Stateful,
		})
	}
	for i, tb := range included {
		for _, d := range tb.Deps {
			if di, ok := index[d]; ok {
				spec.Tables[i].Deps = append(spec.Tables[i].Deps, di)
			}
		}
	}
	spec.Fields = t.phvFields(sw, placedAlgs)
	spec.ParserEntries = t.parserDemand()
	spec.CodePathLen = t.codePath(placedAlgs)
	return spec
}

// phvFields estimates PHV demand: header fields and variables referenced by
// the instructions placed on the switch.
func (t *resourceTheory) phvFields(sw string, placedAlgs map[string][]int) []int {
	seen := map[string]int{}
	for alg, ids := range placedAlgs {
		a := t.e.in.IR.Algorithm(alg)
		idSet := map[int]bool{}
		for _, id := range ids {
			idSet[id] = true
		}
		for _, in := range a.Instrs {
			if !idSet[in.ID] {
				continue
			}
			for _, arg := range in.Args {
				switch arg.Kind {
				case ir.OpdField:
					seen[arg.Hdr+"."+arg.Field] = arg.Bits
				case ir.OpdVar:
					seen["$"+arg.Var.String()] = maxBits(arg.Var.Bits)
				}
			}
			if in.Dest.Kind == ir.DestField {
				f := in.Dest.Hdr + "." + in.Dest.Field
				seen[f] = t.e.in.IR.FieldBits[f]
			}
			if v := in.WritesVar(); v != nil {
				seen["$"+v.String()] = maxBits(v.Bits)
			}
			for _, g := range in.Guard {
				seen["$"+g.Var.String()] = 1
			}
		}
	}
	var out []int
	for _, name := range sortedKeys(seen) {
		out = append(out, seen[name])
	}
	return out
}

// parserDemand estimates parser TCAM entries from the program's parse graph
// (one entry per select case plus one per node).
func (t *resourceTheory) parserDemand() int {
	n := 0
	for _, pn := range t.e.in.IR.Source.Parsers {
		n++
		if pn.Select != nil {
			n += len(pn.Select.Cases)
		}
	}
	return n
}

// codePath returns the longest dependency chain among placed algorithms.
func (t *resourceTheory) codePath(placedAlgs map[string][]int) int {
	best := 0
	for alg := range placedAlgs {
		if r := t.e.npl[alg]; r != nil && r.LongestPath > best {
			best = r.LongestPath
		}
	}
	return best
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func containsStr(xs []string, v string) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// conflictForSwitch returns a clause forbidding the exact placement set on
// one switch.
func (t *resourceTheory) conflictForSwitch(m *smt.Model, sw string) []smt.Lit {
	var out []smt.Lit
	for _, pv := range t.e.placeVars {
		if pv.sw == sw && m.Value(pv.lit) {
			out = append(out, pv.lit.Not())
		}
	}
	if os.Getenv("LYRA_DEBUG") != "" {
		fmt.Println("SWITCH CONFLICT:", t.lastReason)
		for _, l := range out {
			fmt.Println("   ", t.e.solver.Name(l))
		}
	}
	return out
}

// conflictForPath explains a capacity shortfall for one extern along one
// path: either an additional switch on the path must host the extern's
// readers (positive literals for currently-unplaced reader placements), or
// one of the current placements on the path must move (negated true
// literals). Both polarities are falsified by the current assignment, so
// the clause is a valid lemma, and it keeps the "add another shard host"
// repair reachable.
func (t *resourceTheory) conflictForPath(m *smt.Model, alg string, path []string, extern string) []smt.Lit {
	onPath := map[string]bool{}
	for _, sw := range path {
		onPath[sw] = true
	}
	readers := map[int]bool{}
	if a := t.e.in.IR.Algorithm(alg); a != nil {
		for _, in := range a.Instrs {
			if (in.Op == ir.IMember || in.Op == ir.ILookup) && in.Table == extern {
				readers[in.ID] = true
			}
		}
	}
	var out []smt.Lit
	for _, pv := range t.e.placeVars {
		if !onPath[pv.sw] {
			continue
		}
		switch {
		case m.Value(pv.lit):
			out = append(out, pv.lit.Not())
		case pv.alg == alg && readers[pv.instr]:
			out = append(out, pv.lit)
		}
	}
	if os.Getenv("LYRA_DEBUG") != "" {
		fmt.Println("PATH CONFLICT:", t.lastReason)
		for _, l := range out {
			fmt.Println("   ", t.e.solver.Name(l))
		}
	}
	return out
}
