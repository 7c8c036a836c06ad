package encode

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

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

	// accepted is the placement the last successful derive saw, as indices
	// into placeVars: a Check of the same placement — the final model's, after
	// a solve — accepts it again without re-deriving, since derive is
	// deterministic in the placement and its results are still the ones
	// materialized above. current is the placement being checked.
	accepted, current []int32
	hasAccepted       bool
	// derives counts derive runs.
	derives int

	// Scratch of phvFields: mark[n] == stamp when name n is touched by the
	// switch in hand, and width[n] is the width it was last touched with.
	mark  []uint32
	width []int32
	stamp uint32
}

// Check implements smt.Theory.
func (t *resourceTheory) Check(m *smt.Model) []smt.Lit {
	// 1. Which instructions sit on which switch?
	t.current = t.current[:0]
	for i := range t.e.placeVars {
		if m.Value(t.e.placeVars[i].lit) {
			t.current = append(t.current, int32(i))
		}
	}
	if t.hasAccepted && slices.Equal(t.current, t.accepted) {
		return nil
	}
	placed := map[string]map[string][]int{} // switch -> alg -> instr IDs, ascending
	for _, i := range t.current {
		pv := &t.e.placeVars[i]
		if placed[pv.sw] == nil {
			placed[pv.sw] = map[string][]int{}
		}
		placed[pv.sw][pv.alg] = append(placed[pv.sw][pv.alg], pv.instr)
	}
	conflict := t.derive(placed)
	if conflict == nil {
		t.accepted, t.hasAccepted = append(t.accepted[:0], t.current...), true
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
	t.derives++
	e := t.e
	switches := sortedKeys(placed)

	// 2. Determine per-switch valid tables, extern hosting sets and PHV
	// demand.
	valid := map[string][]*synth.Table{} // switch -> tables
	externHosts := map[string][]string{} // extern name -> hosting switches
	externDecl := map[string]*ir.ExternDecl{}
	fields := make([][]int, len(switches))
	for i, sw := range switches {
		model := e.in.Net.Switch(sw).ASIC
		algs := sortedKeys(placed[sw])
		fields[i] = t.phvFields(algs, placed[sw])
		for _, alg := range algs {
			ids := placed[sw][alg]
			for _, tab := range e.synthesized(alg, model.Lang).Tables {
				if !hostsAny(tab, ids) {
					continue // table not valid on this switch (Eq. 4)
				}
				valid[sw] = append(valid[sw], tab)
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
	for i, sw := range switches {
		model := e.in.Net.Switch(sw).ASIC
		spec := t.buildSpec(sw, model, valid[sw], shards, splittable, fields[i], placed[sw])
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
	for i, sw := range switches {
		model := e.in.Net.Switch(sw).ASIC
		spec := t.buildSpec(sw, model, valid[sw], shards, nil, fields[i], placed[sw])
		alloc, err := e.allocate(model, spec)
		if err != nil {
			return &deriveConflict{reason: err.Error(), sw: sw}
		}
		allocations[sw] = alloc
		for _, tab := range valid[sw] {
			entries := tab.Entries()
			idx, count := 0, 1
			if tab.Kind == synth.MatchExtern {
				name := tab.Extern.Name
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
				Table: tab, Entries: entries,
				ShardIndex: idx, ShardCount: count,
			})
		}
	}
	t.allocations, t.placedTables, t.shards = allocations, placedTables, shards
	return nil
}

// hostsAny reports whether the switch hosting instructions ids (ascending)
// hosts any instruction of the table.
func hostsAny(tab *synth.Table, ids []int) bool {
	has := func(in *ir.Instr) bool {
		i := sort.SearchInts(ids, in.ID)
		return i < len(ids) && ids[i] == in.ID
	}
	for _, fp := range tab.FieldPreds {
		if fp.Instr != nil && has(fp.Instr) {
			return true
		}
	}
	for _, a := range tab.Actions {
		for _, in := range a.Instrs {
			if has(in) {
				return true
			}
		}
	}
	return false
}

// buildSpec creates an admission spec. Pass 1 excludes the splittable externs
// (their shards are sized afterwards against leftover capacity); the final
// pass passes none and admits every table at its concrete shard size.
func (t *resourceTheory) buildSpec(sw string, model *asic.Model, tabs []*synth.Table, shards map[string]map[string]int64, splittable map[string]bool, fields []int, placedAlgs map[string][]int) *asic.ProgramSpec {
	return t.spec(model, tabs, func(tb *synth.Table) (int64, bool) {
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
	}, fields, placedAlgs)
}

// allocate admits a program through the chip allocator, once per distinct
// (chip model, program): switches with identical implied programs (PER-SW
// replicas, the ToRs of a pod) share one allocator run, mirroring the paper's
// parallel generation of identical per-switch code (§7.2 "the compilation
// time stays the same"). The memo belongs to the encoder, not to one theory
// check, so across the checks and ladder attempts of a solve only the switches
// whose implied program changed between models are re-admitted. It dies with
// the encoder when the component's solve ends: the class memo keeps the solved
// Template, never the encoder. Allocations are immutable once made.
func (e *encoder) allocate(model *asic.Model, spec *asic.ProgramSpec) (*asic.Allocation, error) {
	e.specKey = appendSpecKey(e.specKey[:0], model, spec)
	if a, ok := e.allocs[string(e.specKey)]; ok {
		return a, nil
	}
	a, err := asic.Allocate(model, spec)
	if err == nil {
		if e.allocs == nil {
			e.allocs = map[string]*asic.Allocation{}
		}
		e.allocs[string(e.specKey)] = a
	}
	return a, err
}

// appendSpecKey renders the memo key of an admission check: the chip model's
// name and everything of the program the allocator reads.
func appendSpecKey(b []byte, model *asic.Model, spec *asic.ProgramSpec) []byte {
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
	return strconv.AppendInt(b, int64(spec.CodePathLen), 10)
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

// spec assembles an asic.ProgramSpec from the valid tables on a switch of the
// given chip, whose PHV demand is fields.
func (t *resourceTheory) spec(model *asic.Model, tabs []*synth.Table, entriesOf func(*synth.Table) (int64, bool), fields []int, placedAlgs map[string][]int) *asic.ProgramSpec {
	spec := &asic.ProgramSpec{Tables: make([]asic.TableSpec, 0, len(tabs))}
	included := make([]*synth.Table, 0, len(tabs))
	ndeps := 0
	for _, tb := range tabs {
		e, ok := entriesOf(tb)
		if !ok {
			continue
		}
		included = append(included, tb)
		ndeps += len(tb.Deps)
		spec.Tables = append(spec.Tables, asic.TableSpec{
			Name:       tb.Name,
			Entries:    e,
			MatchBits:  tb.MatchBits(),
			ActionBits: tb.ActionBits(),
			Actions:    len(tb.Actions),
			Stateful:   tb.Stateful,
		})
	}
	deps := make([]int, 0, ndeps)
	for i, tb := range included {
		start := len(deps)
		for _, d := range tb.Deps {
			if di := slices.Index(included, d); di >= 0 {
				deps = append(deps, di)
			}
		}
		if len(deps) > start {
			spec.Tables[i].Deps = deps[start:len(deps):len(deps)]
		}
	}
	spec.Fields = fields
	spec.ParserEntries = t.parserDemand()
	spec.CodePathLen = t.codePath(model.Lang, placedAlgs)
	return spec
}

// phvIndex numbers the PHV-resident names of a program — header fields
// "hdr.field" and variables "$alg.name.ver", two algorithms' variables being
// two fields even when their names agree — in name order, and lists per
// instruction the names it touches with their widths, in the order phvFields
// visits them. It is built once per Solve, on first use, and shared read-only
// by the encoders of every component.
type phvIndex struct {
	prog  *ir.Program
	once  sync.Once
	names int
	touch map[*ir.Algorithm][][]phvTouch // indexed by instruction ID
}

type phvTouch struct{ name, bits int32 }

// touches returns, per instruction ID of a, the names it touches.
func (x *phvIndex) touches(a *ir.Algorithm) [][]phvTouch {
	x.once.Do(x.build)
	return x.touch[a]
}

func (x *phvIndex) build() {
	type touch struct {
		name string
		bits int
	}
	n := 0
	for _, a := range x.prog.Algorithms {
		for _, in := range a.Instrs {
			n += len(in.Args) + 2 + len(in.Guard)
		}
	}
	all := make([]touch, 0, n)
	ids := map[string]int32{}
	varNames := map[*ir.Var]string{}
	var alg string // the algorithm whose instructions are being indexed
	add := func(name string, bits int) {
		all = append(all, touch{name, bits})
		ids[name] = 0
	}
	addVar := func(v *ir.Var, bits int) {
		name, ok := varNames[v]
		if !ok {
			name = "$" + alg + "." + v.String()
			varNames[v] = name
		}
		add(name, bits)
	}
	type span struct{ start, end int }
	spans := make(map[*ir.Algorithm][]span, len(x.prog.Algorithms))
	for _, a := range x.prog.Algorithms {
		alg = a.Name
		sp := make([]span, len(a.Instrs))
		for _, in := range a.Instrs {
			start := len(all)
			for _, arg := range in.Args {
				switch arg.Kind {
				case ir.OpdField:
					add(arg.Hdr+"."+arg.Field, arg.Bits)
				case ir.OpdVar:
					addVar(arg.Var, maxBits(arg.Var.Bits))
				}
			}
			if in.Dest.Kind == ir.DestField {
				f := in.Dest.Hdr + "." + in.Dest.Field
				add(f, x.prog.FieldBits[f])
			}
			if v := in.WritesVar(); v != nil {
				addVar(v, maxBits(v.Bits))
			}
			for _, g := range in.Guard {
				addVar(g.Var, 1)
			}
			sp[in.ID] = span{start, len(all)}
		}
		spans[a] = sp
	}
	for i, name := range sortedKeys(ids) {
		ids[name] = int32(i)
	}
	touches := make([]phvTouch, len(all))
	for i, tc := range all {
		touches[i] = phvTouch{ids[tc.name], int32(tc.bits)}
	}
	x.names = len(ids)
	x.touch = make(map[*ir.Algorithm][][]phvTouch, len(spans))
	for a, sp := range spans {
		per := make([][]phvTouch, len(sp))
		for id, s := range sp {
			per[id] = touches[s.start:s.end:s.end]
		}
		x.touch[a] = per
	}
}

// phvFields estimates PHV demand: the widths, in name order, of the header
// fields and variables referenced by the instructions placed on the switch
// (placedAlgs, whose keys are algs). A name touched twice keeps the width it
// was touched with last.
func (t *resourceTheory) phvFields(algs []string, placedAlgs map[string][]int) []int {
	x := t.e.phv
	t.stamp++
	n := 0
	for _, alg := range algs {
		touch := x.touches(t.e.in.IR.Algorithm(alg))
		if len(t.mark) < x.names {
			t.mark, t.width = make([]uint32, x.names), make([]int32, x.names)
		}
		for _, id := range placedAlgs[alg] {
			for _, tc := range touch[id] {
				if t.mark[tc.name] != t.stamp {
					t.mark[tc.name] = t.stamp
					n++
				}
				t.width[tc.name] = tc.bits
			}
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for name, m := range t.mark {
		if m == t.stamp {
			out = append(out, int(t.width[name]))
		}
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

// codePath returns the longest dependency chain among placed algorithms (a
// property of the algorithm, whichever language it was synthesized for).
func (t *resourceTheory) codePath(lang asic.Lang, placedAlgs map[string][]int) int {
	best := 0
	for alg := range placedAlgs {
		if r := t.e.synthesized(alg, lang); r.LongestPath > best {
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
	return out
}
