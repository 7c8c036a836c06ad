package encode

import (
	"bytes"
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
//
// It works on the encoder's dense indices — a switch is its index in the
// component's numbering, an algorithm or an extern its index in name order —
// and visits them in ascending order, so what it decides depends on indices,
// never on switch names.
// A check fills scratch sized once per encoder and builds no map; what it
// hands on is written only when it accepts, and why it rejected is kept as
// data until a diagnostic asks.
type resourceTheory struct {
	e *encoder
	// sws and ext hold, per switch and per extern index, the scratch of a
	// derive and the output of the last accepted one.
	sws []switchUse
	ext []externUse
	// conflict is what the last rejected derive ran into; see reason.
	conflict deriveConflict

	// accepted is the placement the last successful derive saw, as indices
	// into placeVars: a Check of the same placement — the final model's, after
	// a solve — accepts it again without re-deriving, since derive is
	// deterministic in the placement and its results are still the ones
	// written above. current is the placement being checked.
	accepted, current []int32
	hasAccepted       bool
	// derives counts derive runs.
	derives int

	// Scratch of derive: the instruction IDs placed on switch sw by algorithm
	// a at ids[sw*len(algs)+a], ascending; the switches hosting anything,
	// ascending; and the one admission spec every Allocate call is handed
	// (Allocate keeps nothing of it), with its tables and their dependencies.
	ids      [][]int
	hosting  []int32
	spec     asic.ProgramSpec
	included []*synth.Table
	deps     []int
	// parser is the parser TCAM demand, the same on every switch.
	parser int

	// Scratch of phvFields: mark[n] == stamp when name n is touched by the
	// switch in hand, and width[n] is the width it was last touched with.
	mark  []uint32
	width []int32
	stamp uint32
}

// switchUse is one switch to a derive: its valid tables, PHV demand, leftover
// blocks and final admission, and whether it is on the path conflictForPath
// explains; and the tables and allocation of the last accepted derive (nil
// where it hosts nothing).
type switchUse struct {
	valid    []*synth.Table
	fields   []int
	left     int64
	admitted *asic.Allocation
	onPath   bool
	tables   []*PlacedTable
	alloc    *asic.Allocation
}

// externUse is one extern to a derive: the switches hosting a table of it,
// ascending, with a mark and a shard size per switch index, and whether its
// entries are split along flow paths; and its shards in the last accepted
// derive, by ascending switch index (nil where it is placed nowhere). decl,
// prep (its algorithm's) and multi (that algorithm is MULTI-SW) are fixed.
type externUse struct {
	decl   *ir.ExternDecl
	prep   *algPrep
	multi  bool
	hosts  []int32
	host   []bool
	shard  []int64
	split  bool
	shards []indexShard
}

func newTheory(e *encoder) *resourceTheory {
	n := len(e.switches)
	t := &resourceTheory{e: e, sws: make([]switchUse, n), ext: make([]externUse, len(e.externs)),
		ids: make([][]int, n*len(e.algs)), parser: parserDemand(e.in.IR)}
	for x, decl := range e.externs {
		p := e.prep[decl.Alg]
		multi := p != nil && e.in.Scopes[decl.Alg].Deploy == scope.MultiSwitch
		t.ext[x] = externUse{decl: decl, prep: p, multi: multi, host: make([]bool, n), shard: make([]int64, n)}
	}
	return t
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
	if t.derive() {
		t.accepted, t.hasAccepted = append(t.accepted[:0], t.current...), true
		return nil
	}
	if t.conflict.hop != nil {
		return t.conflictForPath(m)
	}
	return t.conflictForSwitch(t.conflict.sw)
}

// deriveConflict is the infeasibility a derive hit: either switch sw's
// admission failed with err, or need entries of extern ext do not fit along
// hop, one of the candidate-hop sequences of the extern's algorithm.
type deriveConflict struct {
	err  error
	sw   int32
	ext  int32
	need int64
	hop  []int32
}

// reason renders the last rejected derive's conflict ("" before any).
func (t *resourceTheory) reason() string {
	c := &t.conflict
	if c.hop == nil {
		if c.err == nil {
			return ""
		}
		return c.err.Error()
	}
	u := &t.ext[c.ext]
	path := make([]string, len(c.hop))
	for i, k := range c.hop {
		path[i] = t.e.switches[u.prep.cands[k]]
	}
	return fmt.Sprintf("extern %s: %d entries do not fit along path %v", u.decl.Name, c.need, path)
}

// use returns the derive scratch of the extern a table matches.
func (t *resourceTheory) use(decl *ir.ExternDecl) *externUse {
	return &t.ext[slices.Index(t.e.externs, decl)]
}

// derive runs the model-free half of the theory check on the placement in
// t.current: it determines valid tables, splits externs into shards along the
// flow paths, and admits every switch through its chip allocator, writing the
// result on the theory when everything fits and the conflict when not. It is
// deterministic in its input alone, which is what makes a solved component a
// template for its whole symmetry class (see Template).
func (t *resourceTheory) derive() bool {
	t.derives++
	e := t.e
	na := len(e.algs)
	for i := range t.ids {
		t.ids[i] = t.ids[i][:0]
	}
	t.hosting = t.hosting[:0]
	for _, i := range t.current {
		pv := &e.placeVars[i]
		at := int(pv.sw)*na + int(pv.alg)
		t.ids[at] = append(t.ids[at], int(pv.instr))
		t.hosting = append(t.hosting, pv.sw)
	}
	slices.Sort(t.hosting)
	t.hosting = slices.Compact(t.hosting)

	// 2. Determine per-switch valid tables, extern hosting sets and PHV
	// demand.
	for x := range t.ext {
		u := &t.ext[x]
		for _, h := range u.hosts {
			u.host[h], u.shard[h] = false, 0
		}
		u.hosts = u.hosts[:0]
	}
	for _, sw := range t.hosting {
		s, lang := &t.sws[sw], e.models[sw].Lang
		s.fields, s.valid = t.phvFields(sw, s.fields[:0]), s.valid[:0]
		for a, p := range e.algs {
			ids := t.ids[int(sw)*na+a]
			if len(ids) == 0 {
				continue
			}
			for _, tab := range e.synthesized(p, lang).Tables {
				if !hostsAny(tab, ids) {
					continue // table not valid on this switch (Eq. 4)
				}
				s.valid = append(s.valid, tab)
				if tab.Kind == synth.MatchExtern {
					if u := t.use(tab.Extern); !u.host[sw] {
						u.host[sw] = true
						u.hosts = append(u.hosts, sw)
					}
				}
			}
		}
	}

	// 3. Resolve extern shard sizes.
	for x := range t.ext {
		u := &t.ext[x]
		if u.split = u.multi && len(u.hosts) > 1; !u.split {
			for _, h := range u.hosts {
				u.shard[h] = int64(u.decl.Size)
			}
		}
	}

	// 4. First-pass admission with fixed tables only; compute leftover
	// capacity per switch for shard resolution.
	for _, sw := range t.hosting {
		model := e.models[sw]
		alloc, err := e.allocate(model, t.buildSpec(sw, model, false))
		if err != nil {
			t.conflict = deriveConflict{err: err, sw: sw}
			return false
		}
		total := int64(model.Stages) * int64(model.SRAMBlocks)
		if model.Stages == 0 {
			total = model.TotalEntryCapacity
		}
		t.sws[sw].left = total - alloc.BlocksUsed
	}

	// 5. Assign shards greedily per flow path (upstream first), bounded by
	// leftover capacity.
	for x := range t.ext {
		u := &t.ext[x]
		if !u.split {
			continue
		}
		rowBits := u.decl.KeyBits() + u.decl.ValueBits()
		// Iterate the unique candidate-hop sequences instead of raw paths:
		// hosts are always candidates, so crediting and assignment see the
		// same switches, and a duplicate hop sequence would be a no-op (its
		// demand is already credited).
		for _, hop := range u.prep.hops {
			need := int64(u.decl.Size)
			// Credit shards already assigned on this path.
			for _, k := range hop {
				need -= u.shard[u.prep.cands[k]]
			}
			for _, k := range hop {
				if need <= 0 {
					break
				}
				sw := u.prep.cands[k]
				if !u.host[sw] {
					continue
				}
				model, left := e.models[sw], &t.sws[sw].left
				var avail int64
				if model.Stages == 0 {
					avail = *left / poolRows(model, rowBits)
				} else {
					avail = asic.EntriesInBlocks(model, *left, rowBits)
				}
				if avail <= 0 {
					continue
				}
				take := min(need, avail)
				u.shard[sw] += take
				if model.Stages == 0 {
					*left -= take * poolRows(model, rowBits)
				} else {
					*left -= model.MemoryBlocksFor(take, rowBits)
				}
				need -= take
			}
			if need > 0 {
				t.conflict = deriveConflict{ext: int32(x), need: need, hop: hop}
				return false
			}
		}
		// Hosts that received no shard still run the lookup against an
		// empty shard; give them a minimal shard of 1 so the generated
		// table exists.
		for _, h := range u.hosts {
			if u.shard[h] == 0 {
				u.shard[h] = 1
			}
		}
	}

	// 6. Final admission per switch with concrete shard sizes.
	for _, sw := range t.hosting {
		model := e.models[sw]
		alloc, err := e.allocate(model, t.buildSpec(sw, model, true))
		if err != nil {
			t.conflict = deriveConflict{err: err, sw: sw}
			return false
		}
		t.sws[sw].admitted = alloc
	}
	t.accept()
	return true
}

// accept writes the output of the derive that just fitted over the last
// accepted one. Table and shard lists are new each time: a template keeps
// them.
func (t *resourceTheory) accept() {
	for i := range t.sws {
		t.sws[i].tables, t.sws[i].alloc = nil, nil
	}
	for _, sw := range t.hosting {
		s := &t.sws[sw]
		s.alloc = s.admitted
		for _, tab := range s.valid {
			pt := &PlacedTable{Table: tab, Entries: tab.Entries(), ShardCount: 1}
			if tab.Kind == synth.MatchExtern {
				u := t.use(tab.Extern)
				pt.Entries, pt.ShardIndex, pt.ShardCount = u.shard[sw], slices.Index(u.hosts, sw), len(u.hosts)
			}
			s.tables = append(s.tables, pt)
		}
	}
	for x := range t.ext {
		u := &t.ext[x]
		u.shards = nil
		for _, h := range u.hosts {
			u.shards = append(u.shards, indexShard{int(h), u.shard[h]})
		}
	}
}

// poolRows is how many pool words one entry of rowBits takes on a pool-model
// chip.
func poolRows(model *asic.Model, rowBits int) int64 {
	w := int64(model.SRAMBlockWidth)
	if w == 0 {
		w = 80
	}
	return max((int64(rowBits)+w-1)/w, 1)
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

// buildSpec fills the theory's admission spec for a switch of the given chip
// from its valid tables, PHV demand and placed algorithms. The first pass
// (final false) leaves out the externs split along flow paths — their shards
// are sized afterwards against leftover capacity — and the final pass admits
// every table at its concrete shard size.
func (t *resourceTheory) buildSpec(sw int32, model *asic.Model, final bool) *asic.ProgramSpec {
	spec := &t.spec
	spec.Tables, t.included, t.deps = spec.Tables[:0], t.included[:0], t.deps[:0]
	for _, tb := range t.sws[sw].valid {
		entries := tb.Entries()
		if tb.Kind == synth.MatchExtern {
			u := t.use(tb.Extern)
			if u.split && !final {
				continue // sized in pass 2
			}
			if sh := u.shard[sw]; sh > 0 {
				entries = sh
			}
		}
		t.included = append(t.included, tb)
		spec.Tables = append(spec.Tables, asic.TableSpec{
			Name:       tb.Name,
			Entries:    entries,
			MatchBits:  tb.MatchBits(),
			ActionBits: tb.ActionBits(),
			Actions:    len(tb.Actions),
			Stateful:   tb.Stateful,
		})
	}
	for i, tb := range t.included {
		start := len(t.deps)
		for _, d := range tb.Deps {
			if di := slices.Index(t.included, d); di >= 0 {
				t.deps = append(t.deps, di)
			}
		}
		if len(t.deps) > start {
			spec.Tables[i].Deps = t.deps[start:len(t.deps):len(t.deps)]
		}
	}
	spec.Fields = t.sws[sw].fields
	spec.ParserEntries = t.parser
	// The longest dependency chain among the placed algorithms (a property of
	// the algorithm, whichever language it was synthesized for).
	spec.CodePathLen = 0
	na := len(t.e.algs)
	for a, p := range t.e.algs {
		if len(t.ids[int(sw)*na+a]) > 0 {
			spec.CodePathLen = max(spec.CodePathLen, t.e.synthesized(p, model.Lang).LongestPath)
		}
	}
	return spec
}

// allocate admits a program through the chip allocator, once per distinct
// (chip model, program): switches with identical implied programs (PER-SW
// replicas, the ToRs of a pod) share one allocator run, mirroring the paper's
// parallel generation of identical per-switch code (§7.2 "the compilation
// time stays the same"). The memo belongs to the encoder, not to one theory
// check, so across the checks and attempts of a solve only the switches
// whose implied program changed between models are re-admitted. It dies with
// the encoder when the component's solve ends: the class memo keeps the solved
// Template, never the encoder. Allocations are immutable once made.
func (e *encoder) allocate(model *asic.Model, spec *asic.ProgramSpec) (*asic.Allocation, error) {
	e.scratch = appendSpecKey(e.scratch[:0], model, spec)
	if a, ok := e.allocs[string(e.scratch)]; ok {
		return a, nil
	}
	a, err := asic.Allocate(model, spec)
	if err == nil {
		if e.allocs == nil {
			e.allocs = map[string]*asic.Allocation{}
		}
		e.allocs[string(e.scratch)] = a
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
	touch [][][]phvTouch // by algorithm index in prog, then instruction ID
}

type phvTouch struct{ name, bits int32 }

// touches returns, per instruction ID of a, the names it touches.
func (x *phvIndex) touches(a *ir.Algorithm) [][]phvTouch {
	x.once.Do(x.build)
	for i, pa := range x.prog.Algorithms {
		if pa == a {
			return x.touch[i]
		}
	}
	return nil
}

// build records every touch by the toucher's program id — a field's, or an
// algorithm's base plus a variable's — renders each name touched once, sorts
// the names once, and renumbers the touches by rank.
func (x *phvIndex) build() {
	prog := x.prog
	base := make([]int32, len(prog.Algorithms)+1) // program id of each algorithm's variable 0
	base[0] = int32(len(prog.Fields))
	n := 0
	for i, a := range prog.Algorithms {
		base[i+1] = base[i] + int32(len(a.Vars))
		for _, in := range a.Instrs {
			n += len(in.Args) + 2 + len(in.Guard)
		}
	}
	all := make([]phvTouch, 0, n)
	ends := make([]int, 0, n/2) // where each instruction's touches end, program order
	// rank holds, by program id, -1 for an untouched name; after the sort,
	// the name's rank.
	rank := make([]int32, base[len(prog.Algorithms)])
	for i := range rank {
		rank[i] = -1
	}
	add := func(id int32, bits int) {
		all = append(all, phvTouch{id, int32(bits)})
		rank[id] = 0
	}
	for i, a := range prog.Algorithms {
		vars := base[i]
		for _, in := range a.Instrs {
			for _, arg := range in.Args {
				switch arg.Kind {
				case ir.OpdField:
					add(arg.FieldID, arg.Bits)
				case ir.OpdVar:
					add(vars+arg.Var.ID, maxBits(arg.Var.Bits))
				}
			}
			if in.Dest.Kind == ir.DestField {
				add(in.Dest.FieldID, prog.Fields[in.Dest.FieldID].Bits)
			}
			if v := in.WritesVar(); v != nil {
				add(vars+v.ID, maxBits(v.Bits))
			}
			for _, g := range in.Guard {
				add(vars+g.Var.ID, 1)
			}
			ends = append(ends, len(all))
		}
	}

	// Render each name touched once, into one buffer.
	type named struct {
		id       int32
		from, to int32 // the name in buf
	}
	var names []named
	var buf []byte
	for id := range rank[:base[0]] {
		if rank[id] == 0 {
			from, f := len(buf), &prog.Fields[id]
			buf = append(append(append(buf, f.Hdr...), '.'), f.Name...)
			names = append(names, named{int32(id), int32(from), int32(len(buf))})
		}
	}
	for i, a := range prog.Algorithms {
		for id, v := range a.Vars {
			if rank[base[i]+int32(id)] == 0 {
				from := len(buf)
				buf = strconv.AppendInt(append(append(append(append(append(buf, '$'), a.Name...), '.'), v.Name...), '.'), int64(v.Ver), 10)
				names = append(names, named{base[i] + int32(id), int32(from), int32(len(buf))})
			}
		}
	}
	slices.SortFunc(names, func(a, b named) int { return bytes.Compare(buf[a.from:a.to], buf[b.from:b.to]) })
	r := int32(-1)
	for k, nm := range names {
		if k == 0 || !bytes.Equal(buf[nm.from:nm.to], buf[names[k-1].from:names[k-1].to]) {
			r++
		}
		rank[nm.id] = r
	}
	for i := range all {
		all[i].name = rank[all[i].name]
	}
	x.names = int(r + 1)

	x.touch = make([][][]phvTouch, len(prog.Algorithms))
	start, k := 0, 0
	for i, a := range prog.Algorithms {
		per := make([][]phvTouch, len(a.Instrs))
		for id := range per {
			end := ends[k]
			per[id] = all[start:end:end]
			start = end
			k++
		}
		x.touch[i] = per
	}
}

// phvFields estimates PHV demand: the widths, in name order, of the header
// fields and variables referenced by the instructions placed on switch sw,
// appended to out. A name touched twice keeps the width it was touched with
// last.
func (t *resourceTheory) phvFields(sw int32, out []int) []int {
	x := t.e.phv
	t.stamp++
	n := 0
	na := len(t.e.algs)
	for a, p := range t.e.algs {
		ids := t.ids[int(sw)*na+a]
		if len(ids) == 0 {
			continue
		}
		touch := x.touches(p.alg)
		if len(t.mark) < x.names {
			t.mark, t.width = make([]uint32, x.names), make([]int32, x.names)
		}
		for _, id := range ids {
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
		return out
	}
	for name, m := range t.mark {
		if m == t.stamp {
			out = append(out, int(t.width[name]))
		}
	}
	return out
}

// parserDemand estimates parser TCAM entries from the program's parse graph
// (one entry per select case plus one per node).
func parserDemand(prog *ir.Program) int {
	n := 0
	for _, pn := range prog.Source.Parsers {
		n++
		if pn.Select != nil {
			n += len(pn.Select.Cases)
		}
	}
	return n
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// conflictForSwitch returns a clause forbidding the exact placement set on
// one switch.
func (t *resourceTheory) conflictForSwitch(sw int32) []smt.Lit {
	var out []smt.Lit
	for _, i := range t.current {
		if pv := &t.e.placeVars[i]; pv.sw == sw {
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
func (t *resourceTheory) conflictForPath(m *smt.Model) []smt.Lit {
	u := &t.ext[t.conflict.ext]
	p := u.prep
	for _, k := range t.conflict.hop {
		t.sws[p.cands[k]].onPath = true
	}
	var out []smt.Lit
	for _, pv := range t.e.placeVars {
		if !t.sws[pv.sw].onPath {
			continue
		}
		switch {
		case m.Value(pv.lit):
			out = append(out, pv.lit.Not())
		case pv.alg == p.index:
			if in := p.alg.Instrs[pv.instr]; (in.Op == ir.IMember || in.Op == ir.ILookup) && in.Table == u.decl.Name {
				out = append(out, pv.lit)
			}
		}
	}
	for _, k := range t.conflict.hop {
		t.sws[p.cands[k]].onPath = false
	}
	return out
}
