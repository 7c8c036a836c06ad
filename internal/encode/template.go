package encode

import (
	"slices"
	"sort"

	"lyra/internal/asic"
	"lyra/internal/ir"
	"lyra/internal/smt"
)

// Template is the solved form of a symmetry class with every switch name
// replaced by its index into the component's sorted scope union: per index,
// the instructions placed there (which is the placement), the placed tables,
// the bridge exports and the chip allocation; per extern, the shard sizes; and
// the path metrics of the solve. It is extracted once, from the model the
// representative's encoder accepted, and never written afterwards; a component
// of the class is a Binding of it, and instantiating one is pure substitution —
// no encoder, no path walk, no table synthesis, no resource theory.
// Everything a slot points to (instruction, table and bridge lists,
// allocations) is shared by reference with every plan the template is bound
// into and every program built from it, and is read-only from extraction on.
//
// Binding is byte-identical to solving the twin directly: the class
// fingerprint (canonicalFingerprint) proves the twin's scopes, paths and chip
// models equal the representative's index for index, the solver and the
// resource theory are deterministic in exactly that content, and the
// bijection is monotonic (the i-th switch of one sorted union maps to the
// i-th of the other), so every name-sorted list stays sorted under it.
type Template struct {
	slots []slot
	// shards maps extern name -> entries per hosting index, ascending.
	shards map[string][]indexShard
	// The representative's path metrics; a twin's are equal, which is part of
	// what the class fingerprint proves.
	pathsEnumerated, peakPathsHeld int64
	// trail is the fallback-ladder trail of the solve that produced the
	// template: what the class gave up to be placed, which every plan bound to
	// it reports, however long ago and under whichever switch names it was
	// solved.
	trail *Diagnostics
}

// slot is what one index of a template hosts; the zero slot hosts nothing.
type slot struct {
	instrs  []*ir.Instr // placed instructions, program order
	tables  []*PlacedTable
	bridges []BridgeVar
	alloc   *asic.Allocation
}

type indexShard struct {
	index   int
	entries int64
}

// Binding instantiates a template for one component: Switches[i] is the
// switch index i stands for, the component's sorted scope union. It is also
// the component as a later solve needs it to carry it over unsolved: its class,
// its member algorithms and its place in the decomposition.
type Binding struct {
	Template *Template
	Switches []string
	// Class identifies the component's symmetry class: its name-free canonical
	// fingerprint plus the options that shape a solved plan. Components of one
	// root program with equal classes have the same template; "" means the
	// component has no canonical form and is a class of its own.
	Class string

	// groups holds, per extern the template splits across several switches,
	// the shard group under this binding's switch names; see ShardGroup.
	groups map[string][]Shard
	algs   []string
	label  string
	at     position
}

// Shard is one switch's share of a split extern.
type Shard struct {
	Switch  string
	Entries int64
}

// newTemplate extracts the template of a solved component from the model the
// encoder accepted and the allocations and shard sizes its theory
// materialized for it; union is the component's sorted scope union.
func (e *encoder) newTemplate(m *smt.Model, union []string) *Template {
	index := func(sw string) int { i, _ := slices.BinarySearch(union, sw); return i }
	t := &Template{slots: make([]slot, len(union)), shards: make(map[string][]indexShard, len(e.theory.shards))}
	t.pathsEnumerated, t.peakPathsHeld = e.pathMetrics()

	for _, a := range e.in.IR.Algorithms {
		v := e.vars[a.Name]
		for _, in := range a.Instrs { // program order
			for k, sw := range v.cands {
				if m.Value(v.lits[in.ID*len(v.cands)+k]) {
					s := &t.slots[index(sw)]
					s.instrs = append(s.instrs, in)
				}
			}
		}
	}
	for sw, ts := range e.theory.placedTables {
		t.slots[index(sw)].tables = ts
	}
	for sw, al := range e.theory.allocations {
		t.slots[index(sw)].alloc = al
	}
	for ext, bySwitch := range e.theory.shards {
		at := make([]indexShard, 0, len(bySwitch))
		for sw, n := range bySwitch {
			at = append(at, indexShard{index(sw), n})
		}
		sort.Slice(at, func(i, j int) bool { return at[i].index < at[j].index })
		t.shards[ext] = at
	}
	e.bridge(t)
	return t
}

// layGroups spells out, for a binding just made, the shard groups of the
// externs its template splits: once per binding, which a later plan carrying
// the binding over shares.
func (b *Binding) layGroups() {
	for ext, at := range b.Template.shards {
		if len(at) < 2 {
			continue
		}
		if b.groups == nil {
			b.groups = map[string][]Shard{}
		}
		group := make([]Shard, len(at))
		for k, s := range at {
			group[k] = Shard{b.Switches[s.index], s.entries}
		}
		b.groups[ext] = group
	}
}

// bridge implements Algorithm 2 on a template being extracted: a local
// variable written on one slot and read on a different (downstream) one
// becomes an extensible resource carried in the packet header, exported by
// every slot writing it. Table hit signals of split externs are bridged as
// well.
func (e *encoder) bridge(t *Template) {
	on := map[*ir.Instr][]int{} // instruction -> the slots hosting it
	for i, s := range t.slots {
		for _, in := range s.instrs {
			on[in] = append(on[in], i)
		}
	}
	for _, a := range e.in.IR.Algorithms {
		writer := map[*ir.Var]*ir.Instr{}
		readers := map[*ir.Var][]*ir.Instr{}
		for _, inst := range a.Instrs {
			if v := inst.WritesVar(); v != nil {
				writer[v] = inst
			}
			for _, v := range inst.Reads() {
				readers[v] = append(readers[v], inst)
			}
		}
		shared := e.sharedInstr[a.Name]
		for v, w := range writer {
			exported := map[int]bool{}
			for _, r := range readers[v] {
				for _, rh := range on[r] {
					for _, wh := range on[w] {
						if wh != rh { // written on wh, read elsewhere: bridge from wh
							exported[wh] = true
						}
					}
				}
			}
			for wh := range exported {
				t.slots[wh].bridges = append(t.slots[wh].bridges, BridgeVar{
					Alg: a.Name, Var: v, Bits: maxBits(v.Bits),
					Hit: shared[w.ID],
				})
			}
		}
	}
	for i := range t.slots {
		bs := t.slots[i].bridges
		sort.Slice(bs, func(i, j int) bool {
			if bs[i].Alg != bs[j].Alg {
				return bs[i].Alg < bs[j].Alg
			}
			return bs[i].Var.String() < bs[j].Var.String()
		})
	}
}

// switchIndex locates the switches of a plan's bindings: own maps a switch to
// its slot (the zero slotRef: to no binding), and base, when not nil, locates
// the switches own does not name. A plan that carried bindings over from a
// plan indexed whole — a recompile from a compile, as every recompile of a
// serve session is — owns only the switches of the bindings it made and
// dropped, over that plan's index, so an event indexes what it replaced, not
// the fabric. A recompile of a recompile is indexed whole, so a lookup is at
// most two probes.
type switchIndex struct {
	own, base map[string]slotRef
}

type slotRef struct {
	b *Binding
	i int
}

func newIndex(bound []*Binding) *switchIndex { return &switchIndex{own: slotsOf(bound)} }

func slotsOf(bound []*Binding) map[string]slotRef {
	n := 0
	for _, b := range bound {
		n += len(b.Switches)
	}
	own := make(map[string]slotRef, n)
	for _, b := range bound {
		for i, sw := range b.Switches {
			own[sw] = slotRef{b, i}
		}
	}
	return own
}

func (x *switchIndex) lookup(sw string) slotRef {
	if r, ok := x.own[sw]; ok {
		return r
	}
	return x.base[sw]
}

// index returns the switch index of bound, which ca.merge made of the carried
// bindings and made: prev's, overlaid with the dropped bindings' switches as
// in no binding unless made holds them, or a whole one when prev is itself an
// overlay.
func (ca *carried) index(prev *switchIndex, made, bound []*Binding) *switchIndex {
	switch {
	case len(ca.dropped) == 0 && len(made) == 0:
		return prev
	case prev.base != nil:
		return newIndex(bound)
	}
	own := slotsOf(slices.Concat(ca.dropped, made))
	for _, b := range ca.dropped {
		for _, sw := range b.Switches {
			if own[sw].b == b {
				own[sw] = slotRef{}
			}
		}
	}
	return &switchIndex{own: own, base: prev.own}
}

// slotOf returns the slot a switch is bound to, or the empty one.
func (p *Plan) slotOf(sw string) slot {
	if r := p.at.lookup(sw); r.b != nil {
		return r.b.Template.slots[r.i]
	}
	return slot{}
}

// TablesOf returns the tables placed on a switch, in dependency order. The
// slice is the template's own: do not modify it.
func (p *Plan) TablesOf(sw string) []*PlacedTable { return p.slotOf(sw).tables }

// BridgesOf returns the variables a switch exports downstream. The slice is
// the template's own: do not modify it.
func (p *Plan) BridgesOf(sw string) []BridgeVar { return p.slotOf(sw).bridges }

// AllocationOf returns the admission result of a switch's chip model for what
// the switch hosts, or nil when it hosts nothing.
func (p *Plan) AllocationOf(sw string) *asic.Allocation { return p.slotOf(sw).alloc }

// EachHost calls f for every switch the plan places anything on, with the
// instructions placed there in program order. The slice is the template's own,
// shared by every switch bound to the same slot: do not modify it.
func (p *Plan) EachHost(f func(sw string, instrs []*ir.Instr)) {
	for _, b := range p.bound {
		for i, sw := range b.Switches {
			if instrs := b.Template.slots[i].instrs; len(instrs) > 0 {
				f(sw, instrs)
			}
		}
	}
}

// Hosts returns the switches hosting any instruction of an algorithm, sorted,
// in a slice of the caller's (nil when the algorithm places nothing). It walks
// every binding of the plan.
func (p *Plan) Hosts(alg string) []string {
	var hosts []string
	p.EachHost(func(sw string, instrs []*ir.Instr) {
		if slices.ContainsFunc(instrs, func(in *ir.Instr) bool { return in.Alg == alg }) {
			hosts = append(hosts, sw)
		}
	})
	sort.Strings(hosts) // the components' name ranges interleave ("Agg10_1" < "Agg1_1")
	return hosts
}

// ShardsOf reports how an extern was split, switch -> entries, in a map of the
// caller's (empty when the extern is placed nowhere).
func (p *Plan) ShardsOf(extern string) map[string]int64 {
	out := map[string]int64{}
	for _, b := range p.bound {
		for _, s := range b.Template.shards[extern] {
			out[b.Switches[s.index]] = s.entries
		}
	}
	return out
}

// ShardGroup returns the shards of the placement component hosting sw's shard
// of a split extern, sorted by switch: exactly the ShardCount switches the
// extern's table on sw is split across. It returns nil when sw holds no shard
// of the extern or its component does not split it. Every member of a group
// gets the same slice, the binding's own: do not modify it.
func (p *Plan) ShardGroup(extern, sw string) []Shard {
	if r := p.at.lookup(sw); r.b != nil {
		if group := r.b.groups[extern]; slices.ContainsFunc(group, func(s Shard) bool { return s.Switch == sw }) {
			return group
		}
	}
	return nil
}
