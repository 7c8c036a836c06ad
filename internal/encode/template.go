package encode

import (
	"crypto/sha256"
	mathbits "math/bits"
	"slices"
	"sort"
	"strings"

	"lyra/internal/asic"
	"lyra/internal/ir"
	"lyra/internal/smt"
	"lyra/internal/synth"
	"lyra/internal/topo"
)

// Template is the solved form of a symmetry class with every switch name
// replaced by its index in the component's numbering (symmetry.go): per index,
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
// Binding is byte-identical to solving the twin directly: the class key
// (numbering.render) proves the twin's scopes, paths and chip models equal
// the representative's index for index, a direct solve numbers the twin the
// same way, and the encoder, the solver and the resource theory are
// deterministic in exactly that content — they order candidates, hops, hosts
// and shards by index, never by name. A split extern's shards are the one
// exception, and not the template's: a binding ranks the hosts of a shard
// group by switch name (layGroups), so a link cut that renumbers its
// component moves no shard of the switches it leaves alone.
type Template struct {
	slots []slot
	// shards maps extern name -> entries per hosting index, ascending.
	shards map[string][]indexShard
	// The representative's path metrics; a twin's are equal, which is part of
	// what the class fingerprint proves.
	pathsEnumerated, peakPathsHeld int64
	// trail is the fallback trail of the solve that produced the
	// template: what the class gave up to be placed, which every plan bound to
	// it reports, however long ago and under whichever switch names it was
	// solved.
	trail *Diagnostics
	// exports is the template's share of the bridge facts, summed with it.
	exports []exportSum
}

// slot is what one index of a template hosts; the zero slot hosts nothing.
type slot struct {
	instrs  []*ir.Instr // placed instructions, program order
	tables  []*PlacedTable
	bridges []BridgeVar
	alloc   *asic.Allocation
	// text digests the slot's share of its shape hash input that no plan can
	// change (appendText); a plan's shape of the slot adds which of its reads
	// the switch imports (Binding.shapes).
	text [sha256.Size]byte
}

type indexShard struct {
	index   int
	entries int64
}

// Binding instantiates a template for one component: Switches[i] is the
// switch index i stands for, the component's numbering. It is also
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
	// tables, when not nil, holds per index the tables of a slot whose shard
	// rank by name differs from its rank by index, nil for the others.
	tables [][]*PlacedTable
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
// encoder accepted and the tables, allocations and shard sizes its theory
// wrote for it, all by switch index, which is the template's index.
func (e *encoder) newTemplate(m *smt.Model) *Template {
	t := &Template{slots: make([]slot, len(e.switches)), shards: make(map[string][]indexShard, len(e.theory.ext))}
	t.pathsEnumerated, t.peakPathsHeld = e.pathMetrics()

	for _, a := range e.in.IR.Algorithms {
		v := e.vars[a.Name]
		for _, in := range a.Instrs { // program order
			for k, sw := range v.cands {
				if m.Value(v.lit(in.ID, k)) {
					s := &t.slots[sw]
					s.instrs = append(s.instrs, in)
				}
			}
		}
	}
	for i, s := range e.theory.sws {
		t.slots[i].tables, t.slots[i].alloc = s.tables, s.alloc
	}
	for _, u := range e.theory.ext {
		if u.shards != nil {
			t.shards[u.decl.Name] = u.shards
		}
	}
	e.bridge(t)
	t.exports = sumExports(t.slots)
	for i := range t.slots {
		if s := &t.slots[i]; len(s.instrs) > 0 {
			e.scratch = s.appendText(e.scratch[:0], e.models[i])
			s.text = sha256.Sum256(e.scratch)
		}
	}
	return t
}

// layGroups spells out, for a binding just made, the shard groups of the
// externs its template splits, sorted by switch: once per binding, which a
// later plan carrying the binding over shares. A host's ShardIndex is its
// place in that order. The template ranks the hosts by index, which is the
// same order unless colour refinement split the component; a host the names
// rank elsewhere gets its own copy of the tables it holds (b.tables).
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
		bySwitch := func(x, y Shard) int { return strings.Compare(x.Switch, y.Switch) }
		if slices.IsSortedFunc(group, bySwitch) {
			b.groups[ext] = group
			continue
		}
		// The template ranks at[k] k-th; rank the group by switch instead.
		order := make([]int, len(group))
		for k := range order {
			order[k] = k
		}
		slices.SortFunc(order, func(x, y int) int { return bySwitch(group[x], group[y]) })
		sorted := make([]Shard, len(group))
		for rank, k := range order {
			sorted[rank] = group[k]
			if rank != k {
				b.rankShard(at[k].index, ext, rank)
			}
		}
		b.groups[ext] = sorted
	}
}

// rankShard gives index i's tables of a split extern the shard index rank, in
// a copy of the slot's table list that is the binding's own.
func (b *Binding) rankShard(i int, ext string, rank int) {
	if b.tables == nil {
		b.tables = make([][]*PlacedTable, len(b.Template.slots))
	}
	if b.tables[i] == nil {
		b.tables[i] = slices.Clone(b.Template.slots[i].tables)
	}
	for k, pt := range b.tables[i] {
		if pt.Kind == synth.MatchExtern && pt.Extern.Name == ext {
			ranked := *pt
			ranked.ShardIndex = rank
			b.tables[i][k] = &ranked
		}
	}
}

// bridge implements Algorithm 2 on a template being extracted: a local
// variable written on one slot and read on a different (downstream) one
// becomes an extensible resource carried in the packet header, exported by
// every slot writing it. Table hit signals of split externs are bridged as
// well.
//
// It works per algorithm on bitsets: per instruction, the hosts placing it
// (the slots hosting anything, numbered); per host, the variables it
// exports, by variable ID; and the writer of each variable.
func (e *encoder) bridge(t *Template) {
	var hosts []int // host -> slot
	for i := range t.slots {
		if len(t.slots[i].instrs) > 0 {
			hosts = append(hosts, i)
		}
	}
	hw := (len(hosts) + 63) / 64 // words of an instruction's host set
	var on, exp []uint64
	var writer []int32
	for _, a := range e.in.IR.Algorithms {
		vw := (len(a.Vars) + 63) / 64 // words of a host's export set
		on, exp = clearWords(on, len(a.Instrs)*hw), clearWords(exp, len(hosts)*vw)
		for h, sl := range hosts {
			for _, in := range t.slots[sl].instrs {
				if in.ID < len(a.Instrs) && a.Instrs[in.ID] == in {
					on[in.ID*hw+h/64] |= 1 << (h % 64)
				}
			}
		}
		writer = slices.Grow(writer[:0], len(a.Vars))[:len(a.Vars)]
		for i := range writer {
			writer[i] = -1
		}
		for _, in := range a.Instrs {
			if v := in.WritesVar(); v != nil {
				writer[v.ID] = int32(in.ID)
			}
		}
		for _, r := range a.Instrs {
			read := on[r.ID*hw : (r.ID+1)*hw]
			readers := ones(read)
			if readers == 0 {
				continue
			}
			r.EachRead(func(v *ir.Var) {
				w := writer[v.ID]
				if w < 0 {
					return
				}
				// Written on wh, read elsewhere: bridge from wh. Read on two
				// hosts or more, that is on one other than wh, whatever wh is.
				for k, bits := range on[int(w)*hw : (int(w)+1)*hw] {
					if readers == 1 {
						bits &^= read[k]
					}
					for ; bits != 0; bits &= bits - 1 {
						h := k*64 + mathbits.TrailingZeros64(bits)
						exp[h*vw+int(v.ID)/64] |= 1 << (v.ID % 64)
					}
				}
			})
		}
		for h, sl := range hosts {
			for k, bits := range exp[h*vw : (h+1)*vw] {
				for ; bits != 0; bits &= bits - 1 {
					v := a.Vars[k*64+mathbits.TrailingZeros64(bits)]
					t.slots[sl].bridges = append(t.slots[sl].bridges, BridgeVar{
						Alg: a.Name, Var: v, Bits: maxBits(v.Bits), Hit: e.shared(a, a.Instrs[writer[v.ID]]),
					})
				}
			}
		}
	}
	for i := range t.slots {
		ir.SortByVar(t.slots[i].bridges, bridgeOrder)
	}
}

// clearWords returns s with length n, zeroed.
func clearWords(s []uint64, n int) []uint64 {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// ones counts the bits of set.
func ones(set []uint64) int {
	n := 0
	for _, w := range set {
		n += mathbits.OnesCount64(w)
	}
	return n
}

// bridgeOrder is the order of a slot's exports and of the bridge layout: by
// algorithm, then by variable.
func bridgeOrder(bv BridgeVar) (string, *ir.Var) { return bv.Alg, bv.Var }

// switchIndex locates the switches of a plan's bindings by switch id: the
// zero slotRef for a switch in no binding. A compile fills it; a recompile
// copies the index of the plan it follows, whose network shares its name
// index, and rewrites the switches of the bindings it dropped and made, so an
// event indexes what it replaced, not the fabric.
type switchIndex []slotRef

type slotRef struct {
	b *Binding
	i int
}

// newIndex returns the switch index of bound, bindings on net.
func newIndex(net *topo.Network, bound []*Binding) switchIndex {
	x := make(switchIndex, net.Span())
	x.bind(net, bound)
	return x
}

// bind enters the switches of bindings on net.
func (x switchIndex) bind(net *topo.Network, bound []*Binding) {
	for _, b := range bound {
		for i, sw := range b.Switches {
			x[net.Switch(sw).ID()] = slotRef{b, i}
		}
	}
}

// after returns the switch index of a plan on net that follows the plan x
// indexes, dropping bindings of it and making others: x less the dropped
// bindings' switches, with the made ones'. It is x itself when nothing was
// dropped or made.
func (x switchIndex) after(net *topo.Network, dropped, made []*Binding) switchIndex {
	if len(dropped) == 0 && len(made) == 0 {
		return x
	}
	out := make(switchIndex, net.Span())
	for id, r := range x {
		if !slices.Contains(dropped, r.b) {
			out[id] = r
		}
	}
	out.bind(net, made)
	return out
}

// locate returns where a switch is bound: the zero slotRef for none.
func (p *Plan) locate(sw string) slotRef {
	if s := p.Input.Net.Switch(sw); s != nil && int(s.ID()) < len(p.at) {
		return p.at[s.ID()]
	}
	return slotRef{}
}

// slotOf returns the slot a switch is bound to, or the empty one.
func (p *Plan) slotOf(sw string) slot {
	if r := p.locate(sw); r.b != nil {
		return r.b.slot(r.i)
	}
	return slot{}
}

// slot returns index i of the template as this binding places it.
func (b *Binding) slot(i int) slot {
	s := b.Template.slots[i]
	if b.tables != nil && b.tables[i] != nil {
		s.tables = b.tables[i]
	}
	return s
}

// InstrsOf returns the instructions placed on a switch, in program order, or
// nil when it hosts nothing. The slice is the template's own: do not modify
// it.
func (p *Plan) InstrsOf(sw string) []*ir.Instr { return p.slotOf(sw).instrs }

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

// ShardGroups returns, by extern, the shard groups of the placement component
// sw is placed in: for each split extern the group ShardGroup gives its hosts.
// Every switch of the component gets the same map, the binding's own: do not
// modify it.
func (p *Plan) ShardGroups(sw string) map[string][]Shard {
	if r := p.locate(sw); r.b != nil {
		return r.b.groups
	}
	return nil
}

// ShardGroup returns the shards of the placement component hosting sw's shard
// of a split extern, sorted by switch, which is shard order
// (PlacedTable.ShardIndex): exactly the ShardCount switches the
// extern's table on sw is split across. It returns nil when sw holds no shard
// of the extern or its component does not split it. Every member of a group
// gets the same slice, the binding's own: do not modify it.
func (p *Plan) ShardGroup(extern, sw string) []Shard {
	if group := p.ShardGroups(sw)[extern]; slices.ContainsFunc(group, func(s Shard) bool { return s.Switch == sw }) {
		return group
	}
	return nil
}
