package encode

import (
	"sort"

	"lyra/internal/asic"
	"lyra/internal/ir"
)

// Template is the solved form of a symmetry class with every switch name
// replaced by its index into the component's sorted scope union: per index,
// the instructions placed there (which is the placement), the placed tables,
// the bridge exports and the chip allocation; per extern, the shard sizes; and
// the path metrics of the solve. It is extracted once from the
// representative's solved plan and never written afterwards; a component of
// the class is a Binding of it, and instantiating one is pure substitution —
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
	// hosting and exporting count the slots with anything placed and with
	// bridge exports; the merge sizes the plan's maps by them.
	hosting, exporting int
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

	algs  []string
	label string
	at    position
}

// Shard is one switch's share of a split extern.
type Shard struct {
	Switch  string
	Entries int64
}

// newTemplate extracts the template of a solved component plan, fallback trail
// included; union is the component's sorted scope union.
func newTemplate(p *Plan, union []string) *Template {
	index := make(map[string]int, len(union))
	for i, sw := range union {
		index[sw] = i
	}
	t := &Template{
		slots:           make([]slot, len(union)),
		exporting:       len(p.Bridges),
		shards:          make(map[string][]indexShard, len(p.Shards)),
		pathsEnumerated: p.PathsEnumerated,
		peakPathsHeld:   p.PeakPathsHeld,
		trail:           p.Diagnostics,
	}
	// The slots' instruction lists are carved out of one array, each sized by
	// a counting pass, so a template is a handful of allocations however many
	// switches it spans.
	hosted := make([]int, len(union))
	total := 0
	for _, m := range p.Placement {
		for _, hosts := range m {
			for _, h := range hosts {
				hosted[index[h]]++
				total++
			}
		}
	}
	all := make([]*ir.Instr, total)
	for i, n := range hosted {
		if n > 0 {
			t.hosting++
			t.slots[i].instrs, all = all[:0:n], all[n:]
		}
	}
	for _, a := range p.Input.IR.Algorithms {
		placed := p.Placement[a.Name]
		for _, in := range a.Instrs {
			for _, h := range placed[in.ID] {
				s := &t.slots[index[h]]
				s.instrs = append(s.instrs, in)
			}
		}
	}
	for sw, ts := range p.Tables {
		t.slots[index[sw]].tables = ts
	}
	for sw, bs := range p.Bridges {
		t.slots[index[sw]].bridges = bs
	}
	for sw, al := range p.Allocations {
		t.slots[index[sw]].alloc = al
	}
	for ext, bySwitch := range p.Shards {
		at := make([]indexShard, 0, len(bySwitch))
		for sw, n := range bySwitch {
			at = append(at, indexShard{index[sw], n})
		}
		sort.Slice(at, func(i, j int) bool { return at[i].index < at[j].index })
		t.shards[ext] = at
	}
	return t
}

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

// bind writes the binding's share of a plan into the plan's name-keyed maps,
// which mergePlans made and sized. Per-switch values are the template's own,
// adopted by reference; only the keys and the host and shard lists, which
// spell switch names, are made here.
func (p *Plan) bind(b Binding) {
	t := b.Template
	for i, sw := range b.Switches {
		s := &t.slots[i]
		var alg string
		var hosts map[int][]string
		for _, in := range s.instrs { // ascending index is ascending name: host lists stay sorted
			if in.Alg != alg {
				alg, hosts = in.Alg, p.Placement[in.Alg]
			}
			hosts[in.ID] = append(hosts[in.ID], sw)
		}
		if len(s.tables) > 0 {
			p.Tables[sw] = s.tables
		}
		if len(s.bridges) > 0 {
			p.Bridges[sw] = s.bridges
		}
		if s.alloc != nil {
			p.Allocations[sw] = s.alloc
		}
	}
	for ext, at := range t.shards {
		bySwitch := p.Shards[ext]
		group := make([]Shard, len(at))
		for k, s := range at {
			group[k] = Shard{b.Switches[s.index], s.entries}
			bySwitch[group[k].Switch] = s.entries
		}
		if len(group) > 1 {
			for _, s := range group {
				p.shardGroups[ext][s.Switch] = group
			}
		}
	}
	p.PathsEnumerated += t.pathsEnumerated
	if t.peakPathsHeld > p.PeakPathsHeld {
		p.PeakPathsHeld = t.peakPathsHeld
	}
}
