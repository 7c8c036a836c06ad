package dataplane

// The compiled tier of one deployment and its packet currency: FlatPacket,
// Engine (the per-switch programs lowered by lower.go and compiled into
// closures by compile.go) and lane (the mutable state one goroutine drives
// packets through).

import (
	"errors"
	"maps"
	"sort"
)

// FlatPacket is the dense packet of lowered code, laid out like the PHV it
// stands for: one word slab holding the field words, the bridge words and
// the packed presence and validity bits (Layout.bit), plus the disposition.
// Presence bits make Packet reproduce the interpreter's maps exactly — a
// field written to zero is distinguishable from one never written. Keys
// unknown to the layout (a packet carrying headers the program never
// declared) go to an overflow that execution never touches.
type FlatPacket struct {
	lay *Layout
	ov  *overflow // nil unless a key fell outside the layout
	w   []uint64

	EgressPort uint64
	Dropped    bool
	Mirrored   bool
	ToCPU      bool
}

// overflow holds the keys of one packet that its layout has no slot for.
type overflow struct {
	fields map[string]uint64
	valid  map[string]bool
	bridge map[string]uint64
}

// newFlat makes an empty packet in two allocations: the struct and its slab.
func (l *Layout) newFlat() *FlatPacket {
	nf, nv, nb := len(l.fieldName), len(l.validName), len(l.bridgeName)
	return &FlatPacket{lay: l, w: make([]uint64, nf+nb+(nf+2*nv+nb+63)/64)}
}

// over returns the packet's overflow, making it on first use.
func (f *FlatPacket) over() *overflow {
	if f.ov == nil {
		f.ov = &overflow{fields: map[string]uint64{}, valid: map[string]bool{}, bridge: map[string]uint64{}}
	}
	return f.ov
}

// has reports one packed bit of a slot; mark sets it.
func (f *FlatPacket) has(kind, slot int) bool {
	w, m := f.lay.bit(kind, slot)
	return f.w[w]&m != 0
}

func (f *FlatPacket) mark(kind, slot int) {
	w, m := f.lay.bit(kind, slot)
	f.w[w] |= m
}

// Reset clears the packet to the empty state without releasing storage.
func (f *FlatPacket) Reset() {
	clear(f.w)
	f.Dropped, f.Mirrored, f.ToCPU = false, false, false
	f.EgressPort = 0
	f.ov = nil
}

// CopyFrom overwrites f with o's contents. Both must come from the same
// layout. The copy is allocation-free unless o has an overflow, which f
// gets a copy of: a later SetField on f must not write into o.
func (f *FlatPacket) CopyFrom(o *FlatPacket) {
	copy(f.w, o.w)
	f.Dropped, f.EgressPort, f.Mirrored, f.ToCPU = o.Dropped, o.EgressPort, o.Mirrored, o.ToCPU
	f.ov = nil
	if o.ov != nil {
		f.ov = &overflow{maps.Clone(o.ov.fields), maps.Clone(o.ov.valid), maps.Clone(o.ov.bridge)}
	}
}

// SetField writes a "hdr.field" value, reporting whether the layout knows
// the field (unknown fields go to the overflow, like Packet.Fields).
func (f *FlatPacket) SetField(name string, v uint64) bool {
	if s, ok := f.lay.fieldSlot[name]; ok {
		f.w[s] = v
		f.mark(fieldPresent, s)
		return true
	}
	f.over().fields[name] = v
	return false
}

// load fills f from a map-based packet, from Reset: the interpreter tier loads
// a run's output over the packet it ran, and load only ever sets bits.
func (f *FlatPacket) load(p *Packet) {
	f.Reset()
	for k, v := range p.Fields {
		f.SetField(k, v)
	}
	for k, v := range p.Valid {
		s, ok := f.lay.validSlot[k]
		if !ok {
			f.over().valid[k] = v
			continue
		}
		if v {
			f.mark(headerValid, s)
		}
		f.mark(headerValidSet, s)
	}
	for k, v := range p.Bridge {
		if s, ok := f.lay.bridgeSlot[k]; ok {
			f.w[f.lay.bridgeWord(s)] = v
			f.mark(bridgePresent, s)
		} else {
			f.over().bridge[k] = v
		}
	}
	f.Dropped, f.EgressPort, f.Mirrored, f.ToCPU = p.Dropped, p.EgressPort, p.Mirrored, p.ToCPU
}

// Packet converts back to the interpreter's map representation,
// reconstructing exactly the map contents RunReference/RunPath would have
// produced (presence included).
func (f *FlatPacket) Packet() *Packet {
	p, l := NewPacket(), f.lay
	for s, name := range l.fieldName {
		if f.has(fieldPresent, s) {
			p.Fields[name] = f.w[s]
		}
	}
	for s, name := range l.validName {
		if f.has(headerValidSet, s) {
			p.Valid[name] = f.has(headerValid, s)
		}
	}
	for s, name := range l.bridgeName {
		if f.has(bridgePresent, s) {
			p.Bridge[name] = f.w[l.bridgeWord(s)]
		}
	}
	if f.ov != nil {
		maps.Copy(p.Fields, f.ov.fields)
		maps.Copy(p.Valid, f.ov.valid)
		maps.Copy(p.Bridge, f.ov.bridge)
	}
	p.Dropped, p.EgressPort, p.Mirrored, p.ToCPU = f.Dropped, f.EgressPort, f.Mirrored, f.ToCPU
	return p
}

// tableView is a lane's handle on one extern table. It starts as a shared
// reference to the deployment's (or control plane's) entry map; the first
// insert copies the map so a lane's data-plane inserts stay lane-local and
// batch workers never race on shared state.
type tableView struct {
	entries map[uint64]uint64
	owned   bool

	// Compiled-tier read index: a lane-local open-addressing mirror of
	// entries (interleaved key/value pairs), built lazily on the first
	// flatGet/flatHas so lanes that never read a table never pay for it.
	// See compile.go.
	flatKV []uint64
	nflat  int
	built  bool
}

func (tv *tableView) insert(k, v uint64) {
	if !tv.owned {
		m := make(map[uint64]uint64, len(tv.entries)+1)
		for k2, v2 := range tv.entries {
			m[k2] = v2
		}
		tv.entries = m
		tv.owned = true
	}
	tv.entries[k] = v
	if tv.built {
		tv.flatPut(k, v)
	}
}

// Engine is the compiled tier of one deployment: one unit per switch with
// a program, lowered and compiled into closures, all sharing a Layout. It is
// also what packets are laid out by — the Layout, the WireCodec and the
// flow-key builders. The code is immutable; all mutable execution state
// lives in lanes. The engine's own lane pool and path cache make it
// single-caller: one goroutine runs packets through it at a time, and
// runBatch fans work out itself.
type Engine struct {
	dep      *Deployment
	layout   *Layout
	units    []*ccode // indexed by stateIdx
	bySwitch map[string]*ccode
	maxRegs  int
	maxGates int

	// tableGen counts control-plane mutations per unit (indexed by
	// stateIdx). Deployment.SetSwitchEntry/ClearSwitchTable bump only the
	// affected switch's counter; lanes lazily rebind that unit's table
	// views on the next run instead of the whole engine being rebuilt.
	tableGen []uint64

	codec *WireCodec // lazily built bytes-native parse/serialize programs

	lanes []*lane // the executor's lane pool, grown on demand

	// One-entry resolved-path cache: a path is mapped to the units actually
	// placed on it once, so the steady state pays no per-hop string-map
	// lookups. Keyed by a copy of the path's switch names, so a caller may
	// rewrite its slice in place between packets. Mutated only from the
	// single-caller surface (runBatch resolves before its workers fan out,
	// so workers never touch it).
	pathKey   []string
	pathUnits []*ccode
}

// newEngine lowers and compiles a deployment's placed programs. The code
// is immutable: control-plane mutations through the deployment bump
// per-switch table generations that lanes pick up lazily, so an engine
// stays valid across SetSwitchEntry/ClearSwitchTable.
func newEngine(d *Deployment) (*Engine, error) {
	irp := d.Plan.Input.IR
	e := &Engine{dep: d, layout: newLayout(), bySwitch: map[string]*ccode{}}
	e.layout.seed(irp)
	lo := &lowerer{irp: irp, lay: e.layout}
	names := make([]string, 0, len(d.Programs))
	for sw := range d.Programs {
		names = append(names, sw)
	}
	sort.Strings(names)
	lowered := make([]*compiledUnit, len(names))
	for i, sw := range names {
		u, err := lo.lowerSwitch(d.Programs[sw])
		if err != nil {
			return nil, err
		}
		lowered[i] = u
	}
	// A closure binds its packed bits' slab positions, which move while
	// any unit can still intern a slot, so every unit is lowered before
	// the first one compiles.
	for _, u := range lowered {
		e.addUnit(u)
	}
	return e, nil
}

// addUnit compiles one lowered unit into the engine, giving it the next
// lane-state index.
func (e *Engine) addUnit(u *compiledUnit) {
	cu := compileUnit(u, e.layout)
	cu.stateIdx = len(e.units)
	e.units = append(e.units, cu)
	e.bySwitch[u.name] = cu
	e.tableGen = append(e.tableGen, 0)
	e.maxRegs = max(e.maxRegs, u.numRegs)
	e.maxGates = max(e.maxGates, len(u.gates))
}

// invalidateTables marks one switch's control-plane contents changed.
// Existing lanes rebind that unit's table views on their next run; the
// compiled code is untouched.
func (e *Engine) invalidateTables(sw string) {
	if cu := e.bySwitch[sw]; cu != nil {
		e.tableGen[cu.stateIdx]++
	}
}

// Flatten converts a map-based packet into a fresh engine packet.
func (e *Engine) Flatten(p *Packet) *FlatPacket {
	f := e.layout.newFlat()
	f.load(p)
	return f
}

// NewFlatPacket returns an empty packet sized for this engine.
func (e *Engine) NewFlatPacket() *FlatPacket { return e.layout.newFlat() }

// lane is one worker's execution state: a register arena sized for the
// largest unit, shard-gate snapshots, and per-unit global arrays and table
// views. Stateful programs evolve a lane's globals across packets exactly
// like a deployment's globals evolve across RunPath calls.
type lane struct {
	eng      *Engine
	regs     []uint64
	gateVals []uint64
	globals  [][][]uint64 // [stateIdx][globalIdx] -> element array
	tables   [][]tableView
	tgen     []uint64 // table generation each unit's views were bound at
}

// newLane allocates execution state bound to the deployment's current
// control-plane tables. Per-switch globals start zeroed, matching a fresh
// deployment.
func (e *Engine) newLane() *lane {
	l := &lane{
		eng:      e,
		regs:     make([]uint64, e.maxRegs),
		gateVals: make([]uint64, e.maxGates),
		globals:  make([][][]uint64, len(e.units)),
		tables:   make([][]tableView, len(e.units)),
		tgen:     make([]uint64, len(e.units)),
	}
	for i := range e.units {
		l.globals[i] = make([][]uint64, len(e.layout.globals))
		for gi, spec := range e.layout.globals {
			l.globals[i][gi] = make([]uint64, spec.length)
		}
		l.tables[i] = make([]tableView, len(e.layout.externName))
		l.bindTables(i)
	}
	return l
}

// bindTables (re)binds one unit's table views to its switch's current
// control-plane contents, discarding any copy-on-write clones. Called at
// lane creation and lazily when the unit's table generation moves.
func (l *lane) bindTables(idx int) {
	e := l.eng
	src := e.dep.shardTables[e.units[idx].u.name]
	views := l.tables[idx]
	for ei, name := range e.layout.externName {
		views[ei] = tableView{}
		if src != nil {
			if es := src.Externs[name]; es != nil {
				views[ei] = tableView{entries: es.Entries}
			}
		}
	}
	l.tgen[idx] = e.tableGen[idx]
}

// syncTables rebinds a unit's views if the deployment mutated that
// switch's tables since the lane last ran it. One integer compare on the
// hot path; the rebind itself happens only after a control-plane change.
func (l *lane) syncTables(idx int) {
	if l.tgen[idx] != l.eng.tableGen[idx] {
		l.bindTables(idx)
	}
}

var zeroCtx Context

var errForeignLayout = errors.New("dataplane: FlatPacket belongs to a different engine layout")

// owns checks that every packet was laid out by this engine: a unit's slot
// indices mean nothing against another deployment's slabs, so a foreign
// packet must be refused before any packet of the call is run.
func (e *Engine) owns(pkts ...*FlatPacket) error {
	for _, f := range pkts {
		if f.lay != e.layout {
			return errForeignLayout
		}
	}
	return nil
}
