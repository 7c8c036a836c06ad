package dataplane

// The bytecode packet-execution engine. An Engine is the lowered, immutable
// code of one deployment (lower.go); a Lane is the mutable execution state
// — register file, gate snapshots, per-switch global arrays, and
// copy-on-write extern table views — that a single goroutine drives packets
// through. Steady-state execution allocates nothing: operands resolve
// through dense slices, guards are precompiled index ranges, and hashes are
// computed inline. RunBatch shards a packet batch into contiguous chunks
// across a bounded worker pool (internal/par), one lane per worker, so
// replaying traffic scales with cores while each lane's stateful arrays
// stay single-owner.

import (
	"fmt"
	"runtime"
	"sort"

	"lyra/internal/par"
)

// FlatPacket is the engine's dense packet representation: slot-indexed
// field, validity, and bridge arrays (layout-assigned) plus the packet
// disposition flags. The *Set arrays track map-key presence so converting
// back to a Packet reproduces the interpreter's maps exactly — a field
// written to zero is distinguishable from one never written. Keys unknown
// to the layout (a packet carrying headers the program never declared) are
// parked in overflow maps that execution never touches.
type FlatPacket struct {
	lay       *Layout
	Fields    []uint64
	fieldSet  []bool
	Valid     []bool
	validSet  []bool
	Bridge    []uint64
	bridgeSet []bool

	Dropped    bool
	EgressPort uint64
	Mirrored   bool
	ToCPU      bool

	extraFields map[string]uint64
	extraValid  map[string]bool
	extraBridge map[string]uint64
}

// newFlat makes an empty packet in three allocations: the struct, one slab
// of words and one of flags. Each slice is carved with its capacity capped,
// so an append reallocates instead of running into its neighbour.
func (l *Layout) newFlat() *FlatPacket {
	nf, nv, nb := len(l.fieldName), len(l.validName), len(l.bridgeName)
	words := make([]uint64, nf+nb)
	flags := make([]bool, 2*nf+2*nv+nb)
	carve := func(n int) []bool {
		s := flags[:n:n]
		flags = flags[n:]
		return s
	}
	return &FlatPacket{
		lay:       l,
		Fields:    words[:nf:nf],
		fieldSet:  carve(nf),
		Valid:     carve(nv),
		validSet:  carve(nv),
		Bridge:    words[nf:],
		bridgeSet: carve(nb),
	}
}

// Reset clears the packet to the empty state without releasing storage.
func (f *FlatPacket) Reset() {
	clear(f.Fields)
	clear(f.fieldSet)
	clear(f.Valid)
	clear(f.validSet)
	clear(f.Bridge)
	clear(f.bridgeSet)
	f.Dropped, f.Mirrored, f.ToCPU = false, false, false
	f.EgressPort = 0
	f.extraFields, f.extraValid, f.extraBridge = nil, nil, nil
}

// CopyFrom overwrites f with o's contents. Both must come from the same
// layout. The copy is allocation-free; overflow maps (never mutated by
// execution) are shared, not cloned.
func (f *FlatPacket) CopyFrom(o *FlatPacket) {
	copy(f.Fields, o.Fields)
	copy(f.fieldSet, o.fieldSet)
	copy(f.Valid, o.Valid)
	copy(f.validSet, o.validSet)
	copy(f.Bridge, o.Bridge)
	copy(f.bridgeSet, o.bridgeSet)
	f.Dropped, f.EgressPort, f.Mirrored, f.ToCPU = o.Dropped, o.EgressPort, o.Mirrored, o.ToCPU
	f.extraFields, f.extraValid, f.extraBridge = o.extraFields, o.extraValid, o.extraBridge
}

// SetField writes a "hdr.field" value, reporting whether the layout knows
// the field (unknown fields go to the overflow map, like Packet.Fields).
func (f *FlatPacket) SetField(name string, v uint64) bool {
	if s, ok := f.lay.fieldSlot[name]; ok {
		f.Fields[s] = v
		f.fieldSet[s] = true
		return true
	}
	if f.extraFields == nil {
		f.extraFields = map[string]uint64{}
	}
	f.extraFields[name] = v
	return false
}

// SetValid marks a header instance present on the packet.
func (f *FlatPacket) SetValid(name string) bool {
	if s, ok := f.lay.validSlot[name]; ok {
		f.Valid[s] = true
		f.validSet[s] = true
		return true
	}
	if f.extraValid == nil {
		f.extraValid = map[string]bool{}
	}
	f.extraValid[name] = true
	return false
}

// load fills f from a map-based packet.
func (f *FlatPacket) load(p *Packet) {
	f.Reset()
	for k, v := range p.Fields {
		f.SetField(k, v)
	}
	for k, v := range p.Valid {
		if s, ok := f.lay.validSlot[k]; ok {
			f.Valid[s] = v
			f.validSet[s] = true
		} else {
			if f.extraValid == nil {
				f.extraValid = map[string]bool{}
			}
			f.extraValid[k] = v
		}
	}
	for k, v := range p.Bridge {
		if s, ok := f.lay.bridgeSlot[k]; ok {
			f.Bridge[s] = v
			f.bridgeSet[s] = true
		} else {
			if f.extraBridge == nil {
				f.extraBridge = map[string]uint64{}
			}
			f.extraBridge[k] = v
		}
	}
	f.Dropped, f.EgressPort, f.Mirrored, f.ToCPU = p.Dropped, p.EgressPort, p.Mirrored, p.ToCPU
}

// Packet converts back to the interpreter's map representation,
// reconstructing exactly the map contents RunReference/RunPath would have
// produced (presence included).
func (f *FlatPacket) Packet() *Packet {
	p := NewPacket()
	for s, set := range f.fieldSet {
		if set {
			p.Fields[f.lay.fieldName[s]] = f.Fields[s]
		}
	}
	for s, set := range f.validSet {
		if set {
			p.Valid[f.lay.validName[s]] = f.Valid[s]
		}
	}
	for s, set := range f.bridgeSet {
		if set {
			p.Bridge[f.lay.bridgeName[s]] = f.Bridge[s]
		}
	}
	for k, v := range f.extraFields {
		p.Fields[k] = v
	}
	for k, v := range f.extraValid {
		p.Valid[k] = v
	}
	for k, v := range f.extraBridge {
		p.Bridge[k] = v
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
	// flatGet/flatHas so engine-only lanes never pay for it. See compile.go.
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

// Engine is the lowered bytecode of one deployment: the reference pipeline
// unit plus one unit per switch with a program, all sharing a Layout.
// The code is immutable; all mutable execution state lives in Lanes.
// An Engine (and its internal lane pool) is single-caller: one goroutine
// calls RunBatch/RunPacket at a time, and RunBatch fans work out itself.
type Engine struct {
	dep         *Deployment
	layout      *Layout
	ref         *compiledUnit
	switchUnits map[string]*compiledUnit
	units       []*compiledUnit // indexed by stateIdx; units[0] is ref
	maxRegs     int
	maxGates    int
	lanes       []*Lane

	// tableGen counts control-plane mutations per unit (indexed by
	// stateIdx). Deployment.SetSwitchEntry/ClearSwitchTable bump only the
	// affected switch's counter; lanes lazily rebind that unit's table
	// views on the next run instead of the whole engine being re-lowered.
	tableGen []uint64

	codec *WireCodec // lazily built bytes-native parse/serialize programs
}

// NewEngine lowers a deployment into bytecode (with the superinstruction
// fusion pass applied). The lowered code is immutable: control-plane
// mutations through the deployment bump per-switch table generations that
// lanes pick up lazily, so an engine held directly stays valid across
// SetSwitchEntry/ClearSwitchTable.
func NewEngine(d *Deployment) (*Engine, error) {
	return newEngine(d, true)
}

// newEngine is NewEngine with the fusion pass optional — the unfused
// engine is the oracle the fused one is sweep-checked against.
func newEngine(d *Deployment, fuse bool) (*Engine, error) {
	irp := d.Plan.Input.IR
	lay := newLayout()
	lay.seed(irp)
	lo := &lowerer{irp: irp, lay: lay}

	ref, err := lo.lowerReference()
	if err != nil {
		return nil, err
	}
	ref.stateIdx = 0
	e := &Engine{
		dep:         d,
		layout:      lay,
		ref:         ref,
		switchUnits: map[string]*compiledUnit{},
		units:       []*compiledUnit{ref},
	}
	names := make([]string, 0, len(d.Programs))
	for sw := range d.Programs {
		names = append(names, sw)
	}
	sort.Strings(names)
	for _, sw := range names {
		u, err := lo.lowerSwitch(d.Programs[sw])
		if err != nil {
			return nil, err
		}
		u.stateIdx = len(e.units)
		e.units = append(e.units, u)
		e.switchUnits[sw] = u
	}
	if fuse {
		for _, u := range e.units {
			fuseUnit(u)
		}
	}
	for _, u := range e.units {
		if u.numRegs > e.maxRegs {
			e.maxRegs = u.numRegs
		}
		if len(u.gates) > e.maxGates {
			e.maxGates = len(u.gates)
		}
	}
	e.tableGen = make([]uint64, len(e.units))
	return e, nil
}

// invalidateTables marks one switch's control-plane contents changed (the
// empty name marks the reference unit's tables). Existing lanes rebind
// that unit's table views on their next run; the lowered code is untouched.
func (e *Engine) invalidateTables(sw string) {
	if sw == "" {
		e.tableGen[0]++
		return
	}
	if u := e.switchUnits[sw]; u != nil {
		e.tableGen[u.stateIdx]++
	}
}

// Flatten converts a map-based packet into a fresh engine packet.
func (e *Engine) Flatten(p *Packet) *FlatPacket {
	f := e.layout.newFlat()
	f.load(p)
	return f
}

// FlattenInto reuses an existing FlatPacket's storage.
func (e *Engine) FlattenInto(p *Packet, f *FlatPacket) { f.load(p) }

// NewFlatPacket returns an empty packet sized for this engine.
func (e *Engine) NewFlatPacket() *FlatPacket { return e.layout.newFlat() }

// Lane is one worker's execution state: a register arena sized for the
// largest unit, shard-gate snapshots, and per-unit global arrays and table
// views. Stateful programs evolve a lane's globals across packets exactly
// like a deployment's globals evolve across RunPath calls.
type Lane struct {
	eng      *Engine
	regs     []uint64
	gateVals []uint64
	globals  [][][]uint64 // [stateIdx][globalIdx] -> element array
	tables   [][]tableView
	tgen     []uint64 // table generation each unit's views were bound at
}

// NewLane allocates execution state bound to the deployment's current
// control-plane tables. Per-switch globals start zeroed, matching a fresh
// deployment.
func (e *Engine) NewLane() *Lane {
	l := &Lane{
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

// bindTables (re)binds one unit's table views to the deployment's current
// control-plane contents, discarding any copy-on-write clones. Called at
// lane creation and lazily when the unit's table generation moves.
func (l *Lane) bindTables(idx int) {
	e := l.eng
	var src *Tables
	if idx == 0 {
		src = e.dep.tables
	} else {
		src = e.dep.shardTables[e.units[idx].name]
	}
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
func (l *Lane) syncTables(idx int) {
	if l.tgen[idx] != l.eng.tableGen[idx] {
		l.bindTables(idx)
	}
}

// opval resolves one operand. Kept free of receiver state so it inlines
// into the dispatch loop.
func opval(r opRef, regs []uint64, f *FlatPacket) uint64 {
	switch r.kind {
	case oConst:
		return r.c
	case oReg:
		return regs[r.idx]
	default:
		return f.Fields[r.idx]
	}
}

func store(in *binstr, regs []uint64, f *FlatPacket, v uint64) {
	switch in.destKind {
	case dReg:
		regs[in.dest] = v & in.destMask
	case dField:
		f.Fields[in.dest] = v & in.destMask
		f.fieldSet[in.dest] = true
	}
}

// store2 writes a fused superinstruction's second destination.
func store2(in *binstr, regs []uint64, f *FlatPacket, v uint64) {
	switch in.dest2Kind {
	case dReg:
		regs[in.dest2] = v & in.dest2Mask
	case dField:
		f.Fields[in.dest2] = v & in.dest2Mask
		f.fieldSet[in.dest2] = true
	}
}

var zeroCtx Context

// exec runs one unit's code against the lane's state. Guards and gates are
// pre-resolved index lookups; nothing in this loop allocates.
func (l *Lane) exec(u *compiledUnit, ctx *Context, f *FlatPacket) {
	regs := l.regs
	tabs := l.tables[u.stateIdx]
	globs := l.globals[u.stateIdx]
	code := u.code
	for i := range code {
		in := &code[i]
		if in.g1reg >= 0 {
			// Inlined single-conjunct guard (the guard→assign fusion).
			if (regs[in.g1reg] != 0) == in.g1neg {
				continue
			}
		} else if in.guardEnd > in.guardOff {
			ok := true
			for _, g := range u.guards[in.guardOff:in.guardEnd] {
				if (regs[g.reg] != 0) == g.neg {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
		}
		if in.gate >= 0 && l.gateVals[in.gate] != 0 {
			continue
		}
		switch in.op {
		case bAssign:
			store(in, regs, f, opval(in.a, regs, f))
		case bBin:
			store(in, regs, f, evalBin(in.binop, opval(in.a, regs, f), opval(in.b, regs, f)))
		case bNot:
			v := uint64(0)
			if opval(in.a, regs, f) == 0 {
				v = 1
			}
			store(in, regs, f, v)
		case bSelect:
			if opval(in.a, regs, f) != 0 {
				store(in, regs, f, opval(in.b, regs, f))
			} else {
				store(in, regs, f, opval(in.c, regs, f))
			}
		case bHash:
			var h uint64 = 14695981039346656037
			for _, a := range u.args[in.argsOff:in.argsEnd] {
				v := opval(a, regs, f)
				for sh := uint(0); sh < 64; sh += 8 {
					h ^= (v >> sh) & 0xff
					h *= 1099511628211
				}
			}
			if in.crc16 {
				h = (h >> 16) ^ (h & 0xffff)
			}
			store(in, regs, f, h&in.auxMask)
		case bLib:
			var v uint64
			switch in.table {
			case libSwitchID:
				v = ctx.SwitchID
			case libIngressTS:
				v = ctx.IngressTS
			case libEgressTS:
				v = ctx.EgressTS
			case libQueueLen:
				v = ctx.QueueLen
			case libQueueTime:
				v = ctx.QueueTime
			case libIngressPort:
				v = ctx.IngressPort
			}
			store(in, regs, f, v)
		case bHeaderAdd:
			f.Valid[in.table] = true
			f.validSet[in.table] = true
		case bHeaderRemove:
			f.Valid[in.table] = false
			f.validSet[in.table] = true
		case bDrop:
			f.Dropped = true
		case bForward:
			f.EgressPort = opval(in.a, regs, f)
		case bMirror:
			f.Mirrored = true
		case bToCPU:
			f.ToCPU = true
		case bMember:
			_, hit := tabs[in.table].entries[opval(in.a, regs, f)]
			v := uint64(0)
			if hit {
				v = 1
			}
			store(in, regs, f, v)
		case bLookup:
			store(in, regs, f, tabs[in.table].entries[opval(in.a, regs, f)])
		case bGlobalRead:
			arr := globs[in.table]
			idx := opval(in.a, regs, f)
			var v uint64
			if idx < uint64(len(arr)) {
				v = arr[idx]
			}
			store(in, regs, f, v)
		case bGlobalWrite:
			arr := globs[in.table]
			idx := opval(in.a, regs, f)
			if idx < uint64(len(arr)) {
				arr[idx] = opval(in.b, regs, f) & in.auxMask
			}
		case bInsert:
			tabs[in.table].insert(opval(in.a, regs, f), opval(in.b, regs, f))
		case bHashLookup, bHashMember:
			var h uint64 = 14695981039346656037
			for _, a := range u.args[in.argsOff:in.argsEnd] {
				v := opval(a, regs, f)
				for sh := uint(0); sh < 64; sh += 8 {
					h ^= (v >> sh) & 0xff
					h *= 1099511628211
				}
			}
			if in.crc16 {
				h = (h >> 16) ^ (h & 0xffff)
			}
			store(in, regs, f, h&in.auxMask)
			// The lookup key is the hash register after its store mask,
			// exactly what the unfused pair would read back.
			key := regs[in.dest]
			if in.op == bHashLookup {
				store2(in, regs, f, tabs[in.table].entries[key])
			} else {
				_, hit := tabs[in.table].entries[key]
				v := uint64(0)
				if hit {
					v = 1
				}
				store2(in, regs, f, v)
			}
		case bBinSelect:
			store(in, regs, f, evalBin(in.binop, opval(in.a, regs, f), opval(in.b, regs, f)))
			var v uint64
			if regs[in.dest] != 0 {
				v = opval(u.args[in.argsOff], regs, f)
			} else {
				v = opval(u.args[in.argsOff+1], regs, f)
			}
			store2(in, regs, f, v)
		}
	}
}

// runSwitch executes one switch unit: fresh registers, bridge imports,
// shard-gate snapshot, code, bridge exports — the compiled equivalent of
// one RunPath hop.
func (l *Lane) runSwitch(u *compiledUnit, ctx *Context, f *FlatPacket) {
	l.syncTables(u.stateIdx)
	clear(l.regs[:u.numRegs])
	for _, m := range u.imports {
		l.regs[m.reg] = f.Bridge[m.slot]
	}
	for i, rs := range u.gates {
		l.gateVals[i] = l.regs[rs]
	}
	l.exec(u, ctx, f)
	for _, m := range u.exports {
		f.Bridge[m.slot] = l.regs[m.reg]
		f.bridgeSet[m.slot] = true
	}
}

// RunReference executes the one-big-pipeline reference semantics on the
// lane, equivalent to dataplane.RunReference against the engine's tables.
func (e *Engine) RunReference(l *Lane, ctx *Context, f *FlatPacket) {
	if ctx == nil {
		ctx = &zeroCtx
	}
	l.syncTables(0)
	clear(l.regs[:e.ref.numRegs])
	l.exec(e.ref, ctx, f)
}

// RunPacket pushes one packet along a flow path, mutating it in place —
// the compiled equivalent of Deployment.RunPath minus the input clone.
func (e *Engine) RunPacket(l *Lane, path []string, ctx *Context, f *FlatPacket) {
	if ctx == nil {
		ctx = &zeroCtx
	}
	for _, sw := range path {
		if u := e.switchUnits[sw]; u != nil {
			l.runSwitch(u, ctx, f)
		}
	}
}

// RunPacketContexts is RunPacket with a per-switch environment.
func (e *Engine) RunPacketContexts(l *Lane, path []string, ctxOf func(sw string) *Context, f *FlatPacket) {
	for _, sw := range path {
		u := e.switchUnits[sw]
		if u == nil {
			continue
		}
		ctx := ctxOf(sw)
		if ctx == nil {
			ctx = &zeroCtx
		}
		l.runSwitch(u, ctx, f)
	}
}

// RunBatch replays a batch of packets along a path, sharding the batch
// into contiguous chunks across a bounded worker pool with one lane per
// worker. Each packet is mutated in place. Lanes persist across calls, so
// stateful programs see a continuous packet stream per lane; chunking is
// deterministic for a given worker count.
func (e *Engine) RunBatch(path []string, ctx *Context, pkts []*FlatPacket, workers int) {
	n := len(pkts)
	if n == 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	e.ensureLanes(workers)
	if workers == 1 {
		l := e.lanes[0]
		for _, f := range pkts {
			e.RunPacket(l, path, ctx, f)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	par.For(workers, workers, func(w int) {
		lo := w * chunk
		if lo >= n {
			return
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		l := e.lanes[w]
		for _, f := range pkts[lo:hi] {
			e.RunPacket(l, path, ctx, f)
		}
	})
}

func (e *Engine) ensureLanes(n int) {
	for len(e.lanes) < n {
		e.lanes = append(e.lanes, e.NewLane())
	}
}

// Layout sanity check for callers mixing engines.
func (e *Engine) owns(f *FlatPacket) error {
	if f.lay != e.layout {
		return fmt.Errorf("dataplane: FlatPacket belongs to a different engine layout")
	}
	return nil
}
