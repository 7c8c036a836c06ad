package dataplane

// This file is the lowering pass: it flattens each placed
// backend.SwitchProgram — the inputs the tree-walking interpreter runs hop
// by hop — into a linear instruction array over dense integer slots. The
// closures compile.go builds from them then never touch a map, a string
// key, or a *ir.Var pointer: SSA variables become register indices in
// first-use order, header fields and validity bits become packet-array
// offsets, extern tables and global register arrays become handle indices,
// guards become precomputed (register, polarity) ranges, and the shard
// hit-gating of Algorithm 2 becomes a per-instruction gate index resolved
// at lowering time instead of a per-packet map build.

import (
	"fmt"
	"sort"

	"lyra/internal/backend"
	"lyra/internal/ir"
	"lyra/internal/lang/ast"
)

// Lowered opcodes. Packet operations are specialized into one opcode each
// so no executor string-compares the IR's Table field.
const (
	bAssign uint8 = iota
	bBin
	bNot
	bSelect
	bHash
	bLib
	bHeaderAdd
	bHeaderRemove
	bDrop
	bForward
	bMirror
	bToCPU
	bMember
	bLookup
	bGlobalRead
	bGlobalWrite
	bInsert
)

// Destination kinds.
const (
	dNone uint8 = iota
	dReg
	dField
)

// Operand kinds.
const (
	oConst uint8 = iota
	oReg
	oField
)

// Library-call codes (ILib lowered against Context).
const (
	libUnknown int32 = iota
	libSwitchID
	libIngressTS
	libEgressTS
	libQueueLen
	libQueueTime
	libIngressPort
)

func libCode(name string) int32 {
	switch name {
	case "get_switch_id":
		return libSwitchID
	case "get_ingress_timestamp":
		return libIngressTS
	case "get_egress_timestamp":
		return libEgressTS
	case "get_queue_len":
		return libQueueLen
	case "get_queue_time":
		return libQueueTime
	case "get_ingress_port":
		return libIngressPort
	}
	return libUnknown
}

// opRef is a resolved operand: a constant, a register slot, or a packet
// field slot.
type opRef struct {
	kind uint8
	idx  int32
	c    uint64
}

// guardRef is one precompiled guard conjunct: the predicate's register slot
// and its required polarity.
type guardRef struct {
	reg int32
	neg bool
}

// binstr is one lowered instruction. Variable-length parts (guard terms,
// hash arguments) live in the unit's flat side arrays, referenced by
// [off,end) ranges, so the instruction array itself is a dense struct
// slice.
type binstr struct {
	op       uint8
	destKind uint8
	crc16    bool   // bHash: fold the 64-bit FNV state to 16 bits
	binop    ast.Op // bBin only
	dest     int32  // register or field slot
	destMask uint64 // width mask applied on store
	a, b, c  opRef
	table    int32  // extern/global/valid-slot/lib-code index, per op
	auxMask  uint64 // bHash: output width; bGlobalWrite: element width
	gate     int32  // shard-gate index, -1 when ungated
	guardOff int32
	guardEnd int32
	argsOff  int32 // bHash operands in unit.args
	argsEnd  int32
}

// globalSpec is a lowered global register array: its declared length and
// element-width mask.
type globalSpec struct {
	name   string
	length int
	mask   uint64
}

// Layout assigns the dense slot universe shared by every compiled unit of
// one engine: packet fields, header validity bits, bridge variables,
// extern table handles, and global arrays. FlatPackets are sized from it.
type Layout struct {
	fieldSlot  map[string]int
	fieldName  []string
	fieldMask  []uint64
	validSlot  map[string]int
	validName  []string
	bridgeSlot map[string]int
	bridgeName []string
	externSlot map[string]int
	externName []string
	globalSlot map[string]int
	globals    []globalSpec
}

func newLayout() *Layout {
	return &Layout{
		fieldSlot:  map[string]int{},
		validSlot:  map[string]int{},
		bridgeSlot: map[string]int{},
		externSlot: map[string]int{},
		globalSlot: map[string]int{},
	}
}

// maskBits returns the store mask for a bit width, with the interpreter's
// convention that 0 or >=64 leaves values untouched.
func maskBits(bits int) uint64 {
	if bits <= 0 || bits >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(bits) - 1
}

// A FlatPacket's slab is the layout's field words, then its bridge words,
// then packed bits, slot by slot: field-present, header-valid,
// header-valid-set and bridge-present. The layout is complete once the
// engine is lowered, so every position is fixed before any packet exists.
const (
	fieldPresent = iota
	headerValid
	headerValidSet
	bridgePresent
)

// bit returns the slab word and mask of one packed bit of a slot.
func (l *Layout) bit(kind, slot int) (int, uint64) {
	nf, nv := len(l.fieldName), len(l.validName)
	i := 64*(nf+len(l.bridgeName)) + slot + [...]int{0, nf, nf + nv, nf + 2*nv}[kind]
	return i >> 6, 1 << (i & 63)
}

// bridgeWord returns the slab word of a bridge slot.
func (l *Layout) bridgeWord(slot int) int { return len(l.fieldName) + slot }

func (l *Layout) ensureField(name string, bits int) int {
	if s, ok := l.fieldSlot[name]; ok {
		return s
	}
	s := len(l.fieldName)
	l.fieldSlot[name] = s
	l.fieldName = append(l.fieldName, name)
	l.fieldMask = append(l.fieldMask, maskBits(bits))
	return s
}

func (l *Layout) ensureValid(name string) int {
	if s, ok := l.validSlot[name]; ok {
		return s
	}
	s := len(l.validName)
	l.validSlot[name] = s
	l.validName = append(l.validName, name)
	return s
}

func (l *Layout) ensureBridge(name string) int {
	if s, ok := l.bridgeSlot[name]; ok {
		return s
	}
	s := len(l.bridgeName)
	l.bridgeSlot[name] = s
	l.bridgeName = append(l.bridgeName, name)
	return s
}

func (l *Layout) ensureExtern(name string) int {
	if s, ok := l.externSlot[name]; ok {
		return s
	}
	s := len(l.externName)
	l.externSlot[name] = s
	l.externName = append(l.externName, name)
	return s
}

func (l *Layout) ensureGlobal(g *ir.GlobalDecl) int {
	if s, ok := l.globalSlot[g.Name]; ok {
		return s
	}
	s := len(l.globals)
	l.globalSlot[g.Name] = s
	l.globals = append(l.globals, globalSpec{name: g.Name, length: g.Len, mask: maskBits(g.Bits)})
	return s
}

// seed pre-assigns every declared field, header, extern, and global in
// sorted order so slot numbering is deterministic regardless of lowering
// order.
func (l *Layout) seed(irp *ir.Program) {
	for _, f := range irp.SortedFields() {
		l.ensureField(f.Hdr+"."+f.Name, f.Bits)
	}
	names := make([]string, 0, len(irp.HeaderBits))
	for h := range irp.HeaderBits {
		names = append(names, h)
	}
	sort.Strings(names)
	for _, h := range names {
		l.ensureValid(h)
	}
	for _, a := range irp.Algorithms {
		for _, e := range a.Externs {
			l.ensureExtern(e.Name)
		}
		for _, g := range a.Globals {
			l.ensureGlobal(g)
		}
	}
}

// compiledUnit is one switch's placed program, lowered.
type compiledUnit struct {
	name    string // the switch
	numRegs int
	code    []binstr
	guards  []guardRef
	args    []opRef
	imports []bridgeMove
	exports []bridgeMove
	gates   []int32 // gate index -> register slot of the bridged hit var
}

// bridgeMove copies one variable between the bridge header and a register.
type bridgeMove struct {
	reg  int32
	slot int32
}

// lowerer shares the layout and program context across all units of one
// engine.
type lowerer struct {
	irp *ir.Program
	lay *Layout
}

func (lo *lowerer) opref(o ir.Operand, slot func(*ir.Var) int32) opRef {
	switch o.Kind {
	case ir.OpdConst:
		return opRef{kind: oConst, c: o.Const}
	case ir.OpdVar:
		return opRef{kind: oReg, idx: slot(o.Var)}
	default:
		return opRef{kind: oField, idx: int32(lo.lay.ensureField(o.Hdr+"."+o.Field, lo.irp.Fields[o.FieldID].Bits))}
	}
}

// lowerInstrs appends the lowered form of one IR instruction stream to u.
// gateOf maps an instruction ID to its shard-gate index; instructions it
// does not name run ungated.
func (lo *lowerer) lowerInstrs(u *compiledUnit, instrs []*ir.Instr,
	slot func(*ir.Var) int32, gateOf map[int]int32) error {
	for _, in := range instrs {
		b := binstr{gate: -1, guardOff: int32(len(u.guards)), argsOff: int32(len(u.args))}
		for _, g := range in.Guard {
			u.guards = append(u.guards, guardRef{reg: slot(g.Var), neg: g.Neg})
		}
		b.guardEnd = int32(len(u.guards))
		b.argsEnd = b.argsOff
		if gi, ok := gateOf[in.ID]; ok {
			b.gate = gi
		}
		// Destination (IHash computes its own width below; the store mask
		// is independent of it, mirroring execEnv.store).
		switch in.Dest.Kind {
		case ir.DestVar:
			b.destKind = dReg
			b.dest = slot(in.Dest.Var)
			b.destMask = maskBits(in.Dest.Var.Bits)
		case ir.DestField:
			s := lo.lay.ensureField(in.Dest.Hdr+"."+in.Dest.Field, lo.irp.Fields[in.Dest.FieldID].Bits)
			b.destKind = dField
			b.dest = int32(s)
			b.destMask = lo.lay.fieldMask[s]
		default:
			b.destKind = dNone
		}
		switch in.Op {
		case ir.IAssign:
			b.op = bAssign
			b.a = lo.opref(in.Args[0], slot)
		case ir.IBin:
			b.op = bBin
			b.binop = in.BinOp
			b.a = lo.opref(in.Args[0], slot)
			b.b = lo.opref(in.Args[1], slot)
		case ir.INot:
			b.op = bNot
			b.a = lo.opref(in.Args[0], slot)
		case ir.ISelect:
			b.op = bSelect
			b.a = lo.opref(in.Args[0], slot)
			b.b = lo.opref(in.Args[1], slot)
			b.c = lo.opref(in.Args[2], slot)
		case ir.IHash:
			b.op = bHash
			b.crc16 = in.Table == "crc16_hash"
			b.auxMask = maskBits(destWidth(in))
			for _, a := range in.Args {
				u.args = append(u.args, lo.opref(a, slot))
			}
			b.argsEnd = int32(len(u.args))
		case ir.ILib:
			if in.Dest.Kind == ir.DestNone {
				continue // the interpreter discards resultless lib calls
			}
			b.op = bLib
			b.table = libCode(in.Table)
		case ir.IHeaderAdd:
			b.op = bHeaderAdd
			b.table = int32(lo.lay.ensureValid(in.Table))
		case ir.IHeaderRemove:
			b.op = bHeaderRemove
			b.table = int32(lo.lay.ensureValid(in.Table))
		case ir.IPacketOp:
			switch in.Table {
			case "drop":
				b.op = bDrop
			case "forward":
				b.op = bForward
				b.a = lo.opref(in.Args[0], slot)
			case "mirror":
				b.op = bMirror
			case "copy_to_cpu":
				b.op = bToCPU
			default:
				continue // unknown packet op: the interpreter ignores it
			}
		case ir.IMember:
			b.op = bMember
			b.a = lo.opref(in.Args[0], slot)
			b.table = int32(lo.lay.ensureExtern(in.Table))
		case ir.ILookup:
			b.op = bLookup
			b.a = lo.opref(in.Args[0], slot)
			b.table = int32(lo.lay.ensureExtern(in.Table))
		case ir.IGlobalRead:
			g := lo.irp.Global(in.Table)
			if g == nil {
				return fmt.Errorf("dataplane: unknown global %q", in.Table)
			}
			b.op = bGlobalRead
			b.a = lo.opref(in.Args[0], slot)
			b.table = int32(lo.lay.ensureGlobal(g))
		case ir.IGlobalWrite:
			g := lo.irp.Global(in.Table)
			if g == nil {
				return fmt.Errorf("dataplane: unknown global %q", in.Table)
			}
			b.op = bGlobalWrite
			b.a = lo.opref(in.Args[0], slot)
			b.b = lo.opref(in.Args[1], slot)
			b.table = int32(lo.lay.ensureGlobal(g))
			b.auxMask = lo.lay.globals[b.table].mask
		case ir.IExternInsert:
			if len(in.Args) < 2 {
				continue // the interpreter ignores malformed inserts
			}
			b.op = bInsert
			b.a = lo.opref(in.Args[0], slot)
			b.b = lo.opref(in.Args[1], slot)
			b.table = int32(lo.lay.ensureExtern(in.Table))
		default:
			return fmt.Errorf("dataplane: cannot lower op %v", in.Op)
		}
		u.code = append(u.code, b)
	}
	return nil
}

// lowerSwitch flattens one switch's placed program: imports load bridge
// slots into registers, shard hit-gates are snapshotted from the imported
// registers, and exports copy registers back into the bridge.
func (lo *lowerer) lowerSwitch(sp *backend.SwitchProgram) (*compiledUnit, error) {
	u := &compiledUnit{name: sp.Switch}
	regs := map[*ir.Var]int32{}
	slot := func(v *ir.Var) int32 {
		r, ok := regs[v]
		if !ok {
			r = int32(len(regs))
			regs[v] = r
		}
		return r
	}

	for _, bv := range sp.Imports {
		u.imports = append(u.imports, bridgeMove{
			reg:  slot(bv.Var),
			slot: int32(lo.lay.ensureBridge(bv.Field)),
		})
	}

	// Shard gating (Algorithm 2): one gate per hit-guarded table, its value
	// snapshotted at switch entry from the bridged hit variable.
	gated := make([]string, 0, len(sp.HitGuards))
	for name := range sp.HitGuards {
		gated = append(gated, name)
	}
	sort.Strings(gated)
	gateIdx := map[string]int32{}
	for i, name := range gated {
		gateIdx[name] = int32(i)
		u.gates = append(u.gates, slot(sp.HitGuards[name]))
	}
	instrGate := map[int]int32{}
	for _, pt := range sp.Tables {
		gi, ok := gateIdx[pt.Name]
		if !ok {
			continue
		}
		for _, ti := range pt.Table.Instrs() {
			instrGate[ti.ID] = gi
		}
	}

	if err := lo.lowerInstrs(u, sp.Instrs, slot, instrGate); err != nil {
		return nil, err
	}

	for _, bv := range sp.Exports {
		u.exports = append(u.exports, bridgeMove{
			reg:  slot(bv.Var),
			slot: int32(lo.lay.ensureBridge(bv.Field)),
		})
	}
	u.numRegs = len(regs)
	return u, nil
}
