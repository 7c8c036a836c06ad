package dataplane

// The compiled execution backend — the one executor of lowered units. Each
// unit is lowered ONCE into closure-threaded Go: every instruction becomes
// a specialized closure with its operands, masks, and slot indices bound as
// captured constants, and consecutive instructions that run under the same
// guard conjunction and shard gate are grouped into a basic block whose
// guard is evaluated a single time. Executing a packet is then: per block,
// one gate test and one guard walk, followed by straight-line calls into
// pre-specialized bodies — no opcode dispatch, no operand-kind switches,
// and (for the common blocks born from if-conversion) one guard evaluation
// amortized over the whole block instead of per instruction.
//
// The closures are built against the Engine's Layout and run on its lanes,
// so the per-switch table-generation invalidation reaches them through
// those. The tree-walking interpreter, which shares none of this code, is
// the oracle it is cross-checked against (difftest runs both packet by
// packet).

import (
	"math/bits"
	"runtime"
	"slices"

	"lyra/internal/par"
)

// cop is one compiled operation: a closure over the resolved instruction,
// called with the lane's register file and the per-unit table/global state.
type cop func(regs []uint64, f *FlatPacket, ctx *Context, tabs []tableView, globs [][]uint64)

// cblock is a guard-hoisted basic block: ops run back-to-back once the
// block's gate and guard conjunction pass. guards and ops are kept as
// metadata (introspection, tests); execution goes through run, a single
// closure with the guard conjunction and the op chain fused in.
type cblock struct {
	guards []guardRef
	gate   int32
	ops    []cop
	run    cop
}

// cstep is the execution-time view of a block: just the fused closure and
// its shard gate, packed for cache-friendly iteration.
type cstep struct {
	run  cop
	gate int32
}

// ccode is one compiled unit: the blocks plus the lowered unit it came
// from, with its bridge moves resolved against the slab. steps mirrors blocks
// in compact form; clearRegs lists the registers that must be zeroed between
// packets (the rest are provably written before any read). stateIdx picks
// the lane state (globals and table views) the unit runs on.
type ccode struct {
	u                *compiledUnit
	stateIdx         int
	blocks           []cblock
	steps            []cstep
	clearRegs        []int32
	imports, exports []slabMove
}

// slabMove is a bridge move resolved against the slab: the register, the
// bridge word, and the word and mask of its present bit.
type slabMove struct {
	reg, word, pw int32
	pm            uint64
}

// compileUnit groups a unit's instructions into guard-hoisted blocks and
// specializes each instruction into a closure. A block closes early when an
// instruction writes a register its own guard tests: the next instruction
// then opens a fresh block with the same conjunction, which re-evaluates it
// against the updated register — exactly the per-instruction re-check the
// interpreter performs.
func compileUnit(u *compiledUnit, lay *Layout) *ccode {
	c := &ccode{u: u}
	var cur *cblock
	var curRep *binstr // representative instruction of the open block
	for i := range u.code {
		in := &u.code[i]
		if cur == nil || curRep.gate != in.gate ||
			!slices.Equal(u.guards[curRep.guardOff:curRep.guardEnd], u.guards[in.guardOff:in.guardEnd]) {
			c.blocks = append(c.blocks, cblock{
				guards: u.guards[in.guardOff:in.guardEnd],
				gate:   in.gate,
			})
			cur = &c.blocks[len(c.blocks)-1]
			curRep = in
		}
		cur.ops = append(cur.ops, compileOp(in, u, lay))
		if blockGuardClobbered(cur, in) {
			cur = nil
		}
	}
	for i := range c.blocks {
		c.blocks[i].run = fuseBlock(&c.blocks[i])
		c.steps = append(c.steps, cstep{run: c.blocks[i].run, gate: c.blocks[i].gate})
	}
	c.clearRegs = clearSet(u)
	resolve := func(ms []bridgeMove) (out []slabMove) {
		for _, m := range ms {
			pw, pm := lay.bit(bridgePresent, int(m.slot))
			out = append(out, slabMove{reg: m.reg, word: int32(lay.bridgeWord(int(m.slot))), pw: int32(pw), pm: pm})
		}
		return out
	}
	c.imports, c.exports = resolve(u.imports), resolve(u.exports)
	return c
}

// clearSet computes which registers can be observed stale between packets:
// a register needs zeroing unless its first use in the unit's linear order
// is an UNCONDITIONAL write (no guards, no gate — a skipped block's write
// never happens). Bridge imports count as writes; gate snapshots, guard
// tests, and bridge exports count as reads. Unused operand slots have the
// zero opRef kind (oConst) and read nothing.
func clearSet(u *compiledUnit) []int32 {
	written := make([]bool, u.numRegs)
	need := make([]bool, u.numRegs)
	readReg := func(r int32) {
		if !written[r] {
			need[r] = true
		}
	}
	read := func(r opRef) {
		if r.kind == oReg {
			readReg(r.idx)
		}
	}
	for _, m := range u.imports {
		written[m.reg] = true
	}
	for _, rs := range u.gates {
		readReg(rs)
	}
	for i := range u.code {
		in := &u.code[i]
		for _, g := range u.guards[in.guardOff:in.guardEnd] {
			readReg(g.reg)
		}
		read(in.a)
		read(in.b)
		read(in.c)
		for _, a := range u.args[in.argsOff:in.argsEnd] {
			read(a)
		}
		if in.guardOff == in.guardEnd && in.gate < 0 && in.destKind == dReg {
			written[in.dest] = true
		}
	}
	for _, m := range u.exports {
		readReg(m.reg)
	}
	var out []int32
	for r, n := range need {
		if n {
			out = append(out, int32(r))
		}
	}
	return out
}

// fuseBlock collapses a block's guard conjunction and op chain into one
// closure: the common shapes (no guards, a single guard, one to three ops)
// become straight-line code with no slice iteration at run time.
func fuseBlock(b *cblock) cop {
	var body cop
	switch len(b.ops) {
	case 1:
		body = b.ops[0]
	case 2:
		o0, o1 := b.ops[0], b.ops[1]
		body = func(regs []uint64, f *FlatPacket, ctx *Context, tabs []tableView, globs [][]uint64) {
			o0(regs, f, ctx, tabs, globs)
			o1(regs, f, ctx, tabs, globs)
		}
	case 3:
		o0, o1, o2 := b.ops[0], b.ops[1], b.ops[2]
		body = func(regs []uint64, f *FlatPacket, ctx *Context, tabs []tableView, globs [][]uint64) {
			o0(regs, f, ctx, tabs, globs)
			o1(regs, f, ctx, tabs, globs)
			o2(regs, f, ctx, tabs, globs)
		}
	default:
		ops := b.ops
		body = func(regs []uint64, f *FlatPacket, ctx *Context, tabs []tableView, globs [][]uint64) {
			for _, op := range ops {
				op(regs, f, ctx, tabs, globs)
			}
		}
	}
	switch len(b.guards) {
	case 0:
		return body
	case 1:
		g := b.guards[0]
		r := g.reg
		if g.neg {
			return func(regs []uint64, f *FlatPacket, ctx *Context, tabs []tableView, globs [][]uint64) {
				if regs[r] == 0 {
					body(regs, f, ctx, tabs, globs)
				}
			}
		}
		return func(regs []uint64, f *FlatPacket, ctx *Context, tabs []tableView, globs [][]uint64) {
			if regs[r] != 0 {
				body(regs, f, ctx, tabs, globs)
			}
		}
	default:
		gs := b.guards
		return func(regs []uint64, f *FlatPacket, ctx *Context, tabs []tableView, globs [][]uint64) {
			for _, g := range gs {
				if (regs[g.reg] != 0) == g.neg {
					return
				}
			}
			body(regs, f, ctx, tabs, globs)
		}
	}
}

// blockGuardClobbered reports whether the instruction writes a register the
// open block's guard conjunction tests.
func blockGuardClobbered(b *cblock, in *binstr) bool {
	for _, g := range b.guards {
		if in.destKind == dReg && in.dest == g.reg {
			return true
		}
	}
	return false
}

// mkLoad specializes one operand fetch.
func mkLoad(r opRef) func(regs []uint64, f *FlatPacket) uint64 {
	switch r.kind {
	case oConst:
		c := r.c
		return func([]uint64, *FlatPacket) uint64 { return c }
	case oReg:
		i := r.idx
		return func(regs []uint64, _ *FlatPacket) uint64 { return regs[i] }
	default:
		i := r.idx
		return func(_ []uint64, f *FlatPacket) uint64 { return f.w[i] }
	}
}

// mkStore specializes one destination store (destination kind, width mask
// and, for a field, its present bit bound at compile time).
func mkStore(lay *Layout, kind uint8, dest int32, m uint64) func(regs []uint64, f *FlatPacket, v uint64) {
	switch kind {
	case dReg:
		return func(regs []uint64, _ *FlatPacket, v uint64) { regs[dest] = v & m }
	case dField:
		pw, pm := lay.bit(fieldPresent, int(dest))
		return func(_ []uint64, f *FlatPacket, v uint64) {
			f.w[dest] = v & m
			f.w[pw] |= pm
		}
	default:
		return func([]uint64, *FlatPacket, uint64) {}
	}
}

// compileOp specializes one lowered instruction into a closure. The hot
// shapes (register/constant/field assigns, reg⊗reg and reg⊗const binary
// ops into a register) get fully inlined bodies; everything else composes
// the mkLoad/mkStore specializations.
func compileOp(in *binstr, u *compiledUnit, lay *Layout) cop {
	switch in.op {
	case bAssign:
		if in.destKind == dReg {
			d, m := in.dest, in.destMask
			switch in.a.kind {
			case oConst:
				v := in.a.c & m
				return func(regs []uint64, _ *FlatPacket, _ *Context, _ []tableView, _ [][]uint64) {
					regs[d] = v
				}
			case oReg:
				s := in.a.idx
				return func(regs []uint64, _ *FlatPacket, _ *Context, _ []tableView, _ [][]uint64) {
					regs[d] = regs[s] & m
				}
			default:
				s := in.a.idx
				return func(regs []uint64, f *FlatPacket, _ *Context, _ []tableView, _ [][]uint64) {
					regs[d] = f.w[s] & m
				}
			}
		}
		if in.destKind == dField {
			d, m := in.dest, in.destMask
			pw, pm := lay.bit(fieldPresent, int(d))
			switch in.a.kind {
			case oConst:
				v := in.a.c & m
				return func(_ []uint64, f *FlatPacket, _ *Context, _ []tableView, _ [][]uint64) {
					f.w[d] = v
					f.w[pw] |= pm
				}
			case oReg:
				s := in.a.idx
				return func(regs []uint64, f *FlatPacket, _ *Context, _ []tableView, _ [][]uint64) {
					f.w[d] = regs[s] & m
					f.w[pw] |= pm
				}
			default:
				s := in.a.idx
				return func(_ []uint64, f *FlatPacket, _ *Context, _ []tableView, _ [][]uint64) {
					f.w[d] = f.w[s] & m
					f.w[pw] |= pm
				}
			}
		}
		ld := mkLoad(in.a)
		st := mkStore(lay, in.destKind, in.dest, in.destMask)
		return func(regs []uint64, f *FlatPacket, _ *Context, _ []tableView, _ [][]uint64) {
			st(regs, f, ld(regs, f))
		}
	case bBin:
		op := in.binop
		if in.destKind == dReg && in.a.kind == oReg {
			d, m, ai := in.dest, in.destMask, in.a.idx
			switch in.b.kind {
			case oReg:
				bi := in.b.idx
				return func(regs []uint64, _ *FlatPacket, _ *Context, _ []tableView, _ [][]uint64) {
					regs[d] = evalBin(op, regs[ai], regs[bi]) & m
				}
			case oConst:
				c := in.b.c
				return func(regs []uint64, _ *FlatPacket, _ *Context, _ []tableView, _ [][]uint64) {
					regs[d] = evalBin(op, regs[ai], c) & m
				}
			default:
				fi := in.b.idx
				return func(regs []uint64, f *FlatPacket, _ *Context, _ []tableView, _ [][]uint64) {
					regs[d] = evalBin(op, regs[ai], f.w[fi]) & m
				}
			}
		}
		la, lb := mkLoad(in.a), mkLoad(in.b)
		st := mkStore(lay, in.destKind, in.dest, in.destMask)
		return func(regs []uint64, f *FlatPacket, _ *Context, _ []tableView, _ [][]uint64) {
			st(regs, f, evalBin(op, la(regs, f), lb(regs, f)))
		}
	case bNot:
		ld := mkLoad(in.a)
		st := mkStore(lay, in.destKind, in.dest, in.destMask)
		return func(regs []uint64, f *FlatPacket, _ *Context, _ []tableView, _ [][]uint64) {
			v := uint64(0)
			if ld(regs, f) == 0 {
				v = 1
			}
			st(regs, f, v)
		}
	case bSelect:
		lc, lt, lf := mkLoad(in.a), mkLoad(in.b), mkLoad(in.c)
		st := mkStore(lay, in.destKind, in.dest, in.destMask)
		return func(regs []uint64, f *FlatPacket, _ *Context, _ []tableView, _ [][]uint64) {
			if lc(regs, f) != 0 {
				st(regs, f, lt(regs, f))
			} else {
				st(regs, f, lf(regs, f))
			}
		}
	case bHash:
		hash := mkHash(u.args[in.argsOff:in.argsEnd], in.crc16)
		am := in.auxMask
		st := mkStore(lay, in.destKind, in.dest, in.destMask)
		return func(regs []uint64, f *FlatPacket, _ *Context, _ []tableView, _ [][]uint64) {
			st(regs, f, hash(regs, f)&am)
		}
	case bLib:
		st := mkStore(lay, in.destKind, in.dest, in.destMask)
		switch in.table {
		case libSwitchID:
			return func(regs []uint64, f *FlatPacket, ctx *Context, _ []tableView, _ [][]uint64) {
				st(regs, f, ctx.SwitchID)
			}
		case libIngressTS:
			return func(regs []uint64, f *FlatPacket, ctx *Context, _ []tableView, _ [][]uint64) {
				st(regs, f, ctx.IngressTS)
			}
		case libEgressTS:
			return func(regs []uint64, f *FlatPacket, ctx *Context, _ []tableView, _ [][]uint64) {
				st(regs, f, ctx.EgressTS)
			}
		case libQueueLen:
			return func(regs []uint64, f *FlatPacket, ctx *Context, _ []tableView, _ [][]uint64) {
				st(regs, f, ctx.QueueLen)
			}
		case libQueueTime:
			return func(regs []uint64, f *FlatPacket, ctx *Context, _ []tableView, _ [][]uint64) {
				st(regs, f, ctx.QueueTime)
			}
		case libIngressPort:
			return func(regs []uint64, f *FlatPacket, ctx *Context, _ []tableView, _ [][]uint64) {
				st(regs, f, ctx.IngressPort)
			}
		default:
			return func(regs []uint64, f *FlatPacket, _ *Context, _ []tableView, _ [][]uint64) {
				st(regs, f, 0)
			}
		}
	case bHeaderAdd, bHeaderRemove:
		vw, vm := lay.bit(headerValid, int(in.table))
		sw, sm := lay.bit(headerValidSet, int(in.table))
		on := vm // the valid bit's new value, in place
		if in.op == bHeaderRemove {
			on = 0
		}
		return func(_ []uint64, f *FlatPacket, _ *Context, _ []tableView, _ [][]uint64) {
			f.w[vw] = f.w[vw]&^vm | on
			f.w[sw] |= sm
		}
	case bDrop:
		return func(_ []uint64, f *FlatPacket, _ *Context, _ []tableView, _ [][]uint64) {
			f.Dropped = true
		}
	case bForward:
		ld := mkLoad(in.a)
		return func(regs []uint64, f *FlatPacket, _ *Context, _ []tableView, _ [][]uint64) {
			f.EgressPort = ld(regs, f)
		}
	case bMirror:
		return func(_ []uint64, f *FlatPacket, _ *Context, _ []tableView, _ [][]uint64) {
			f.Mirrored = true
		}
	case bToCPU:
		return func(_ []uint64, f *FlatPacket, _ *Context, _ []tableView, _ [][]uint64) {
			f.ToCPU = true
		}
	case bMember:
		t := in.table
		ld := mkLoad(in.a)
		st := mkStore(lay, in.destKind, in.dest, in.destMask)
		return func(regs []uint64, f *FlatPacket, _ *Context, tabs []tableView, _ [][]uint64) {
			v := uint64(0)
			if tabs[t].flatHas(ld(regs, f)) {
				v = 1
			}
			st(regs, f, v)
		}
	case bLookup:
		t := in.table
		if in.destKind == dReg && in.a.kind == oReg {
			d, m, ki := in.dest, in.destMask, in.a.idx
			return func(regs []uint64, _ *FlatPacket, _ *Context, tabs []tableView, _ [][]uint64) {
				regs[d] = tabs[t].flatGet(regs[ki]) & m
			}
		}
		ld := mkLoad(in.a)
		st := mkStore(lay, in.destKind, in.dest, in.destMask)
		return func(regs []uint64, f *FlatPacket, _ *Context, tabs []tableView, _ [][]uint64) {
			st(regs, f, tabs[t].flatGet(ld(regs, f)))
		}
	case bGlobalRead:
		t := in.table
		ld := mkLoad(in.a)
		st := mkStore(lay, in.destKind, in.dest, in.destMask)
		return func(regs []uint64, f *FlatPacket, _ *Context, _ []tableView, globs [][]uint64) {
			arr := globs[t]
			idx := ld(regs, f)
			var v uint64
			if idx < uint64(len(arr)) {
				v = arr[idx]
			}
			st(regs, f, v)
		}
	case bGlobalWrite:
		t, m := in.table, in.auxMask
		li, lv := mkLoad(in.a), mkLoad(in.b)
		return func(regs []uint64, f *FlatPacket, _ *Context, _ []tableView, globs [][]uint64) {
			arr := globs[t]
			idx := li(regs, f)
			if idx < uint64(len(arr)) {
				arr[idx] = lv(regs, f) & m
			}
		}
	case bInsert:
		t := in.table
		lk, lv := mkLoad(in.a), mkLoad(in.b)
		return func(regs []uint64, f *FlatPacket, _ *Context, tabs []tableView, _ [][]uint64) {
			tabs[t].insert(lk(regs, f), lv(regs, f))
		}
	}
	// Unreachable for well-formed lowered code; a no-op keeps the backend
	// total.
	return func([]uint64, *FlatPacket, *Context, []tableView, [][]uint64) {}
}

// The compiled tier reads extern tables through a lane-local open-
// addressing mirror of the entry map: contiguous key/value arrays with
// linear probing, so the hot member/lookup ops cost a multiply-mix and a
// probe or two instead of a full Go map access. The mirror is built
// lazily on first read and kept in
// sync by tableView.insert; rebinding a unit's views after a control-
// plane mutation discards it wholesale.

// flatEmptyKey marks an unused slot. The one key colliding with it is
// served from the entry map instead of the mirror.
const flatEmptyKey = ^uint64(0)

func flatIdx(k, mask uint64) uint64 {
	h := k * 0x9E3779B97F4A7C15
	return (h ^ h>>29) & mask
}

func (tv *tableView) buildFlat() {
	slots := 8
	for slots < 2*(len(tv.entries)+1) {
		slots *= 2
	}
	// Interleaved key/value pairs: a probe's key test and value load share
	// one cache line.
	tv.flatKV = make([]uint64, 2*slots)
	for i := 0; i < len(tv.flatKV); i += 2 {
		tv.flatKV[i] = flatEmptyKey
	}
	tv.nflat = 0
	tv.built = true
	for k, v := range tv.entries {
		tv.flatPut(k, v)
	}
}

func (tv *tableView) flatPut(k, v uint64) {
	if k == flatEmptyKey {
		return // map-only key
	}
	if 4*(tv.nflat+1) > len(tv.flatKV) { // keep load factor <= 1/2
		tv.buildFlat()
		return // rebuild re-inserts every entry, including k
	}
	mask := uint64(len(tv.flatKV)/2 - 1)
	i := flatIdx(k, mask)
	for {
		switch tv.flatKV[2*i] {
		case k:
			tv.flatKV[2*i+1] = v
			return
		case flatEmptyKey:
			tv.flatKV[2*i], tv.flatKV[2*i+1] = k, v
			tv.nflat++
			return
		}
		i = (i + 1) & mask
	}
}

func (tv *tableView) flatGet(k uint64) uint64 {
	if !tv.built {
		tv.buildFlat()
	}
	if k == flatEmptyKey {
		return tv.entries[k]
	}
	kv := tv.flatKV
	mask := uint64(len(kv)/2 - 1)
	i := flatIdx(k, mask)
	for {
		switch kv[2*i] {
		case k:
			return kv[2*i+1]
		case flatEmptyKey:
			return 0
		}
		i = (i + 1) & mask
	}
}

func (tv *tableView) flatHas(k uint64) bool {
	if !tv.built {
		tv.buildFlat()
	}
	if k == flatEmptyKey {
		_, ok := tv.entries[k]
		return ok
	}
	kv := tv.flatKV
	mask := uint64(len(kv)/2 - 1)
	i := flatIdx(k, mask)
	for {
		switch kv[2*i] {
		case k:
			return true
		case flatEmptyKey:
			return false
		}
		i = (i + 1) & mask
	}
}

// fnvPow[k] is the FNV-1a prime raised to the k-th power (mod 2^64).
// Mixing a zero byte is h = (h^0)*p = h*p, so a run of k high zero bytes
// collapses to a single multiply by p^k — bit-identical to the
// interpreter's byte-at-a-time loop (hashOf), at a fraction of the
// multiplies for the narrow field values that dominate real traffic.
var fnvPow = func() (t [9]uint64) {
	t[0] = 1
	for i := 1; i < 9; i++ {
		t[i] = t[i-1] * 1099511628211
	}
	return
}()

// mixFNV folds one 64-bit operand into the running FNV-1a state, mixing
// only the bytes up to the highest non-zero one and collapsing the zero
// tail through fnvPow. Exactly equal to eight explicit byte steps.
func mixFNV(h, v uint64) uint64 {
	n := (71 - bits.LeadingZeros64(v|1)) >> 3
	for i := 0; i < n; i++ {
		h ^= v & 0xff
		v >>= 8
		h *= 1099511628211
	}
	return h * fnvPow[8-n]
}

// mkHash specializes one hash instruction's operand list into a closure
// chain: per-operand loads are pre-resolved (no operand-kind dispatch) and
// each mix uses the collapsed byte walk.
func mkHash(args []opRef, crc16 bool) func(regs []uint64, f *FlatPacket) uint64 {
	var fn func(regs []uint64, f *FlatPacket) uint64
	allFields := true
	for _, a := range args {
		if a.kind != oField {
			allFields = false
			break
		}
	}
	if allFields {
		// The dominant shape — hashing a tuple of header fields — gets a
		// single closure over the slot indices, with no per-operand calls.
		idxs := make([]int32, len(args))
		for i, a := range args {
			idxs[i] = a.idx
		}
		fn = func(_ []uint64, f *FlatPacket) uint64 {
			h := uint64(14695981039346656037)
			for _, i := range idxs {
				h = mixFNV(h, f.w[i])
			}
			return h
		}
	} else {
		fn = func([]uint64, *FlatPacket) uint64 { return 14695981039346656037 }
		for _, a := range args {
			prev := fn
			ld := mkLoad(a)
			fn = func(regs []uint64, f *FlatPacket) uint64 {
				return mixFNV(prev(regs, f), ld(regs, f))
			}
		}
	}
	if crc16 {
		prev := fn
		fn = func(regs []uint64, f *FlatPacket) uint64 {
			h := prev(regs, f)
			return (h >> 16) ^ (h & 0xffff)
		}
	}
	return fn
}

// runUnit executes one compiled unit on the lane: bridge imports, gate
// snapshot, guard-hoisted blocks, bridge exports — the compiled equivalent
// of one RunPath hop.
func runUnit(l *lane, cu *ccode, ctx *Context, f *FlatPacket) {
	u := cu.u
	l.syncTables(cu.stateIdx)
	regs := l.regs
	for _, r := range cu.clearRegs {
		regs[r] = 0
	}
	for _, m := range cu.imports {
		regs[m.reg] = f.w[m.word]
	}
	for i, rs := range u.gates {
		l.gateVals[i] = regs[rs]
	}
	tabs := l.tables[cu.stateIdx]
	globs := l.globals[cu.stateIdx]
	for _, s := range cu.steps {
		if s.gate >= 0 && l.gateVals[s.gate] != 0 {
			continue
		}
		s.run(regs, f, ctx, tabs, globs)
	}
	for _, m := range cu.exports {
		f.w[m.word] = regs[m.reg]
		f.w[m.pw] |= m.pm
	}
}

// resolveUnits maps a flow path to the compiled units actually placed on
// it. The result is cached keyed on the path's switch names: callers replay
// many packets down the same path, and on a cache hit the per-hop
// switch-name lookups disappear entirely.
func (e *Engine) resolveUnits(path []string) []*ccode {
	if len(path) == 0 {
		return nil
	}
	if slices.Equal(path, e.pathKey) {
		return e.pathUnits
	}
	units := make([]*ccode, 0, len(path))
	for _, sw := range path {
		if cu := e.bySwitch[sw]; cu != nil {
			units = append(units, cu)
		}
	}
	e.pathKey, e.pathUnits = slices.Clone(path), units
	return units
}

// runResolved pushes one packet through an already-resolved unit list.
func runResolved(l *lane, units []*ccode, ctx *Context, f *FlatPacket) {
	for _, cu := range units {
		runUnit(l, cu, ctx, f)
	}
}

// runPacket pushes one packet along a flow path, mutating it in place —
// the compiled equivalent of Deployment.RunPath minus the input clone.
func (e *Engine) runPacket(l *lane, path []string, ctx *Context, f *FlatPacket) {
	if ctx == nil {
		ctx = &zeroCtx
	}
	runResolved(l, e.resolveUnits(path), ctx, f)
}

// runBatch replays a batch of packets along a path, sharding the batch
// into contiguous chunks across a bounded worker pool with one pooled lane
// per worker. Each packet is mutated in place. Lanes persist across calls,
// so stateful programs see a continuous packet stream per lane; chunking is
// deterministic for a given worker count.
func (e *Engine) runBatch(path []string, ctx *Context, pkts []*FlatPacket, workers int) {
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
	if ctx == nil {
		ctx = &zeroCtx
	}
	// Resolve the path once before fanning out: workers share the unit
	// list read-only and never touch the cache.
	units := e.resolveUnits(path)
	if workers == 1 {
		l := e.lanes[0]
		for _, f := range pkts {
			runResolved(l, units, ctx, f)
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
			runResolved(l, units, ctx, f)
		}
	})
}

// ensureLanes grows the engine's lane pool to at least n lanes.
func (e *Engine) ensureLanes(n int) {
	for len(e.lanes) < n {
		e.lanes = append(e.lanes, e.newLane())
	}
}
