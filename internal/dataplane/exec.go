package dataplane

import (
	"fmt"
	"sort"

	"lyra/internal/backend"
	"lyra/internal/encode"
	"lyra/internal/ir"
	"lyra/internal/lang/ast"
)

// execInstr executes one IR instruction against an environment, packet,
// tables, and globals. lookupFn resolves extern lookups (the reference run
// uses the whole table; the distributed run uses the local shard plus
// bridged upstream results).
type execEnv struct {
	env     map[*ir.Var]uint64
	pkt     *Packet
	tables  *Tables
	globals globalStore
	ctx     *Context
	irp     *ir.Program
	// lookup resolves (extern, key) -> (value, hit).
	lookup func(extern string, key uint64) (uint64, bool)
}

func (x *execEnv) value(o ir.Operand) uint64 { return operandValue(o, x.env, x.pkt) }

func (x *execEnv) store(d ir.Dest, v uint64) {
	switch d.Kind {
	case ir.DestVar:
		x.env[d.Var] = mask(v, d.Var.Bits)
	case ir.DestField:
		key := d.Hdr + "." + d.Field
		x.pkt.Fields[key] = mask(v, x.irp.FieldBits[key])
	}
}

// step executes one instruction (guard already checked). It returns an
// error only for malformed IR.
func (x *execEnv) step(in *ir.Instr) error {
	switch in.Op {
	case ir.IAssign:
		x.store(in.Dest, x.value(in.Args[0]))
	case ir.IBin:
		a, b := x.value(in.Args[0]), x.value(in.Args[1])
		x.store(in.Dest, evalBin(in.BinOp, a, b))
	case ir.INot:
		v := uint64(0)
		if x.value(in.Args[0]) == 0 {
			v = 1
		}
		x.store(in.Dest, v)
	case ir.ISelect:
		if x.value(in.Args[0]) != 0 {
			x.store(in.Dest, x.value(in.Args[1]))
		} else {
			x.store(in.Dest, x.value(in.Args[2]))
		}
	case ir.IHash:
		args := make([]uint64, len(in.Args))
		for i, a := range in.Args {
			args[i] = x.value(a)
		}
		x.store(in.Dest, hashOf(in.Table, args, destWidth(in)))
	case ir.ILib:
		if in.Dest.Kind != ir.DestNone {
			x.store(in.Dest, x.ctx.LibValue(in.Table))
		}
	case ir.IHeaderAdd:
		x.pkt.Valid[in.Table] = true
	case ir.IHeaderRemove:
		x.pkt.Valid[in.Table] = false
	case ir.IPacketOp:
		switch in.Table {
		case "drop":
			x.pkt.Dropped = true
		case "forward":
			x.pkt.EgressPort = x.value(in.Args[0])
		case "mirror":
			x.pkt.Mirrored = true
		case "copy_to_cpu":
			x.pkt.ToCPU = true
		}
	case ir.IMember:
		_, hit := x.lookup(in.Table, x.value(in.Args[0]))
		v := uint64(0)
		if hit {
			v = 1
		}
		x.store(in.Dest, v)
	case ir.ILookup:
		v, _ := x.lookup(in.Table, x.value(in.Args[0]))
		x.store(in.Dest, v)
	case ir.IGlobalRead:
		g := x.irp.Global(in.Table)
		if g == nil {
			return fmt.Errorf("dataplane: unknown global %q", in.Table)
		}
		x.store(in.Dest, x.globals.read(in.Table, g.Len, x.value(in.Args[0])))
	case ir.IGlobalWrite:
		g := x.irp.Global(in.Table)
		if g == nil {
			return fmt.Errorf("dataplane: unknown global %q", in.Table)
		}
		x.globals.write(in.Table, g.Len, x.value(in.Args[0]), mask(x.value(in.Args[1]), g.Bits))
	case ir.IExternInsert:
		if len(in.Args) >= 2 {
			x.tables.Set(in.Table, x.value(in.Args[0]), x.value(in.Args[1]))
		}
	}
	return nil
}

func destWidth(in *ir.Instr) int {
	if v := in.WritesVar(); v != nil && v.Bits > 0 {
		return v.Bits
	}
	return 32
}

func evalBin(op ast.Op, a, b uint64) uint64 {
	switch op {
	case ast.OpAdd:
		return a + b
	case ast.OpSub:
		return a - b
	case ast.OpMul:
		return a * b
	case ast.OpDiv:
		if b == 0 {
			return 0
		}
		return a / b
	case ast.OpMod:
		if b == 0 {
			return 0
		}
		return a % b
	case ast.OpAnd:
		return a & b
	case ast.OpOr:
		return a | b
	case ast.OpXor:
		return a ^ b
	case ast.OpShl:
		if b >= 64 {
			return 0
		}
		return a << b
	case ast.OpShr:
		if b >= 64 {
			return 0
		}
		return a >> b
	case ast.OpEq:
		return b2i(a == b)
	case ast.OpNe:
		return b2i(a != b)
	case ast.OpLt:
		return b2i(a < b)
	case ast.OpLe:
		return b2i(a <= b)
	case ast.OpGt:
		return b2i(a > b)
	case ast.OpGe:
		return b2i(a >= b)
	case ast.OpLAnd:
		return b2i(a != 0 && b != 0)
	case ast.OpLOr:
		return b2i(a != 0 || b != 0)
	}
	return 0
}

func b2i(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// RunReference executes the one-big-pipeline semantics of the whole Lyra
// program on one packet: every pipeline's algorithms run in declared order.
// It returns the resulting packet.
func RunReference(irp *ir.Program, tables *Tables, ctx *Context, in *Packet) (*Packet, error) {
	pkt := in.Clone()
	globals := globalStore{}
	for _, pl := range irp.Pipelines {
		for _, algName := range pl.Algorithms {
			a := irp.Algorithm(algName)
			if a == nil {
				return nil, fmt.Errorf("dataplane: pipeline references unknown algorithm %q", algName)
			}
			x := &execEnv{
				env: map[*ir.Var]uint64{}, pkt: pkt, tables: tables,
				globals: globals, ctx: ctx, irp: irp,
				lookup: tables.Lookup,
			}
			for _, instr := range a.Instrs {
				if !guardHolds(instr.Guard, x.env) {
					continue
				}
				if err := x.step(instr); err != nil {
					return nil, err
				}
			}
		}
	}
	return pkt, nil
}

// Deployment is a compiled network ready to forward packets: the plan, the
// per-switch programs, and the shard contents distributed per switch.
type Deployment struct {
	Plan     *encode.Plan
	Programs map[string]*backend.SwitchProgram
	// shardTables maps switch -> extern -> shard contents.
	shardTables map[string]*Tables
	globals     map[string]globalStore
	tables      *Tables

	// Derived state cached at construction: the lowered engine and the
	// compiled backend, the per-tier executors, each extern's sorted
	// entry keys, and each extern's hosting switches in shard-index order.
	// Control-plane mutations (SetSwitchEntry/ClearSwitchTable) no longer
	// drop any of this: the lowered/compiled code is content-independent,
	// so mutations only bump the affected switch's table generation on the
	// engine and lanes rebind that one switch's views lazily. The extern
	// metadata derives from the construction-time tables and the plan,
	// which those calls never touch.
	engine      *Engine
	compiled    *Compiled
	execs       [2]Executor
	externKeys  map[string][]uint64
	externHosts map[string][]string
}

// buildExternMeta computes the per-extern caches in one pass: sorted entry
// keys for every extern present in the control-plane tables, and hosting
// switches ordered by shard index for every placed extern.
func (d *Deployment) buildExternMeta() {
	d.externKeys = map[string][]uint64{}
	for name, es := range d.tables.Externs {
		keys := make([]uint64, 0, len(es.Entries))
		for k := range es.Entries {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		d.externKeys[name] = keys
	}
	type hs struct {
		sw  string
		idx int
	}
	byExtern := map[string][]hs{}
	seen := map[[2]string]bool{}
	d.Plan.EachHost(func(sw string, _ []*ir.Instr) {
		for _, pt := range d.Plan.TablesOf(sw) {
			if pt.Extern == nil {
				continue
			}
			key := [2]string{pt.Extern.Name, sw}
			if seen[key] {
				continue
			}
			seen[key] = true
			byExtern[pt.Extern.Name] = append(byExtern[pt.Extern.Name], hs{sw, pt.ShardIndex})
		}
	})
	d.externHosts = map[string][]string{}
	for name, hosts := range byExtern {
		sort.Slice(hosts, func(i, j int) bool {
			if hosts[i].idx != hosts[j].idx {
				return hosts[i].idx < hosts[j].idx
			}
			return hosts[i].sw < hosts[j].sw
		})
		out := make([]string, len(hosts))
		for i, h := range hosts {
			out[i] = h.sw
		}
		d.externHosts[name] = out
	}
}

// entryKeysOf returns an extern's control-plane keys in ascending order,
// cached on the deployment.
func (d *Deployment) entryKeysOf(extern string) []uint64 {
	if d.externKeys == nil {
		d.buildExternMeta()
	}
	return d.externKeys[extern]
}

// hostOrderOf returns an extern's hosting switches ordered by shard index,
// cached on the deployment.
func (d *Deployment) hostOrderOf(extern string) []string {
	if d.externHosts == nil {
		d.buildExternMeta()
	}
	return d.externHosts[extern]
}

// NewDeployment builds a deployment from a solved plan, distributing the
// control-plane entries across extern shards exactly as the generated
// control-plane interface would (fill shard hosts in shard-index order up
// to each shard's allotted size).
func NewDeployment(plan *encode.Plan, tables *Tables) (*Deployment, error) {
	progs, err := backend.Build(plan)
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		Plan:        plan,
		Programs:    progs,
		shardTables: map[string]*Tables{},
		globals:     map[string]globalStore{},
		tables:      tables,
	}
	for sw := range progs {
		d.shardTables[sw] = NewTables()
		d.globals[sw] = globalStore{}
	}
	d.buildExternMeta()
	// Distribute entries across shards path by path (Appendix B.1): hosts
	// along one flow path partition the table; hosts on parallel paths
	// replicate entries, so every path sees the complete table.
	for extern, es := range tables.Externs {
		byHost, decl := plan.ShardsOf(extern), plan.Input.IR.Extern(extern)
		if len(byHost) == 0 || decl == nil {
			continue
		}
		keys := d.entryKeysOf(extern)
		remaining := map[string]int64{}
		for h, c := range byHost {
			remaining[h] = c
			if d.shardTables[h] == nil {
				d.shardTables[h] = NewTables()
			}
		}
		var paths [][]string
		if rs := plan.Input.Scopes[decl.Alg]; rs != nil {
			if paths, err = rs.PathList(); err != nil {
				return nil, fmt.Errorf("dataplane: flow paths of %s: %w", decl.Alg, err)
			}
		}
		if len(paths) == 0 {
			// PER-SW or single host: each host is its own "path".
			for _, h := range d.hostOrderOf(extern) {
				paths = append(paths, []string{h})
			}
		}
		for _, p := range paths {
			var hosts []string
			for _, sw := range p {
				if _, ok := byHost[sw]; ok {
					hosts = append(hosts, sw)
				}
			}
			if len(hosts) == 0 {
				continue
			}
			for _, k := range keys {
				covered := false
				for _, h := range hosts {
					if _, hit := d.shardTables[h].Lookup(extern, k); hit {
						covered = true
						break
					}
				}
				if covered {
					continue
				}
				placed := false
				for _, h := range hosts {
					if remaining[h] > 0 {
						d.shardTables[h].Set(extern, k, es.Entries[k])
						remaining[h]--
						placed = true
						break
					}
				}
				if !placed {
					// Over-filled table: spill onto the last host so the
					// simulation still sees every entry.
					d.shardTables[hosts[len(hosts)-1]].Set(extern, k, es.Entries[k])
				}
			}
		}
	}
	return d, nil
}

// RunPath pushes a packet along a flow path through the deployed network,
// executing each switch's placed program and carrying bridge variables
// between hops. The ctx applies identically at every hop so results are
// comparable with RunReference.
func (d *Deployment) RunPath(path []string, ctx *Context, in *Packet) (*Packet, error) {
	return d.RunPathWithContexts(path, func(string) *Context { return ctx }, in)
}

// RunPathWithContexts is RunPath with a per-switch environment: each hop
// sees its own switch id, timestamps, and queue state, the way real INT
// metadata differs per device.
func (d *Deployment) RunPathWithContexts(path []string, ctxOf func(sw string) *Context, in *Packet) (*Packet, error) {
	pkt := in.Clone()
	irp := d.Plan.Input.IR
	for _, sw := range path {
		ctx := ctxOf(sw)
		if ctx == nil {
			ctx = &Context{}
		}
		sp := d.Programs[sw]
		if sp == nil {
			continue // transit switch with nothing deployed
		}
		env := map[*ir.Var]uint64{}
		// Import bridged variables.
		for _, bv := range sp.Imports {
			env[bv.Var] = pkt.Bridge[backend.BridgeFieldName(bv.Alg, bv.Var)]
		}
		// Shard gating (Algorithm 2): every instruction belonging to a
		// downstream shard table is skipped when the bridged hit signal
		// says an upstream shard already resolved the lookup. The gate is
		// snapshotted at switch entry so a local hit does not suppress the
		// rest of its own table.
		tableOf := map[int]string{}
		for _, pt := range sp.Tables {
			for _, ti := range pt.Table.Instrs() {
				tableOf[ti.ID] = pt.Name
			}
		}
		gateAtEntry := map[string]uint64{}
		for name, hitVar := range sp.HitGuards {
			gateAtEntry[name] = env[hitVar]
		}
		x := &execEnv{
			env: env, pkt: pkt, tables: d.shardTables[sw],
			globals: d.globals[sw], ctx: ctx, irp: irp,
			lookup: d.shardTables[sw].Lookup,
		}
		for _, instr := range sp.Instrs {
			if !guardHolds(instr.Guard, env) {
				continue
			}
			if tn, ok := tableOf[instr.ID]; ok {
				if _, gated := sp.HitGuards[tn]; gated && gateAtEntry[tn] != 0 {
					continue
				}
			}
			if err := x.step(instr); err != nil {
				return nil, err
			}
		}
		// Export bridge variables for downstream hops.
		for _, bv := range sp.Exports {
			pkt.Bridge[backend.BridgeFieldName(bv.Alg, bv.Var)] = env[bv.Var]
		}
	}
	return pkt, nil
}

// SetSwitchEntry installs a control-plane entry into one switch's local
// shard only. PER-SW deployments use this to configure role-specific
// tables differently per switch (e.g. the INT sink filter is populated
// only on egress ToRs, Figure 1). Only the affected switch's lowered
// table state is invalidated (a per-switch generation bump; lanes rebind
// that switch's views lazily) — the engine and compiled backend are never
// re-lowered for a table mutation.
func (d *Deployment) SetSwitchEntry(sw, extern string, key, value uint64) {
	if d.shardTables[sw] == nil {
		d.shardTables[sw] = NewTables()
	}
	d.shardTables[sw].Set(extern, key, value)
	if d.engine != nil {
		d.engine.invalidateTables(sw)
	}
}

// ClearSwitchTable removes an extern's entries from one switch,
// invalidating only that switch's lowered table state.
func (d *Deployment) ClearSwitchTable(sw, extern string) {
	if t := d.shardTables[sw]; t != nil {
		delete(t.Externs, extern)
	}
	if d.engine != nil {
		d.engine.invalidateTables(sw)
	}
}

// Engine returns the deployment's lowered form, lowering the placed
// programs on first use. The engine survives control-plane mutations:
// SetSwitchEntry/ClearSwitchTable bump only the affected switch's table
// generation.
func (d *Deployment) Engine() (*Engine, error) {
	if d.engine == nil {
		e, err := NewEngine(d)
		if err != nil {
			return nil, err
		}
		d.engine = e
	}
	return d.engine, nil
}

// Compiled returns the deployment's closure-threaded compiled backend,
// translating the engine's lowered units on first use. Like the engine it
// survives control-plane mutations.
func (d *Deployment) Compiled() (*Compiled, error) {
	if d.compiled == nil {
		e, err := d.Engine()
		if err != nil {
			return nil, err
		}
		d.compiled = CompileEngine(e)
	}
	return d.compiled, nil
}

// RunPathCompiled is RunPath executed on the closure-threaded compiled
// backend: a fresh lane (zeroed per-switch globals, copy-on-write table
// views bound to the deployment's current shard contents) pushes the packet
// along the path. Given identical starting state it is byte-identical to
// RunPath; the interpreter remains the oracle it is checked against.
func (d *Deployment) RunPathCompiled(path []string, ctx *Context, in *Packet) (*Packet, error) {
	return d.RunPathCompiledWithContexts(path, func(string) *Context { return ctx }, in)
}

// RunPathCompiledWithContexts is RunPathCompiled with a per-switch
// environment.
func (d *Deployment) RunPathCompiledWithContexts(path []string, ctxOf func(sw string) *Context, in *Packet) (*Packet, error) {
	c, err := d.Compiled()
	if err != nil {
		return nil, err
	}
	l := c.eng.NewLane()
	f := c.eng.Flatten(in)
	c.RunPacketContexts(l, path, ctxOf, f)
	return f.Packet(), nil
}
