// Package backend translates a solved placement plan into chip-specific
// artifacts (§5.7): P4_14, P4_16, or NPL source per switch, plus the
// control-plane interface stubs of §5.8. It first normalizes each switch's
// share of the plan into a SwitchProgram — an ordered, self-contained
// description of headers, parser, metadata, tables, registers, and
// cross-switch bridge variables (Algorithm 2) — which the language printers
// and the data-plane simulator both consume.
package backend

import (
	"sort"
	"strconv"

	"lyra/internal/asic"
	"lyra/internal/encode"
	"lyra/internal/ir"
	"lyra/internal/lang/ast"
	"lyra/internal/lang/lib"
	"lyra/internal/synth"
)

// HeaderDef is a header type used by a switch program.
type HeaderDef struct {
	Name   string // instance name
	Type   string // header type name
	Fields []ast.Field
}

// MetaVar is one SSA variable materialized as a metadata field.
type MetaVar struct {
	Name string // sanitized field name
	Var  *ir.Var
	Bits int
}

// RegisterDef is a stateful register array (from a global declaration).
type RegisterDef struct {
	Name string
	Bits int
	Len  int
}

// SwitchProgram is everything one switch runs.
type SwitchProgram struct {
	Switch string
	Model  *asic.Model

	Headers []*HeaderDef
	// Bridge is the cross-switch header carrying exported variables; nil
	// when the switch neither imports nor exports.
	Bridge *HeaderDef

	Metadata  []*MetaVar
	Registers []*RegisterDef
	// metaNames maps each metadata variable to its field name on a switch
	// hosting several algorithms; nil on one hosting a single algorithm,
	// whose fields are named by MetaFieldName. See text.field.
	metaNames map[*ir.Var]string

	// Tables in apply order (dependencies first).
	Tables []*encode.PlacedTable
	// Instrs are this switch's placed instructions in program order.
	Instrs []*ir.Instr

	// Imports are bridge variables this switch reads from upstream;
	// Exports are those it must write into the bridge header.
	Imports []Bridged
	Exports []Bridged

	// HitGuards maps a shard table name to the bridged hit variable that
	// gates it (downstream shards apply only when upstream missed).
	HitGuards map[string]*ir.Var

	// EgressTables marks tables that must run in the egress pipeline: they
	// (or a table they depend on) read egress-only state such as queue
	// occupancy or the egress timestamp (§8 multi-pipeline support).
	EgressTables map[string]bool
}

// Bridged is a bridge variable with the bridge header field that carries it.
type Bridged struct {
	encode.BridgeVar
	Field string // BridgeFieldName(Alg, Var)
}

// BridgeFieldName returns the bridge header field for a variable.
func BridgeFieldName(alg string, v *ir.Var) string {
	var b [64]byte
	return string(appendMetaField(append(append(b[:0], alg...), '_'), v))
}

// MetaFieldName returns the metadata field name of an SSA variable on a
// switch hosting one algorithm.
func MetaFieldName(v *ir.Var) string {
	var b [64]byte
	return string(appendMetaField(b[:0], v))
}

// appendMetaField appends MetaFieldName(v) to b.
func appendMetaField(b []byte, v *ir.Var) []byte {
	return strconv.AppendInt(append(append(b, v.Name...), '_'), int64(v.Ver), 10)
}

// Build normalizes a plan into per-switch programs.
func Build(plan *encode.Plan) (map[string]*SwitchProgram, error) {
	return build(plan, nil, nil, 0)
}

// build is Build restricted to the switches in only (nil = all of them).
//
// A program is a function of the switch's plan shape (encode.Plan.Shape):
// chip model, placed instructions, table geometry, exports, imports and the
// bridge layout are all the shape digests. So one program is built per shape,
// and every other switch of the shape gets a shallow copy of it that differs
// only in which switch it names — the headers, tables, instructions and maps
// behind the copies are shared and read-only. A shape the family memo holds is
// not built: its switches copy the memo's program. Under TestMutation every
// switch is built on its own, because a seeded bug changes a program without
// changing its shape.
func build(plan *encode.Plan, only map[string]bool, memo *Shapes, dialect asic.Dialect) (map[string]*SwitchProgram, error) {
	irp := plan.Input.IR
	n := len(only)
	if only == nil {
		n = len(plan.Fingerprints())
	}
	out := make(map[string]*SwitchProgram, n)

	// Global bridge layout: consistent across the network. Its field names
	// are rendered here once, and every import and export takes its own.
	bridgeHeader, bridgeFields := buildBridgeHeader(plan.BridgeLayout())

	// The hosts to build: every one the plan has, or the named ones — a walk
	// of what is translated, not of the fabric.
	hosts := plan.EachHost
	if only != nil {
		hosts = func(f func(sw string, instrs []*ir.Instr)) {
			for sw := range only {
				if instrs := plan.InstrsOf(sw); len(instrs) > 0 {
					f(sw, instrs)
				}
			}
		}
	}
	byShape := map[string]*SwitchProgram{}
	hosts(func(sw string, instrs []*ir.Instr) {
		model := plan.Input.Net.Switch(sw).ASIC
		shape := plan.Shape(sw)
		if byShape[shape] == nil {
			if e := memo.get(shape, dialect.Lang(model)); e != nil {
				byShape[shape] = e.prog
			}
		}
		if like := byShape[shape]; like != nil && TestMutation == nil {
			sp := *like
			sp.Switch, sp.Model = sw, model
			out[sw] = &sp
			return
		}
		sp := &SwitchProgram{
			Switch:    sw,
			Model:     model,
			Instrs:    instrs,
			HitGuards: map[string]*ir.Var{},
		}
		sp.Headers = headersUsed(irp, instrs)
		sp.Metadata, sp.metaNames = metadataVars(instrs)
		sp.Registers = registersUsed(irp, instrs)
		var placed ir.IDSet
		for _, in := range instrs {
			placed.Add(in.Alg, in.ID)
		}
		sp.Tables = filterPlaced(orderTables(plan.TablesOf(sw)), &placed)
		sp.Exports = bridged(plan.BridgesOf(sw), bridgeFields)
		sp.Imports = bridged(plan.Imports(sw, instrs), bridgeFields)
		if len(sp.Exports) > 0 || len(sp.Imports) > 0 {
			sp.Bridge = bridgeHeader
		}
		sp.EgressTables = egressTables(sp.Tables)
		// Downstream shards of a split extern are gated on the bridged hit
		// signal of the member/lookup instruction.
		for _, pt := range sp.Tables {
			if pt.ShardCount > 1 && pt.ShardIndex > 0 {
				for _, in := range pt.Table.Instrs() {
					if (in.Op == ir.IMember || in.Op == ir.ILookup) && in.WritesVar() != nil {
						sp.HitGuards[pt.Name] = in.WritesVar()
						break
					}
				}
			}
		}
		byShape[shape] = sp
		applyTestMutation(sw, sp)
		out[sw] = sp
	})
	return out, nil
}

// bridgeKey is what names a bridge field: algorithm, variable name, version.
type bridgeKey struct {
	alg, name string
	ver       int
}

// buildBridgeHeader lays out the bridge header and indexes its field names.
func buildBridgeHeader(vars []encode.BridgeVar) (*HeaderDef, map[bridgeKey]string) {
	if len(vars) == 0 {
		return nil, nil
	}
	h := &HeaderDef{Name: "lyra_bridge", Type: "lyra_bridge_t", Fields: make([]ast.Field, len(vars))}
	names := make(map[bridgeKey]string, len(vars))
	for i, bv := range vars {
		bits := bv.Bits
		if bits <= 0 {
			bits = 32
		}
		name := BridgeFieldName(bv.Alg, bv.Var)
		h.Fields[i] = ast.Field{Type: ast.Type{Bits: bits}, Name: name}
		names[bridgeKey{bv.Alg, bv.Var.Name, bv.Var.Ver}] = name
	}
	return h, names
}

// bridged pairs each bridge variable with its field, named in fields. Every
// export and import of a plan is in its bridge layout, so fields names them
// all.
func bridged(vars []encode.BridgeVar, fields map[bridgeKey]string) []Bridged {
	if len(vars) == 0 {
		return nil
	}
	out := make([]Bridged, len(vars))
	for i, bv := range vars {
		out[i] = Bridged{bv, fields[bridgeKey{bv.Alg, bv.Var.Name, bv.Var.Ver}]}
	}
	return out
}

// headersUsed collects the header instances referenced by the instructions.
func headersUsed(irp *ir.Program, instrs []*ir.Instr) []*HeaderDef {
	names := map[string]bool{}
	for _, in := range instrs {
		for _, a := range in.Args {
			if a.Kind == ir.OpdField {
				names[a.Hdr] = true
			}
		}
		if in.Dest.Kind == ir.DestField {
			names[in.Dest.Hdr] = true
		}
		if in.Op == ir.IHeaderAdd || in.Op == ir.IHeaderRemove {
			names[in.Table] = true
		}
	}
	var sorted []string
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	var out []*HeaderDef
	for _, n := range sorted {
		hd := &HeaderDef{Name: n}
		if inst := irp.Source.Instance(n); inst != nil {
			hd.Type = inst.TypeName
			if ht := irp.Source.Header(inst.TypeName); ht != nil {
				hd.Fields = ht.Fields
			}
		} else {
			// Packet metadata declaration.
			for _, pk := range irp.Source.Packets {
				if pk.Name == n {
					hd.Type = n + "_t"
					hd.Fields = pk.Fields
				}
			}
		}
		out = append(out, hd)
	}
	return out
}

// metadataVars collects the SSA variables the switch materializes, ordered by
// algorithm and then by variable, and — when the switch hosts several
// algorithms — the field names that keep their variables apart.
func metadataVars(instrs []*ir.Instr) ([]*MetaVar, map[*ir.Var]string) {
	type owned struct {
		alg string
		v   *ir.Var
	}
	var seen ir.IDSet
	vars := make([]owned, 0, len(instrs))
	several := false
	for _, in := range instrs {
		several = several || in.Alg != instrs[0].Alg
		add := func(v *ir.Var) {
			if v != nil && seen.Add(in.Alg, int(v.ID)) {
				vars = append(vars, owned{in.Alg, v})
			}
		}
		add(in.WritesVar())
		in.EachRead(add)
	}
	ir.SortByVar(vars, func(ov owned) (string, *ir.Var) { return ov.alg, ov.v })
	var names map[*ir.Var]string
	if several {
		names = make(map[*ir.Var]string, len(vars))
	}
	out, metas := make([]*MetaVar, len(vars)), make([]MetaVar, len(vars))
	for i, ov := range vars {
		bits := ov.v.Bits
		if bits <= 0 {
			bits = 32
		}
		name := MetaFieldName(ov.v)
		if several {
			name = BridgeFieldName(ov.alg, ov.v)
			names[ov.v] = name
		}
		metas[i] = MetaVar{Name: name, Var: ov.v, Bits: bits}
		out[i] = &metas[i]
	}
	return out, names
}

func registersUsed(irp *ir.Program, instrs []*ir.Instr) []*RegisterDef {
	seen := map[string]bool{}
	var out []*RegisterDef
	for _, in := range instrs {
		if in.Op != ir.IGlobalRead && in.Op != ir.IGlobalWrite {
			continue
		}
		if seen[in.Table] {
			continue
		}
		seen[in.Table] = true
		g := irp.Global(in.Table)
		if g == nil {
			continue
		}
		out = append(out, &RegisterDef{Name: g.Name, Bits: g.Bits, Len: g.Len})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// filterPlaced narrows each placed table to the instructions actually
// hosted on this switch. Under MULTI-SW scopes the solver may split one
// synthesized table's instructions across hops; the printers emit table
// contents, so without filtering a switch's code would show statements —
// and reference metadata — belonging to another hop, while the simulator
// executes only sp.Instrs. The shared synth.Table values are never
// mutated: a table with an instruction placed elsewhere gets shallow copies
// with filtered slices, and one placed whole here, as every table of a
// PER-SW switch is, is kept as it is, and so is the list when every table is.
func filterPlaced(tables []*encode.PlacedTable, placed *ir.IDSet) []*encode.PlacedTable {
	var out []*encode.PlacedTable // nil while every table is kept as it is
	for i, pt := range tables {
		npt := narrow(pt, placed)
		if npt != pt && out == nil {
			out = append(make([]*encode.PlacedTable, 0, len(tables)), tables[:i]...)
		}
		if out != nil {
			out = append(out, npt)
		}
	}
	if out == nil {
		return tables
	}
	return out
}

// narrow returns pt narrowed to the placed instructions: pt itself when it
// loses none.
func narrow(pt *encode.PlacedTable, placed *ir.IDSet) *encode.PlacedTable {
	has := func(in *ir.Instr) bool { return placed.Has(in.Alg, in.ID) }
	whole, lookups := true, 0
	for _, fp := range pt.Table.FieldPreds {
		whole = whole && (fp.Instr == nil || has(fp.Instr))
	}
	for _, a := range pt.Table.Actions {
		for _, in := range a.Instrs {
			if !has(in) {
				whole = false
			} else if in.Op == ir.IMember || in.Op == ir.ILookup {
				lookups++
			}
		}
	}
	if whole && (lookups == 0 || pt.Lookups <= lookups) {
		return pt
	}
	st := *pt.Table
	st.FieldPreds = nil
	for _, fp := range pt.Table.FieldPreds {
		if fp.Instr == nil || has(fp.Instr) {
			if st.FieldPreds == nil {
				st.FieldPreds = make([]synth.FieldPred, 0, len(pt.Table.FieldPreds))
			}
			st.FieldPreds = append(st.FieldPreds, fp)
		}
	}
	st.Actions = nil
	if len(pt.Table.Actions) > 0 {
		st.Actions = make([]*synth.Action, 0, len(pt.Table.Actions))
	}
	for _, a := range pt.Table.Actions {
		na := *a
		na.Instrs = nil
		for _, in := range a.Instrs {
			if has(in) {
				if na.Instrs == nil {
					na.Instrs = make([]*ir.Instr, 0, len(a.Instrs))
				}
				na.Instrs = append(na.Instrs, in)
			}
		}
		st.Actions = append(st.Actions, &na)
	}
	npt := *pt
	npt.Table = &st
	if lookups > 0 && npt.Lookups > lookups {
		npt.Lookups = lookups
	}
	return &npt
}

// orderTables sorts placed tables so dependencies come first, preserving
// the original order among independents.
func orderTables(tables []*encode.PlacedTable) []*encode.PlacedTable {
	byName := map[string]int{}
	for i, t := range tables {
		byName[t.Name] = i
	}
	state := make([]int, len(tables))
	var out []*encode.PlacedTable
	var visit func(i int)
	visit = func(i int) {
		if state[i] != 0 {
			return
		}
		state[i] = 1
		for _, d := range tables[i].Deps {
			if di, ok := byName[d.Name]; ok {
				visit(di)
			}
		}
		state[i] = 2
		out = append(out, tables[i])
	}
	for i := range tables {
		visit(i)
	}
	return out
}

// egressTables identifies tables pinned to the egress pipeline: any table
// containing an egress-only library call (queue depth, egress timestamp),
// plus everything downstream of one in the table dependency graph — the
// egress pipeline cannot hand results back to ingress (§8).
func egressTables(tables []*encode.PlacedTable) map[string]bool {
	out := map[string]bool{}
	for _, pt := range tables {
		for _, in := range pt.Table.Instrs() {
			if in.Op != ir.ILib && in.Op != ir.IHash {
				continue
			}
			if lf, ok := lib.Lookup(in.Table); ok && lf.EgressOnly {
				out[pt.Name] = true
			}
		}
	}
	// Propagate to dependents until fixpoint (tables are few; O(n²) fine).
	for changed := true; changed; {
		changed = false
		for _, pt := range tables {
			if out[pt.Name] {
				continue
			}
			for _, d := range pt.Deps {
				if out[d.Name] {
					out[pt.Name] = true
					changed = true
				}
			}
		}
	}
	return out
}
