package frontend

import (
	"slices"

	"lyra/internal/ir"
)

// Analyze fills in the instruction dependency graph of every algorithm
// (§4.3 "Instruction dependency generation"). SSA leaves only
// read-after-write dependencies between variables; header fields, global
// arrays, extern tables, and packet operations are memory and additionally
// get write-after-read and write-after-write ordering edges.
//
// It also numbers each algorithm's variables (Var.ID, Algorithm.Vars), in
// the order its instructions first touch them, so later passes index slices
// by variable instead of keying maps by pointer or name. Instruction ids
// must be dense: Instrs[i].ID == i.
func Analyze(p *ir.Program) {
	an := analyzer{cells: make([]cell, 0, len(p.Fields)+16), named: make([]namedCell, 0, 16)}
	for _, a := range p.Algorithms {
		numberVars(a)
		an.algorithm(p, a)
	}
}

// numberVars gives a's variables their ids.
func numberVars(a *ir.Algorithm) {
	reset := func(v *ir.Var) { v.ID = -1 }
	for _, in := range a.Instrs {
		in.EachRead(reset)
		if v := in.WritesVar(); v != nil {
			v.ID = -1
		}
	}
	vars := make([]*ir.Var, 0, len(a.Instrs))
	number := func(v *ir.Var) {
		if v.ID < 0 {
			v.ID = int32(len(vars))
			vars = append(vars, v)
		}
	}
	for _, in := range a.Instrs {
		in.EachRead(number)
		if v := in.WritesVar(); v != nil {
			number(v)
		}
	}
	a.Vars = vars
}

// analyzer is the scratch of Analyze, reused across algorithms.
//
// Memory cells are numbered: a header field by its id, then per algorithm,
// on first touch, a header's validity, a global array, an extern table and
// the packet's disposition (route and clone). Writers accumulate until a
// non-exclusive overwrite, so hazards are tracked per exclusive arm.
type analyzer struct {
	a     *ir.Algorithm
	defOf []int32 // variable id -> defining instruction, -1 before it
	// cells holds each cell's hazards: a header field's at its id, then the
	// named cells'.
	cells []cell
	named []namedCell
}

type cell struct{ writers, reads []int }

// namedCell is a cell named by kind and name.
type namedCell struct {
	kind cellKind
	name string
	cell int32
}

type cellKind uint8

const (
	cellHeader cellKind = iota
	cellGlobal
	cellExtern
	cellPacket // "route" or "clone"
)

func (an *analyzer) algorithm(p *ir.Program, a *ir.Algorithm) {
	an.a = a
	an.defOf = slices.Grow(an.defOf[:0], len(a.Vars))[:len(a.Vars)]
	for i := range an.defOf {
		an.defOf[i] = -1
	}
	an.cells = slices.Grow(an.cells[:0], len(p.Fields))[:len(p.Fields)]
	for i := range an.cells {
		an.cells[i].writers, an.cells[i].reads = an.cells[i].writers[:0], an.cells[i].reads[:0]
	}
	an.named = an.named[:0]

	for _, in := range a.Instrs {
		// Variable reads (args and guard predicates).
		in.EachRead(func(v *ir.Var) {
			if d := an.defOf[v.ID]; d >= 0 {
				addDep(in, int(d))
			}
		})
		// Header field reads.
		for _, arg := range in.Args {
			if arg.Kind == ir.OpdField {
				an.read(in, arg.FieldID)
				an.read(in, an.namedCell(cellHeader, arg.Hdr))
			}
		}
		// Op-specific memory effects.
		switch in.Op {
		case ir.IHeaderAdd, ir.IHeaderRemove:
			an.write(in, an.namedCell(cellHeader, in.Table))
		case ir.IPacketOp:
			// Routing decisions (drop/forward/recirculate) order among
			// themselves; clones (mirror/copy_to_cpu) are independent of
			// routing but ordered among themselves.
			switch in.Table {
			case "mirror", "copy_to_cpu":
				an.write(in, an.namedCell(cellPacket, "clone"))
			default:
				an.write(in, an.namedCell(cellPacket, "route"))
			}
		case ir.ILookup, ir.IMember:
			an.read(in, an.namedCell(cellExtern, in.Table))
		case ir.IExternInsert:
			an.write(in, an.namedCell(cellExtern, in.Table))
		case ir.IGlobalRead:
			an.read(in, an.namedCell(cellGlobal, in.Table))
		case ir.IGlobalWrite:
			an.write(in, an.namedCell(cellGlobal, in.Table))
		}
		// Header field writes.
		if in.Dest.Kind == ir.DestField {
			an.write(in, in.Dest.FieldID)
			an.read(in, an.namedCell(cellHeader, in.Dest.Hdr))
		}
		// SSA definition.
		if v := in.WritesVar(); v != nil {
			an.defOf[v.ID] = int32(in.ID)
		}
	}
}

// namedCell returns the cell of kind and name, numbering it on first touch.
func (an *analyzer) namedCell(kind cellKind, name string) int32 {
	for _, n := range an.named {
		if n.kind == kind && n.name == name {
			return n.cell
		}
	}
	c := int32(len(an.cells))
	an.cells = append(an.cells, cell{})
	an.named = append(an.named, namedCell{kind, name, c})
	return c
}

func addDep(in *ir.Instr, dep int) {
	if dep < 0 || dep == in.ID || slices.Contains(in.Deps, dep) {
		return
	}
	in.Deps = append(in.Deps, dep)
}

// memDep adds a memory-ordering edge unless the two instructions are
// mutually exclusive (opposite arms of one branch never both execute, so no
// real hazard exists — and keeping the edge would create false cycles
// between merged tables).
func (an *analyzer) memDep(in *ir.Instr, dep int) {
	if in.Guard.MutuallyExclusive(an.a.Instrs[dep].Guard) {
		return
	}
	addDep(in, dep)
}

func (an *analyzer) read(in *ir.Instr, id int32) {
	c := &an.cells[id]
	for _, w := range c.writers {
		an.memDep(in, w) // RAW
	}
	c.reads = append(c.reads, in.ID)
}

func (an *analyzer) write(in *ir.Instr, id int32) {
	c := &an.cells[id]
	for _, w := range c.writers {
		an.memDep(in, w) // WAW
	}
	for _, r := range c.reads {
		an.memDep(in, r) // WAR
	}
	// Keep earlier writers that are mutually exclusive with this one: a
	// later reader in a third context may still observe them.
	kept := c.writers[:0]
	for _, w := range c.writers {
		if in.Guard.MutuallyExclusive(an.a.Instrs[w].Guard) {
			kept = append(kept, w)
		}
	}
	c.writers = append(kept, in.ID)
	c.reads = c.reads[:0]
}

// LongestChain returns the length of the longest dependency chain in an
// algorithm (in instructions). The NPL back-end reports this as the longest
// code path (Figure 9 column).
func LongestChain(a *ir.Algorithm) int {
	depth := make([]int, len(a.Instrs))
	best := 0
	for _, in := range a.Instrs {
		d := 1
		for _, dep := range in.Deps {
			if depth[dep]+1 > d {
				d = depth[dep] + 1
			}
		}
		depth[in.ID] = d
		if d > best {
			best = d
		}
	}
	return best
}
