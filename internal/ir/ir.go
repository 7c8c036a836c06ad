// Package ir defines Lyra's context-aware intermediate representation
// (§4.2–§4.3). After preprocessing, each algorithm is a straight-line block
// of guarded single-operation instructions in SSA form, annotated with
// instruction dependencies and deployment constraints.
package ir

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"lyra/internal/lang/ast"
	"lyra/internal/lang/token"
)

// Var is an SSA-versioned variable. Temporaries, locals, and implicit
// metadata variables all become Vars; header fields and global/extern state
// are memory and referenced by name instead.
type Var struct {
	Name string // base name
	Ver  int    // SSA version, 1-based
	Bits int    // inferred width; 0 until inference runs
	// ID is the variable's index in its algorithm's Vars, which the code
	// analyzer (frontend.Analyze) assigns; analyses index slices by it.
	ID   int32
	Bool bool // true when the value is a predicate/boolean
	Decl bool // width came from an explicit declaration (authoritative)
}

func (v *Var) String() string {
	if v == nil {
		return "<nil>"
	}
	// Not fmt: this is the sort key and map key of per-switch loops in
	// placement replay, program building and fingerprinting.
	return v.Name + "." + strconv.Itoa(v.Ver)
}

// appendKey appends v.String() to b.
func (v *Var) appendKey(b []byte) []byte {
	if v == nil {
		return append(b, "<nil>"...)
	}
	return strconv.AppendInt(append(append(b, v.Name...), '.'), int64(v.Ver), 10)
}

// SortByVar sorts s by a group string and then by a variable's String(),
// rendering each variable's key once rather than twice per comparison. It
// orders ties as sort.Slice does under that comparison: slices.SortFunc and
// sort.Slice are generated from one pattern-defeating quicksort. String()
// order is not (Name, Ver) order: x.10 sorts before x.2.
func SortByVar[T any](s []T, key func(T) (group string, v *Var)) {
	if len(s) < 2 {
		return
	}
	type keyed struct {
		group    string
		from, to int // the variable's key in buf
		x        T
	}
	// A short list, the usual case, is sorted without touching the heap.
	var ksmall [16]keyed
	var bsmall [512]byte
	ks, buf := ksmall[:0], bsmall[:0]
	if len(s) > len(ksmall) {
		ks = make([]keyed, 0, len(s))
	}
	for _, x := range s {
		g, v := key(x)
		from := len(buf)
		buf = v.appendKey(buf)
		ks = append(ks, keyed{g, from, len(buf), x})
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if c := strings.Compare(a.group, b.group); c != 0 {
			return c
		}
		return bytes.Compare(buf[a.from:a.to], buf[b.from:b.to])
	})
	for i := range ks {
		s[i] = ks[i].x
	}
}

// OperandKind discriminates Operand.
type OperandKind uint8

// Operand kinds.
const (
	OpdConst OperandKind = iota
	OpdVar
	OpdField
)

// Operand is an instruction input: a constant, an SSA variable, or a header
// field read.
type Operand struct {
	Kind OperandKind
	// FieldID is a field read's index in Program.Fields.
	FieldID int32
	Const   uint64
	Var     *Var
	Hdr     string // header instance for OpdField
	Field   string
	Bits    int // width (fields: declared; vars: mirror of Var.Bits)
}

// ConstOp builds a constant operand.
func ConstOp(v uint64) Operand { return Operand{Kind: OpdConst, Const: v} }

// VarOp builds a variable operand.
func VarOp(v *Var) Operand { return Operand{Kind: OpdVar, Var: v, Bits: v.Bits} }

// FieldOp builds a header-field operand with no field id.
func FieldOp(hdr, field string, bits int) Operand {
	return Operand{Kind: OpdField, Hdr: hdr, Field: field, Bits: bits}
}

func (o Operand) String() string {
	switch o.Kind {
	case OpdConst:
		return fmt.Sprintf("%d", o.Const)
	case OpdVar:
		return o.Var.String()
	case OpdField:
		return o.Hdr + "." + o.Field
	}
	return "?"
}

// DestKind discriminates instruction destinations.
type DestKind uint8

// Destination kinds.
const (
	DestNone DestKind = iota
	DestVar
	DestField
	DestGlobal // global array element; index is Args[idxArg]
)

// Dest is an instruction output.
type Dest struct {
	Kind DestKind
	// FieldID is a field write's index in Program.Fields.
	FieldID int32
	Var     *Var
	Hdr     string
	Field   string
	Table   string // global name for DestGlobal
}

func (d Dest) String() string {
	switch d.Kind {
	case DestVar:
		return d.Var.String()
	case DestField:
		return d.Hdr + "." + d.Field
	case DestGlobal:
		return d.Table + "[...]"
	}
	return "_"
}

// Op enumerates IR operations.
type Op int

// IR operations.
const (
	IAssign       Op = iota // dest = arg0
	IBin                    // dest = arg0 <binop> arg1
	INot                    // dest = !arg0 (logical)
	ISelect                 // dest = arg0 ? arg1 : arg2 (branch merge)
	IHash                   // dest = hash(args...); Table = hash kind
	ILib                    // dest? = libfn(args...); Table = function name
	IHeaderAdd              // add_header(Table)
	IHeaderRemove           // remove_header(Table)
	IPacketOp               // drop/forward/mirror/copy_to_cpu/recirculate; Table = op
	ILookup                 // dest = Table[key args...]
	IMember                 // dest = key args... in Table (1-bit)
	IGlobalRead             // dest = Table[arg0]
	IGlobalWrite            // Table[arg0] = arg1
	IExternInsert           // insert(Table, keys..., values...)
)

var opNames = map[Op]string{
	IAssign: "assign", IBin: "bin", INot: "not", ISelect: "select",
	IHash: "hash", ILib: "lib", IHeaderAdd: "add_header",
	IHeaderRemove: "remove_header", IPacketOp: "packet_op",
	ILookup: "lookup", IMember: "member",
	IGlobalRead: "gread", IGlobalWrite: "gwrite", IExternInsert: "insert",
}

func (o Op) String() string { return opNames[o] }

// GuardTerm is one conjunct of an instruction guard: a predicate variable,
// possibly negated.
type GuardTerm struct {
	Var *Var
	Neg bool
}

func (g GuardTerm) String() string {
	if g.Neg {
		return "!" + g.Var.String()
	}
	return g.Var.String()
}

// Guard is a conjunction of terms; empty means unconditional.
type Guard []GuardTerm

func (g Guard) String() string {
	if len(g) == 0 {
		return "true"
	}
	parts := make([]string, len(g))
	for i, t := range g {
		parts[i] = t.String()
	}
	return strings.Join(parts, " & ")
}

// Equal reports whether two guards are syntactically identical.
func (g Guard) Equal(o Guard) bool {
	if len(g) != len(o) {
		return false
	}
	for i := range g {
		if g[i].Var != o[i].Var || g[i].Neg != o[i].Neg {
			return false
		}
	}
	return true
}

// MutuallyExclusive reports whether the guards share a prefix and then
// diverge on the polarity of the same predicate variable (the two arms of
// one if-else, §5.2 "mutually exclusive").
func (g Guard) MutuallyExclusive(o Guard) bool {
	n := len(g)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if g[i].Var == o[i].Var && g[i].Neg != o[i].Neg {
			return true
		}
		if g[i].Var != o[i].Var || g[i].Neg != o[i].Neg {
			return false
		}
	}
	return false
}

// Instr is one context-aware IR instruction.
type Instr struct {
	ID    int
	Alg   string // owning algorithm
	Op    Op
	BinOp ast.Op // for IBin
	Dest  Dest
	Args  []Operand
	Guard Guard
	Table string // extern/global/header/lib name depending on Op
	Pos   token.Position

	// Deps lists the IDs of instructions this one depends on
	// (read-after-write, plus memory ordering edges). Filled by the
	// analyzer.
	Deps []int
}

func (in *Instr) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%3d [%s] ", in.ID, in.Alg)
	if len(in.Guard) > 0 {
		fmt.Fprintf(&b, "(%s) ? ", in.Guard.String())
	}
	switch in.Op {
	case IAssign:
		fmt.Fprintf(&b, "%s = %s", in.Dest, in.Args[0])
	case IBin:
		fmt.Fprintf(&b, "%s = %s %s %s", in.Dest, in.Args[0], in.BinOp, in.Args[1])
	case INot:
		fmt.Fprintf(&b, "%s = !%s", in.Dest, in.Args[0])
	case ISelect:
		fmt.Fprintf(&b, "%s = %s ? %s : %s", in.Dest, in.Args[0], in.Args[1], in.Args[2])
	case IHash, ILib:
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = a.String()
		}
		if in.Dest.Kind != DestNone {
			fmt.Fprintf(&b, "%s = ", in.Dest)
		}
		fmt.Fprintf(&b, "%s(%s)", in.Table, strings.Join(args, ", "))
	case IHeaderAdd, IHeaderRemove, IPacketOp:
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = a.String()
		}
		fmt.Fprintf(&b, "%s(%s) %s", in.Op, strings.Join(args, ", "), in.Table)
	case ILookup:
		fmt.Fprintf(&b, "%s = %s[%s]", in.Dest, in.Table, joinOps(in.Args))
	case IMember:
		fmt.Fprintf(&b, "%s = %s in %s", in.Dest, joinOps(in.Args), in.Table)
	case IGlobalRead:
		fmt.Fprintf(&b, "%s = %s[%s]", in.Dest, in.Table, in.Args[0])
	case IGlobalWrite:
		fmt.Fprintf(&b, "%s[%s] = %s", in.Table, in.Args[0], in.Args[1])
	case IExternInsert:
		fmt.Fprintf(&b, "insert %s (%s)", in.Table, joinOps(in.Args))
	}
	return b.String()
}

func joinOps(ops []Operand) string {
	parts := make([]string, len(ops))
	for i, o := range ops {
		parts[i] = o.String()
	}
	return strings.Join(parts, ", ")
}

// Reads returns the variables read by the instruction, including guard
// predicates.
func (in *Instr) Reads() []*Var {
	n := len(in.Guard)
	for _, a := range in.Args {
		if a.Kind == OpdVar {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]*Var, 0, n)
	for _, a := range in.Args {
		if a.Kind == OpdVar {
			out = append(out, a.Var)
		}
	}
	for _, g := range in.Guard {
		out = append(out, g.Var)
	}
	return out
}

// EachRead calls f on each variable Reads returns, in the same order,
// without building the list.
func (in *Instr) EachRead(f func(*Var)) {
	for _, a := range in.Args {
		if a.Kind == OpdVar {
			f(a.Var)
		}
	}
	for _, g := range in.Guard {
		f(g.Var)
	}
}

// WritesVar returns the SSA variable defined, or nil.
func (in *Instr) WritesVar() *Var {
	if in.Dest.Kind == DestVar {
		return in.Dest.Var
	}
	return nil
}

// WritesField returns the header field written ("hdr.field"), or "".
func (in *Instr) WritesField() string {
	if in.Dest.Kind == DestField {
		return in.Dest.Hdr + "." + in.Dest.Field
	}
	return ""
}

// IDSet is a set of (algorithm, ID) pairs — instructions or variables of
// one switch's algorithms — as one bitset by ID per algorithm. The zero value
// is empty.
type IDSet struct {
	algs []string
	bits [][]uint64
}

// words returns the bitset of alg, making it on first use.
func (s *IDSet) words(alg string) *[]uint64 {
	for i := len(s.algs) - 1; i >= 0; i-- {
		if s.algs[i] == alg {
			return &s.bits[i]
		}
	}
	s.algs, s.bits = append(s.algs, alg), append(s.bits, nil)
	return &s.bits[len(s.bits)-1]
}

// Add adds (alg, id) and reports whether it was not yet in the set.
func (s *IDSet) Add(alg string, id int) bool {
	w := s.words(alg)
	if k := id / 64; k >= len(*w) {
		*w = append(*w, make([]uint64, k+1-len(*w))...)
	}
	m := uint64(1) << (id % 64)
	if (*w)[id/64]&m != 0 {
		return false
	}
	(*w)[id/64] |= m
	return true
}

// Has reports whether (alg, id) is in the set.
func (s *IDSet) Has(alg string, id int) bool {
	for i, a := range s.algs {
		if a == alg {
			return id/64 < len(s.bits[i]) && s.bits[i][id/64]&(1<<(id%64)) != 0
		}
	}
	return false
}

// ExternDecl mirrors the source-level extern declaration with resolved
// widths (§3.4).
type ExternDecl struct {
	Name   string
	Kind   ast.ExternKind
	Keys   []ast.Field
	Values []ast.Field
	Size   int
	Alg    string // declaring algorithm
}

// KeyBits returns the total match width.
func (e *ExternDecl) KeyBits() int {
	n := 0
	for _, k := range e.Keys {
		n += k.Type.Bits
	}
	return n
}

// ValueBits returns the total action-data width.
func (e *ExternDecl) ValueBits() int {
	n := 0
	for _, v := range e.Values {
		n += v.Type.Bits
	}
	return n
}

// GlobalDecl is a stateful register array (§3.4).
type GlobalDecl struct {
	Name string
	Bits int
	Len  int
	Alg  string
}

// Algorithm is the context-aware IR of one algorithm.
type Algorithm struct {
	Name    string
	Instrs  []*Instr // Instrs[i].ID == i
	Externs []*ExternDecl
	Globals []*GlobalDecl
	// Vars is the table of the algorithm's SSA variables by ID, in the order
	// its instructions first touch them. The code analyzer fills it.
	Vars []*Var
}

// Field is one header field of a program: its header instance (or packet
// metadata declaration), its name and its width.
type Field struct {
	Hdr, Name string
	Bits      int
}

// Program is the preprocessed whole-program IR.
type Program struct {
	Source     *ast.Program
	Pipelines  []*ast.Pipeline
	Algorithms []*Algorithm
	// HeaderBits maps header instance name -> total width.
	HeaderBits map[string]int
	// Fields is the table of header fields by id (Operand.FieldID,
	// Dest.FieldID): each header instance's fields in declaration order, then
	// each packet metadata declaration's. It is never written after
	// preprocessing, and clones share it.
	Fields []Field
}

// SortedFields returns the header fields in "hdr.field" order, in a slice of
// the caller's. That is (header, field) order: every character an
// identifier may hold sorts after '.'.
func (p *Program) SortedFields() []Field {
	out := slices.Clone(p.Fields)
	slices.SortFunc(out, func(a, b Field) int {
		if c := strings.Compare(a.Hdr, b.Hdr); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
	return out
}

// FieldID returns the id of header field hdr.name, or -1.
func (p *Program) FieldID(hdr, name string) int32 {
	for i := range p.Fields {
		if f := &p.Fields[i]; f.Name == name && f.Hdr == hdr {
			return int32(i)
		}
	}
	return -1
}

// Algorithm returns the algorithm IR by name, or nil.
func (p *Program) Algorithm(name string) *Algorithm {
	for _, a := range p.Algorithms {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Extern finds an extern declaration anywhere in the program.
func (p *Program) Extern(name string) *ExternDecl {
	for _, a := range p.Algorithms {
		for _, e := range a.Externs {
			if e.Name == name {
				return e
			}
		}
	}
	return nil
}

// Global finds a global declaration anywhere in the program.
func (p *Program) Global(name string) *GlobalDecl {
	for _, a := range p.Algorithms {
		for _, g := range a.Globals {
			if g.Name == name {
				return g
			}
		}
	}
	return nil
}

// Dump renders the whole IR for golden tests and debugging.
func (p *Program) Dump() string {
	var b strings.Builder
	for _, a := range p.Algorithms {
		fmt.Fprintf(&b, "algorithm %s:\n", a.Name)
		for _, e := range a.Externs {
			fmt.Fprintf(&b, "  extern %s %s size=%d key=%db val=%db\n",
				e.Kind, e.Name, e.Size, e.KeyBits(), e.ValueBits())
		}
		for _, g := range a.Globals {
			fmt.Fprintf(&b, "  global %s bit[%d][%d]\n", g.Name, g.Bits, g.Len)
		}
		for _, in := range a.Instrs {
			fmt.Fprintf(&b, "  %s\n", in)
		}
	}
	return b.String()
}
