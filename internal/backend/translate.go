package backend

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"lyra/internal/asic"
	"lyra/internal/encode"
	"lyra/internal/ir"
	"lyra/internal/lang/ast"
	"lyra/internal/par"
	"lyra/internal/synth"
	"lyra/internal/topo"
)

// Options configures translation.
type Options struct {
	P4Dialect asic.Dialect
	// Only, when non-nil, restricts translation to the named switches.
	// Incremental recompilation uses it to re-emit code solely for the
	// switches whose plan slice actually changed.
	Only map[string]bool
	// Parallelism bounds the worker pool emitting per-switch code. <= 0
	// selects GOMAXPROCS. Emission is per-switch pure, so any setting
	// yields byte-identical artifacts.
	Parallelism int
	// Shapes, when non-nil, is the family's shape memo to draw on and fill.
	Shapes *Shapes
}

// Artifact is the generated output for one switch.
type Artifact struct {
	Switch  string
	Model   *asic.Model
	Dialect string // "P4_14", "P4_16", or "NPL"
	Code    string
	// ControlPlane holds the Python control-plane stubs of §5.8.
	ControlPlane string
	Program      *SwitchProgram
	Alloc        *asic.Allocation

	// Metrics for the evaluation harness (Figure 9 columns).
	Tables    int
	Actions   int
	Registers int
	LoC       int
	LogicLoC  int
}

// Translate renders every switch's share of the plan into chip-specific
// code (§5.7) plus control-plane interfaces (§5.8). Switches are emitted
// concurrently on a bounded pool: each emitter touches only its own
// SwitchProgram and writes into its own index-addressed slot, so output is
// identical at any parallelism level.
//
// Program text and the control-plane stub are rendered once per plan shape
// (see ShapeLeads): the first switch of each shape runs the printers, and the
// others take its text with their own name in it. A symmetric fabric has a
// handful of shapes for thousands of switches; opts.Shapes may hold them all.
func Translate(plan *encode.Plan, opts *Options) (map[string]*Artifact, error) {
	if opts == nil {
		opts = &Options{}
	}
	programs, err := build(plan, opts.Only, opts.Shapes, opts.P4Dialect)
	if err != nil {
		return nil, err
	}
	targets, err := topo.InOrder(plan.Input.Net, programs)
	if err != nil {
		return nil, err
	}
	lead := ShapeLeads(plan, targets)
	emitted := make([]*emission, len(targets)) // leads only
	par.For(len(targets), opts.Parallelism, func(i int) {
		if lead[i] != i {
			return
		}
		sp, shape := programs[targets[i]], plan.Shape(targets[i])
		if emitted[i] = opts.Shapes.get(shape, opts.P4Dialect.Lang(sp.Model)); emitted[i] == nil {
			emitted[i] = emit(sp, opts.P4Dialect)
			opts.Shapes.put(shape, emitted[i])
		}
	})
	// The block of every shard group a stub names is rendered once, before
	// the fan-out reads them: the same text in the stub of every member.
	groups := make([]map[string][]encode.Shard, len(targets))
	docs := shardDocs{}
	for i, sw := range targets {
		for _, extern := range emitted[lead[i]].stub.holes {
			if extern == "" {
				continue
			}
			if groups[i] == nil {
				groups[i] = plan.ShardGroups(sw)
			}
			if group := groups[i][extern]; len(group) > 0 && docs[&group[0]] == "" {
				docs[&group[0]] = shardDoc(extern, group)
			}
		}
	}
	arts := make([]*Artifact, len(targets))
	par.For(len(targets), opts.Parallelism, func(i int) {
		arts[i] = emitted[lead[i]].artifact(plan, programs[targets[i]], groups[i], docs)
	})
	out := make(map[string]*Artifact, len(targets))
	for i, sw := range targets {
		out[sw] = arts[i]
	}
	return out, nil
}

// ShapeLeads groups switches by plan shape (encode.Plan.Shape): lead[i] is
// the index of the first of sws with the same shape as sws[i] — i itself for
// the first of a shape, and for a switch the plan places nothing on.
// Translation emits, and verification checks, the leads only. Under
// TestMutation every switch leads itself, because a seeded bug changes a
// program without changing its shape.
func ShapeLeads(plan *encode.Plan, sws []string) []int {
	lead := make([]int, len(sws))
	firstOf := map[string]int{}
	for i, sw := range sws {
		lead[i] = i
		if TestMutation != nil {
			continue
		}
		if shape := plan.Shape(sw); shape != "" {
			if j, seen := firstOf[shape]; seen {
				lead[i] = j
			} else {
				firstOf[shape] = i
			}
		}
	}
	return lead
}

// emission is one shape's rendered output with the switch name cut out: the
// program text after its first line — the comment naming the switch, the only
// place the name occurs in it — and the control-plane stub as segments
// between holes. Every switch of the shape instantiates it with one
// exact-sized allocation per text.
type emission struct {
	like Artifact       // everything the shape decides: dialect and the Figure 9 metrics
	prog *SwitchProgram // the program printed, which every switch of the shape copies
	body string         // program text after the header line
	stub stubTemplate
	// code is the whole text as emitted for switch sw, which is that switch's
	// Code as it stands.
	sw, code string
}

// emit renders a switch program in the chip's language, P4 in the given
// dialect, and its control-plane stub.
func emit(sp *SwitchProgram, dialect asic.Dialect) *emission {
	lang, code := dialect.Lang(sp.Model), ""
	switch lang {
	case "NPL":
		code = EmitNPL(sp)
	case "P4_16":
		code = EmitP416(sp)
	default:
		code = EmitP414(sp)
	}
	e := &emission{prog: sp, body: code[strings.IndexByte(code, '\n')+1:], stub: renderStub(sp), sw: sp.Switch, code: code}
	e.like = Artifact{Dialect: lang, Tables: len(sp.Tables), Registers: len(sp.Registers)}
	e.like.LoC, e.like.LogicLoC = lineCounts(code)
	for _, t := range sp.Tables {
		e.like.Actions += len(t.Actions)
	}
	return e
}

// printBufs recycles the printers' render buffers: a program is rendered into
// one and copied out once, at its exact length. A buffer is cleared before it
// goes back, and one that grew past maxPooledBuf is dropped rather than kept.
var printBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuf = 64 << 10

func printBuf() *bytes.Buffer {
	b := printBufs.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// printed returns the text rendered into b and gives b back to the pool.
func printed(b *bytes.Buffer) string {
	s := b.String()
	if b.Cap() <= maxPooledBuf {
		clear(b.Bytes())
		printBufs.Put(b)
	}
	return s
}

// indent is eight levels of the printers' four-space indentation.
const indent = "                                "

// text is what a printer writes into: the pooled render buffer, the depth of
// the line being written, and how the printer's language spells a variable
// and a header field. A line is begun with in, filled with s, d, u, op, dst
// and ref, and ended with nl; line writes a whole line of strings. Every
// piece is appended as it is typed: nothing on the way is boxed, formatted or
// concatenated.
type text struct {
	b   *bytes.Buffer
	ind int
	sp  *SwitchProgram
	// meta precedes a metadata field, hdr a header instance, and bridge an
	// imported variable's bridge field.
	meta, hdr, bridge string
	imports           map[*ir.Var]string // imported variable -> its bridge field
}

// newText starts a printer's text for sp, spelt with the given prefixes.
func newText(sp *SwitchProgram, meta, hdr, bridge string) text {
	t := text{b: printBuf(), sp: sp, meta: meta, hdr: hdr, bridge: bridge, imports: make(map[*ir.Var]string, len(sp.Imports))}
	for _, bv := range sp.Imports {
		t.imports[bv.Var] = bv.Field
	}
	return t
}

// in begins a line at the current depth.
func (t *text) in() *text {
	d := t.ind
	for ; d > 8; d -= 8 {
		t.b.WriteString(indent)
	}
	t.b.WriteString(indent[:4*d])
	return t
}

func (t *text) s(s string) *text { t.b.WriteString(s); return t }

func (t *text) d(n int) *text { return t.d64(int64(n)) }

func (t *text) d64(n int64) *text {
	t.b.Write(strconv.AppendInt(t.b.AvailableBuffer(), n, 10))
	return t
}

func (t *text) u(n uint64) *text {
	t.b.Write(strconv.AppendUint(t.b.AvailableBuffer(), n, 10))
	return t
}

// nl ends a line.
func (t *text) nl() { t.b.WriteByte('\n') }

// line writes one line made of parts.
func (t *text) line(parts ...string) {
	t.in()
	for _, p := range parts {
		t.b.WriteString(p)
	}
	t.nl()
}

// open writes a line that opens a block, and close the line that ends it.
func (t *text) open(parts ...string) { t.line(parts...); t.ind++ }

func (t *text) close() { t.ind--; t.line("}") }

// op writes an operand: a literal, a variable as ref reads it, or a header
// field.
func (t *text) op(o ir.Operand) *text {
	switch o.Kind {
	case ir.OpdConst:
		return t.u(o.Const)
	case ir.OpdVar:
		return t.ref(o.Var)
	case ir.OpdField:
		return t.s(t.hdr).s(o.Hdr).s(".").s(o.Field)
	}
	return t.s("0")
}

// dst writes the target of an assignment.
func (t *text) dst(d ir.Dest) *text {
	switch d.Kind {
	case ir.DestVar:
		return t.s(t.meta).field(d.Var)
	case ir.DestField:
		return t.s(t.hdr).s(d.Hdr).s(".").s(d.Field)
	}
	return t.s("_")
}

// ref writes a variable as it is read: its bridge field when the switch
// imports it, else its metadata field.
func (t *text) ref(v *ir.Var) *text {
	if f, ok := t.imports[v]; ok {
		return t.s(t.bridge).s(f)
	}
	return t.s(t.meta).field(v)
}

// field writes the metadata field name of a variable on this switch:
// MetaFieldName's on a switch hosting one algorithm, and qualified by the
// algorithm on one hosting several, whose variables may share a name and
// version (every algorithm's first compiler temporary is v1.1).
func (t *text) field(v *ir.Var) *text {
	if name, ok := t.sp.metaNames[v]; ok {
		return t.s(name)
	}
	t.b.Write(appendMetaField(t.b.AvailableBuffer(), v))
	return t
}

// shardNote writes the comment placing a table among its extern's shards.
func (t *text) shardNote(pt *encode.PlacedTable) {
	t.in().s("/* shard ").d(pt.ShardIndex + 1).s(" of ").d(pt.ShardCount).s(" of extern ").s(pt.Extern.Name).s(" */").nl()
}

// cut returns what was written since mark and takes it back out.
func (t *text) cut(mark int) string {
	s := string(t.b.Bytes()[mark:])
	t.b.Truncate(mark)
	return s
}

// codeHeader is the first line of every emitted program, with what follows
// it: one concatenation, so a switch's whole text is one allocation.
func codeHeader(lang string, sp *SwitchProgram, body string) string {
	return "/* " + lang + " program for switch " + sp.Switch + " (" + sp.Model.Name + "), generated by Lyra. */\n" + body
}

// artifact instantiates the emission for one switch of its shape.
// groups are the shard groups of the switch's component, by extern.
func (e *emission) artifact(plan *encode.Plan, sp *SwitchProgram, groups map[string][]encode.Shard, docs shardDocs) *Artifact {
	art := e.like
	art.Switch, art.Model, art.Program, art.Alloc = sp.Switch, sp.Model, sp, plan.AllocationOf(sp.Switch)
	if sp.Switch == e.sw {
		art.Code = e.code
	} else {
		art.Code = codeHeader(art.Dialect, sp, e.body)
	}
	art.ControlPlane = e.stub.fill(sp.Switch, groups, docs)
	return &art
}

// nextLine splits the first line off text: the lines it yields until text is
// empty are those of strings.Split(text, "\n"), the empty last one aside.
func nextLine(text string) (line, rest string) {
	if i := strings.IndexByte(text, '\n'); i >= 0 {
		return text[:i], text[i+1:]
	}
	return text, ""
}

// lineCounts counts code's non-blank lines (LoC) and, in the same pass, those
// of them outside header and parser sections (the paper's "Logic LoC" metric
// ignores header and parser code).
func lineCounts(code string) (loc, logic int) {
	skipping := false
	depth := 0
	for code != "" {
		var l string
		l, code = nextLine(code)
		t := strings.TrimSpace(l)
		if t == "" {
			continue
		}
		loc++
		if !skipping && (strings.HasPrefix(t, "header") || strings.HasPrefix(t, "parser") ||
			strings.HasPrefix(t, "struct") || strings.HasPrefix(t, "packet") ||
			strings.HasPrefix(t, "state start")) {
			if strings.Contains(t, "{") {
				skipping = true
				depth = strings.Count(t, "{") - strings.Count(t, "}")
				if depth <= 0 {
					skipping = false
				}
				continue
			}
			continue // single-line header instance declaration
		}
		if skipping {
			depth += strings.Count(t, "{") - strings.Count(t, "}")
			if depth <= 0 {
				skipping = false
			}
			continue
		}
		logic++
	}
	return loc, logic
}

// shardDocs holds the shard-documentation blocks of one Translate call, each
// keyed by the first shard of its group (encode.Plan.ShardGroups). A block
// lists the hosts of one shard group, which are exactly the ShardCount
// switches the header line of a member's split table counts.
type shardDocs map[*encode.Shard]string

// of returns the block of a shard group, "" for none.
func (d shardDocs) of(group []encode.Shard) string {
	if len(group) == 0 {
		return ""
	}
	return d[&group[0]]
}

// shardDoc renders the block listing one shard group: a header line, then
// each host padded to fmt's %-8s and the entries it holds.
func shardDoc(extern string, group []encode.Shard) string {
	b := []byte("# " + extern + " is split across ")
	b = strconv.AppendInt(b, int64(len(group)), 10)
	b = append(b, " switches:\n"...)
	for _, s := range group {
		b = append(append(b, "#   "...), s.Switch...)
		for n := utf8.RuneCountInString(s.Switch); n < 8; n++ {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(append(b, " holds "...), s.Entries, 10)
		b = append(b, " entries\n"...)
	}
	return string(b)
}

// stubTemplate is a control-plane stub with holes: text[i] precedes hole i,
// and the last text follows the last hole. A hole naming an extern takes that
// extern's shard documentation; the others take the switch name.
type stubTemplate struct {
	text  []string
	holes []string
}

// fill instantiates the stub for one switch in one exact-sized allocation, an
// extern's hole taking the block of its group among groups.
func (t *stubTemplate) fill(sw string, groups map[string][]encode.Shard, docs shardDocs) string {
	var few [8]string // a stub with at most this many holes fills off the stack
	vals := few[:0]
	n := len(t.text[len(t.holes)])
	for i, extern := range t.holes {
		v := sw
		if extern != "" {
			v = docs.of(groups[extern])
		}
		vals = append(vals, v)
		n += len(t.text[i]) + len(v)
	}
	var b strings.Builder
	b.Grow(n)
	for i, v := range vals {
		b.WriteString(t.text[i])
		b.WriteString(v)
	}
	b.WriteString(t.text[len(vals)])
	return b.String()
}

// renderStub generates the §5.8 control-plane interface of a switch program
// as a template: for each extern table placed on the switch, empty Python
// entry-manipulation functions plus shard documentation, so operators fill
// tables without knowing how they were split or placed.
func renderStub(sp *SwitchProgram) stubTemplate {
	var t stubTemplate
	b := printBuf()
	var ends []int // where in b each text before a hole ends
	hole := func(extern string) {
		ends = append(ends, b.Len())
		t.holes = append(t.holes, extern)
	}
	w := func(parts ...string) {
		for _, p := range parts {
			b.WriteString(p)
		}
	}
	names := func(fs []ast.Field) {
		for i, f := range fs {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(f.Name)
		}
	}
	w("# Control-plane interface for switch ")
	hole("")
	w(", generated by Lyra.\n",
		"# Fill these in to manipulate table entries; Lyra has already\n",
		"# decided how each extern variable maps onto physical tables.\n\n")
	seen := map[string]bool{}
	for _, pt := range sp.Tables {
		if pt.Kind != synth.MatchExtern || seen[pt.Extern.Name] {
			continue
		}
		seen[pt.Extern.Name] = true
		name := pt.Extern.Name
		if pt.ShardCount > 1 {
			hole(name)
		}
		w("def ", name, "_entry_set(")
		names(pt.Extern.Keys)
		if len(pt.Extern.Values) > 0 {
			w(", ")
			names(pt.Extern.Values)
		}
		w("):\n", "    \"\"\"Install an entry into ", name, " (table ", pt.Name, " on ")
		hole("")
		w(").\"\"\"\n", "    pass\n\n", "def ", name, "_entry_get(")
		names(pt.Extern.Keys)
		w("):\n", "    \"\"\"Read an entry from ", name, ".\"\"\"\n", "    pass\n\n", "def ", name, "_entry_del(")
		names(pt.Extern.Keys)
		w("):\n", "    \"\"\"Remove an entry from ", name, ".\"\"\"\n", "    pass\n\n")
	}
	// Digest/learn handlers for data-plane inserts.
	for _, in := range sp.Instrs {
		if in.Op == ir.IExternInsert {
			w("def on_", in.Table, "_learn(digest):\n",
				"    \"\"\"Handle data-plane insert notifications for ", in.Table, ".\"\"\"\n",
				"    pass\n\n")
		}
	}
	all := printed(b)
	t.text = make([]string, 0, len(ends)+1)
	from := 0
	for _, end := range ends {
		t.text = append(t.text, all[from:end])
		from = end
	}
	t.text = append(t.text, all[from:])
	return t
}
