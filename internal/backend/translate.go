package backend

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"

	"lyra/internal/asic"
	"lyra/internal/encode"
	"lyra/internal/ir"
	"lyra/internal/lang/ast"
	"lyra/internal/par"
	"lyra/internal/synth"
)

// Dialect selects the P4 flavor for P4-programmable chips.
type Dialect int

// P4 dialects.
const (
	DialectP414 Dialect = iota
	DialectP416
)

func (d Dialect) String() string {
	if d == DialectP416 {
		return "P4_16"
	}
	return "P4_14"
}

// Options configures translation.
type Options struct {
	P4Dialect Dialect
	// Only, when non-nil, restricts translation to the named switches.
	// Incremental recompilation uses it to re-emit code solely for the
	// switches whose plan slice actually changed.
	Only map[string]bool
	// Parallelism bounds the worker pool emitting per-switch code. <= 0
	// selects GOMAXPROCS. Emission is per-switch pure, so any setting
	// yields byte-identical artifacts.
	Parallelism int
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
// handful of shapes for thousands of switches.
func Translate(plan *encode.Plan, opts *Options) (map[string]*Artifact, error) {
	if opts == nil {
		opts = &Options{}
	}
	programs, err := build(plan, opts.Only)
	if err != nil {
		return nil, err
	}
	targets := sortedProgKeys(programs)
	lead := ShapeLeads(plan, targets)
	emitted := make([]*emission, len(targets)) // leads only
	par.For(len(targets), opts.Parallelism, func(i int) {
		if lead[i] == i {
			emitted[i] = emit(programs[targets[i]], opts.P4Dialect)
		}
	})
	arts := make([]*Artifact, len(targets))
	docs := &shardDocs{plan: plan}
	par.For(len(targets), opts.Parallelism, func(i int) {
		arts[i] = emitted[lead[i]].artifact(plan, programs[targets[i]], docs)
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
	like Artifact // everything the shape decides: dialect and the Figure 9 metrics
	body string   // program text after the header line
	stub stubTemplate
	// code is the whole text as emitted for switch sw, which is that switch's
	// Code as it stands.
	sw, code string
}

// emit renders a switch program in the chip's language, P4 in the given
// dialect, and its control-plane stub.
func emit(sp *SwitchProgram, dialect Dialect) *emission {
	lang, code := "P4_14", ""
	switch {
	case sp.Model.Lang == asic.LangNPL:
		lang, code = "NPL", EmitNPL(sp)
	case dialect == DialectP416:
		lang, code = "P4_16", EmitP416(sp)
	default:
		code = EmitP414(sp)
	}
	e := &emission{body: code[strings.IndexByte(code, '\n')+1:], stub: renderStub(sp), sw: sp.Switch, code: code}
	e.like = Artifact{
		Dialect: lang, LoC: countLines(code), LogicLoC: logicLines(code),
		Tables: len(sp.Tables), Registers: len(sp.Registers),
	}
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

// writeLine renders one line of program text at the given depth.
func writeLine(b *bytes.Buffer, depth int, format string, args ...any) {
	for ; depth > 8; depth -= 8 {
		b.WriteString(indent)
	}
	b.WriteString(indent[:4*depth])
	fmt.Fprintf(b, format, args...)
	b.WriteByte('\n')
}

// codeHeader is the first line of every emitted program, with what follows
// it: one concatenation, so a switch's whole text is one allocation.
func codeHeader(lang string, sp *SwitchProgram, body string) string {
	return "/* " + lang + " program for switch " + sp.Switch + " (" + sp.Model.Name + "), generated by Lyra. */\n" + body
}

// artifact instantiates the emission for one switch of its shape.
func (e *emission) artifact(plan *encode.Plan, sp *SwitchProgram, docs *shardDocs) *Artifact {
	art := e.like
	art.Switch, art.Model, art.Program, art.Alloc = sp.Switch, sp.Model, sp, plan.AllocationOf(sp.Switch)
	if sp.Switch == e.sw {
		art.Code = e.code
	} else {
		art.Code = codeHeader(art.Dialect, sp, e.body)
	}
	art.ControlPlane = e.stub.fill(sp.Switch, docs)
	return &art
}

func sortedProgKeys(m map[string]*SwitchProgram) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// nextLine splits the first line off text: the lines it yields until text is
// empty are those of strings.Split(text, "\n"), the empty last one aside.
func nextLine(text string) (line, rest string) {
	if i := strings.IndexByte(text, '\n'); i >= 0 {
		return text[:i], text[i+1:]
	}
	return text, ""
}

// countLines counts non-blank lines.
func countLines(code string) int {
	n := 0
	for code != "" {
		var l string
		l, code = nextLine(code)
		if strings.TrimSpace(l) != "" {
			n++
		}
	}
	return n
}

// logicLines counts non-blank lines excluding header and parser sections
// (the paper's "Logic LoC" metric ignores header and parser code).
func logicLines(code string) int {
	n := 0
	skipping := false
	depth := 0
	for code != "" {
		var l string
		l, code = nextLine(code)
		t := strings.TrimSpace(l)
		if t == "" {
			continue
		}
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
		n++
	}
	return n
}

// shardDocs renders the shard-documentation blocks of one Translate call. A
// block lists the switches of one shard group — the same text in the stub of
// every member — so each is rendered once, by the first member to ask.
type shardDocs struct {
	plan   *encode.Plan
	mu     sync.Mutex
	blocks map[[2]string]string // keyed by extern and the group's first switch
}

// of returns the shard-split comment block for one extern on one switch: the
// hosts of the switch's own shard group, which is exactly the ShardCount
// switches the header line counts.
func (d *shardDocs) of(extern, sw string) string {
	group := d.plan.ShardGroup(extern, sw)
	if len(group) == 0 {
		return ""
	}
	key := [2]string{extern, group[0].Switch}
	d.mu.Lock()
	defer d.mu.Unlock()
	doc, ok := d.blocks[key]
	if !ok {
		var b strings.Builder
		fmt.Fprintf(&b, "# %s is split across %d switches:\n", extern, len(group))
		for _, s := range group {
			fmt.Fprintf(&b, "#   %-8s holds %d entries\n", s.Switch, s.Entries)
		}
		doc = b.String()
		if d.blocks == nil {
			d.blocks = map[[2]string]string{}
		}
		d.blocks[key] = doc
	}
	return doc
}

// stubTemplate is a control-plane stub with holes: text[i] precedes hole i,
// and the last text follows the last hole. A hole naming an extern takes that
// extern's shard documentation; the others take the switch name.
type stubTemplate struct {
	text  []string
	holes []string
}

// fill instantiates the stub for one switch in one exact-sized allocation.
func (t *stubTemplate) fill(sw string, docs *shardDocs) string {
	var few [8]string // a stub with at most this many holes fills off the stack
	vals := few[:0]
	n := len(t.text[len(t.holes)])
	for i, extern := range t.holes {
		v := sw
		if extern != "" {
			v = docs.of(extern, sw)
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
	var b strings.Builder
	hole := func(extern string) {
		t.text = append(t.text, b.String())
		t.holes = append(t.holes, extern)
		b.Reset()
	}
	b.WriteString("# Control-plane interface for switch ")
	hole("")
	b.WriteString(", generated by Lyra.\n")
	b.WriteString("# Fill these in to manipulate table entries; Lyra has already\n")
	b.WriteString("# decided how each extern variable maps onto physical tables.\n\n")
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
		keys := fieldNames(pt.Extern.Keys)
		vals := fieldNames(pt.Extern.Values)
		params := strings.Join(keys, ", ")
		if len(vals) > 0 {
			params += ", " + strings.Join(vals, ", ")
		}
		fmt.Fprintf(&b, "def %s_entry_set(%s):\n", name, params)
		fmt.Fprintf(&b, "    \"\"\"Install an entry into %s (table %s on ", name, pt.Name)
		hole("")
		b.WriteString(").\"\"\"\n")
		fmt.Fprintf(&b, "    pass\n\n")
		fmt.Fprintf(&b, "def %s_entry_get(%s):\n", name, strings.Join(keys, ", "))
		fmt.Fprintf(&b, "    \"\"\"Read an entry from %s.\"\"\"\n", name)
		fmt.Fprintf(&b, "    pass\n\n")
		fmt.Fprintf(&b, "def %s_entry_del(%s):\n", name, strings.Join(keys, ", "))
		fmt.Fprintf(&b, "    \"\"\"Remove an entry from %s.\"\"\"\n", name)
		fmt.Fprintf(&b, "    pass\n\n")
	}
	// Digest/learn handlers for data-plane inserts.
	for _, in := range sp.Instrs {
		if in.Op == ir.IExternInsert {
			fmt.Fprintf(&b, "def on_%s_learn(digest):\n", in.Table)
			fmt.Fprintf(&b, "    \"\"\"Handle data-plane insert notifications for %s.\"\"\"\n", in.Table)
			fmt.Fprintf(&b, "    pass\n\n")
		}
	}
	t.text = append(t.text, b.String())
	return t
}

func fieldNames(fs []ast.Field) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Name
	}
	return out
}
