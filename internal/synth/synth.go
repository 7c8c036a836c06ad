// Package synth implements conditional implementation synthesis: grouping
// context-aware IR instructions into predicate blocks and mapping them to
// chip-language constructs — P4 match-action tables via the paper's
// Algorithm 1 (§5.2) and NPL logical tables with multi-lookup merging
// (§5.3). The output is conditional: whether a synthesized table actually
// exists on a switch depends on which of its instructions the solver places
// there (table validity, Eq. 4).
package synth

import (
	"fmt"
	"sort"
	"strings"

	"lyra/internal/ir"
)

// MatchKind classifies how a synthesized table matches.
type MatchKind int

// Match kinds.
const (
	// MatchNone tables always run (straight-line compute).
	MatchNone MatchKind = iota
	// MatchPredicate tables gate on predicate variables (P4 "if" lowering).
	MatchPredicate
	// MatchExtern tables match an extern variable's keys; entries are
	// control-plane managed.
	MatchExtern
)

func (k MatchKind) String() string {
	switch k {
	case MatchPredicate:
		return "predicate"
	case MatchExtern:
		return "extern"
	}
	return "none"
}

// Action is one action of a synthesized table.
type Action struct {
	Name   string
	Guard  ir.Guard
	Instrs []*ir.Instr
	OnHit  bool // action fires on table hit (folded child, Alg. 1 line 12)
	OnMiss bool // action fires on table miss
}

// FieldPred is a comparison absorbed into a table's match: instead of
// synthesizing "p = field == const" as its own compute table and matching
// the 1-bit p, the table matches the header field directly and the control
// plane installs the constant (the paper's NetCache merge uses exactly
// this: one table matching nc_hdr.op).
type FieldPred struct {
	Var   *ir.Var
	Field ir.Operand
	Const uint64
	Op    ir.Op // always IBin; BinOp on Instr distinguishes ==, >=, ...
	Instr *ir.Instr
}

// Table is one conditional table (or NPL logical table).
type Table struct {
	Name   string
	Alg    string
	Kind   MatchKind
	Extern *ir.ExternDecl // non-nil for MatchExtern
	Preds  []*ir.Var      // 1-bit predicate match fields
	// FieldPreds are absorbed comparisons matched as header fields.
	FieldPreds []FieldPred
	Actions    []*Action
	// Lookups counts distinct lookup/member operations merged into this
	// table (NPL multi-lookup; 1 for P4).
	Lookups int
	// Deps are tables that must be placed in earlier stages.
	Deps []*Table

	Stateful bool // touches a global register (needs an atom)
	Globals  []string
}

// Instrs returns every instruction identified with the table (the set I_s
// used for validity encoding, Eq. 4).
func (t *Table) Instrs() []*ir.Instr {
	var out []*ir.Instr
	for _, fp := range t.FieldPreds {
		if fp.Instr != nil {
			out = append(out, fp.Instr)
		}
	}
	for _, a := range t.Actions {
		out = append(out, a.Instrs...)
	}
	return out
}

// Entries estimates the number of entries the table requires.
func (t *Table) Entries() int64 {
	switch t.Kind {
	case MatchExtern:
		return int64(t.Extern.Size)
	case MatchPredicate:
		n := int64(1)
		for range t.Preds {
			n *= 2
			if n >= 64 {
				break
			}
		}
		n += int64(len(t.Actions)) // entries for absorbed-field cases
		return n
	}
	return 1
}

// MatchBits is the match field width M_t.
func (t *Table) MatchBits() int {
	switch t.Kind {
	case MatchExtern:
		return t.Extern.KeyBits()
	case MatchPredicate:
		n := len(t.Preds)
		seen := map[string]bool{}
		for _, fp := range t.FieldPreds {
			key := fp.Field.Hdr + "." + fp.Field.Field
			if !seen[key] {
				seen[key] = true
				n += fp.Field.Bits
			}
		}
		return n
	}
	return 0
}

// ActionBits is the per-entry action data width.
func (t *Table) ActionBits() int {
	if t.Kind == MatchExtern {
		return t.Extern.ValueBits()
	}
	return 0
}

// Result is the synthesized conditional implementation of one algorithm for
// one target language family.
type Result struct {
	Alg    string
	Tables []*Table
	// ActionCount is the total number of distinct actions (Figure 9).
	ActionCount int
	// Registers is the number of stateful register (global) objects.
	Registers int
	// LongestPath is the longest instruction dependency chain (NPL
	// "longest code path" column).
	LongestPath int
}

// String renders the result compactly for golden tests.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "algorithm %s: %d tables, %d actions, %d registers\n",
		r.Alg, len(r.Tables), r.ActionCount, r.Registers)
	for _, t := range r.Tables {
		deps := make([]string, len(t.Deps))
		for i, d := range t.Deps {
			deps[i] = d.Name
		}
		fmt.Fprintf(&b, "  table %s kind=%s entries=%d match=%db actions=%d lookups=%d deps=[%s]\n",
			t.Name, t.Kind, t.Entries(), t.MatchBits(), len(t.Actions), t.Lookups, strings.Join(deps, ","))
	}
	return b.String()
}

// predBlock is a predicate block (§5.2): instructions with the same
// predicate and no mutual dependency.
type predBlock struct {
	guard  ir.Guard
	instrs []*ir.Instr
	extern *ir.ExternDecl // set when the block is an extern member/lookup
	id     int
}

// buildPredBlocks groups an algorithm's instructions into predicate blocks.
// Instructions join the most recent open block with an identical guard
// unless (a) a transitive dependency exists from a member of that block, or
// (b) mixing would put an extern operation together with unrelated
// instructions (an extern op anchors its own match table).
func buildPredBlocks(a *ir.Algorithm, prog *ir.Program, reach [][]bool, absorbed map[*ir.Var]FieldPred) []*predBlock {
	var blocks []*predBlock
	// open maps guard-string -> indices of blocks with that guard, newest
	// last.
	open := map[string][]int{}

	externOf := func(in *ir.Instr) *ir.ExternDecl {
		if in.Op == ir.IMember || in.Op == ir.ILookup {
			return prog.Extern(in.Table)
		}
		return nil
	}

	for _, in := range a.Instrs {
		if v := in.WritesVar(); v != nil {
			if _, ok := absorbed[v]; ok {
				continue // becomes a table match field, not an action
			}
		}
		key := in.Guard.String()
		ext := externOf(in)
		joined := false
		// Same-guard instructions share a block (and hence a table action
		// with multiple primitives, the way engineers write P4_14 actions)
		// unless mixing extern match structures, or unless the instruction
		// depends on a block created after the candidate — joining would
		// then reorder across that block and cycle the table graph.
		cands := open[key]
		for ci := len(cands) - 1; ci >= 0 && !joined; ci-- {
			bi := cands[ci]
			b := blocks[bi]
			if !((ext == nil && b.extern == nil) || (ext != nil && b.extern == ext)) {
				continue
			}
			safe := true
		scan:
			for b2 := bi + 1; b2 < len(blocks); b2++ {
				for _, m2 := range blocks[b2].instrs {
					if reach[m2.ID][in.ID] {
						safe = false
						break scan
					}
				}
			}
			if safe {
				b.instrs = append(b.instrs, in)
				joined = true
			}
		}
		if joined {
			continue
		}
		nb := &predBlock{guard: in.Guard, instrs: []*ir.Instr{in}, extern: ext, id: len(blocks)}
		blocks = append(blocks, nb)
		open[key] = append(open[key], nb.id)
	}
	return blocks
}

// absorbableComparisons finds predicates of the form "field == const" (or
// another comparison against a constant) whose result is only ever used as
// a guard. Such a comparison needs no compute table: the gateway table
// matches the header field directly and the control plane installs the
// constant (§7.1's NetCache merge).
func absorbableComparisons(a *ir.Algorithm) map[*ir.Var]FieldPred {
	candidates := map[*ir.Var]FieldPred{}
	for _, in := range a.Instrs {
		v := in.WritesVar()
		if v == nil || in.Op != ir.IBin || !in.BinOp.IsComparison() || len(in.Guard) != 0 {
			continue
		}
		var fld, cst ir.Operand
		switch {
		case in.Args[0].Kind == ir.OpdField && in.Args[1].Kind == ir.OpdConst:
			fld, cst = in.Args[0], in.Args[1]
		case in.Args[1].Kind == ir.OpdField && in.Args[0].Kind == ir.OpdConst:
			fld, cst = in.Args[1], in.Args[0]
		default:
			continue
		}
		candidates[v] = FieldPred{Var: v, Field: fld, Const: cst.Const, Op: in.Op, Instr: in}
	}
	// Disqualify predicates read as data (operands) rather than as guards.
	for _, in := range a.Instrs {
		for _, arg := range in.Args {
			if arg.Kind == ir.OpdVar {
				delete(candidates, arg.Var)
			}
		}
	}
	return candidates
}

// exclusiveBlocks reports whether two blocks can never both execute:
// either their guards diverge on one predicate's polarity, or their
// innermost guards are absorbed equality tests of the same field against
// different constants (if/else-if chains over one header field).
func exclusiveBlocks(a, b *predBlock, absorbed map[*ir.Var]FieldPred) bool {
	if a.guard.MutuallyExclusive(b.guard) {
		return true
	}
	n := len(a.guard)
	if len(b.guard) < n {
		n = len(b.guard)
	}
	for i := 0; i < n; i++ {
		ta, tb := a.guard[i], b.guard[i]
		if ta.Var == tb.Var && ta.Neg == tb.Neg {
			continue // shared prefix
		}
		if ta.Neg || tb.Neg {
			return false
		}
		fa, oka := absorbed[ta.Var]
		fb, okb := absorbed[tb.Var]
		if oka && okb &&
			fa.Field.Hdr == fb.Field.Hdr && fa.Field.Field == fb.Field.Field &&
			fa.Const != fb.Const &&
			fa.Instr.BinOp.String() == "==" && fb.Instr.BinOp.String() == "==" {
			return true // equality tests of one field against different constants
		}
		return false
	}
	return false
}

// reachability computes the transitive closure of the dependency graph.
func reachability(a *ir.Algorithm) [][]bool {
	n := len(a.Instrs)
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
	}
	// Instructions are in topological (program) order; propagate forward.
	for _, in := range a.Instrs {
		for _, d := range in.Deps {
			reach[d][in.ID] = true
			for k := 0; k < n; k++ {
				if reach[k][d] {
					reach[k][in.ID] = true
				}
			}
		}
	}
	return reach
}

// defBlock maps each SSA variable definition to its block.
func defBlocks(blocks []*predBlock) map[*ir.Var]*predBlock {
	out := map[*ir.Var]*predBlock{}
	for _, b := range blocks {
		for _, in := range b.instrs {
			if v := in.WritesVar(); v != nil {
				out[v] = b
			}
		}
	}
	return out
}

// parentOf returns the block defining the innermost guard predicate of b
// (the unique predicate-block dependency, §5.2), or nil for root blocks.
func parentOf(b *predBlock, defs map[*ir.Var]*predBlock) *predBlock {
	for i := len(b.guard) - 1; i >= 0; i-- {
		p := defs[b.guard[i].Var]
		if p == b {
			return nil
		}
		if p != nil {
			return p
		}
		// Absorbed predicate: defined by the table match itself; look
		// further out for a structural parent.
	}
	return nil
}

// Options toggles the optimization passes of §6/Appendix C, for ablation
// studies. The zero value enables everything.
type Options struct {
	// NoMerge disables mutually-exclusive block merging (Alg. 1 lines 5–8).
	NoMerge bool
	// NoAbsorb disables comparison absorption into table match fields
	// (the Appendix C.1-style table reduction).
	NoAbsorb bool
}

// SynthesizeP4 runs Algorithm 1 over one algorithm's IR, producing the
// conditional P4 table group L and the per-table instruction identities.
func SynthesizeP4(prog *ir.Program, a *ir.Algorithm) *Result {
	return SynthesizeP4With(prog, a, Options{})
}

// SynthesizeP4With is SynthesizeP4 with explicit optimization options.
func SynthesizeP4With(prog *ir.Program, a *ir.Algorithm, opts Options) *Result {
	reach := reachability(a)
	absorbed := absorbableComparisons(a)
	if opts.NoAbsorb {
		absorbed = map[*ir.Var]FieldPred{}
	}
	blocks := buildPredBlocks(a, prog, reach, absorbed)
	defs := defBlocks(blocks)

	type node struct {
		block    *predBlock
		parent   *predBlock
		mergedTo *node
		table    *Table
		foldInto *node // folded as an action of parent's table
	}
	nodes := make([]*node, len(blocks))
	for i, b := range blocks {
		nodes[i] = &node{block: b, parent: parentOf(b, defs)}
	}
	nodeOf := func(b *predBlock) *node {
		if b == nil {
			return nil
		}
		return nodes[b.id]
	}

	// Top-down: decide folding into parents (lines 9–15). A block folds
	// into its parent when its innermost predicate is exactly the parent's
	// extern output (table hit/miss signal).
	for _, nd := range nodes {
		p := nodeOf(nd.parent)
		if p == nil || p.block.extern == nil {
			continue
		}
		// A block backed by a *different* extern keeps its own match table;
		// a lookup on the same extern folds into the membership table.
		if nd.block.extern != nil && nd.block.extern != p.block.extern {
			continue
		}
		// Innermost guard term must be defined by the parent block (the
		// member/lookup result), and the rest of the guard must match the
		// parent's own guard.
		inner := nd.block.guard[len(nd.block.guard)-1]
		if defs[inner.Var] == p.block && nd.block.guard[:len(nd.block.guard)-1].Equal(p.block.guard) {
			nd.foldInto = p
		}
	}

	// canMerge rejects merges that would create a cyclic table dependency:
	// merging blocks a (earlier) and b (later) is unsafe when some
	// instruction outside both sits on a dependency chain from a to b.
	inBlock := func(b *predBlock, id int) bool {
		for _, in := range b.instrs {
			if in.ID == id {
				return true
			}
		}
		return false
	}
	canMerge := func(a, b *predBlock) bool {
		for _, ia := range a.instrs {
			for _, ib := range b.instrs {
				if !reach[ia.ID][ib.ID] && !reach[ib.ID][ia.ID] {
					continue
				}
				lo, hi := ia.ID, ib.ID
				if lo > hi {
					lo, hi = hi, lo
				}
				for x := lo + 1; x < hi; x++ {
					if inBlock(a, x) || inBlock(b, x) {
						continue
					}
					if (reach[lo][x] && reach[x][hi]) || (reach[hi][x] && reach[x][lo]) {
						return false
					}
				}
				// Direct dependency between exclusive arms cannot occur
				// (they never execute together), but a chained one through
				// shared code was checked above.
			}
		}
		return true
	}

	// Bottom-up traversal: merge mutually exclusive sibling blocks
	// (Alg. 1 lines 5–8). Compute blocks only — extern-backed blocks keep
	// their own match structure.
	for i := len(nodes) - 1; i >= 0 && !opts.NoMerge; i-- {
		nd := nodes[i]
		if nd.mergedTo != nil || nd.foldInto != nil || nd.block.extern != nil {
			continue
		}
		for j := i - 1; j >= 0; j-- {
			other := nodes[j]
			if other.mergedTo != nil || other.foldInto != nil || other.block.extern != nil {
				continue
			}
			if other.parent == nil && nd.parent == nil || other.parent == nd.parent {
				if exclusiveBlocks(other.block, nd.block, absorbed) && canMerge(other.block, nd.block) {
					nd.mergedTo = other
					break
				}
			}
		}
	}

	// Materialize tables. Absorbed comparison instructions are owned by
	// exactly one table (the first that matches on them); other tables
	// matching the same field record the FieldPred without the instruction.
	res := &Result{Alg: a.Name}
	var tableList []*Table
	tableOf := map[*node]*Table{}
	actionSeq := 0
	owned := map[*ir.Var]bool{}
	attachGuard := func(t *Table, g ir.Guard) {
		for _, term := range g {
			if fp, ok := absorbed[term.Var]; ok {
				dup := false
				for _, have := range t.FieldPreds {
					if have.Var == term.Var {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				fp.Instr = nil // ownership assigned after all attachments
				t.FieldPreds = append(t.FieldPreds, fp)
			} else if t.Kind == MatchPredicate {
				t.Preds = unionVars(t.Preds, []*ir.Var{term.Var})
			}
		}
	}
	for _, nd := range nodes {
		if nd.mergedTo != nil || nd.foldInto != nil {
			continue
		}
		t := &Table{Alg: a.Name, Lookups: 1}
		b := nd.block
		if b.extern != nil {
			t.Kind = MatchExtern
			t.Extern = b.extern
			t.Name = fmt.Sprintf("%s_%s", a.Name, b.extern.Name)
		} else if len(b.guard) > 0 {
			t.Kind = MatchPredicate
			t.Name = fmt.Sprintf("%s_cond_%d", a.Name, b.id)
		} else {
			t.Kind = MatchNone
			t.Name = fmt.Sprintf("%s_seq_%d", a.Name, b.id)
		}
		attachGuard(t, b.guard)
		addAction := func(src *predBlock, onHit, onMiss bool) {
			actionSeq++
			t.Actions = append(t.Actions, &Action{
				Name:   fmt.Sprintf("a_%s_%d", a.Name, actionSeq),
				Guard:  src.guard,
				Instrs: src.instrs,
				OnHit:  onHit,
				OnMiss: onMiss,
			})
		}
		addAction(b, b.extern != nil, false)
		tableOf[nd] = t
		tableList = append(tableList, t)
	}
	// Attach merged blocks as extra actions on their merge target's table.
	for _, nd := range nodes {
		if nd.mergedTo == nil {
			continue
		}
		target := nd.mergedTo
		for target.mergedTo != nil {
			target = target.mergedTo
		}
		t := tableOf[target]
		if t == nil {
			// Target itself folded away: give this block its own table.
			b := nd.block
			t = &Table{Alg: a.Name, Lookups: 1, Kind: MatchPredicate,
				Name: fmt.Sprintf("%s_cond_%d", a.Name, b.id)}
			attachGuard(t, b.guard)
			actionSeq++
			t.Actions = append(t.Actions, &Action{
				Name: fmt.Sprintf("a_%s_%d", a.Name, actionSeq), Guard: b.guard, Instrs: b.instrs})
			tableOf[nd] = t
			tableList = append(tableList, t)
			continue
		}
		attachGuard(t, nd.block.guard)
		actionSeq++
		t.Actions = append(t.Actions, &Action{
			Name:   fmt.Sprintf("a_%s_%d", a.Name, actionSeq),
			Guard:  nd.block.guard,
			Instrs: nd.block.instrs,
		})
	}
	// Attach folded blocks as hit (or miss) actions of the parent table.
	for _, nd := range nodes {
		if nd.foldInto == nil || nd.mergedTo != nil {
			continue
		}
		t := tableOf[nd.foldInto]
		if t == nil {
			continue
		}
		inner := nd.block.guard[len(nd.block.guard)-1]
		attachGuard(t, nd.block.guard)
		actionSeq++
		t.Actions = append(t.Actions, &Action{
			Name:   fmt.Sprintf("a_%s_%d", a.Name, actionSeq),
			Guard:  nd.block.guard,
			Instrs: nd.block.instrs,
			OnHit:  !inner.Neg,
			OnMiss: inner.Neg,
		})
	}

	// Assign each absorbed comparison instruction to exactly one owner:
	// the referencing table whose earliest action comes first, so the
	// definition precedes every guarded use in table order and the table
	// graph stays acyclic.
	minActionID := func(t *Table) int {
		m := 1 << 30
		for _, act := range t.Actions {
			for _, in := range act.Instrs {
				if in.ID < m {
					m = in.ID
				}
			}
		}
		return m
	}
	for v, fp := range absorbed {
		var best *Table
		bestID := 1 << 30
		for _, t := range tableList {
			for _, have := range t.FieldPreds {
				if have.Var == v {
					if id := minActionID(t); id < bestID {
						bestID = id
						best = t
					}
				}
			}
		}
		if best == nil {
			continue // dead comparison, matched nowhere
		}
		for i := range best.FieldPreds {
			if best.FieldPreds[i].Var == v {
				best.FieldPreds[i].Instr = fp.Instr
				owned[v] = true
			}
		}
	}
	_ = owned

	finishResult(res, a, tableList)
	return res
}

// SynthesizeNPL produces the conditional NPL implementation (§5.3): one
// logical table per extern variable with all its lookups merged
// (multi-lookup), logical registers for globals, and plain function code
// for everything else.
func SynthesizeNPL(prog *ir.Program, a *ir.Algorithm) *Result {
	res := &Result{Alg: a.Name}
	var tables []*Table
	byExtern := map[string]*Table{}
	actionSeq := 0
	var funcInstrs []*ir.Instr
	for _, in := range a.Instrs {
		switch in.Op {
		case ir.IMember, ir.ILookup:
			ext := prog.Extern(in.Table)
			t := byExtern[in.Table]
			if t == nil {
				t = &Table{
					Alg:    a.Name,
					Name:   fmt.Sprintf("%s_%s", a.Name, in.Table),
					Kind:   MatchExtern,
					Extern: ext,
				}
				byExtern[in.Table] = t
				tables = append(tables, t)
			}
			t.Lookups++
			actionSeq++
			t.Actions = append(t.Actions, &Action{
				Name:   fmt.Sprintf("lookup%d", t.Lookups-1),
				Guard:  in.Guard,
				Instrs: []*ir.Instr{in},
				OnHit:  true,
			})
		default:
			funcInstrs = append(funcInstrs, in)
		}
	}
	if len(funcInstrs) > 0 {
		t := &Table{
			Alg:  a.Name,
			Name: fmt.Sprintf("%s_func", a.Name),
			Kind: MatchNone,
			Actions: []*Action{{
				Name:   "apply",
				Instrs: funcInstrs,
			}},
			Lookups: 1,
		}
		tables = append(tables, t)
	}
	finishResult(res, a, tables)
	return res
}

// finishResult computes table dependencies, statefulness, and metrics.
func finishResult(res *Result, a *ir.Algorithm, tables []*Table) {
	owner := map[int]*Table{}
	for _, t := range tables {
		for _, in := range t.Instrs() {
			owner[in.ID] = t
		}
		for _, in := range t.Instrs() {
			switch in.Op {
			case ir.IGlobalRead, ir.IGlobalWrite:
				t.Stateful = true
				t.Globals = appendUnique(t.Globals, in.Table)
			}
		}
	}
	for _, t := range tables {
		depSet := map[*Table]bool{}
		for _, in := range t.Instrs() {
			for _, d := range in.Deps {
				dt := owner[d]
				if dt != nil && dt != t && !depSet[dt] {
					depSet[dt] = true
					t.Deps = append(t.Deps, dt)
				}
			}
		}
		sort.Slice(t.Deps, func(i, j int) bool { return t.Deps[i].Name < t.Deps[j].Name })
		res.ActionCount += len(t.Actions)
	}
	res.Tables = tables
	seenGlobals := map[string]bool{}
	for _, g := range a.Globals {
		if !seenGlobals[g.Name] {
			seenGlobals[g.Name] = true
			res.Registers++
		}
	}
	depth := map[int]int{}
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
	res.LongestPath = best
}

func unionVars(a, b []*ir.Var) []*ir.Var {
	seen := map[*ir.Var]bool{}
	var out []*ir.Var
	for _, v := range append(append([]*ir.Var(nil), a...), b...) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func appendUnique(xs []string, v string) []string {
	for _, x := range xs {
		if x == v {
			return xs
		}
	}
	return append(xs, v)
}
