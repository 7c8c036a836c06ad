package asic

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// TableSpec describes one match-action table to be admitted into a chip
// (synthesized from a predicate block, §5.2, or an extern variable).
type TableSpec struct {
	Name       string
	Entries    int64
	MatchBits  int
	ActionBits int // action-parameter data carried per entry
	Actions    int
	Stateful   bool  // needs an atom (global variable access, Appendix A.5)
	Deps       []int // indices into the table slice; must be in earlier stages
}

// RowBits is the effective row width for memory accounting: match plus
// action data (Jose et al.'s overhead compensation, Appendix A.4).
func (t *TableSpec) RowBits() int {
	b := t.MatchBits + t.ActionBits
	if b <= 0 {
		b = 1
	}
	return b
}

// StagePlacement records where one table landed.
type StagePlacement struct {
	Start, End int           // stage range (1-based, inclusive)
	Entries    map[int]int64 // stage -> entries (E_t,s, Eq. 1)
}

// Allocation is a feasible mapping of tables onto a chip.
type Allocation struct {
	Model  *Model
	Tables map[string]*StagePlacement
	// StagesUsed is the highest stage index occupied (0 when empty).
	StagesUsed int
	// BlocksUsed is the total SRAM blocks consumed.
	BlocksUsed int64
	// PHV is the chosen packing usage.
	PHVUsed PHVWords
	// RecirculationPasses is 1 for a single-pass program; 2 when the
	// program only fits by recirculating packets through the pipeline a
	// second time (§8 "Lyra uses recirculation as an optimization method
	// to pack a longer program into one switch").
	RecirculationPasses int
}

// AllocError reports an admission failure with enough structure for the
// placement theory to build a conflict explanation.
type AllocError struct {
	Model  *Model
	Reason string
	Table  string // offending table, if any
}

func (e *AllocError) Error() string {
	if e.Table != "" {
		return fmt.Sprintf("%s: %s (table %s)", e.Model.Name, e.Reason, e.Table)
	}
	return fmt.Sprintf("%s: %s", e.Model.Name, e.Reason)
}

// ProgramSpec is everything the admission check needs for one switch.
type ProgramSpec struct {
	Tables []TableSpec
	// Fields lists PHV-resident field widths in bits (header fields used
	// plus metadata/local variables).
	Fields []int
	// ParserEntries is the parser TCAM demand (Appendix A.2).
	ParserEntries int
	// CodePathLen is the longest dependency chain (NPL admission).
	CodePathLen int
}

// Allocate admits a program onto a chip model, returning the placement or
// an AllocError. It is used three ways: as the solver's resource theory, as
// the post-hoc verifier standing in for the vendor compiler, and by the
// translator to annotate emitted code with stage ranges.
func Allocate(m *Model, spec *ProgramSpec) (*Allocation, error) {
	if !m.Programmable {
		if len(spec.Tables) == 0 {
			return &Allocation{Model: m, Tables: map[string]*StagePlacement{}}, nil
		}
		return nil, &AllocError{Model: m, Reason: "chip is not programmable"}
	}
	if spec.ParserEntries > m.ParserEntries && m.ParserEntries > 0 {
		return nil, &AllocError{Model: m, Reason: fmt.Sprintf("parser TCAM overflow: need %d entries, have %d", spec.ParserEntries, m.ParserEntries)}
	}
	if m.ExtraCheck != nil {
		if err := m.ExtraCheck(spec); err != nil {
			return nil, &AllocError{Model: m, Reason: err.Error()}
		}
	}
	if phv, err := packPHV(m, spec.Fields); err != nil {
		return nil, err
	} else if m.Stages == 0 {
		// Pool-model chip (NPL family).
		a, err := allocatePool(m, spec)
		if err != nil {
			return nil, err
		}
		a.PHVUsed = phv
		return a, nil
	} else {
		a, err := allocateStaged(m, spec)
		if err != nil {
			return nil, err
		}
		a.PHVUsed = phv
		return a, nil
	}
}

// allocateStaged performs greedy topological stage assignment for
// RMT-family chips (Appendix A.6): each table starts after all its
// dependencies end; large tables expand across stages (Eq. 1); per-stage
// table-count and memory-block budgets are enforced (Eq. 2, Eq. 15).
func allocateStaged(m *Model, spec *ProgramSpec) (*Allocation, error) {
	n := len(spec.Tables)
	order, err := topoOrder(spec.Tables)
	if err != nil {
		return nil, &AllocError{Model: m, Reason: err.Error()}
	}
	// With recirculation the packet may traverse the pipeline twice,
	// doubling the logical stage budget at the cost of halved throughput.
	logicalStages := m.Stages
	if m.Recirculation {
		logicalStages = 2 * m.Stages
	}
	type stageState struct {
		tables int
		blocks int64
		atoms  int
	}
	stages := make([]stageState, logicalStages+1) // 1-based
	alloc := &Allocation{Model: m, Tables: make(map[string]*StagePlacement, n), RecirculationPasses: 1}
	endStage := make([]int, n)

	for _, ti := range order {
		t := &spec.Tables[ti]
		minStage := 1
		for _, d := range t.Deps {
			if endStage[d]+1 > minStage {
				minStage = endStage[d] + 1
			}
		}
		remaining := t.Entries
		if remaining <= 0 {
			remaining = 1 // gateway tables still occupy a slot
		}
		pl := &StagePlacement{Entries: map[int]int64{}}
		stage := minStage
		first := true
		for remaining > 0 {
			if stage > logicalStages {
				if m.Recirculation {
					return nil, &AllocError{Model: m, Table: t.Name,
						Reason: fmt.Sprintf("ran out of stages even with recirculation (need more than 2×%d)", m.Stages)}
				}
				return nil, &AllocError{Model: m, Table: t.Name,
					Reason: fmt.Sprintf("ran out of stages (need more than %d)", m.Stages)}
			}
			st := &stages[stage]
			if st.tables >= m.TablesPerStage {
				stage++
				continue
			}
			if t.Stateful && st.atoms >= m.AtomsPerStage && m.AtomsPerStage > 0 {
				stage++
				continue
			}
			freeBlocks := int64(m.SRAMBlocks) - st.blocks
			if freeBlocks <= 0 {
				stage++
				continue
			}
			// How many entries fit in freeBlocks?
			fit := EntriesInBlocks(m, freeBlocks, t.RowBits())
			if fit <= 0 {
				stage++
				continue
			}
			take := remaining
			if take > fit {
				take = fit
			}
			used := m.MemoryBlocksFor(take, t.RowBits())
			st.blocks += used
			alloc.BlocksUsed += used
			st.tables++
			if t.Stateful {
				st.atoms++
			}
			pl.Entries[stage] = take
			if first {
				pl.Start = stage
				first = false
			}
			pl.End = stage
			remaining -= take
			if stage > alloc.StagesUsed {
				alloc.StagesUsed = stage
			}
			stage++
		}
		endStage[ti] = pl.End
		alloc.Tables[t.Name] = pl
	}
	if alloc.StagesUsed > m.Stages {
		alloc.RecirculationPasses = 2
	}
	return alloc, nil
}

// EntriesInBlocks inverts MemoryBlocksFor: the most entries of rowBits
// width that fit in the given number of blocks.
func EntriesInBlocks(m *Model, blocks int64, rowBits int) int64 {
	h := int64(m.SRAMBlockEntries)
	w := int64(m.SRAMBlockWidth)
	if rowBits <= 0 {
		rowBits = 1
	}
	if m.WordPacking {
		// Invert Eq. 11: ceil(take/h)·rowBits ≤ blocks·w, so at most
		// floor(blocks·w/rowBits) block-rows, each holding h entries.
		rows := blocks * w / int64(rowBits)
		return rows * h
	}
	blocksPerRow := ceilDiv(int64(rowBits), w)
	return (blocks / blocksPerRow) * h
}

// allocatePool admits a program to a pooled-memory NPL chip.
func allocatePool(m *Model, spec *ProgramSpec) (*Allocation, error) {
	if ml := m.MaxLogicalTables; ml > 0 && len(spec.Tables) > ml {
		return nil, &AllocError{Model: m, Reason: fmt.Sprintf("too many logical tables: %d > %d", len(spec.Tables), ml)}
	}
	if m.MaxCodePath > 0 && spec.CodePathLen > m.MaxCodePath {
		return nil, &AllocError{Model: m, Reason: fmt.Sprintf("code path too long: %d > %d", spec.CodePathLen, m.MaxCodePath)}
	}
	var words int64
	w := int64(m.SRAMBlockWidth)
	if w == 0 {
		w = 80
	}
	alloc := &Allocation{Model: m, Tables: map[string]*StagePlacement{}}
	for i := range spec.Tables {
		t := &spec.Tables[i]
		rows := ceilDiv(int64(t.RowBits()), w)
		if rows == 0 {
			rows = 1
		}
		e := t.Entries
		if e <= 0 {
			e = 1
		}
		words += e * rows
		alloc.Tables[t.Name] = &StagePlacement{Start: 1, End: 1, Entries: map[int]int64{1: e}}
	}
	if m.TotalEntryCapacity > 0 && words > m.TotalEntryCapacity {
		// Identify the largest table for the diagnostic.
		biggest := ""
		var bs int64 = -1
		for i := range spec.Tables {
			if spec.Tables[i].Entries > bs {
				bs = spec.Tables[i].Entries
				biggest = spec.Tables[i].Name
			}
		}
		return nil, &AllocError{Model: m, Table: biggest,
			Reason: fmt.Sprintf("memory pool overflow: need %d words, have %d", words, m.TotalEntryCapacity)}
	}
	alloc.BlocksUsed = words
	return alloc, nil
}

// topoOrder orders tables so dependencies come first, preserving input
// order among independent tables.
func topoOrder(tables []TableSpec) ([]int, error) {
	n := len(tables)
	state := make([]int, n) // 0 unvisited, 1 visiting, 2 done
	var out []int
	var visit func(i int) error
	visit = func(i int) error {
		switch state[i] {
		case 1:
			return fmt.Errorf("cyclic table dependency through %s", tables[i].Name)
		case 2:
			return nil
		}
		state[i] = 1
		deps := append([]int(nil), tables[i].Deps...)
		sort.Ints(deps)
		for _, d := range deps {
			if d < 0 || d >= n {
				return fmt.Errorf("table %s has out-of-range dependency %d", tables[i].Name, d)
			}
			if err := visit(d); err != nil {
				return err
			}
		}
		state[i] = 2
		out = append(out, i)
		return nil
	}
	for i := 0; i < n; i++ {
		if err := visit(i); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// maxRanked bounds the field widths whose ranked strategies are kept; a wider
// field is ranked on every use.
const maxRanked = 256

// ranked holds rankedStrategies' answer per width up to maxRanked, each made
// once and shared, read-only, by every admission of every compile.
var ranked [maxRanked + 1]struct {
	once sync.Once
	s    []PHVWords
}

// rankedStrategies returns the packing strategies of a bits-wide field in the
// order packPHV tries them: least wasted bits first, then fewest words. The
// slice is shared: do not modify it.
func rankedStrategies(bits int) []PHVWords {
	if bits > maxRanked {
		return rankStrategies(bits)
	}
	r := &ranked[bits]
	r.once.Do(func() { r.s = rankStrategies(bits) })
	return r.s
}

func rankStrategies(bits int) []PHVWords {
	strategies := PackingStrategies(bits)
	sort.Slice(strategies, func(i, j int) bool {
		wi, wj := strategies[i].Bits()-bits, strategies[j].Bits()-bits
		if wi != wj {
			return wi < wj
		}
		return strategies[i].W8+strategies[i].W16+strategies[i].W32 <
			strategies[j].W8+strategies[j].W16+strategies[j].W32
	})
	return strategies
}

// packPHV chooses a packing for every field and checks word budgets
// (Appendix A.3, Eq. 9–10). Fields are packed with a first-fit-decreasing
// heuristic over the enumerated strategies; the minimal-waste strategy is
// preferred.
func packPHV(m *Model, fields []int) (PHVWords, error) {
	if m.PHV8 == 0 && m.PHV16 == 0 && m.PHV32 == 0 {
		return PHVWords{}, nil
	}
	sorted := slices.Clone(fields)
	slices.Sort(sorted)
	var used PHVWords
	for i := len(sorted) - 1; i >= 0; i-- { // widest first
		bits := sorted[i]
		if bits <= 0 {
			continue
		}
		placed := false
		for _, st := range rankedStrategies(bits) {
			if used.W8+st.W8 <= m.PHV8 && used.W16+st.W16 <= m.PHV16 && used.W32+st.W32 <= m.PHV32 {
				used.W8 += st.W8
				used.W16 += st.W16
				used.W32 += st.W32
				placed = true
				break
			}
		}
		if !placed {
			return used, &AllocError{Model: m,
				Reason: fmt.Sprintf("PHV overflow: no packing for %d-bit field (used %d×8b %d×16b %d×32b)", bits, used.W8, used.W16, used.W32)}
		}
	}
	return used, nil
}
