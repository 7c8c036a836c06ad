// Package asic models the programmable switching ASICs that Lyra targets
// (§5.4, Appendix A). Each Model captures the pipeline architecture and
// resource constraints that the compiler encodes: match-action stages,
// per-stage memory blocks, PHV capacity, parser TCAM entries, and
// language-level capabilities such as NPL's multi-lookup logical tables or
// a chip's maximum comparison width (Figure 5).
package asic

import "fmt"

// Lang is the chip-specific language a model is programmed in.
type Lang int

// Target languages.
const (
	LangP4   Lang = iota // P4_14 / P4_16 (Tofino, Silicon One, RMT)
	LangNPL              // NPL (Trident-4, Jericho-2)
	LangNone             // fixed-function (Tomahawk)
)

func (l Lang) String() string {
	switch l {
	case LangP4:
		return "P4"
	case LangNPL:
		return "NPL"
	}
	return "none"
}

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

// Lang is the artifact dialect of a switch with chip m under d.
func (d Dialect) Lang(m *Model) string {
	if m.Lang == LangNPL {
		return "NPL"
	}
	return d.String()
}

// Model describes one ASIC's architecture and resources.
type Model struct {
	Name string
	Lang Lang

	// Programmable is false for fixed-function chips (e.g. Tomahawk);
	// algorithms cannot be placed there.
	Programmable bool

	// Match-action pipeline geometry (RMT-family chips).
	Stages         int // match-action stages per pipeline
	TablesPerStage int

	// Per-stage memory. SRAM holds exact-match entries, TCAM ternary.
	SRAMBlocks       int // blocks per stage
	SRAMBlockEntries int // entries per block (h_m)
	SRAMBlockWidth   int // bits per entry (w_m)
	TCAMBlocks       int
	TCAMBlockEntries int
	TCAMBlockWidth   int

	// PHV word inventory (Appendix A.3): counts of 8-, 16-, and 32-bit
	// words carried between stages.
	PHV8, PHV16, PHV32 int

	// Parser TCAM entry budget (Appendix A.2).
	ParserEntries int

	// Stateful atoms per stage (Appendix A.5).
	AtomsPerStage int

	// Capability flags.
	WordPacking   bool // Appendix A.4 horizontal entry packing
	MultiLookup   bool // NPL: multiple lookups on one logical table (Fig. 2)
	Recirculation bool
	// MaxCompareBits bounds the width of a single comparison (Figure 5a's
	// "ASIC-X cannot compare longer-than-44-bit variables"). 0 = unlimited.
	MaxCompareBits int

	// NPL-family pool model (Trident-4): total table entries and program
	// depth instead of per-stage budgets.
	TotalEntryCapacity int64 // total (entries × 80b-word) capacity
	MaxLogicalTables   int
	MaxCodePath        int

	// ExtraCheck is the §8 "encoding template" plug-in: operators who find
	// a constraint missing from the model can encode it here without
	// modifying the compiler. It runs at every admission; return an error
	// to reject the program.
	ExtraCheck func(*ProgramSpec) error
}

// String implements fmt.Stringer.
func (m *Model) String() string { return fmt.Sprintf("%s(%s)", m.Name, m.Lang) }

// MemoryBlocksFor returns the number of SRAM blocks a table with the given
// entry count and match width occupies in one stage (Appendix A.4). With
// word packing this is Eq. 11; without, Eq. 12.
func (m *Model) MemoryBlocksFor(entries int64, matchBits int) int64 {
	if entries <= 0 || matchBits <= 0 {
		return 0
	}
	h := int64(m.SRAMBlockEntries)
	w := int64(m.SRAMBlockWidth)
	if h == 0 || w == 0 {
		return 0
	}
	rows := ceilDiv(entries, h)
	if m.WordPacking {
		return ceilDiv(rows*int64(matchBits), w)
	}
	return rows * ceilDiv(int64(matchBits), w)
}

// StageSRAMCapacityEntries returns how many entries of the given match
// width fit in one stage's SRAM.
func (m *Model) StageSRAMCapacityEntries(matchBits int) int64 {
	if matchBits <= 0 {
		matchBits = 1
	}
	blocks := int64(m.SRAMBlocks)
	h := int64(m.SRAMBlockEntries)
	w := int64(m.SRAMBlockWidth)
	if m.WordPacking {
		// Total bits divided by row width.
		totalBits := blocks * h * w
		return totalBits / int64(matchBits)
	}
	blocksPerRow := ceilDiv(int64(matchBits), w)
	if blocksPerRow == 0 {
		blocksPerRow = 1
	}
	return (blocks / blocksPerRow) * h
}

// TotalSRAMCapacityEntries is the whole-pipeline capacity for a match width.
func (m *Model) TotalSRAMCapacityEntries(matchBits int) int64 {
	if m.Stages > 0 {
		return int64(m.Stages) * m.StageSRAMCapacityEntries(matchBits)
	}
	if m.TotalEntryCapacity > 0 {
		w := int64(m.SRAMBlockWidth)
		if w == 0 {
			w = 80
		}
		rows := ceilDiv(int64(matchBits), w)
		if rows == 0 {
			rows = 1
		}
		return m.TotalEntryCapacity / rows
	}
	return 0
}

func ceilDiv(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	return (a + b - 1) / b
}

// PHVWords describes a packing of a field into PHV words (Appendix A.3):
// how many 8-, 16-, and 32-bit words it consumes.
type PHVWords struct {
	W8, W16, W32 int
}

// Bits returns the capacity of the packing.
func (p PHVWords) Bits() int { return p.W8*8 + p.W16*16 + p.W32*32 }

// PackingStrategies enumerates the minimal-word packings of a field of the
// given width (the paper computes all strategies by dynamic programming;
// the compiler then lets the solver pick one, Eq. 9–10). Strategies are
// deduplicated and only include packings with no wasted whole word.
func PackingStrategies(bits int) []PHVWords {
	if bits <= 0 {
		return nil
	}
	var out []PHVWords
	seen := map[PHVWords]bool{}
	maxW32 := (bits + 31) / 32
	for w32 := 0; w32 <= maxW32; w32++ {
		rem32 := bits - w32*32
		maxW16 := 0
		if rem32 > 0 {
			maxW16 = (rem32 + 15) / 16
		}
		for w16 := 0; w16 <= maxW16; w16++ {
			rem := rem32 - w16*16
			w8 := 0
			if rem > 0 {
				w8 = (rem + 7) / 8
			}
			p := PHVWords{W8: w8, W16: w16, W32: w32}
			// Reject packings that waste a whole word.
			if p.Bits()-bits >= 8 && (w8 > 0 || p.Bits()-bits >= 16) {
				continue
			}
			if p.Bits() < bits || seen[p] {
				continue
			}
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// Registry of the ASICs used in the paper's evaluation.
var (
	// RMT is the public reconfigurable match-table architecture
	// (Bosshart et al.), used in Appendix A's constraint walkthrough:
	// 32 stages, 8 tables/stage, 106 SRAM blocks of 1K×80b and 16 TCAM
	// blocks of 2K×40b per stage, PHV of 64×8b + 96×16b + 64×32b,
	// 256-entry parser TCAM.
	RMT = &Model{
		Name: "RMT", Lang: LangP4, Programmable: true,
		Stages: 32, TablesPerStage: 8,
		SRAMBlocks: 106, SRAMBlockEntries: 1024, SRAMBlockWidth: 80,
		TCAMBlocks: 16, TCAMBlockEntries: 2048, TCAMBlockWidth: 40,
		PHV8: 64, PHV16: 96, PHV32: 64,
		ParserEntries: 256, AtomsPerStage: 32,
		WordPacking: true, Recirculation: true,
		MaxCompareBits: 44,
	}

	// Tofino32Q models Barefoot Tofino 32Q: 24 MAUs (§2.1).
	Tofino32Q = &Model{
		Name: "Tofino-32Q", Lang: LangP4, Programmable: true,
		Stages: 24, TablesPerStage: 8,
		SRAMBlocks: 106, SRAMBlockEntries: 1024, SRAMBlockWidth: 80,
		TCAMBlocks: 16, TCAMBlockEntries: 2048, TCAMBlockWidth: 40,
		PHV8: 64, PHV16: 96, PHV32: 64,
		ParserEntries: 256, AtomsPerStage: 32,
		WordPacking: true, Recirculation: true,
		MaxCompareBits: 44,
	}

	// Tofino64Q models Barefoot Tofino 64Q: 12 MAUs and less memory (§2.1).
	Tofino64Q = &Model{
		Name: "Tofino-64Q", Lang: LangP4, Programmable: true,
		Stages: 12, TablesPerStage: 8,
		SRAMBlocks: 80, SRAMBlockEntries: 1024, SRAMBlockWidth: 80,
		TCAMBlocks: 12, TCAMBlockEntries: 2048, TCAMBlockWidth: 40,
		PHV8: 64, PHV16: 96, PHV32: 64,
		ParserEntries: 256, AtomsPerStage: 32,
		WordPacking: true, Recirculation: true,
		MaxCompareBits: 44,
	}

	// SiliconOne models Cisco Silicon One (P4-programmable, different
	// geometry, no word packing).
	SiliconOne = &Model{
		Name: "SiliconOne", Lang: LangP4, Programmable: true,
		Stages: 20, TablesPerStage: 6,
		SRAMBlocks: 96, SRAMBlockEntries: 1024, SRAMBlockWidth: 80,
		TCAMBlocks: 12, TCAMBlockEntries: 2048, TCAMBlockWidth: 40,
		PHV8: 64, PHV16: 64, PHV32: 64,
		ParserEntries: 192, AtomsPerStage: 16,
		WordPacking: false, Recirculation: true,
		MaxCompareBits: 64,
	}

	// Trident4 models Broadcom Trident-4 programmed in NPL: a pooled
	// logical-table architecture with multi-lookup support (§5.3). Both
	// Tofino and Trident-4 hold about three million entries (§7.2).
	Trident4 = &Model{
		Name: "Trident-4", Lang: LangNPL, Programmable: true,
		SRAMBlockWidth: 80,
		PHV8:           64, PHV16: 96, PHV32: 64,
		ParserEntries:      256,
		MultiLookup:        true,
		TotalEntryCapacity: 3_000_000,
		MaxLogicalTables:   256,
		MaxCodePath:        192,
	}

	// Tomahawk is a fixed-function high-throughput core chip; nothing can
	// be deployed there.
	Tomahawk = &Model{Name: "Tomahawk", Lang: LangNone}
)

// ByName resolves a model from its name.
func ByName(name string) (*Model, bool) {
	for _, m := range []*Model{RMT, Tofino32Q, Tofino64Q, SiliconOne, Trident4, Tomahawk} {
		if m.Name == name {
			return m, true
		}
	}
	return nil, false
}
