package rewrite

import (
	"fmt"

	"lyra/internal/encode"
	"lyra/internal/ir"
	"lyra/internal/synth"
)

// Cost is the solved (second-tier) cost vector of a program variant:
// resources the placed plan actually consumes, compared lexicographically.
// Placed tables dominate (the paper's Figure-9 metric), then pipeline
// stages, then programmed switches; the static synthesis totals break
// remaining ties so two plans of equal placed footprint still order
// deterministically.
type Cost struct {
	// PlacedTables is the total table count across all programmed switches.
	PlacedTables int `json:"placed_tables"`
	// Stages is the total pipeline stages consumed across switches.
	Stages int `json:"stages"`
	// Switches counts switches hosting at least one table.
	Switches int `json:"switches"`
	// StaticTables is the synthesized conditional-table total (pre-place).
	StaticTables int `json:"static_tables"`
	// LongestPath is the longest instruction dependency chain.
	LongestPath int `json:"longest_path"`
}

func (c Cost) String() string {
	return fmt.Sprintf("{placed=%d stages=%d switches=%d tables=%d path=%d}",
		c.PlacedTables, c.Stages, c.Switches, c.StaticTables, c.LongestPath)
}

// Less orders cost vectors lexicographically, most significant field first.
func (c Cost) Less(o Cost) bool {
	if c.PlacedTables != o.PlacedTables {
		return c.PlacedTables < o.PlacedTables
	}
	if c.Stages != o.Stages {
		return c.Stages < o.Stages
	}
	if c.Switches != o.Switches {
		return c.Switches < o.Switches
	}
	if c.StaticTables != o.StaticTables {
		return c.StaticTables < o.StaticTables
	}
	return c.LongestPath < o.LongestPath
}

// staticCost is the cheap first-tier cost: pure synthesis totals, no
// placement. It orders the frontier for beam pruning so only the most
// promising candidates pay for an SMT solve.
type staticCost struct {
	tables, actions, matchBits, longestPath int
}

func staticCostOf(p *ir.Program) staticCost {
	s := synth.Summarize(p)
	return staticCost{s.Tables, s.Actions, s.MatchBits, s.LongestPath}
}

func (c staticCost) less(o staticCost) bool {
	if c.tables != o.tables {
		return c.tables < o.tables
	}
	if c.actions != o.actions {
		return c.actions < o.actions
	}
	if c.matchBits != o.matchBits {
		return c.matchBits < o.matchBits
	}
	return c.longestPath < o.longestPath
}

// solvedCost extracts the second-tier cost vector from a feasible plan.
func solvedCost(plan *encode.Plan, s synth.Summary) Cost {
	c := Cost{StaticTables: s.Tables, LongestPath: s.LongestPath}
	plan.EachHost(func(sw string, _ []*ir.Instr) {
		if pts := plan.TablesOf(sw); len(pts) > 0 {
			c.Switches++
			c.PlacedTables += len(pts)
		}
		if alloc := plan.AllocationOf(sw); alloc != nil {
			c.Stages += alloc.StagesUsed
		}
	})
	return c
}
