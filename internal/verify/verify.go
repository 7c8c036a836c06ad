// Package verify re-validates generated artifacts against their target
// chip models. It stands in for the vendor compilers the paper invokes
// ("all our generated code can compile on the corresponding ASICs", §7.1):
// each switch's table set is re-admitted through the chip allocator from a
// clean slate, and the emitted source is structurally linted.
package verify

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"lyra/internal/asic"
	"lyra/internal/backend"
	"lyra/internal/encode"
	"lyra/internal/nplcheck"
	"lyra/internal/p4check"
	"lyra/internal/par"
	"lyra/internal/synth"
	"lyra/internal/topo"
)

// Report is the admission result for one switch.
type Report struct {
	Switch   string
	Dialect  string
	OK       bool
	Problems []string
	// Capacity is true when the only failure is chip-resource exhaustion
	// (an asic.AllocError: PHV packing, stages, table counts) — the
	// program provably does not fit the target, as opposed to emitted
	// code that fails validation. Callers may surface such failures as
	// infeasibility rather than as a compiler defect.
	Capacity bool
	Alloc    *asic.Allocation
}

// Plan verifies every artifact of a translated plan. It returns one report
// per switch and an error only on internal failures (an inadmissible
// program yields OK=false, not an error).
func Plan(plan *encode.Plan, arts map[string]*backend.Artifact) []Report {
	return PlanParallel(plan, arts, 1)
}

// PlanParallel is Plan with the admission and lint checks fanned out over a
// bounded worker pool (workers <= 0 selects GOMAXPROCS). Reports are returned
// in sorted switch order and are identical at any parallelism level.
//
// There is one verdict per plan shape (backend.ShapeLeads): the shape covers
// everything admission and the lint consume, so the first switch of each
// shape is checked and the others are stamped with its report — provided
// their program text past the header line is byte-for-byte the checked one,
// which is compared here rather than taken on the shape's word.
func PlanParallel(plan *encode.Plan, arts map[string]*backend.Artifact, workers int) []Report {
	return PlanShared(plan, arts, workers, nil)
}

// PlanShared is PlanParallel drawing on, and adding to, a family's shape memo:
// a memoised report is taken only for the very text it was checked on.
func PlanShared(plan *encode.Plan, arts map[string]*backend.Artifact, workers int, memo *backend.Shapes) []Report {
	keys, err := topo.InOrder(plan.Input.Net, arts)
	if err != nil { // an artifact of a switch the plan's network lacks
		return []Report{{Problems: []string{err.Error()}}}
	}
	if len(keys) == 0 {
		return nil
	}
	lead := backend.ShapeLeads(plan, keys)
	var own []int // the switches checked on their own
	for i, sw := range keys {
		if lead[i] != i && !sameProgram(arts[keys[lead[i]]], arts[sw]) {
			lead[i] = i
		}
		if lead[i] == i {
			own = append(own, i)
		}
	}
	out := make([]Report, len(keys))
	par.For(len(own), workers, func(k int) {
		i := own[k]
		art, shape := arts[keys[i]], plan.Shape(keys[i])
		if checked, r := memo.Verdict(shape, art.Dialect); checked != nil && sameProgram(checked, art) {
			out[i] = r.(Report)
			out[i].Switch = keys[i]
		} else if out[i] = verifyOne(keys[i], art); memo != nil { // a Report in an any is a copy
			memo.SetVerdict(shape, art, out[i])
		}
	})
	for i, sw := range keys {
		if lead[i] != i {
			out[i] = out[lead[i]]
			out[i].Switch = sw
		}
	}
	return out
}

// sameProgram reports whether two artifacts carry the same program text in
// the same language, the first line — the comment naming the switch — aside.
func sameProgram(a, b *backend.Artifact) bool {
	body := func(code string) string { return code[strings.IndexByte(code, '\n')+1:] }
	return a.Dialect == b.Dialect && body(a.Code) == body(b.Code)
}

// verifyOne re-admits and lints a single switch's artifact.
func verifyOne(sw string, art *backend.Artifact) Report {
	r := Report{Switch: sw, Dialect: art.Dialect, OK: true}
	if alloc, err := Admit(art.Program); err != nil {
		r.OK = false
		var ae *asic.AllocError
		r.Capacity = errors.As(err, &ae)
		r.Problems = append(r.Problems, err.Error())
	} else {
		r.Alloc = alloc
	}
	for _, p := range Lint(art) {
		r.OK = false
		r.Capacity = false // lint problems are code defects, never capacity
		r.Problems = append(r.Problems, p)
	}
	return r
}

// Admit re-runs chip admission for a switch program from scratch.
func Admit(sp *backend.SwitchProgram) (*asic.Allocation, error) {
	nfields := len(sp.Metadata)
	for _, h := range sp.Headers {
		nfields += len(h.Fields)
	}
	if sp.Bridge != nil {
		nfields += len(sp.Bridge.Fields)
	}
	spec := &asic.ProgramSpec{
		Tables: make([]asic.TableSpec, 0, len(sp.Tables)),
		Fields: make([]int, 0, nfields),
	}
	for _, pt := range sp.Tables {
		spec.Tables = append(spec.Tables, asic.TableSpec{
			Name:       pt.Name,
			Entries:    pt.Entries,
			MatchBits:  pt.MatchBits(),
			ActionBits: pt.ActionBits(),
			Actions:    len(pt.Actions),
			Stateful:   pt.Stateful,
		})
	}
	for i, pt := range sp.Tables {
		for _, d := range pt.Deps {
			if di := slices.IndexFunc(spec.Tables, func(ts asic.TableSpec) bool { return ts.Name == d.Name }); di >= 0 {
				spec.Tables[i].Deps = append(spec.Tables[i].Deps, di)
			}
		}
	}
	for _, h := range sp.Headers {
		for _, f := range h.Fields {
			spec.Fields = append(spec.Fields, f.Type.Bits)
		}
	}
	if sp.Bridge != nil {
		for _, f := range sp.Bridge.Fields {
			spec.Fields = append(spec.Fields, f.Type.Bits)
		}
	}
	for _, mv := range sp.Metadata {
		spec.Fields = append(spec.Fields, mv.Bits)
	}
	spec.ParserEntries = len(sp.Headers) + 1
	return asic.Allocate(sp.Model, spec)
}

// Lint performs structural checks on emitted source: balanced braces, no
// empty body, every applied table declared, every table action declared.
func Lint(art *backend.Artifact) []string {
	var problems []string
	code := art.Code
	if strings.Count(code, "{") != strings.Count(code, "}") {
		problems = append(problems, "unbalanced braces")
	}
	if strings.TrimSpace(code) == "" {
		problems = append(problems, "empty program")
	}
	switch art.Dialect {
	case "P4_14":
		problems = append(problems, lintP414(art)...)
	case "NPL":
		problems = append(problems, lintNPL(art)...)
	case "P4_16":
		problems = append(problems, lintP416(art)...)
	}
	return problems
}

func lintP414(art *backend.Artifact) []string {
	var problems []string
	code := art.Code
	if !strings.Contains(code, "control ingress") {
		problems = append(problems, "missing ingress control")
	}
	// Full syntactic + semantic pass through the P4_14 checker: the
	// generated text must parse and every reference must resolve, exactly
	// as a vendor front-end would demand.
	prog, err := p4check.Parse(code)
	if err != nil {
		return append(problems, "p4check: "+err.Error())
	}
	for _, e := range prog.Validate() {
		problems = append(problems, "p4check: "+e.Error())
	}
	// Cross-check the artifact's structural metadata against the parse.
	for _, pt := range art.Program.Tables {
		if _, ok := prog.Tables[pt.Name]; !ok {
			problems = append(problems, fmt.Sprintf("table %s not declared", pt.Name))
		}
		for _, a := range pt.Actions {
			if _, ok := prog.Actions[a.Name]; !ok {
				problems = append(problems, fmt.Sprintf("action %s not declared", a.Name))
			}
		}
	}
	return problems
}

func lintNPL(art *backend.Artifact) []string {
	var problems []string
	code := art.Code
	if !strings.Contains(code, "program lyra") {
		problems = append(problems, "missing program block")
	}
	// Full pass through the NPL checker.
	prog, err := nplcheck.Parse(code)
	if err != nil {
		return append(problems, "nplcheck: "+err.Error())
	}
	for _, e := range prog.Validate() {
		problems = append(problems, "nplcheck: "+e.Error())
	}
	for _, pt := range art.Program.Tables {
		if pt.Kind != synth.MatchExtern {
			continue
		}
		if _, ok := prog.Tables[pt.Name]; !ok {
			problems = append(problems, fmt.Sprintf("logical_table %s not declared", pt.Name))
		}
		if len(prog.Lookups[pt.Name]) == 0 {
			problems = append(problems, fmt.Sprintf("logical_table %s never looked up", pt.Name))
		}
	}
	return problems
}

func lintP416(art *backend.Artifact) []string {
	var problems []string
	code := art.Code
	if !strings.Contains(code, "V1Switch(") {
		problems = append(problems, "missing V1Switch instantiation")
	}
	for _, pt := range art.Program.Tables {
		if pt.Kind != synth.MatchExtern {
			continue
		}
		if !strings.Contains(code, "table "+pt.Name+" {") {
			problems = append(problems, fmt.Sprintf("table %s not declared", pt.Name))
		}
		if !strings.Contains(code, pt.Name+".apply()") {
			problems = append(problems, fmt.Sprintf("table %s never applied", pt.Name))
		}
	}
	return problems
}
