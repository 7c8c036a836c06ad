// Package eval regenerates the paper's evaluation tables and figures
// (§7.1–§7.3): the Figure 9 per-program comparison against human-written
// P4_14, the Figure 10 compile-time scalability curves, the §7.2
// extensibility case study (growing ConnTable), the §7.3 composition case
// study (five-algorithm service chain squeezed into fewer switches), and the
// synthesis ablations. It also holds the stateful scenario library the
// streaming tests and the wire-stream benchmark replay. Performance is
// measured by the benchmark under bench/, not here.
package eval

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"lyra/internal/asic"
	"lyra/internal/backend"
	"lyra/internal/baseline"
	"lyra/internal/core"
	"lyra/internal/frontend"
	"lyra/internal/lang/checker"
	"lyra/internal/lang/parser"
	"lyra/internal/synth"
	"lyra/internal/topo"
)

// ProgramDir locates testdata/programs relative to the repository root.
func ProgramDir() string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Join(filepath.Dir(file), "..", "..", "testdata", "programs")
}

// GitSHA names the current revision ("unknown" outside a git checkout).
func GitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// LoadProgram reads a named evaluation program.
func LoadProgram(name string) (string, error) {
	b, err := os.ReadFile(filepath.Join(ProgramDir(), name+".lyra"))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// compile runs the pipeline of Figure 3, verification aside, for a program
// and scope specification on a network.
func compile(src, scopeText string, net *topo.Network) (*core.Result, error) {
	return core.CompileContext(context.Background(), core.Request{
		Source: src, SourceName: "prog.lyra", ScopeSpec: scopeText, Network: net, SkipVerify: true,
	})
}

// compileOne compiles a program with a generated PER-SW single-switch scope,
// returning the artifact for that switch.
func compileOne(src, sw string, net *topo.Network) (*backend.Artifact, time.Duration, error) {
	prog, err := parser.Parse("prog.lyra", []byte(src))
	if err != nil {
		return nil, 0, err
	}
	var sb strings.Builder
	for _, a := range prog.Algorithms {
		fmt.Fprintf(&sb, "%s: [ %s | PER-SW | - ]\n", a.Name, sw)
	}
	res, err := compile(src, sb.String(), net)
	if err != nil {
		return nil, 0, err
	}
	return res.Artifacts[sw], res.CompileTime, nil
}

// LyraLoC counts the non-blank, non-comment lines of a Lyra source and the
// subset outside header/parser sections (the paper's LoC / Logic LoC
// columns for the Lyra input).
func LyraLoC(src string) (loc, logic int) {
	skipping := false
	depth := 0
	for _, raw := range strings.Split(src, "\n") {
		l := strings.TrimSpace(raw)
		if l == "" || strings.HasPrefix(l, "//") || strings.HasPrefix(l, ">") {
			continue
		}
		loc++
		if !skipping && (strings.HasPrefix(l, "header") || strings.HasPrefix(l, "parser_node") ||
			strings.HasPrefix(l, "packet")) {
			if strings.Contains(l, "{") {
				depth = strings.Count(l, "{") - strings.Count(l, "}")
				skipping = depth > 0
			}
			continue
		}
		if skipping {
			depth += strings.Count(l, "{") - strings.Count(l, "}")
			if depth <= 0 {
				skipping = false
			}
			continue
		}
		logic++
	}
	return loc, logic
}

// Fig9Row is one row of the Figure 9 table.
type Fig9Row struct {
	Program string

	// Human-written P4_14 baseline.
	Baseline baseline.Metrics

	// Lyra source size.
	LyraLoC, LyraLogicLoC int

	// Synthesized P4_14.
	P4Time      time.Duration
	P4Tables    int
	P4Actions   int
	P4Registers int

	// Synthesized NPL.
	NPLTime      time.Duration
	NPLTables    int
	NPLRegisters int
	NPLPath      int
}

// Figure9 compiles every evaluation program for a Tofino (P4_14) and a
// Trident-4 (NPL) target and tabulates the comparison.
func Figure9() ([]Fig9Row, error) {
	net := topo.Testbed()
	var rows []Fig9Row
	for _, name := range baseline.Names() {
		src, err := LoadProgram(name)
		if err != nil {
			return nil, fmt.Errorf("figure9 %s: %w", name, err)
		}
		row := Fig9Row{Program: name, Baseline: baseline.Measure(name)}
		row.LyraLoC, row.LyraLogicLoC = LyraLoC(src)

		p4, dt, err := compileOne(src, "ToR1", net)
		if err != nil {
			return nil, fmt.Errorf("figure9 %s (P4): %w", name, err)
		}
		row.P4Time = dt
		row.P4Tables = p4.Tables
		row.P4Actions = p4.Actions
		row.P4Registers = p4.Registers

		npl, dt, err := compileOne(src, "Agg1", net)
		if err != nil {
			return nil, fmt.Errorf("figure9 %s (NPL): %w", name, err)
		}
		row.NPLTime = dt
		row.NPLTables = externTables(npl)
		row.NPLRegisters = npl.Registers
		row.NPLPath = longestChain(npl.Program)
		rows = append(rows, row)
	}
	return rows, nil
}

// externTables counts NPL logical tables (match tables, excluding the
// always-run function block).
func externTables(a *backend.Artifact) int {
	n := 0
	for _, t := range a.Program.Tables {
		if t.Extern != nil {
			n++
		}
	}
	return n
}

// longestChain computes the longest dependency chain among a switch
// program's instructions (NPL longest code path).
func longestChain(sp *backend.SwitchProgram) int {
	depth := map[int]int{}
	best := 0
	for _, in := range sp.Instrs {
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

// FormatFigure9 renders the Figure 9 table as text.
func FormatFigure9(rows []Fig9Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s | %21s | %11s | %31s | %26s\n",
		"Program", "Manual P4_14", "Lyra", "Synthesized P4_14", "Synthesized NPL")
	fmt.Fprintf(&b, "%-18s | %6s %5s %4s %4s | %5s %5s | %9s %4s %4s %4s | %9s %4s %4s %6s\n",
		"", "LoC", "Tbl", "Act", "Reg", "LoC", "Logic", "time", "Tbl", "Act", "Reg", "time", "Tbl", "Reg", "path")
	fmt.Fprintln(&b, strings.Repeat("-", 126))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s | %6d %5d %4d %4d | %5d %5d | %9s %4d %4d %4d | %9s %4d %4d %6d\n",
			r.Program,
			r.Baseline.LoC, r.Baseline.Tables, r.Baseline.Actions, r.Baseline.Registers,
			r.LyraLoC, r.LyraLogicLoC,
			r.P4Time.Round(time.Millisecond), r.P4Tables, r.P4Actions, r.P4Registers,
			r.NPLTime.Round(time.Millisecond), r.NPLTables, r.NPLRegisters, r.NPLPath)
	}
	return b.String()
}

// Fig10Point is one measurement of the Figure 10 scalability experiment.
type Fig10Point struct {
	Workload string // "lb-multi", "netcache-per", "netcache-multi"
	Chip     string // "Tofino" or "Trident-4"
	K        int    // switches in the pod
	Time     time.Duration
}

// lbSource is the stateful L4 load balancer used in Figures 7/10, with a
// parameterizable ConnTable size.
func lbSource(connSize, vipSize int) string {
	return fmt.Sprintf(`
header_type ipv4_t { bit[32] srcAddr; bit[32] dstAddr; bit[8] protocol; }
header ipv4_t ipv4;
header_type tcp_t { bit[16] srcPort; bit[16] dstPort; }
header tcp_t tcp;
pipeline[LB]{loadbalancer};
algorithm loadbalancer {
  extern dict<bit[32] hash, bit[32] ip>[%d] conn_table;
  extern dict<bit[32] vip, bit[32] dip>[%d] vip_table;
  bit[32] hash;
  hash = crc32_hash(ipv4.srcAddr, ipv4.dstAddr, ipv4.protocol, tcp.srcPort, tcp.dstPort);
  if (hash in conn_table) {
    ipv4.dstAddr = conn_table[hash];
  } else {
    if (ipv4.dstAddr in vip_table) {
      ipv4.dstAddr = vip_table[ipv4.dstAddr];
    }
  }
}
`, connSize, vipSize)
}

// Figure10 runs the scalability sweep: LB (MULTI-SW) and NetCache (PER-SW
// and MULTI-SW) on fat-tree pods of k = 4..32 switches, on Tofino/P4 and
// Trident-4/NPL.
func Figure10(ks []int) ([]Fig10Point, error) {
	if len(ks) == 0 {
		ks = []int{4, 8, 16, 24, 32}
	}
	ncSrc, err := LoadProgram("netcache")
	if err != nil {
		return nil, err
	}
	var out []Fig10Point
	chips := []struct {
		name  string
		model *asic.Model
	}{
		{"Tofino", asic.Tofino32Q},
		{"Trident-4", asic.Trident4},
	}
	for _, chip := range chips {
		for _, k := range ks {
			net := topo.FatTreePod(k, chip.model)

			lbScope := "loadbalancer: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]"
			res, err := compile(lbSource(100_000, 10_000), lbScope, net)
			if err != nil {
				return nil, fmt.Errorf("figure10 lb k=%d %s: %w", k, chip.name, err)
			}
			out = append(out, Fig10Point{"lb-multi", chip.name, k, res.CompileTime})

			perScope := "netcache: [ ToR*,Agg* | PER-SW | - ]"
			if res, err = compile(ncSrc, perScope, net); err != nil {
				return nil, fmt.Errorf("figure10 netcache-per k=%d %s: %w", k, chip.name, err)
			}
			out = append(out, Fig10Point{"netcache-per", chip.name, k, res.CompileTime})

			multiScope := "netcache: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]"
			if res, err = compile(ncSrc, multiScope, net); err != nil {
				return nil, fmt.Errorf("figure10 netcache-multi k=%d %s: %w", k, chip.name, err)
			}
			out = append(out, Fig10Point{"netcache-multi", chip.name, k, res.CompileTime})
		}
	}
	return out, nil
}

// FormatFigure10 renders the scalability series.
func FormatFigure10(points []Fig10Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-10s %4s %12s\n", "Workload", "Chip", "k", "compile")
	fmt.Fprintln(&b, strings.Repeat("-", 46))
	for _, p := range points {
		fmt.Fprintf(&b, "%-16s %-10s %4d %12s\n", p.Workload, p.Chip, p.K, p.Time.Round(time.Millisecond))
	}
	return b.String()
}

// ExtensibilityStep is one step of the §7.2 case study.
type ExtensibilityStep struct {
	ConnEntries int
	Time        time.Duration
	// Shards maps switch -> ConnTable entries placed there.
	Shards map[string]int64
	// VIPShards maps switch -> VIPTable entries.
	VIPShards map[string]int64
}

// Extensibility reruns the §7.2 case study: the LB's ConnTable grows from
// 1M to 2.5M to 4M entries (VIPTable stays at 1M); Lyra re-plans the
// split across Agg (NPL) and ToR (P4) switches automatically.
func Extensibility() ([]ExtensibilityStep, error) {
	net := topo.Testbed()
	scopeText := "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]"
	var out []ExtensibilityStep
	for _, conn := range []int{1_000_000, 2_500_000, 4_000_000} {
		res, err := compile(lbSource(conn, 1_000_000), scopeText, net)
		if err != nil {
			return nil, fmt.Errorf("extensibility conn=%d: %w", conn, err)
		}
		out = append(out, ExtensibilityStep{
			ConnEntries: conn,
			Time:        res.CompileTime,
			Shards:      res.Plan.ShardsOf("conn_table"),
			VIPShards:   res.Plan.ShardsOf("vip_table"),
		})
	}
	return out, nil
}

// FormatExtensibility renders the case study.
func FormatExtensibility(steps []ExtensibilityStep) string {
	var b strings.Builder
	for _, s := range steps {
		fmt.Fprintf(&b, "ConnTable %8d entries: compiled in %s\n", s.ConnEntries, s.Time.Round(time.Millisecond))
		fmt.Fprintf(&b, "  conn_table shards: %v\n", s.Shards)
		fmt.Fprintf(&b, "  vip_table shards:  %v\n", s.VIPShards)
	}
	return b.String()
}

// CompositionStep is one scope size of the §7.3 case study.
type CompositionStep struct {
	Switches int
	Time     time.Duration
	Placed   int // switches that actually received code
}

// Composition compiles the five-algorithm service chain while shrinking
// the scope from all eight programmable pod switches down to one.
func Composition() ([]CompositionStep, error) {
	src, err := LoadProgram("composition")
	if err != nil {
		return nil, err
	}
	net := topo.Testbed()
	scopesBySize := map[int]string{
		8: "ToR1,ToR2,ToR3,ToR4,Agg1,Agg2,Agg3,Agg4",
		4: "ToR3,ToR4,Agg3,Agg4",
		2: "ToR3,Agg3",
		1: "ToR3",
	}
	algs := []string{"classifier", "firewall", "gateway", "chain_lb", "scheduler"}
	var out []CompositionStep
	for _, n := range []int{8, 4, 2, 1} {
		region := scopesBySize[n]
		var sb strings.Builder
		for _, a := range algs {
			fmt.Fprintf(&sb, "%s: [ %s | PER-SW | - ]\n", a, region)
		}
		res, err := compile(src, sb.String(), net)
		if err != nil {
			return nil, fmt.Errorf("composition n=%d: %w", n, err)
		}
		out = append(out, CompositionStep{Switches: n, Time: res.CompileTime, Placed: len(res.Fingerprints)})
	}
	return out, nil
}

// FormatComposition renders the case study.
func FormatComposition(steps []CompositionStep) string {
	var b strings.Builder
	for _, s := range steps {
		fmt.Fprintf(&b, "scope of %d switch(es): compiled in %s, %d switches programmed\n",
			s.Switches, s.Time.Round(time.Millisecond), s.Placed)
	}
	return b.String()
}

// AblationRow summarizes one optimization toggle on one program.
type AblationRow struct {
	Program   string
	Optimized int // tables with all optimizations
	NoMerge   int // tables without mutual-exclusion merging
	NoAbsorb  int // tables without comparison absorption
}

// Ablations re-synthesizes every evaluation program with individual
// optimizations disabled (DESIGN.md "Key design decisions").
func Ablations() ([]AblationRow, error) {
	var out []AblationRow
	for _, name := range baseline.Names() {
		src, err := LoadProgram(name)
		if err != nil {
			return nil, err
		}
		prog, err := parser.Parse(name, []byte(src))
		if err != nil {
			return nil, err
		}
		if err := checker.Check(prog); err != nil {
			return nil, err
		}
		irp, err := frontend.Preprocess(prog)
		if err != nil {
			return nil, err
		}
		frontend.Analyze(irp)
		row := AblationRow{Program: name}
		for _, a := range irp.Algorithms {
			row.Optimized += len(synth.SynthesizeP4With(irp, a, synth.Options{}).Tables)
			row.NoMerge += len(synth.SynthesizeP4With(irp, a, synth.Options{NoMerge: true}).Tables)
			row.NoAbsorb += len(synth.SynthesizeP4With(irp, a, synth.Options{NoAbsorb: true}).Tables)
		}
		out = append(out, row)
	}
	return out, nil
}

// FormatAblations renders the ablation table.
func FormatAblations(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %10s %9s %9s\n", "Program", "optimized", "no-merge", "no-absorb")
	fmt.Fprintln(&b, strings.Repeat("-", 50))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %10d %9d %9d\n", r.Program, r.Optimized, r.NoMerge, r.NoAbsorb)
	}
	return b.String()
}
