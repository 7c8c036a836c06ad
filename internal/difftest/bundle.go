package difftest

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"lyra/internal/lang/parser"
)

// BundleMeta is the replay metadata persisted with every failure bundle.
type BundleMeta struct {
	// Seed is the per-case seed; CaseIndex its position in the campaign.
	Seed      int64 `json:"seed"`
	CaseIndex int   `json:"case_index"`
	// CampaignSeed and GitSHA pin the exact campaign: rerunning `lyra fuzz`
	// at that commit with -seed CampaignSeed regenerates the case.
	CampaignSeed int64  `json:"campaign_seed"`
	GitSHA       string `json:"git_sha"`
	// Class and Detail record the oracle's verdict at capture time.
	Class  string `json:"class"`
	Detail string `json:"detail,omitempty"`
	// Mutation names the seeded backend bug active during capture, if any.
	Mutation string `json:"mutation,omitempty"`
	// CreatedBy identifies the writer ("lyra fuzz", a test, ...).
	CreatedBy string `json:"created_by,omitempty"`
}

// WriteBundle persists a case as a replayable bundle: case.lyra (program),
// case.scope (placement spec), topo.txt (topology), trace.txt (packets and
// table entries), meta.json.
func WriteBundle(dir string, c *Case, meta BundleMeta) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := map[string]string{
		"case.lyra":  c.Source(),
		"case.scope": c.ScopeText(),
		"topo.txt":   formatTopo(c.Topo),
		"trace.txt":  formatTrace(c),
	}
	mj, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	files["meta.json"] = string(mj) + "\n"
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// LoadBundle reads a bundle back into a runnable case.
func LoadBundle(dir string) (*Case, *BundleMeta, error) {
	read := func(name string) (string, error) {
		b, err := os.ReadFile(filepath.Join(dir, name))
		return string(b), err
	}
	src, err := read("case.lyra")
	if err != nil {
		return nil, nil, err
	}
	prog, err := parser.Parse("case.lyra", []byte(src))
	if err != nil {
		return nil, nil, fmt.Errorf("bundle %s: %w", dir, err)
	}
	scopeText, err := read("case.scope")
	if err != nil {
		return nil, nil, err
	}
	scopes, err := parseScopes(scopeText)
	if err != nil {
		return nil, nil, fmt.Errorf("bundle %s: %w", dir, err)
	}
	topoText, err := read("topo.txt")
	if err != nil {
		return nil, nil, err
	}
	ts, err := parseTopo(topoText)
	if err != nil {
		return nil, nil, fmt.Errorf("bundle %s: %w", dir, err)
	}
	traceText, err := read("trace.txt")
	if err != nil {
		return nil, nil, err
	}
	c := &Case{Prog: prog, Scopes: scopes, Topo: ts, Entries: map[string][]Entry{}}
	if err := parseTrace(traceText, c); err != nil {
		return nil, nil, fmt.Errorf("bundle %s: %w", dir, err)
	}
	var meta BundleMeta
	mj, err := read("meta.json")
	if err != nil {
		return nil, nil, err
	}
	if err := json.Unmarshal([]byte(mj), &meta); err != nil {
		return nil, nil, fmt.Errorf("bundle %s: meta.json: %w", dir, err)
	}
	c.Seed = meta.Seed
	return c, &meta, nil
}

// Replay re-checks a persisted bundle under its recorded mutation and
// returns the oracle's verdict.
func Replay(dir string, opts Options) (Outcome, *BundleMeta, error) {
	c, meta, err := LoadBundle(dir)
	if err != nil {
		return Outcome{}, nil, err
	}
	opts.Mutation = meta.Mutation
	return NewOracle(opts).Check(c), meta, nil
}

// ---- topology text ----

func formatTopo(ts *TopoSpec) string {
	var b strings.Builder
	for _, sw := range ts.Switches {
		fmt.Fprintf(&b, "switch %s %s %s\n", sw.Name, sw.Layer, sw.Model)
	}
	for _, l := range ts.Links {
		fmt.Fprintf(&b, "link %s %s\n", l[0], l[1])
	}
	return b.String()
}

func parseTopo(text string) (*TopoSpec, error) {
	ts := &TopoSpec{}
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch {
		case fields[0] == "switch" && len(fields) == 4:
			ts.Switches = append(ts.Switches, SwitchSpec{Name: fields[1], Layer: fields[2], Model: fields[3]})
		case fields[0] == "link" && len(fields) == 3:
			ts.Links = append(ts.Links, [2]string{fields[1], fields[2]})
		default:
			return nil, fmt.Errorf("topo.txt: bad line %q", line)
		}
	}
	return ts, nil
}

// ---- scope text ----

func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseScopes(text string) ([]ScopeSpec, error) {
	var out []ScopeSpec
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		name, rest, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("case.scope: bad line %q", line)
		}
		rest = strings.TrimSpace(rest)
		if !strings.HasPrefix(rest, "[") || !strings.HasSuffix(rest, "]") {
			return nil, fmt.Errorf("case.scope: bad line %q", line)
		}
		parts := strings.Split(rest[1:len(rest)-1], "|")
		if len(parts) != 3 {
			return nil, fmt.Errorf("case.scope: bad line %q", line)
		}
		sc := ScopeSpec{
			Alg:     strings.TrimSpace(name),
			Region:  splitCSV(parts[0]),
			MultiSw: strings.TrimSpace(parts[1]) == "MULTI-SW",
		}
		if flows := strings.TrimSpace(parts[2]); sc.MultiSw && flows != "-" {
			flows = strings.TrimSuffix(strings.TrimPrefix(flows, "("), ")")
			from, to, ok := strings.Cut(flows, "->")
			if !ok {
				return nil, fmt.Errorf("case.scope: bad flow spec %q", line)
			}
			sc.From, sc.To = splitCSV(from), splitCSV(to)
		}
		out = append(out, sc)
	}
	return out, nil
}

// ---- trace text ----

func formatTrace(c *Case) string {
	var b strings.Builder
	if c.FlowField != "" {
		fmt.Fprintf(&b, "flow %s\n", c.FlowField)
	}
	if len(c.Chunks) > 0 {
		b.WriteString("chunks")
		for _, n := range c.Chunks {
			fmt.Fprintf(&b, " %d", n)
		}
		b.WriteByte('\n')
	}
	for _, tp := range c.Trace {
		b.WriteString("packet valid=" + strings.Join(tp.Valid, ","))
		var keys []string
		for k := range tp.Fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%d", k, tp.Fields[k])
		}
		b.WriteByte('\n')
	}
	var names []string
	for name := range c.Entries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, e := range c.Entries[name] {
			fmt.Fprintf(&b, "entry %s %d %d\n", name, e.Key, e.Value)
		}
	}
	return b.String()
}

func parseTrace(text string, c *Case) error {
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "flow":
			if len(fields) != 2 {
				return fmt.Errorf("trace.txt: bad line %q", line)
			}
			c.FlowField = fields[1]
		case "chunks":
			for _, f := range fields[1:] {
				n, err := strconv.Atoi(f)
				if err != nil || n <= 0 {
					return fmt.Errorf("trace.txt: bad chunk %q", f)
				}
				c.Chunks = append(c.Chunks, n)
			}
		case "packet":
			tp := TracePacket{Fields: map[string]uint64{}}
			for _, kv := range fields[1:] {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return fmt.Errorf("trace.txt: bad token %q", kv)
				}
				if k == "valid" {
					tp.Valid = splitCSV(v)
					continue
				}
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					return fmt.Errorf("trace.txt: bad value %q: %v", kv, err)
				}
				tp.Fields[k] = n
			}
			c.Trace = append(c.Trace, tp)
		case "entry":
			if len(fields) != 4 {
				return fmt.Errorf("trace.txt: bad line %q", line)
			}
			key, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil {
				return err
			}
			val, err := strconv.ParseUint(fields[3], 10, 64)
			if err != nil {
				return err
			}
			c.Entries[fields[1]] = append(c.Entries[fields[1]], Entry{Key: key, Value: val})
		default:
			return fmt.Errorf("trace.txt: bad line %q", line)
		}
	}
	return nil
}
