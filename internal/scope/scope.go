// Package scope implements the algorithm-scope specification language
// (§3.3, Figure 7):
//
//	int_in:        [ ToR* | PER-SW | - ]
//	loadbalancer:  [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]
//
// Each line binds an algorithm to a region (a set of candidate switches),
// a deployment mode, and, for MULTI-SW algorithms, the packet-flow
// direction used to enumerate flow paths.
package scope

import (
	"fmt"
	"reflect"
	"slices"
	"strings"

	"lyra/internal/topo"
)

// Deploy is the deployment mode of an algorithm (§3.3).
type Deploy int

// Deployment modes.
const (
	// PerSwitch copies the whole algorithm onto each switch in the region.
	PerSwitch Deploy = iota
	// MultiSwitch realizes one logical instance across the region.
	MultiSwitch
)

func (d Deploy) String() string {
	if d == MultiSwitch {
		return "MULTI-SW"
	}
	return "PER-SW"
}

// Direction is the packet-flow direction of a MULTI-SW algorithm.
type Direction struct {
	From []string
	To   []string
}

// Scope is one algorithm's placement specification.
type Scope struct {
	Alg    string
	Region []string // patterns: exact names or prefix wildcards
	Deploy Deploy
	Direct *Direction // nil unless specified
}

// Spec is a full scope specification.
type Spec struct {
	Scopes []Scope
}

// Error is a scope specification that does not parse or does not resolve on
// a network: a parse error names its 1-based Line, a resolution error the
// algorithm (Alg) whose scope failed.
type Error struct {
	Line int
	Alg  string
	Msg  string
}

func (e *Error) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("scope line %d: %s", e.Line, e.Msg)
	}
	return fmt.Sprintf("scope %s: %s", e.Alg, e.Msg)
}

// resolveErr is the *Error of a scope that does not resolve.
func resolveErr(alg, format string, args ...any) error {
	return &Error{Alg: alg, Msg: fmt.Sprintf(format, args...)}
}

// Get returns the scope for an algorithm.
func (s *Spec) Get(alg string) (Scope, bool) {
	for _, sc := range s.Scopes {
		if sc.Alg == alg {
			return sc, true
		}
	}
	return Scope{}, false
}

// Parse reads a Figure-7-style scope specification. Blank lines and lines
// starting with '#' are ignored. A line that does not parse is an *Error.
func Parse(text string) (*Spec, error) {
	spec := &Spec{}
	seen := map[string]bool{}
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sc, err := parseLine(line)
		if err != nil {
			return nil, &Error{Line: lineNo + 1, Msg: err.Error()}
		}
		if seen[sc.Alg] {
			return nil, &Error{Line: lineNo + 1, Msg: fmt.Sprintf("duplicate algorithm %q", sc.Alg)}
		}
		seen[sc.Alg] = true
		spec.Scopes = append(spec.Scopes, sc)
	}
	return spec, nil
}

func parseLine(line string) (Scope, error) {
	colon := strings.Index(line, ":")
	if colon < 0 {
		return Scope{}, fmt.Errorf("missing ':' in %q", line)
	}
	alg := strings.TrimSpace(line[:colon])
	rest := strings.TrimSpace(line[colon+1:])
	if !strings.HasPrefix(rest, "[") || !strings.HasSuffix(rest, "]") {
		return Scope{}, fmt.Errorf("expected [ region | deploy | direct ] in %q", line)
	}
	rest = strings.TrimSuffix(strings.TrimPrefix(rest, "["), "]")
	parts := splitTop(rest, '|')
	if len(parts) != 3 {
		return Scope{}, fmt.Errorf("expected three '|'-separated fields, got %d", len(parts))
	}
	sc := Scope{Alg: alg}
	for _, r := range strings.Split(parts[0], ",") {
		r = strings.TrimSpace(r)
		if r != "" {
			sc.Region = append(sc.Region, r)
		}
	}
	if len(sc.Region) == 0 {
		return Scope{}, fmt.Errorf("empty region")
	}
	switch strings.ToUpper(strings.TrimSpace(parts[1])) {
	case "PER-SW":
		sc.Deploy = PerSwitch
	case "MULTI-SW":
		sc.Deploy = MultiSwitch
	default:
		return Scope{}, fmt.Errorf("deploy must be PER-SW or MULTI-SW, got %q", strings.TrimSpace(parts[1]))
	}
	direct := strings.TrimSpace(parts[2])
	if direct != "-" && direct != "" {
		if !strings.HasPrefix(direct, "(") || !strings.HasSuffix(direct, ")") {
			return Scope{}, fmt.Errorf("direct must be (from->to) or '-', got %q", direct)
		}
		direct = strings.TrimSuffix(strings.TrimPrefix(direct, "("), ")")
		arrow := strings.Index(direct, "->")
		if arrow < 0 {
			return Scope{}, fmt.Errorf("direct missing '->': %q", direct)
		}
		d := &Direction{}
		for _, f := range strings.Split(direct[:arrow], ",") {
			if f = strings.TrimSpace(f); f != "" {
				d.From = append(d.From, f)
			}
		}
		for _, t := range strings.Split(direct[arrow+2:], ",") {
			if t = strings.TrimSpace(t); t != "" {
				d.To = append(d.To, t)
			}
		}
		if len(d.From) == 0 || len(d.To) == 0 {
			return Scope{}, fmt.Errorf("direct needs both endpoints: %q", direct)
		}
		sc.Direct = d
	}
	if sc.Deploy == MultiSwitch && sc.Direct == nil {
		return Scope{}, fmt.Errorf("MULTI-SW algorithm %q requires a direct field", alg)
	}
	return sc, nil
}

// splitTop splits on sep outside parentheses.
func splitTop(s string, sep byte) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case sep:
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

// Resolved is a scope bound to a concrete network: the candidate switch
// set and, for MULTI-SW, the flow paths (§4.3) as a lazy topo.PathSet.
// Paths are never held by a resolution: consumers walk them with EachPath
// under the path budget, so a datacenter-scale scope never keeps every
// simple path in memory at once.
type Resolved struct {
	Scope
	Switches []string // concrete switch names, sorted
	IDs      []int32  // the switches' ids in the network, in the order of Switches
	// PathSet is the lazy path view (MULTI-SW only). It reflects the
	// network the scope was resolved against and marks its switches by id.
	PathSet *topo.PathSet

	net *topo.Network
}

// MaxPaths bounds path enumeration per scope: large enough for every
// realistic scope, small enough that an exponentially wandering scope
// surfaces a *topo.PathLimitError instead of consuming the machine.
const MaxPaths = 1 << 20

// ResolveOpts tunes scope resolution.
type ResolveOpts struct {
	// AllowMissing tolerates region or direction patterns that no longer
	// match any switch — the situation after a failure removed devices the
	// spec names explicitly. Resolution still fails if an entire region or
	// direction endpoint set becomes empty, or no flow path survives.
	AllowMissing bool
	// LazyPaths does nothing: every resolution streams its paths. It stays
	// because bench/ sets it; ROADMAP item 2b deletes it.
	LazyPaths bool
}

// Resolve binds every scope to the network, expanding region patterns and
// enumerating flow paths.
func (s *Spec) Resolve(net *topo.Network) (map[string]*Resolved, error) {
	return s.ResolveWith(net, ResolveOpts{})
}

// ResolveWith is Resolve with explicit options; recompilation after a
// fault uses AllowMissing so that a scope naming a dead switch degrades to
// the surviving members instead of failing outright. A scope that does not
// resolve is an *Error. Patterns are matched into sets of switch ids, which
// the network's name order renders.
func (s *Spec) ResolveWith(net *topo.Network, opts ResolveOpts) (map[string]*Resolved, error) {
	out := make(map[string]*Resolved, len(s.Scopes))
	for _, sc := range s.Scopes {
		region := net.NewSet()
		if i := net.Match(region, sc.Region); i >= 0 && !opts.AllowMissing {
			return nil, resolveErr(sc.Alg, "region pattern %q matches no switch", sc.Region[i])
		}
		r := &Resolved{Scope: sc, net: net}
		r.IDs, r.Switches = net.Sorted(region)
		if sc.Deploy == MultiSwitch && len(r.IDs) > 0 {
			ends := [2]topo.Set{net.NewSet(), net.NewSet()}
			for e, patterns := range [2][]string{sc.Direct.From, sc.Direct.To} {
				if i := net.Match(ends[e], patterns); i >= 0 && !opts.AllowMissing {
					return nil, resolveErr(sc.Alg, "pattern %q matches no switch", patterns[i])
				}
			}
			r.PathSet = net.Paths(ends[0], ends[1], region, r.Switches)
		}
		if err := r.check(); err != nil {
			return nil, err
		}
		out[sc.Alg] = r
	}
	return out, nil
}

// ResolveAfter is ResolveWith for a network derived from the one prev was
// resolved against, delta being net.Since of that network. When the delta is
// faults only — switches and links removed, chips changed — the two networks
// share their name index and prev came from this spec, each scope is its
// previous resolution less the switches net lacks: no pattern is matched
// again, the removed ids are cleared from the sets, and lists and sets that
// lose nothing are shared. The result, errors included, is what ResolveWith
// gives with AllowMissing; any other delta is handed to ResolveWith.
func (s *Spec) ResolveAfter(prev map[string]*Resolved, net *topo.Network, delta topo.Delta, opts ResolveOpts) (map[string]*Resolved, error) {
	if !opts.AllowMissing || delta.Grew || !s.resolvedAs(prev, net) {
		return s.ResolveWith(net, opts)
	}
	out := make(map[string]*Resolved, len(s.Scopes))
	for _, sc := range s.Scopes {
		was := prev[sc.Alg]
		r := &Resolved{Scope: sc, IDs: was.IDs, Switches: was.Switches, net: net}
		if slices.ContainsFunc(was.IDs, func(id int32) bool { return net.At(id) == nil }) {
			r.IDs, r.Switches = make([]int32, 0, len(was.IDs)), make([]string, 0, len(was.IDs))
			for i, id := range was.IDs {
				if net.At(id) != nil {
					r.IDs, r.Switches = append(r.IDs, id), append(r.Switches, was.Switches[i])
				}
			}
		}
		if sc.Deploy == MultiSwitch && len(r.IDs) > 0 {
			r.PathSet = was.PathSet.After(net, r.Switches)
		}
		if err := r.check(); err != nil {
			return nil, err
		}
		out[sc.Alg] = r
	}
	return out, nil
}

// resolvedAs reports whether prev is what this spec resolves to on a network
// whose name index net shares: the same scopes, each MULTI-SW one with its
// path set.
func (s *Spec) resolvedAs(prev map[string]*Resolved, net *topo.Network) bool {
	if len(prev) != len(s.Scopes) {
		return false
	}
	for _, sc := range s.Scopes {
		was := prev[sc.Alg]
		if was == nil || was.net == nil || !net.SharesIndex(was.net) || !reflect.DeepEqual(was.Scope, sc) {
			return false
		}
		if sc.Deploy == MultiSwitch && was.PathSet == nil {
			return false
		}
	}
	return true
}

// check checks what any resolution must have: a non-empty region and, for
// MULTI-SW, flow endpoints at both ends and at least one flow path.
func (r *Resolved) check() error {
	switch {
	case len(r.Switches) == 0:
		return resolveErr(r.Alg, "region %v matches no surviving switch", r.Region)
	case r.Deploy != MultiSwitch:
		return nil
	case len(r.PathSet.From) == 0:
		return resolveErr(r.Alg, "patterns %v match no surviving switch", r.Direct.From)
	case len(r.PathSet.To) == 0:
		return resolveErr(r.Alg, "patterns %v match no surviving switch", r.Direct.To)
	case !r.PathSet.Any():
		return resolveErr(r.Alg, "no flow path from %v to %v within %v", r.Direct.From, r.Direct.To, r.Switches)
	}
	return nil
}

// EachPath iterates the scope's flow paths in the PathSet's deterministic
// DFS order under the path budget: past MaxPaths it stops with a
// *topo.PathLimitError. A path is its hops' switch ids, which the PathSet's
// Name renders. The yielded slice is only valid during the callback — copy
// to retain. Returning false stops the iteration early.
func (r *Resolved) EachPath(yield func(path []int32) bool) error {
	if r.PathSet == nil {
		return nil
	}
	_, err := r.PathSet.Each(MaxPaths, yield)
	return err
}

// PathList returns the scope's flow paths as one sorted list, for the
// consumers that place or replay along every path and so need them all at
// once (deployment, simulation); past the budget it returns a
// *topo.PathLimitError. The placement encoder streams with EachPath
// instead. A scope without flow paths (PER-SW) has none.
func (r *Resolved) PathList() ([][]string, error) {
	if r.PathSet == nil {
		return nil, nil
	}
	return r.PathSet.Materialize(MaxPaths)
}

// PathCount returns the number of flow paths in the scope, walking them
// under the path budget.
func (r *Resolved) PathCount() (int64, error) {
	if r.PathSet == nil {
		return 0, nil
	}
	return r.PathSet.Count(MaxPaths)
}
