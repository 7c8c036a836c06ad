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
	"sort"
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
// starting with '#' are ignored.
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
			return nil, fmt.Errorf("scope line %d: %w", lineNo+1, err)
		}
		if seen[sc.Alg] {
			return nil, fmt.Errorf("scope line %d: duplicate algorithm %q", lineNo+1, sc.Alg)
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
// set and, for MULTI-SW, the flow paths (§4.3). Paths are backed by a lazy
// topo.PathSet; by default they are also materialized into Paths (bounded
// by the path budget), but LazyPaths resolution leaves Paths nil and
// consumers iterate with EachPath instead — datacenter-scale scopes never
// hold every simple path in memory at once.
type Resolved struct {
	Scope
	Switches []string   // concrete switch names, sorted
	Paths    [][]string // materialized flow paths (MULTI-SW only; nil when lazy)
	// PathSet is the lazy path view (MULTI-SW only). It reflects the
	// network the scope was resolved against.
	PathSet *topo.PathSet
	// MaxPaths is the enumeration budget inherited from resolution;
	// EachPath surfaces a *topo.PathLimitError past it. 0 means the
	// default budget.
	MaxPaths int64

	pathCount int64 // memoized EachPath count (-1 = unknown)
}

// DefaultMaxPaths bounds path enumeration when the caller does not choose a
// budget: large enough for every realistic scope, small enough that an
// exponentially wandering scope surfaces a typed diagnostic instead of
// consuming the machine.
const DefaultMaxPaths = 1 << 20

// ResolveOpts tunes scope resolution.
type ResolveOpts struct {
	// AllowMissing tolerates region or direction patterns that no longer
	// match any switch — the situation after a failure removed devices the
	// spec names explicitly. Resolution still fails if an entire region or
	// direction endpoint set becomes empty, or no flow path survives.
	AllowMissing bool
	// LazyPaths skips materializing MULTI-SW flow paths: Resolved.Paths
	// stays nil and consumers must iterate Resolved.EachPath. Required for
	// datacenter-scale scopes whose path sets dwarf memory.
	LazyPaths bool
	// MaxPaths caps path enumeration per scope (0 = DefaultMaxPaths).
	// Exceeding the cap fails resolution (eager) or the first EachPath
	// (lazy) with an error wrapping topo.ErrPathLimit.
	MaxPaths int64
}

// Resolve binds every scope to the network, expanding region patterns and
// enumerating flow paths.
func (s *Spec) Resolve(net *topo.Network) (map[string]*Resolved, error) {
	return s.ResolveWith(net, ResolveOpts{})
}

// ResolveWith is Resolve with explicit options; recompilation after a
// fault uses AllowMissing so that a scope naming a dead switch degrades to
// the surviving members instead of failing outright.
func (s *Spec) ResolveWith(net *topo.Network, opts ResolveOpts) (map[string]*Resolved, error) {
	out := make(map[string]*Resolved, len(s.Scopes))
	for _, sc := range s.Scopes {
		set := map[string]bool{}
		for _, pat := range sc.Region {
			matched := net.Match(pat)
			if len(matched) == 0 && !opts.AllowMissing {
				return nil, fmt.Errorf("scope %s: region pattern %q matches no switch", sc.Alg, pat)
			}
			for _, sw := range matched {
				set[sw.Name] = true
			}
		}
		switches := sortedKeys(set)
		var ps *topo.PathSet
		if sc.Deploy == MultiSwitch && len(set) > 0 {
			from, err := expand(net, sc.Direct.From, opts)
			if err != nil {
				return nil, fmt.Errorf("scope %s: %w", sc.Alg, err)
			}
			to, err := expand(net, sc.Direct.To, opts)
			if err != nil {
				return nil, fmt.Errorf("scope %s: %w", sc.Alg, err)
			}
			ps = net.PathSet(from, to, switches)
		}
		r, err := sc.bind(switches, ps, nil, opts)
		if err != nil {
			return nil, err
		}
		out[sc.Alg] = r
	}
	return out, nil
}

// ResolveAfter is ResolveWith for a network derived from the one prev was
// resolved against, delta being net.Since of that network. When the delta is
// faults only — switches and links removed, chips changed — and prev came
// from this spec under these options, each scope is its previous resolution
// minus what left: no pattern is matched and no list sorted again, lists
// nothing was removed from are shared, and materialized paths are filtered,
// not re-enumerated. The result, errors included, is what ResolveWith gives
// with AllowMissing; any other delta is handed to ResolveWith.
func (s *Spec) ResolveAfter(prev map[string]*Resolved, net *topo.Network, delta topo.Delta, opts ResolveOpts) (map[string]*Resolved, error) {
	if !opts.AllowMissing || delta.Grew || !s.resolvedAs(prev, opts) {
		return s.ResolveWith(net, opts)
	}
	removed := make(map[string]bool, len(delta.Removed))
	for _, sw := range delta.Removed {
		removed[sw] = true
	}
	without := func(xs []string) []string {
		hit := false
		for _, sw := range delta.Removed {
			if i := sort.SearchStrings(xs, sw); i < len(xs) && xs[i] == sw {
				hit = true
				break
			}
		}
		if !hit {
			return xs
		}
		out := make([]string, 0, len(xs)-1)
		for _, x := range xs {
			if !removed[x] {
				out = append(out, x)
			}
		}
		return out
	}
	out := make(map[string]*Resolved, len(s.Scopes))
	for _, sc := range s.Scopes {
		was := prev[sc.Alg]
		switches := without(was.Switches)
		var ps *topo.PathSet
		var paths [][]string
		if sc.Deploy == MultiSwitch && len(switches) > 0 {
			from, to := without(was.PathSet.From), without(was.PathSet.To)
			if len(from) == 0 {
				return nil, fmt.Errorf("scope %s: patterns %v match no surviving switch", sc.Alg, sc.Direct.From)
			}
			if len(to) == 0 {
				return nil, fmt.Errorf("scope %s: patterns %v match no surviving switch", sc.Alg, sc.Direct.To)
			}
			ps = net.PathSet(from, to, switches)
			if !opts.LazyPaths {
				paths = survivingPaths(net, was.Paths, delta.Touched)
			}
		}
		r, err := sc.bind(switches, ps, paths, opts)
		if err != nil {
			return nil, err
		}
		out[sc.Alg] = r
	}
	return out, nil
}

// resolvedAs reports whether prev is what this spec resolves to under opts
// on some network: the same scopes, the same path budget and laziness.
func (s *Spec) resolvedAs(prev map[string]*Resolved, opts ResolveOpts) bool {
	if len(prev) != len(s.Scopes) {
		return false
	}
	for _, sc := range s.Scopes {
		was := prev[sc.Alg]
		if was == nil || !reflect.DeepEqual(was.Scope, sc) {
			return false
		}
		if sc.Deploy == MultiSwitch && (was.PathSet == nil || was.MaxPaths != opts.maxPaths() || (was.Paths == nil) != opts.LazyPaths) {
			return false
		}
	}
	return true
}

// survivingPaths filters a sorted path list down to the paths every hop and
// link of which is still in net; only paths through a touched switch can have
// lost one. An unchanged list is returned as is.
func survivingPaths(net *topo.Network, paths [][]string, touched []string) [][]string {
	if len(touched) == 0 {
		return paths
	}
	hit := make(map[string]bool, len(touched))
	for _, sw := range touched {
		hit[sw] = true
	}
	intact := func(p []string) bool {
		through := false
		for _, sw := range p {
			through = through || hit[sw]
		}
		if !through {
			return true
		}
		for i, sw := range p {
			if net.Switch(sw) == nil || (i > 0 && !net.HasLink(p[i-1], sw)) {
				return false
			}
		}
		return true
	}
	out := make([][]string, 0, len(paths))
	for _, p := range paths {
		if intact(p) {
			out = append(out, p)
		}
	}
	return out
}

func (o ResolveOpts) maxPaths() int64 {
	if o.MaxPaths <= 0 {
		return DefaultMaxPaths
	}
	return o.MaxPaths
}

// bind builds the resolution of one scope from its sorted switch list and,
// for MULTI-SW, its path set, checking what any resolution must: a non-empty
// region and, for MULTI-SW, at least one flow path. paths, when non-nil, are
// the flow paths already known; otherwise an eager resolution enumerates them.
func (sc Scope) bind(switches []string, ps *topo.PathSet, paths [][]string, opts ResolveOpts) (*Resolved, error) {
	if len(switches) == 0 {
		return nil, fmt.Errorf("scope %s: region %v matches no surviving switch", sc.Alg, sc.Region)
	}
	r := &Resolved{Scope: sc, Switches: switches, pathCount: -1}
	if sc.Deploy != MultiSwitch {
		return r, nil
	}
	r.PathSet = ps
	r.MaxPaths = opts.maxPaths()
	var found bool
	if opts.LazyPaths {
		found = r.PathSet.Any()
	} else {
		if paths == nil {
			var err error
			if paths, err = r.PathSet.Materialize(r.MaxPaths); err != nil {
				return nil, fmt.Errorf("scope %s: %w", sc.Alg, err)
			}
		}
		r.Paths, r.pathCount, found = paths, int64(len(paths)), len(paths) > 0
	}
	if !found {
		return nil, fmt.Errorf("scope %s: no flow path from %v to %v within %v",
			sc.Alg, sc.Direct.From, sc.Direct.To, switches)
	}
	return r, nil
}

// pathLimit is the enumeration budget of a lazy walk: the one resolution
// set, or the default for a hand-built Resolved.
func (r *Resolved) pathLimit() int64 {
	if r.MaxPaths <= 0 {
		return DefaultMaxPaths
	}
	return r.MaxPaths
}

// EachPath iterates the scope's flow paths in deterministic order: the
// materialized slice when present (its sorted order), otherwise the lazy
// PathSet in DFS order under the resolution budget. The yielded slice is
// only valid during the callback — copy to retain. Returning false stops
// the iteration early.
func (r *Resolved) EachPath(yield func(path []string) bool) error {
	if r.Paths != nil {
		for _, p := range r.Paths {
			if !yield(p) {
				return nil
			}
		}
		return nil
	}
	if r.PathSet == nil {
		return nil
	}
	_, err := r.PathSet.Each(r.pathLimit(), yield)
	return err
}

// PathList returns the scope's flow paths as one sorted list, for the
// consumers that place or replay along every path and so need them all at
// once (deployment, simulation): the materialized slice when resolution
// kept one, otherwise materialized from the PathSet under the resolution
// budget, a *topo.PathLimitError past it. The placement encoder streams
// with EachPath instead. A scope without flow paths (PER-SW) has none.
func (r *Resolved) PathList() ([][]string, error) {
	if r.Paths != nil || r.PathSet == nil {
		return r.Paths, nil
	}
	return r.PathSet.Materialize(r.pathLimit())
}

// PathCount returns the number of flow paths in the scope (memoized).
// Hand-built Resolved values (zero pathCount) are handled by preferring the
// materialized slice and treating 0 as "unknown" for the lazy case.
func (r *Resolved) PathCount() (int64, error) {
	if r.Paths != nil {
		r.pathCount = int64(len(r.Paths))
		return r.pathCount, nil
	}
	if r.pathCount > 0 {
		return r.pathCount, nil
	}
	if r.PathSet == nil {
		r.pathCount = 0
		return 0, nil
	}
	n, err := r.PathSet.Count(r.pathLimit())
	if err != nil {
		return n, err
	}
	r.pathCount = n
	return n, nil
}

func expand(net *topo.Network, patterns []string, opts ResolveOpts) ([]string, error) {
	set := map[string]bool{}
	for _, p := range patterns {
		ms := net.Match(p)
		if len(ms) == 0 && !opts.AllowMissing {
			return nil, fmt.Errorf("pattern %q matches no switch", p)
		}
		for _, m := range ms {
			set[m.Name] = true
		}
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("patterns %v match no surviving switch", patterns)
	}
	return sortedKeys(set), nil
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
