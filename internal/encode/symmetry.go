package encode

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strconv"

	"lyra/internal/asic"
	"lyra/internal/scope"
)

// Symmetry-aware solving. A datacenter network is massively symmetric: the
// pods of a fat tree are switch-renamings of one another, so after the scope
// split (partition.go) the placement problem decomposes into many components
// that differ only in switch names, and the CDCL search of two isomorphic
// instances lands on the same model modulo the renaming. So a class of
// isomorphic components is solved once, its solved form is kept name-free
// (Template), and every member is a binding of it.
//
// canonicalFingerprint renders a component with its switches replaced by
// indices into its sorted switch union, so two isomorphic components hash
// identically. Algorithm and extern names stay literal: the resource theory
// orders shard assignment by extern name, so only same-named algorithms —
// scope-split twins — may share a class. The rendering is hand-rolled appends
// into one reused buffer (it runs once per hop of every flow path of every
// compile and recompile); models carries each chip model's rendering from one
// component to the next. A component it cannot render stays unclassed (""); a
// walk past the path budget fails with the *topo.PathLimitError.
func canonicalFingerprint(c *Component, union []string, models map[*asic.Model][]byte) (string, error) {
	in := c.In
	if len(union) == 0 {
		return "", nil
	}
	set := make(map[string]int, len(union))
	for i, sw := range union {
		set[sw] = i
	}

	h := sha256.New()
	buf := make([]byte, 0, 256)
	for _, a := range in.IR.Algorithms {
		rs := in.Scopes[a.Name]
		if rs == nil {
			return "", nil
		}
		buf = append(buf[:0], "alg "...)
		buf = append(buf, a.Name...)
		buf = append(buf, " deploy="...)
		buf = strconv.AppendInt(buf, int64(rs.Deploy), 10)
		buf = append(buf, " sw="...)
		for _, sw := range rs.Switches {
			buf = strconv.AppendInt(buf, int64(set[sw]), 10)
			buf = append(buf, ',')
		}
		h.Write(buf)
		if rs.Deploy == scope.MultiSwitch {
			ok := true
			err := rs.EachPath(func(p []string) bool {
				buf = buf[:0]
				for _, sw := range p {
					j, known := set[sw]
					if !known {
						ok = false
						return false
					}
					buf = strconv.AppendInt(buf, int64(j), 10)
					buf = append(buf, '.')
				}
				buf = append(buf, ';')
				h.Write(buf)
				return true
			})
			if err != nil || !ok {
				return "", err
			}
		}
		h.Write([]byte{'\n'})
	}
	for _, sw := range union {
		s := in.Net.Switch(sw)
		if s == nil || s.ASIC == nil {
			return "", nil
		}
		line, ok := models[s.ASIC]
		if !ok {
			// %+v covers every capacity fact the theory consults; equal renders
			// imply equal admission behavior. (The ExtraCheck hook renders as a
			// function address: registry models share pointers, so equal chips
			// compare equal, and a custom hook conservatively blocks dedup.)
			line = []byte(fmt.Sprintf("asic %+v\n", *s.ASIC))
			models[s.ASIC] = line
		}
		h.Write(line)
	}
	return string(h.Sum(nil)), nil
}

// scopeUnion returns the sorted union of an input's scope switches.
func scopeUnion(in *Input) []string {
	seen := map[string]bool{}
	var union []string
	for _, a := range in.IR.Algorithms {
		rs := in.Scopes[a.Name]
		if rs == nil {
			continue
		}
		for _, sw := range rs.Switches {
			if !seen[sw] {
				seen[sw] = true
				union = append(union, sw)
			}
		}
	}
	sort.Strings(union)
	return union
}
