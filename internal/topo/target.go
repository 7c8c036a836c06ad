package topo

import (
	"fmt"
	"strconv"
	"strings"

	"lyra/internal/asic"
)

// MaxFatTreeK bounds k in a "fattree:<k>" spec: a 512-switch pod builds in
// tens of milliseconds, a 4096-switch one in seconds and hundreds of MB.
const MaxFatTreeK = 512

// TargetError is a refused target name: What is "topology", "chip",
// "dialect" or "switch", Name the name as given.
type TargetError struct{ What, Name, Why string }

func (e *TargetError) Error() string { return fmt.Sprintf("topo: %s %q: %s", e.What, e.Name, e.Why) }

// ParseTarget resolves the names a compile is aimed at: the topology spec
// ("testbed", or "fattree:<k>" for one pod of a k-ary fat tree, k even and at
// most MaxFatTreeK), the chip model of a fat tree's switches (the testbed has
// its own) and the P4 dialect ("p4_14" or "p4_16", any case, underscore
// optional). Empty names select the testbed, Tofino-32Q and P4_14. Every name
// is checked before anything is built.
func ParseTarget(spec, chip, dialect string) (*Network, asic.Dialect, error) {
	t, err := ResolveTarget(spec, chip, dialect)
	if err != nil {
		return nil, t.Dialect, err
	}
	return t.Network(), t.Dialect, nil
}

// Target is a checked target, as ResolveTarget normalises it: names that
// select one network and dialect give one Target.
type Target struct {
	K       int         // the fat tree's k, 0 for the testbed
	Chip    *asic.Model // the fat tree's chip model, nil for the testbed
	Dialect asic.Dialect
}

// ResolveTarget checks and normalises the names ParseTarget takes, building
// nothing. On an error, the Target holds the dialect if it was checked.
func ResolveTarget(spec, chip, dialect string) (Target, error) {
	t := Target{Dialect: asic.DialectP414}
	switch strings.ToLower(dialect) {
	case "", "p4_14", "p414":
	case "p4_16", "p416":
		t.Dialect = asic.DialectP416
	default:
		return t, &TargetError{"dialect", dialect, `want "p4_14" or "p4_16"`}
	}
	if spec == "" || spec == "testbed" {
		return t, nil
	}
	arg, ok := strings.CutPrefix(spec, "fattree:")
	if !ok {
		return t, &TargetError{"topology", spec, `want "testbed" or "fattree:<k>"`}
	}
	k, err := strconv.Atoi(arg)
	if err != nil || k < 2 || k > MaxFatTreeK || k%2 != 0 {
		return t, &TargetError{"topology", spec, fmt.Sprintf("k must be even, from 2 to %d", MaxFatTreeK)}
	}
	if chip == "" {
		chip = asic.Tofino32Q.Name
	}
	switch m, ok := asic.ByName(chip); {
	case !ok:
		return t, &TargetError{"chip", chip, "no such chip model"}
	case m.Lang == asic.LangNone:
		return t, &TargetError{"chip", chip, "fixed-function; nothing can be placed on it"}
	default:
		t.K, t.Chip = k, m
		return t, nil
	}
}

// Network builds the target's network, a new one on every call.
func (t Target) Network() *Network {
	if t.K == 0 {
		return Testbed()
	}
	return FatTreePod(t.K, t.Chip)
}
