package topo

import (
	"errors"
	"strings"
	"testing"

	"lyra/internal/asic"
)

// targetCase is one ParseTarget input and what it must give.
type targetCase struct {
	spec, chip, dialect string
	switches            int         // 0: rejected
	model               *asic.Model // every switch's chip, for fat trees
	d                   asic.Dialect
	what                string // the TargetError.What of a rejection
}

// TestParseTarget is the one table test of the target parser, one subtest
// for each of the three things it parses.
func TestParseTarget(t *testing.T) {
	for _, group := range []struct {
		name  string
		cases []targetCase
	}{
		{"topology", []targetCase{
			{spec: "testbed", switches: 10},
			{spec: "", switches: 10},
			{spec: "fattree:8", chip: "Tofino-32Q", switches: 8, model: asic.Tofino32Q},
			{spec: "fattree:4", switches: 4, model: asic.Tofino32Q},
			{spec: "fattree:512", switches: 512, model: asic.Tofino32Q},
			{spec: "fattree:x", what: "topology"},
			{spec: "ring", what: "topology"},
			{spec: "Testbed", what: "topology"},
			{spec: "fattree:", what: "topology"},
			{spec: "fattree:0", what: "topology"},
			{spec: "fattree:-2", what: "topology"},
			{spec: "fattree:5", what: "topology"},
			{spec: "fattree:514", what: "topology"},
			{spec: "fattree:4096", what: "topology"},
			{spec: "fattree:99999999999999999999", what: "topology"},
		}},
		{"chip", []targetCase{
			{spec: "testbed", chip: "ghost", switches: 10}, // the testbed has its own chips
			{spec: "fattree:2", chip: "RMT", switches: 2, model: asic.RMT},
			{spec: "fattree:4", chip: "Tofino-64Q", switches: 4, model: asic.Tofino64Q},
			{spec: "fattree:4", chip: "SiliconOne", switches: 4, model: asic.SiliconOne},
			{spec: "fattree:4", chip: "Trident-4", switches: 4, model: asic.Trident4},
			{spec: "fattree:4", chip: "NoSuchChip", what: "chip"},
			{spec: "fattree:4", chip: "tofino-32q", what: "chip"},
			{spec: "fattree:4", chip: "Tomahawk", what: "chip"},
		}},
		{"dialect", []targetCase{
			{spec: "testbed", dialect: "p4_14", switches: 10},
			{spec: "testbed", dialect: "P414", switches: 10},
			{spec: "testbed", dialect: "p4_16", switches: 10, d: asic.DialectP416},
			{spec: "testbed", dialect: "P416", switches: 10, d: asic.DialectP416},
			{spec: "testbed", dialect: "p4_15", what: "dialect"},
			{spec: "fattree:4096", chip: "Ghost", dialect: "npl", what: "dialect"},
		}},
	} {
		t.Run(group.name, func(t *testing.T) {
			for _, tc := range group.cases {
				checkTarget(t, tc)
			}
		})
	}
}

func checkTarget(t *testing.T, tc targetCase) {
	t.Helper()
	name := tc.spec + "/" + tc.chip + "/" + tc.dialect
	n, d, err := ParseTarget(tc.spec, tc.chip, tc.dialect)
	if tc.what != "" {
		var te *TargetError
		if !errors.As(err, &te) || te.What != tc.what || n != nil {
			t.Errorf("%s: got %v (network %v), want a %s TargetError", name, err, n != nil, tc.what)
		}
		return
	}
	if err != nil || len(n.Switches) != tc.switches || d != tc.d {
		t.Errorf("%s: err %v, dialect %v, want %d switches under %v", name, err, d, tc.switches, tc.d)
		return
	}
	if tc.model != nil {
		for _, s := range n.Switches {
			if s.ASIC != tc.model {
				t.Errorf("%s: %s is a %s", name, s.Name, s.ASIC.Name)
			}
		}
	}
}

// FuzzParseTarget feeds arbitrary topology text to the one target parser:
// every input is either a typed TargetError or a network within the bound.
func FuzzParseTarget(f *testing.F) {
	for _, spec := range []string{"", "testbed", "fattree:2", "fattree:8", "fattree:5",
		"fattree:4096", "fattree:-4", "fattree:+6", "fattree:0x10", "fattree:", "fattree:8:8", " testbed", "ring"} {
		f.Add(spec, "")
	}
	f.Add("fattree:4", "Tomahawk")
	f.Add("fattree:4", "Trident-4")
	f.Fuzz(func(t *testing.T, spec, chip string) {
		n, _, err := ParseTarget(spec, chip, "")
		if err != nil {
			var te *TargetError
			if !errors.As(err, &te) || n != nil {
				t.Fatalf("%q/%q: untyped error %v or a network with it", spec, chip, err)
			}
			return
		}
		if len(n.Switches) > MaxFatTreeK {
			t.Fatalf("%q: %d switches, bound %d", spec, len(n.Switches), MaxFatTreeK)
		}
		if strings.HasPrefix(spec, "fattree:") {
			for _, s := range n.Switches {
				if !s.ASIC.Programmable {
					t.Fatalf("%q/%q: %s is not programmable", spec, chip, s.Name)
				}
			}
		}
	})
}
