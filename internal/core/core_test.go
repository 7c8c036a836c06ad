package core

import (
	"context"
	"strings"
	"testing"

	"lyra/internal/topo"
)

const src = `
header_type ipv4_t { bit[32] srcAddr; bit[32] dstAddr; }
header ipv4_t ipv4;
pipeline[P]{filter};
algorithm filter {
  extern list<bit[32] ip>[64] watch;
  if (ipv4.srcAddr in watch) {
    forward(3);
  }
}
`

func TestCompilePipeline(t *testing.T) {
	res, err := CompileContext(context.Background(), Request{
		Source:    src,
		ScopeSpec: "filter: [ ToR1,Agg1 | PER-SW | - ]",
		Network:   topo.Testbed(),
	})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	// Every intermediate product is exposed.
	if res.IR == nil || res.IR.Algorithm("filter") == nil {
		t.Error("IR missing")
	}
	if res.Plan == nil || len(res.Plan.Placement["filter"]) == 0 {
		t.Error("plan missing")
	}
	if len(res.Artifacts) != 2 {
		t.Errorf("artifacts = %d, want 2", len(res.Artifacts))
	}
	if res.Artifacts["ToR1"].Dialect != "P4_14" || res.Artifacts["Agg1"].Dialect != "NPL" {
		t.Error("dialect routing wrong")
	}
	if len(res.Reports) != 2 {
		t.Errorf("reports = %d", len(res.Reports))
	}
	if res.CompileTime <= 0 || res.SolveTime < 0 {
		t.Error("timings missing")
	}
}

func TestCompileStageErrors(t *testing.T) {
	net := topo.Testbed()
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"network", Request{Source: src, ScopeSpec: "x: [ToR1|PER-SW|-]"}, "network is required"},
		{"parse", Request{Source: "algorithm {", ScopeSpec: "", Network: net}, "parse:"},
		{"check", Request{Source: "algorithm a { nope(); }", ScopeSpec: "a: [ToR1|PER-SW|-]", Network: net}, "check:"},
		{"scope", Request{Source: src, ScopeSpec: "garbage[", Network: net}, "scope:"},
		{"placement", Request{Source: strings.Replace(src, "[64] watch", "[90000000] watch", 1),
			ScopeSpec: "filter: [ ToR2 | PER-SW | - ]", Network: net}, "does not fit"},
	}
	for _, c := range cases {
		_, err := CompileContext(context.Background(), c.req)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if c.want != "" && !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

func TestCompileSkipVerify(t *testing.T) {
	res, err := CompileContext(context.Background(), Request{
		Source:     src,
		ScopeSpec:  "filter: [ ToR1 | PER-SW | - ]",
		Network:    topo.Testbed(),
		SkipVerify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reports != nil {
		t.Error("reports should be nil with SkipVerify")
	}
}
