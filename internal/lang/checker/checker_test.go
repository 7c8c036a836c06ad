package checker

import (
	"strings"
	"testing"

	"lyra/internal/lang/parser"
)

func check(t *testing.T, src string) error {
	t.Helper()
	prog, err := parser.Parse("test.lyra", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Check(prog)
}

func wantErr(t *testing.T, src, substr string) {
	t.Helper()
	err := check(t, src)
	if err == nil {
		t.Fatalf("want error containing %q, got nil", substr)
	}
	list := err.(ErrorList)
	for _, e := range list {
		if strings.Contains(e.Msg, substr) {
			return
		}
	}
	t.Fatalf("want error containing %q, got %v", substr, list)
}

func TestValidProgram(t *testing.T) {
	src := `
header_type ipv4_t { bit[32] srcAddr; bit[32] dstAddr; bit[8] protocol; }
header ipv4_t ipv4;
pipeline[LB]{loadbalancer};
algorithm loadbalancer { load_balancing(); }
func load_balancing() {
  extern dict<bit[32] hash, bit[32] ip>[1024] conn_table;
  bit[32] hash;
  hash = crc32_hash(ipv4.srcAddr, ipv4.dstAddr);
  if (hash in conn_table) {
    ipv4.dstAddr = conn_table[hash];
  }
}`
	if err := check(t, src); err != nil {
		t.Fatalf("unexpected: %v", err)
	}
}

func TestDuplicateAlgorithm(t *testing.T) {
	wantErr(t, `algorithm a { x = 1; } algorithm a { y = 1; }`, "duplicate algorithm")
}

func TestDuplicateHeader(t *testing.T) {
	wantErr(t, `header_type h { bit[8] a; } header_type h { bit[8] b; }`, "duplicate header_type")
}

func TestDuplicateField(t *testing.T) {
	wantErr(t, `header_type h { bit[8] a; bit[8] a; }`, "duplicate field")
}

func TestPipelineUnknownAlgorithm(t *testing.T) {
	wantErr(t, `pipeline[P]{ghost};`, "unknown algorithm")
}

func TestAlgorithmInTwoPipelines(t *testing.T) {
	wantErr(t, `pipeline[P]{a}; pipeline[Q]{a}; algorithm a { x = 1; }`, "appears in pipelines")
}

func TestUndefinedFunction(t *testing.T) {
	wantErr(t, `algorithm a { ghost_fn(); }`, "undefined function")
}

func TestArityMismatch(t *testing.T) {
	wantErr(t, `algorithm a { f(1, 2); } func f(bit[8] x) { y = x; }`, "takes 1 argument")
}

func TestLibraryArity(t *testing.T) {
	wantErr(t, `algorithm a { x = crc32_hash(); }`, "at least 1")
	wantErr(t, `algorithm a { forward(1, 2); }`, "at most 1")
}

func TestUnknownHeaderField(t *testing.T) {
	wantErr(t, `
header_type h_t { bit[8] a; }
header h_t h;
algorithm alg { x = h.missing; }`, "no field")
}

func TestUnknownHeaderInstance(t *testing.T) {
	wantErr(t, `algorithm alg { x = ghost.field; }`, "unknown header instance")
}

func TestAddHeaderUnknownInstance(t *testing.T) {
	wantErr(t, `algorithm alg { add_header(ghost); }`, "unknown header instance")
}

func TestMembershipUnknownExtern(t *testing.T) {
	wantErr(t, `algorithm alg { if (x in ghost_table) { y = 1; } }`, "unknown extern")
}

func TestIndexUnknownName(t *testing.T) {
	wantErr(t, `algorithm alg { x = mystery[3]; }`, "neither global nor extern")
}

func TestGlobalIndexOK(t *testing.T) {
	src := `algorithm alg {
  global bit[32][64] counter;
  counter[3] = counter[3] + 1;
}`
	if err := check(t, src); err != nil {
		t.Fatalf("unexpected: %v", err)
	}
}

func TestRecursionRejected(t *testing.T) {
	wantErr(t, `func f() { g(); } func g() { f(); } algorithm a { f(); }`, "recursive")
}

func TestSelfRecursionRejected(t *testing.T) {
	wantErr(t, `func f() { f(); } algorithm a { f(); }`, "recursive")
}

func TestShadowLibraryFunction(t *testing.T) {
	wantErr(t, `func crc32_hash(bit[8] x) { y = x; }`, "shadows")
}

func TestAssignToExtern(t *testing.T) {
	wantErr(t, `
algorithm a {
  extern list<bit[32] ip>[8] t;
  t = 5;
}`, "cannot assign directly to extern")
}

func TestParserExtractUnknownInstance(t *testing.T) {
	wantErr(t, `parser_node start { extract(ghost); }`, "unknown header instance")
}

func TestParserSelectUnknownNode(t *testing.T) {
	wantErr(t, `
header_type eth_t { bit[16] ty; }
header eth_t eth;
parser_node start {
  extract(eth);
  select(eth.ty) { 1: ghost; default: accept; }
}`, "unknown node")
}

// A cycle whose states extract nothing would hang every wire parser; one
// that extracts on each trip is a header stack and stays legal.
func TestParserIdleCycle(t *testing.T) {
	const hdrs = `
header_type eth_t { bit[16] ty; }
header eth_t eth;
header_type none_t { }
header none_t none;
`
	for name, graph := range map[string]string{
		"self": `parser_node start { extract(eth); select(eth.ty) { default: spin; } }
parser_node spin { select(eth.ty) { 1: accept; default: spin; } }`,
		"two": `parser_node start { extract(eth); select(eth.ty) { default: a; } }
parser_node a { select(eth.ty) { 1: accept; default: b; } }
parser_node b { select(eth.ty) { 2: a; default: accept; } }`,
		"fieldless": `parser_node start { extract(eth); select(eth.ty) { default: a; } }
parser_node a { extract(none); select(eth.ty) { default: a; } }`,
	} {
		err := check(t, hdrs+graph)
		list, _ := err.(ErrorList)
		if len(list) != 1 || !strings.Contains(list[0].Msg, "extract nothing") || list[0].Pos.Line == 0 {
			t.Errorf("%s: want one positioned idle-cycle error, got %v", name, err)
		}
	}
	if err := check(t, hdrs+`parser_node start { extract(eth); select(eth.ty) { 0x0800: accept; default: start; } }`); err != nil {
		t.Errorf("extracting cycle rejected: %v", err)
	}
}

func TestPacketMetadataFieldAccepted(t *testing.T) {
	src := `
packet in_pkt { fields { bit[9] ingress_port; } }
algorithm a { x = in_pkt.ingress_port; }`
	if err := check(t, src); err != nil {
		t.Fatalf("unexpected: %v", err)
	}
}

func TestErrorsSorted(t *testing.T) {
	err := check(t, `
algorithm a { ghost1(); }
algorithm b { ghost2(); }`)
	if err == nil {
		t.Fatal("want errors")
	}
	list := err.(ErrorList)
	if len(list) != 2 || list[0].Pos.Line > list[1].Pos.Line {
		t.Fatalf("errors not sorted: %v", list)
	}
}

func TestListLookupRejected(t *testing.T) {
	wantErr(t, `
algorithm a {
  extern list<bit[32] ip>[8] watch;
  x = watch[3];
}`, "has no values")
}

func TestTupleKeyLookupRejected(t *testing.T) {
	wantErr(t, `
algorithm a {
  extern dict<<bit[32] s, bit[32] d>, bit[8] p>[8] route;
  x = route[3];
}`, "tuple key")
	wantErr(t, `
algorithm a {
  extern dict<<bit[32] s, bit[32] d>, bit[8] p>[8] route;
  if (x in route) { y = 1; }
}`, "tuple key")
}

// TestRedeclaredLocalRefused: a local may not take the name of a parameter or
// of an earlier local of its block or an enclosing one, whichever way the
// function is called (a value and a variable used to give the local two
// different meanings). Sibling branches and separate bodies may reuse a name.
func TestRedeclaredLocalRefused(t *testing.T) {
	const head = `
header_type h_t { bit[32] a; bit[32] b; }
header h_t h;
pipeline[P]{m};
`
	for _, tc := range []struct{ name, src, want string }{
		{"value argument", head + `algorithm m { f(h.a + 1); }
func f(bit[32] p) {
  bit[32] p;
  h.b = p;
}`, `test.lyra:7:3: local "p" redeclares a parameter`},
		{"variable argument", head + `algorithm m { bit[32] x; x = h.a; f(x); }
func f(bit[32] p) {
  bit[32] p;
  h.b = p;
}`, `test.lyra:7:3: local "p" redeclares a parameter`},
		{"enclosing local", head + `algorithm m {
  bit[32] t;
  if (h.a == 1) {
    bit[32] t;
    h.b = t;
  }
}`, `test.lyra:8:5: duplicate local "t"`},
		{"same block", head + `algorithm m {
  bit[32] t;
  bit[8] t;
}`, `test.lyra:7:3: duplicate local "t"`},
	} {
		err := check(t, tc.src)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %s", tc.name, err, tc.want)
		}
	}
	if err := check(t, head+`algorithm m {
  if (h.a == 1) {
    bit[32] t;
    h.b = t;
  } else {
    bit[32] t;
    h.b = t + 1;
  }
  g(h.a);
}
func g(bit[32] t) { bit[32] u; u = t; h.b = u; }
func k(bit[32] u) { h.b = u; }`); err != nil {
		t.Errorf("names reused across sibling branches and bodies: %v", err)
	}
}
