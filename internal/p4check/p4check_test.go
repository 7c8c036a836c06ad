package p4check

import (
	"strings"
	"testing"

	"lyra/internal/baseline"
)

const valid = `
header_type h_t {
    fields {
        a : 8;
        b : 32;
    }
}
header h_t h;

header_type m_t {
    fields {
        x : 16;
    }
}
metadata m_t meta;

parser start {
    extract(h);
    return ingress;
}

register r {
    width : 32;
    instance_count : 16;
}

field_list fl {
    h.a;
    h.b;
}
field_list_calculation flc {
    input { fl; }
    algorithm : crc32;
    output_width : 16;
}

action a_one(port) {
    modify_field(h.a, 1);
    modify_field(standard_metadata.egress_spec, port);
    register_read(meta.x, r, 3);
    modify_field_with_hash_based_offset(meta.x, 0, flc, 65536);
}
action a_two() {
    add(h.b, h.b, 1);
    drop();
}
table t1 {
    reads { h.a : exact; }
    actions { a_one; a_two; }
    size : 16;
}
control ingress {
    apply(t1);
}
control egress { }
`

func TestParseAndValidateOK(t *testing.T) {
	prog, err := Parse(valid)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if errs := prog.Validate(); len(errs) != 0 {
		t.Fatalf("validate: %v", errs)
	}
	if len(prog.HeaderTypes["h_t"]) != 2 || prog.Instances["meta"] != "m_t" {
		t.Errorf("parse results wrong: %+v", prog)
	}
	if len(prog.Actions["a_one"].Primitives) != 4 {
		t.Errorf("primitives = %d", len(prog.Actions["a_one"].Primitives))
	}
	if prog.Tables["t1"].Size != "16" || len(prog.Tables["t1"].Reads) != 1 {
		t.Errorf("table = %+v", prog.Tables["t1"])
	}
}

func mutate(t *testing.T, old, new string, wantErr string) {
	t.Helper()
	src := strings.Replace(valid, old, new, 1)
	if src == valid {
		t.Fatalf("mutation %q not applied", old)
	}
	prog, err := Parse(src)
	if err != nil {
		if wantErr == "PARSE" {
			return
		}
		t.Fatalf("unexpected parse error: %v", err)
	}
	errs := prog.Validate()
	for _, e := range errs {
		if strings.Contains(e.Error(), wantErr) {
			return
		}
	}
	t.Fatalf("mutation %q: want error containing %q, got %v", old, wantErr, errs)
}

func TestValidateCatchesBrokenReferences(t *testing.T) {
	mutate(t, "reads { h.a : exact; }", "reads { h.zz : exact; }", "unknown field")
	mutate(t, "actions { a_one; a_two; }", "actions { a_ghost; }", "undeclared action")
	mutate(t, "apply(t1);", "apply(ghost);", "undeclared table")
	mutate(t, "register_read(meta.x, r, 3);", "register_read(meta.x, rr, 3);", "undeclared register")
	mutate(t, "modify_field(h.a, 1);", "modify_field(h.ghost, 1);", "unknown operand")
	mutate(t, "modify_field_with_hash_based_offset(meta.x, 0, flc, 65536);",
		"modify_field_with_hash_based_offset(meta.x, 0, nocalc, 65536);", "unknown calculation")
	mutate(t, "extract(h);", "extract(ghost);", "undeclared instance")
	mutate(t, "header h_t h;", "header ghost_t h;", "undeclared header_type")
	mutate(t, "add(h.b, h.b, 1);", "frobnicate(h.b);", "unknown primitive")
	mutate(t, "add(h.b, h.b, 1);", "add(h.b);", "takes 3..3 args")
	mutate(t, "input { fl; }", "input { nofl; }", "unknown field_list")
}

func TestValidateSingleApplyRule(t *testing.T) {
	src := strings.Replace(valid, "apply(t1);", "apply(t1);\n    apply(t1);", 1)
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range prog.Validate() {
		if strings.Contains(e.Error(), "applied more than once") {
			found = true
		}
	}
	if !found {
		t.Fatal("double apply not caught")
	}
}

func TestValidateUnappliedTable(t *testing.T) {
	src := strings.Replace(valid, "apply(t1);", "", 1)
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range prog.Validate() {
		if strings.Contains(e.Error(), "never applied") {
			found = true
		}
	}
	if !found {
		t.Fatal("unapplied table not caught")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"blob x {}",
		"header_type h { fields { a } }",
		"table t { size : ; }",
		"action a( { }",
		"control c { apply(t; }",
		"/* unterminated",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("no parse error for %q", src)
		}
	}
}

// TestBaselinesParse runs the checker over the human-written baseline
// programs: they use the same P4_14 subset and must parse and validate.
func TestBaselinesParse(t *testing.T) {
	for _, name := range baseline.Names() {
		prog, err := Parse(baseline.Programs[name])
		if err != nil {
			t.Errorf("%s: parse: %v", name, err)
			continue
		}
		if errs := prog.Validate(); len(errs) != 0 {
			t.Errorf("%s: %v", name, errs)
		}
	}
}

func TestControlIfConditionsTolerated(t *testing.T) {
	src := strings.Replace(valid, "apply(t1);", "if (h.a == 1) {\n        apply(t1);\n    }", 1)
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if errs := prog.Validate(); len(errs) != 0 {
		t.Fatalf("validate: %v", errs)
	}
}

// TestDuplicateFieldRejected: a header type — the emitted metadata header
// among them — that declares a field twice is an error, even at one width.
func TestDuplicateFieldRejected(t *testing.T) {
	src := strings.Replace(valid, "        x : 16;\n", "        x : 16;\n        x : 16;\n", 1)
	_, err := Parse(src)
	if err == nil || !strings.Contains(err.Error(), "header type m_t declares field x twice") {
		t.Fatalf("duplicate field: got %v", err)
	}
}

// TestArgumentSpelling: a primitive argument and a field reference read the
// same however the source spaces them — tokens joined by single spaces, none
// around dots or after an opening parenthesis — whether the parse can take
// them straight from the source or must put them together.
func TestArgumentSpelling(t *testing.T) {
	src := `header_type h_t { fields { a : 8; } }
header h_t h;
action a1(value) {
    modify_field(h.a, value);
    modify_field(h . a, f( value , 1 ));
    modify_field_with_hash_based_offset(h.a, 0, c, 65536);
    add(h.a,  h.a,1);
}
table t { reads { h . a : exact; h.a : exact; } actions { a1; } }
control ingress { apply(t); }
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range prog.Actions["a1"].Primitives {
		got = append(got, strings.Join(p.Args, "|"))
	}
	want := []string{"h.a|value", "h.a|f(value, 1)", "h.a|0|c|65536", "h.a|h.a|1"}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("arguments\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if reads := strings.Join(prog.Tables["t"].Reads, "|"); reads != "h.a|h.a" {
		t.Errorf("reads = %s, want h.a|h.a", reads)
	}
}
