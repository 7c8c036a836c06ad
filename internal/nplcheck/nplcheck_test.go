package nplcheck

import (
	"fmt"
	"strings"
	"testing"
)

const valid = `
/* NPL test program */
struct ipv4_t {
    fields {
        src : 32;
        dst : 32;
    }
}
ipv4_t ipv4;

bus lyra_bus {
    fields {
        hash_1 : 32;
        hit_1 : 1;
    }
}

logical_register cnt {
    fields { value : 32; }
    size : 16;
}

logical_table t_conn {
    table_type : hash;
    min_size : 64;
    max_size : 64;
    keys {
        bit[32] k;
    }
    key_construct() {
        if (_LOOKUP0) {
            k = lyra_bus.hash_1;
        }
        if (_LOOKUP1) {
            k = ipv4.dst;
        }
    }
    fields_assign() {
        lyra_bus.hit_1 = _LOOKUP_HIT;
    }
}

program lyra {
    lyra_bus.hash_1 = ipv4.src;
    t_conn.lookup(0);
    t_conn.lookup(1);
    if (lyra_bus.hit_1) { cnt[0].value = cnt[0].value + 1; }
    ipv4.valid = 1;
}
`

func TestParseValid(t *testing.T) {
	prog, err := Parse(valid)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if errs := prog.Validate(); len(errs) != 0 {
		t.Fatalf("validate: %v", errs)
	}
	tbl := prog.Tables["t_conn"]
	if tbl == nil || tbl.KeySets != 2 || len(tbl.Keys) != 1 {
		t.Fatalf("table = %+v", tbl)
	}
	if got := prog.Lookups["t_conn"]; len(got) != 2 || got[1] != 1 {
		t.Fatalf("lookups = %v", got)
	}
	if !prog.BusFields["hash_1"] || !prog.Registers["cnt"] {
		t.Error("bus/register parse broken")
	}
}

func mutate(t *testing.T, old, new, wantErr string) {
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
	for _, e := range prog.Validate() {
		if strings.Contains(e.Error(), wantErr) {
			return
		}
	}
	t.Fatalf("mutation %q: want %q, got %v", old, wantErr, prog.Validate())
}

func TestValidateCatchesBreakage(t *testing.T) {
	mutate(t, "lyra_bus.hash_1 = ipv4.src;", "lyra_bus.ghost = ipv4.src;", "unknown lyra_bus.ghost")
	mutate(t, "k = ipv4.dst;", "k = ipv4.ghost;", "unknown ipv4.ghost")
	mutate(t, "t_conn.lookup(1);", "t_ghost.lookup(1);", "undeclared logical_table")
	mutate(t, "ipv4_t ipv4;", "ghost_t ipv4;", "undeclared struct")
	mutate(t, "t_conn.lookup(1);", "t_conn.lookup(7);", "only 2 key_construct branches")
}

func TestUnusedTableCaught(t *testing.T) {
	src := strings.Replace(valid, "t_conn.lookup(0);", "", 1)
	src = strings.Replace(src, "t_conn.lookup(1);", "", 1)
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range prog.Validate() {
		if strings.Contains(e.Error(), "never looked up") {
			found = true
		}
	}
	if !found {
		t.Fatal("unused table not caught")
	}
}

func TestRefsIn(t *testing.T) {
	var refs []string
	eachRef("lyra_bus.a = (ipv4.src & 0xff) + cnt[0].value;", func(r string) { refs = append(refs, r) })
	if got := strings.Join(refs, ","); got != "lyra_bus.a,ipv4.src" {
		t.Errorf("refs = %v, want [lyra_bus.a ipv4.src]", refs)
	}
}

// TestLeadingIntMatchesSscanf: a lookup index reads as fmt.Sscanf's %d
// reads it, on well-formed and malformed texts alike.
func TestLeadingIntMatchesSscanf(t *testing.T) {
	for _, s := range []string{"0", "1", "12", " 3", "\t4", "+5", "-6", "7x", "8 9", "", " ", "x", "+", "-",
		"0x10", "1_000", "99999999999999999999", "-99999999999999999999", "9223372036854775807"} {
		var want int
		fmt.Sscanf(s, "%d", &want)
		if got := leadingInt(s); got != want {
			t.Errorf("leadingInt(%q) = %d, fmt.Sscanf %d", s, got, want)
		}
	}
}

// TestTwoFieldsMatchesFields: an instance declaration splits as
// strings.Fields splits it.
func TestTwoFieldsMatchesFields(t *testing.T) {
	for _, s := range []string{"a b", "a  b", " a b ", "a\tb", "a b c", "a", "", " ", "a\u00a0b", "a\u2003b c", "\u00a0a b\u00a0"} {
		f := strings.Fields(s)
		a, b, ok := twoFields(s)
		if ok != (len(f) == 2) || ok && (a != f[0] || b != f[1]) {
			t.Errorf("twoFields(%q) = %q, %q, %v; strings.Fields %q", s, a, b, ok, f)
		}
	}
}

// TestDuplicateFieldRejected: a struct or the bus declaring a field twice is
// an error, in the block and in the inline form.
func TestDuplicateFieldRejected(t *testing.T) {
	for _, c := range []struct{ old, new, want string }{
		{"        dst : 32;\n", "        dst : 32;\n        dst : 32;\n", "struct ipv4_t: field dst declared twice"},
		{"        hit_1 : 1;\n", "        hit_1 : 1;\n        hit_1 : 8;\n", "bus: field hit_1 declared twice"},
		{"struct ipv4_t {", "struct pair_t {\n    fields { v : 8; v : 8; }\n}\nstruct ipv4_t {", "struct pair_t: field v declared twice"},
	} {
		_, err := Parse(strings.Replace(valid, c.old, c.new, 1))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: got %v, want %q", c.want, err, c.want)
		}
	}
}
