// Package nplcheck parses and validates the NPL subset emitted by Lyra's
// back-end (§5.3): struct declarations, the logical bus, logical registers,
// logical tables with key_construct/fields_assign bodies, and the program
// block with its multi-lookup invocations. Together with internal/p4check
// it stands in for the vendor tool-chains the paper compiles against.
package nplcheck

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"
)

// Program is a parsed NPL compilation unit.
type Program struct {
	Structs   map[string][]string // struct type -> field names
	Instances map[string]string   // instance -> struct type
	BusFields map[string]bool     // lyra_bus field names
	Registers map[string]bool
	Tables    map[string]*LogicalTable
	// Lookups maps table name -> lookup indices invoked in the program.
	Lookups map[string][]int
	// Statements are the raw program-block statements (for reference
	// resolution).
	Statements []string
}

// LogicalTable is one logical_table declaration.
type LogicalTable struct {
	Name     string
	Keys     []string
	KeySets  int // number of _LOOKUPn branches in key_construct
	MinSize  string
	MaxSize  string
	BodyRefs []string // field references in key_construct/fields_assign
}

// Parse parses NPL source. The grammar is line-oriented: block headers end
// with '{', blocks close with '}', and statements end with ';'.
func Parse(src string) (*Program, error) {
	prog := &Program{
		Structs:   map[string][]string{},
		Instances: map[string]string{},
		BusFields: map[string]bool{},
		Registers: map[string]bool{},
		Tables:    map[string]*LogicalTable{},
		Lookups:   map[string][]int{},
	}
	rest, more := src, true // the source after line i, and whether it has one
	i := 0
	next := func() (string, bool) {
		for more {
			var line string
			line, rest, more = strings.Cut(rest, "\n")
			i++
			l := strings.TrimSpace(line)
			if l == "" || strings.HasPrefix(l, "//") || strings.HasPrefix(l, "/*") {
				continue
			}
			return l, true
		}
		return "", false
	}
	var err error
	for {
		l, ok := next()
		if !ok {
			break
		}
		switch {
		case strings.HasPrefix(l, "struct "):
			err = parseStruct(prog, l, next)
		case strings.HasPrefix(l, "bus "):
			err = parseBus(prog, l, next)
		case strings.HasPrefix(l, "logical_register "):
			err = parseRegister(prog, l, next)
		case strings.HasPrefix(l, "logical_table "):
			err = parseTable(prog, l, next)
		case strings.HasPrefix(l, "program "):
			err = parseProgram(prog, next)
		case strings.HasSuffix(l, ";") && strings.Count(l, " ") == 1:
			// Instance declaration: "type_t name;"
			if typ, name, ok := twoFields(strings.TrimSuffix(l, ";")); ok {
				prog.Instances[name] = typ
			}
		default:
			return nil, fmt.Errorf("nplcheck: line %d: unrecognized %q", i, l)
		}
		if err != nil {
			return nil, err
		}
	}
	return prog, nil
}

type nextFn func() (string, bool)

// twoFields returns the fields of s, split around runs of white space as
// strings.Fields splits them, when there are exactly two.
func twoFields(s string) (a, b string, ok bool) {
	a, s = firstField(s)
	b, s = firstField(s)
	return a, b, b != "" && strings.TrimSpace(s) == ""
}

// firstField splits the first white-space-separated field off s.
func firstField(s string) (field, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

func parseStruct(prog *Program, header string, next nextFn) error {
	name := strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(header, "struct")), "{")
	name = strings.TrimSpace(name)
	fields, err := parseFieldsBlock(next)
	if err != nil {
		return fmt.Errorf("struct %s: %w", name, err)
	}
	prog.Structs[name] = fields
	return nil
}

func parseBus(prog *Program, header string, next nextFn) error {
	fields, err := parseFieldsBlock(next)
	if err != nil {
		return fmt.Errorf("bus: %w", err)
	}
	for _, f := range fields {
		prog.BusFields[f] = true
	}
	return nil
}

// parseFieldsBlock handles: fields { name : N; ... } } — consuming through
// the block's closing brace and the container's. A field declared twice is
// an error.
func parseFieldsBlock(next nextFn) ([]string, error) {
	l, ok := next()
	if !ok || !strings.HasPrefix(l, "fields") {
		return nil, fmt.Errorf("expected fields block, found %q", l)
	}
	var out []string
	add := func(name string) error {
		if slices.Contains(out, name) {
			return fmt.Errorf("field %s declared twice", name)
		}
		out = append(out, name)
		return nil
	}
	// Inline form: fields { value : 32; }
	if strings.Contains(l, "}") && strings.Contains(l, ":") {
		inner, more := l[strings.Index(l, "{")+1:strings.LastIndex(l, "}")], true
		for more {
			var f string
			f, inner, more = strings.Cut(inner, ";")
			if name, okf := fieldName(f); okf {
				if err := add(name); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}
	for {
		l, ok = next()
		if !ok {
			return nil, fmt.Errorf("unterminated fields block")
		}
		if l == "}" {
			break
		}
		name, okf := fieldName(l)
		if !okf {
			return nil, fmt.Errorf("bad field %q", l)
		}
		if err := add(name); err != nil {
			return nil, err
		}
	}
	// Container's closing brace.
	if l, ok = next(); !ok || l != "}" {
		return nil, fmt.Errorf("expected container close, found %q", l)
	}
	return out, nil
}

func fieldName(l string) (string, bool) {
	l = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(l), ";"))
	colon := strings.Index(l, ":")
	if colon < 0 {
		return "", false
	}
	name := strings.TrimSpace(l[:colon])
	// "bit[32] name" style in keys blocks.
	if sp := strings.LastIndex(name, " "); sp >= 0 {
		name = name[sp+1:]
	}
	return name, name != ""
}

func parseRegister(prog *Program, header string, next nextFn) error {
	name := strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(header, "logical_register")), "{")
	name = strings.TrimSpace(name)
	depth := 1
	for depth > 0 {
		l, ok := next()
		if !ok {
			return fmt.Errorf("logical_register %s: unterminated", name)
		}
		depth += strings.Count(l, "{") - strings.Count(l, "}")
	}
	prog.Registers[name] = true
	return nil
}

func parseTable(prog *Program, header string, next nextFn) error {
	name := strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(header, "logical_table")), "{")
	name = strings.TrimSpace(name)
	t := &LogicalTable{Name: name}
	depth := 1
	section := ""
	for depth > 0 {
		l, ok := next()
		if !ok {
			return fmt.Errorf("logical_table %s: unterminated", name)
		}
		opens := strings.Count(l, "{")
		closes := strings.Count(l, "}")
		switch {
		case strings.HasPrefix(l, "keys"):
			section = "keys"
		case strings.HasPrefix(l, "key_construct"):
			section = "key_construct"
		case strings.HasPrefix(l, "fields_assign"):
			section = "fields_assign"
		case strings.HasPrefix(l, "min_size"):
			t.MinSize = attrValue(l)
		case strings.HasPrefix(l, "max_size"):
			t.MaxSize = attrValue(l)
		case strings.HasPrefix(l, "table_type"):
		case l == "}":
		default:
			switch section {
			case "keys":
				// Key declarations use "bit[32] name;".
				kl := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(l), ";"))
				if sp := strings.LastIndex(kl, " "); sp >= 0 {
					kl = kl[sp+1:]
				}
				if kl != "" {
					t.Keys = append(t.Keys, kl)
				}
			case "key_construct":
				if strings.Contains(l, "_LOOKUP") {
					t.KeySets++
				}
				eachRef(l, func(r string) { t.BodyRefs = append(t.BodyRefs, r) })
			case "fields_assign":
				eachRef(l, func(r string) { t.BodyRefs = append(t.BodyRefs, r) })
			}
		}
		depth += opens - closes
		if depth == 1 && closes > 0 {
			section = ""
		}
	}
	prog.Tables[name] = t
	return nil
}

func attrValue(l string) string {
	colon := strings.Index(l, ":")
	if colon < 0 {
		return ""
	}
	return strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(l[colon+1:]), ";"))
}

// eachRef calls f on each dotted reference like lyra_bus.x or ipv4.dst in a
// statement, in order: the runs of name characters and dots that contain a
// dot but do not start with one. They are substrings of l.
func eachRef(l string, f func(ref string)) {
	start, dot := 0, false // the run so far, and whether it has a dot
	for i := 0; i <= len(l); i++ {
		if i < len(l) {
			c := l[i]
			dot = dot || c == '.'
			if c == '_' || c == '.' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
				continue
			}
		}
		if dot && l[start] != '.' {
			f(l[start:i])
		}
		start, dot = i+1, false
	}
}

func parseProgram(prog *Program, next nextFn) error {
	depth := 1
	for depth > 0 {
		l, ok := next()
		if !ok {
			return fmt.Errorf("program block unterminated")
		}
		opens := strings.Count(l, "{")
		closes := strings.Count(l, "}")
		depth += opens - closes
		if depth <= 0 {
			break
		}
		if idx := strings.Index(l, ".lookup("); idx > 0 {
			tbl := strings.TrimSpace(l[:idx])
			numEnd := strings.Index(l[idx:], ")")
			prog.Lookups[tbl] = append(prog.Lookups[tbl], leadingInt(l[idx+len(".lookup("):idx+numEnd]))
			continue
		}
		prog.Statements = append(prog.Statements, l)
	}
	return nil
}

// leadingInt reads a decimal integer at the start of s, after any white
// space, as fmt.Sscanf's %d reads it: 0 when there is none or it overflows.
func leadingInt(s string) int {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	end := 0
	if s != "" && (s[0] == '+' || s[0] == '-') {
		end = 1
	}
	for end < len(s) && s[end] >= '0' && s[end] <= '9' {
		end++
	}
	n, err := strconv.ParseInt(s[:end], 10, strconv.IntSize)
	if err != nil {
		return 0
	}
	return int(n)
}

// Validate resolves references and checks NPL-specific rules.
func (prog *Program) Validate() []error {
	var errs []error
	errf := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	refOK := func(ref string) bool {
		dot := strings.IndexByte(ref, '.')
		if dot < 0 {
			return false
		}
		inst, field := ref[:dot], ref[dot+1:]
		if inst == "lyra_bus" {
			return prog.BusFields[field]
		}
		if prog.Registers[strings.TrimSuffix(inst, "[")] {
			return true
		}
		// register indexing renders as name[expr].value — inst contains '['.
		if br := strings.IndexByte(inst, '['); br > 0 {
			return prog.Registers[inst[:br]]
		}
		if field == "valid" {
			_, ok := prog.Instances[inst]
			return ok
		}
		typ, ok := prog.Instances[inst]
		if !ok {
			return false
		}
		for _, f := range prog.Structs[typ] {
			if f == field {
				return true
			}
		}
		return false
	}

	for inst, typ := range prog.Instances {
		if _, ok := prog.Structs[typ]; !ok {
			errf("instance %s references undeclared struct %s", inst, typ)
		}
	}
	for name, t := range prog.Tables {
		if len(t.Keys) == 0 {
			errf("logical_table %s has no keys", name)
		}
		if t.MinSize == "" || t.MaxSize == "" {
			errf("logical_table %s missing size bounds", name)
		}
		for _, r := range t.BodyRefs {
			if !refOK(r) {
				errf("logical_table %s references unknown %s", name, r)
			}
		}
	}
	// Every lookup targets a declared table with enough key_construct
	// branches; every table is looked up.
	for tbl, idxs := range prog.Lookups {
		t, ok := prog.Tables[tbl]
		if !ok {
			errf("program looks up undeclared logical_table %s", tbl)
			continue
		}
		for _, li := range idxs {
			if li >= t.KeySets {
				errf("logical_table %s: lookup(%d) but only %d key_construct branches", tbl, li, t.KeySets)
			}
		}
	}
	for name := range prog.Tables {
		if len(prog.Lookups[name]) == 0 {
			errf("logical_table %s is never looked up", name)
		}
	}
	// Program statements resolve.
	for _, st := range prog.Statements {
		eachRef(st, func(r string) {
			if !refOK(r) {
				errf("program statement references unknown %s (in %q)", r, st)
			}
		})
	}
	return errs
}
