package lexer

import (
	"testing"

	"lyra/internal/lang/token"
)

func kinds(t *testing.T, src string) []token.Kind {
	t.Helper()
	toks, errs := ScanAll("test.lyra", src)
	if len(errs) > 0 {
		t.Fatalf("scan errors: %v", errs)
	}
	out := make([]token.Kind, len(toks))
	for i, tk := range toks {
		out[i] = tk.Kind
	}
	return out
}

func eq(a, b []token.Kind) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBasicTokens(t *testing.T) {
	got := kinds(t, "algorithm int_in { bit[8] x = 0x0f; }")
	want := []token.Kind{
		token.KwAlgorithm, token.IDENT, token.LBrace,
		token.KwBit, token.LBracket, token.INT, token.RBracket,
		token.IDENT, token.Assign, token.INT, token.Semicolon, token.RBrace,
	}
	if !eq(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestOperators(t *testing.T) {
	got := kinds(t, "== != <= >= << >> && || -> < > = ! & | ^ + - * / %")
	want := []token.Kind{
		token.Eq, token.NotEq, token.LtEq, token.GtEq, token.Shl, token.Shr,
		token.AndAnd, token.OrOr, token.Arrow, token.Lt, token.Gt,
		token.Assign, token.Not, token.Amp, token.Pipe, token.Caret,
		token.Plus, token.Minus, token.Star, token.Slash, token.Percent,
	}
	if !eq(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestComments(t *testing.T) {
	got := kinds(t, "a // line comment\n/* block\ncomment */ b")
	want := []token.Kind{token.IDENT, token.IDENT}
	if !eq(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestUnterminatedBlockComment(t *testing.T) {
	_, errs := ScanAll("t", "a /* never closed")
	if len(errs) == 0 {
		t.Fatal("want error for unterminated comment")
	}
}

func TestSectionMarkers(t *testing.T) {
	src := ">HEADER:\nheader_type h { bit[8] f; }\n>PIPELINES:\npipeline[P]{a};"
	toks, errs := ScanAll("t", src)
	if len(errs) > 0 {
		t.Fatalf("errors: %v", errs)
	}
	var markers []string
	for _, tk := range toks {
		if tk.Kind == token.SectionMarker {
			markers = append(markers, tk.Lit)
		}
	}
	if len(markers) != 2 || markers[0] != ">HEADER:" || markers[1] != ">PIPELINES:" {
		t.Errorf("markers = %v", markers)
	}
}

func TestGreaterThanNotMarkerMidLine(t *testing.T) {
	got := kinds(t, "a > b")
	want := []token.Kind{token.IDENT, token.Gt, token.IDENT}
	if !eq(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestKeywords(t *testing.T) {
	got := kinds(t, "header_type packet pipeline algorithm func global extern bit bool if else in dict list extract select default true false header parser_node fields")
	want := []token.Kind{
		token.KwHeaderType, token.KwPacket, token.KwPipeline, token.KwAlgorithm,
		token.KwFunc, token.KwGlobal, token.KwExtern, token.KwBit, token.KwBool,
		token.KwIf, token.KwElse, token.KwIn, token.KwDict, token.KwList,
		token.KwExtract, token.KwSelect, token.KwDefault, token.KwTrue,
		token.KwFalse, token.KwHeader, token.KwParserNode, token.KwFields,
	}
	if !eq(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestPositions(t *testing.T) {
	toks, _ := ScanAll("f.lyra", "a\n  b")
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("b at %v", toks[1].Pos)
	}
}

func TestHexAndDecimal(t *testing.T) {
	toks, errs := ScanAll("t", "0x0800 1024 0")
	if len(errs) > 0 {
		t.Fatalf("errors: %v", errs)
	}
	if toks[0].Lit != "0x0800" || toks[1].Lit != "1024" || toks[2].Lit != "0" {
		t.Errorf("lits: %v %v %v", toks[0].Lit, toks[1].Lit, toks[2].Lit)
	}
}

func TestIllegalChar(t *testing.T) {
	toks, errs := ScanAll("t", "a @ b")
	if len(errs) == 0 {
		t.Fatal("want error")
	}
	found := false
	for _, tk := range toks {
		if tk.Kind == token.ILLEGAL {
			found = true
		}
	}
	if !found {
		t.Error("want ILLEGAL token")
	}
}
