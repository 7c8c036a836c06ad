package backend

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// splitCountLines and splitLogicLines are the two line counts as they were
// written over strings.Split, one pass each: the references lineCounts must
// match.
func splitCountLines(code string) int {
	n := 0
	for _, l := range strings.Split(code, "\n") {
		if strings.TrimSpace(l) != "" {
			n++
		}
	}
	return n
}

func splitLogicLines(code string) int {
	n := 0
	skipping := false
	depth := 0
	for _, l := range strings.Split(code, "\n") {
		t := strings.TrimSpace(l)
		if t == "" {
			continue
		}
		if !skipping && (strings.HasPrefix(t, "header") || strings.HasPrefix(t, "parser") ||
			strings.HasPrefix(t, "struct") || strings.HasPrefix(t, "packet") ||
			strings.HasPrefix(t, "state start")) {
			if strings.Contains(t, "{") {
				skipping = true
				depth = strings.Count(t, "{") - strings.Count(t, "}")
				if depth <= 0 {
					skipping = false
				}
				continue
			}
			continue
		}
		if skipping {
			depth += strings.Count(t, "{") - strings.Count(t, "}")
			if depth <= 0 {
				skipping = false
			}
			continue
		}
		n++
	}
	return n
}

// TestLineCountsMatchSplit: lineCounts's two counts agree with their strings.Split
// references on every golden artifact — as written, with CRLF line ends, and
// without its final newline — and on random text built from the tokens the
// counts look at, empty input and lone line ends included.
func TestLineCountsMatchSplit(t *testing.T) {
	texts := []string{"", "\n", "\n\n", "\r\n", " \t", "a", "a\n", "\na", "header h {\n}\nx;\n"}
	goldens, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*"))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no golden artifacts found: %v", err)
	}
	for _, path := range goldens {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		g := string(b)
		texts = append(texts, g, strings.ReplaceAll(g, "\n", "\r\n"), strings.TrimSuffix(g, "\n"))
	}
	pieces := []string{"\n", "\r\n", "\r", " ", "\t", "{", "}", "{}", "x;", "header", "header_type h", "parser",
		"struct", "packet", "state start", "apply(t);", "// c", "/* c */"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		var b strings.Builder
		for n := rng.Intn(40); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		texts = append(texts, b.String())
	}
	for _, text := range texts {
		loc, logic := lineCounts(text)
		if want := splitCountLines(text); loc != want {
			t.Errorf("lineCounts(%q) LoC = %d, strings.Split reference %d", text, loc, want)
		}
		if want := splitLogicLines(text); logic != want {
			t.Errorf("lineCounts(%q) LogicLoC = %d, strings.Split reference %d", text, logic, want)
		}
	}
}
