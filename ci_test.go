package lyra

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsMatchTests reads .github/workflows/ci.yml and, for every
// `go test … -run '<pattern>' <packages>` it finds, demands that each
// |-alternative of the pattern matches at least one Test, Fuzz or Example
// function in the packages that command names. A test renamed without its
// CI step is otherwise a step that goes green by running nothing.
func TestCIRunPatternsMatchTests(t *testing.T) {
	yml, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	runFlag := regexp.MustCompile(`-run[ =]'([^']*)'`)
	checked := 0
	for n, line := range strings.Split(string(yml), "\n") {
		if !strings.Contains(line, "go test") {
			continue
		}
		m := runFlag.FindStringSubmatch(line)
		if m == nil || m[1] == "^$" { // '^$' runs no test on purpose (benchmarks, fuzzing)
			continue
		}
		var names []string
		for _, arg := range strings.Fields(line) {
			if strings.HasPrefix(arg, "./") {
				names = append(names, testFuncsIn(t, arg)...)
			}
		}
		if len(names) == 0 {
			t.Errorf("ci.yml:%d: no test functions in the packages of: %s", n+1, strings.TrimSpace(line))
			continue
		}
		for _, alt := range strings.Split(m[1], "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml:%d: -run alternative %q: %v", n+1, alt, err)
				continue
			}
			checked++
			matched := false
			for _, name := range names {
				if re.MatchString(name) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("ci.yml:%d: -run alternative %q matches no test in the packages that step names", n+1, alt)
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run pattern in ci.yml; the scan is broken")
	}
}

// testFuncsIn lists the Test/Fuzz/Example functions of one package argument
// as `go test` takes it: a directory, or a directory followed by /... for
// everything below it.
func testFuncsIn(t *testing.T, pkg string) []string {
	t.Helper()
	dir, recursive := strings.CutSuffix(pkg, "/...")
	var names []string
	err := filepath.WalkDir(filepath.FromSlash(dir), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != filepath.FromSlash(dir) && (!recursive || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Example"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					names = append(names, fn.Name.Name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("listing tests of %s: %v", pkg, err)
	}
	return names
}
