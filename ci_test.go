package lyra

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIRunPatternsMatchTests reads .github/workflows/ci.yml and checks every
// `go run` and `go test` line in it. Each ./… package argument must name a
// package directory that exists, so a step left pointing at a deleted
// command or package fails here rather than in CI. And for every
// `go test … -run '<pattern>'`, each |-alternative of the pattern must match
// at least one Test, Fuzz or Example function in the packages that command
// names, and for every `-bench` pattern at least one Benchmark function: a
// test renamed or deleted without its CI step is otherwise a step that goes
// green by running nothing.
func TestCIRunPatternsMatchTests(t *testing.T) {
	yml, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	patterns := []struct {
		flag     *regexp.Regexp
		prefixes []string
	}{
		{regexp.MustCompile(`-run[ =]'([^']*)'`), []string{"Test", "Fuzz", "Example"}},
		{regexp.MustCompile(`-bench[ =]'?([^' ]+)'?`), []string{"Benchmark"}},
	}
	checked, pkgs := 0, 0
	for n, line := range strings.Split(string(yml), "\n") {
		if !strings.Contains(line, "go test") && !strings.Contains(line, "go run") {
			continue
		}
		var args []string
		for _, arg := range strings.Fields(line) {
			if strings.HasPrefix(arg, "./") {
				args = append(args, arg)
				pkgs++
				if !isPackageDir(arg) {
					t.Errorf("ci.yml:%d: %s names no package directory", n+1, arg)
				}
			}
		}
		if !strings.Contains(line, "go test") {
			continue
		}
		for _, p := range patterns {
			m := p.flag.FindStringSubmatch(line)
			if m == nil || m[1] == "^$" { // '^$' runs no test on purpose (benchmarks, fuzzing)
				continue
			}
			var names []string
			for _, arg := range args {
				names = append(names, testFuncsIn(t, arg, p.prefixes)...)
			}
			if len(names) == 0 {
				t.Errorf("ci.yml:%d: no %v functions in the packages of: %s", n+1, p.prefixes, strings.TrimSpace(line))
				continue
			}
			for _, alt := range strings.Split(m[1], "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml:%d: pattern alternative %q: %v", n+1, alt, err)
					continue
				}
				checked++
				if !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("ci.yml:%d: pattern alternative %q matches no %v function in the packages that step names", n+1, alt, p.prefixes)
				}
			}
		}
	}
	if checked == 0 || pkgs == 0 {
		t.Fatal("found no -run pattern or package argument in ci.yml; the scan is broken")
	}
}

// isPackageDir reports whether a package argument as `go run`/`go test` take
// it names a directory holding Go files: the directory itself, or with /...
// the directory or any directory below it.
func isPackageDir(pkg string) bool {
	dir, recursive := strings.CutSuffix(pkg, "/...")
	dir = filepath.FromSlash(dir)
	found := false
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil || found:
			return filepath.SkipAll
		case d.IsDir() && path != dir && !recursive:
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, ".go"):
			found = true
		}
		return nil
	})
	return found
}

// testFuncsIn lists the functions of one package argument, as `go test` takes
// it, whose names start with one of prefixes: a directory, or a directory
// followed by /... for everything below it.
func testFuncsIn(t *testing.T, pkg string, prefixes []string) []string {
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
			for _, prefix := range prefixes {
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
