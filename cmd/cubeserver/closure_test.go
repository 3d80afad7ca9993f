package main

import (
	"bytes"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// root is the module root, two levels above this package.
var root = filepath.Join("..", "..")

// TestServingClosure keeps the test oracle and the fault harnesses out of the
// serving binary. The closure itself, package by package, is a row set of
// SIZES.txt (TestSizeLedger): a package that enters or leaves it is a decision
// that shows in that file's diff.
func TestServingClosure(t *testing.T) {
	pkgs, lines := servingClosure(t)
	for _, pkg := range []string{"internal/naive", "internal/conformance", "internal/harness", "internal/faultio"} {
		if slices.Contains(pkgs, pkg) {
			t.Errorf("cubeserver links %s, which only tests may import", pkg)
		}
	}
	t.Logf("%d packages, %d non-test lines", len(pkgs), lines)
}

// servingClosure returns, sorted, the module packages the serving binary
// links and their non-test lines, computed from the import declarations of
// the files a default build of each package compiles.
func servingClosure(t *testing.T) (pkgs []string, lines int) {
	const module = "rangecube"
	seen := map[string]bool{}
	var visit func(pkg string)
	visit = func(pkg string) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		dir := filepath.Join(root, filepath.FromSlash(pkg))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
				continue
			}
			src, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			lines += bytes.Count(src, []byte("\n"))
			f, err := parser.ParseFile(token.NewFileSet(), name, src, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if rest, ok := strings.CutPrefix(path, module+"/"); ok {
					visit(rest)
				}
			}
		}
	}
	visit("cmd/cubeserver")
	for pkg := range seen {
		pkgs = append(pkgs, pkg)
	}
	slices.Sort(pkgs)
	return pkgs, lines
}
