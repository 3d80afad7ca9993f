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

// TestServingClosure pins the module packages the serving binary links,
// computed from the import declarations of their non-test files. A package
// that enters or leaves the closure is a decision to make here, and the test
// oracle and the fault harnesses never belong in it.
func TestServingClosure(t *testing.T) {
	const module = "rangecube"
	root := filepath.Join("..", "..")
	want := []string{
		"cmd/cubeserver",
		"internal/algebra",
		"internal/client",
		"internal/core/batchsum",
		"internal/core/blocked",
		"internal/core/maxtree",
		"internal/core/prefixsum",
		"internal/ctxcheck",
		"internal/cube",
		"internal/ingest",
		"internal/metrics",
		"internal/ndarray",
		"internal/parallel",
		"internal/persist",
		"internal/server",
		"internal/shard",
		"internal/telemetry",
		"internal/trace",
		"internal/wal",
	}
	seen := map[string]bool{}
	lines := 0
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

	got := make([]string, 0, len(seen))
	for pkg := range seen {
		got = append(got, pkg)
	}
	slices.Sort(got)
	for _, pkg := range []string{"internal/naive", "internal/conformance", "internal/harness", "internal/faultio"} {
		if seen[pkg] {
			t.Errorf("cubeserver links %s, which only tests may import", pkg)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("cubeserver's closure is %d packages:\n%s\nwant %d:\n%s", len(got), strings.Join(got, "\n"), len(want), strings.Join(want, "\n"))
	}
	t.Logf("%d packages, %d non-test lines", len(got), lines)
}
