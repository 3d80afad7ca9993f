package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite SIZES.txt from this run")

// sizesFile is the golden size ledger, beside COUNTS.txt.
var sizesFile = filepath.Join(root, "SIZES.txt")

// TestSizeLedger holds the code's shape to SIZES.txt, as TestCountLedger
// holds the counted work to COUNTS.txt: non-test and test lines, exported
// identifiers and go statements per package of the module and of bench/
// (read here, never built), the serving closure, the server's Options and
// Server fields, routes and /metrics families, cubeserver's flags, the CI
// stages and the size of each root document in ledgerDocs. Every row comes from go/parser and
// file reads, so the file is the same on every box, at any GOMAXPROCS and
// under -race. A change that moves a row fails here until
// `go test ./cmd/cubeserver -run TestSizeLedger -update` rewrites the file,
// and review sees the diff.
func TestSizeLedger(t *testing.T) {
	got := sizeRows(t)
	if *update {
		if err := os.WriteFile(sizesFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(sizesFile)
	if err != nil {
		t.Fatal(err)
	}
	gotRows, wantRows := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gotRows), len(wantRows)) {
		if gotRows[i] != wantRows[i] {
			t.Fatalf("SIZES.txt line %d:\n got %q\nwant %q", i+1, gotRows[i], wantRows[i])
		}
	}
	if len(gotRows) != len(wantRows) {
		t.Fatalf("the ledger has %d rows, SIZES.txt %d", len(gotRows), len(wantRows))
	}
}

// pkgSize is one package directory's row, and its parsed non-test files.
type pkgSize struct {
	lines, testLines, exported, goStmts int
	files                               []*ast.File
}

func sizeRows(t *testing.T) string {
	pkgs := scanPackages(t)
	var b strings.Builder
	row := func(key string, v any) { fmt.Fprintf(&b, "%-34s %v\n", key, v) }

	fmt.Fprintf(&b, "%-34s %6s %6s %8s %3s\n", "# package", "lines", "test", "exported", "go")
	names := make([]string, 0, len(pkgs))
	for name := range pkgs {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		p := pkgs[name]
		fmt.Fprintf(&b, "%-34s %6d %6d %8d %3d\n", name, p.lines, p.testLines, p.exported, p.goStmts)
	}
	row("internal/server+shard lines", fmt.Sprintf("%d (bar <= 4383)", pkgs["internal/server"].lines+pkgs["internal/shard"].lines))

	closure, lines := servingClosure(t)
	for _, pkg := range closure {
		row("closure", pkg)
	}
	row("closure packages", len(closure))
	row("closure lines", fmt.Sprintf("%d (bar <= 11500)", lines))

	srv := pkgs["internal/server"].files
	row("server.Options fields", structFields(t, srv, "Options"))
	row("server.Server fields", structFields(t, srv, "Server"))
	routes, families, flags := 0, 0, 0
	for _, f := range srv {
		ast.Inspect(f, func(n ast.Node) bool {
			if name, sel, arg, ok := literalCall(n); ok {
				routes += b2i(sel == "Handle" || sel == "HandleFunc")
				families += b2i(name == "reg" && strings.HasPrefix(arg, "cube_"))
			}
			return true
		})
	}
	for _, f := range pkgs["cmd/cubeserver"].files {
		ast.Inspect(f, func(n ast.Node) bool {
			if name, sel, _, ok := literalCall(n); ok && (name == "fs" || name == "flag") {
				flags += b2i(slices.Contains([]string{"Bool", "Duration", "Float64", "Int", "Int64", "String", "Uint", "Uint64"}, sel))
			}
			return true
		})
	}
	row("server routes", routes)
	row("server /metrics families", families)
	row("cubeserver flags", flags)

	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	stages := 0
	for _, line := range strings.Split(string(ci), "\n") {
		stages += b2i(strings.HasPrefix(strings.TrimSpace(line), "- name:"))
	}
	row("ci stages", stages)

	for _, name := range ledgerDocs {
		info, err := os.Stat(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		row("KB "+name, (info.Size()+512)/1024)
	}
	return b.String()
}

// ledgerDocs are the root documents the ledger sizes, in name order; a new
// document joins the ledger by being named here. ROADMAP.md is not one: a
// re-anchor rewrites it alone, and a row pinning its size would fail that.
var ledgerDocs = []string{
	"CHANGES.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md", "PAPERS.md",
	"README.md", "SNIPPETS.md", "TESTING.md",
}

// scanPackages reads every .go file under the repository root, bench/
// included, skipping hidden and testdata directories, and sizes each
// directory's package.
func scanPackages(t *testing.T) map[string]*pkgSize {
	pkgs := map[string]*pkgSize{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if key == "." {
			key = "rangecube"
		}
		p := pkgs[key]
		if p == nil {
			p = &pkgSize{}
			pkgs[key] = p
		}
		n := bytes.Count(src, []byte("\n"))
		if strings.HasSuffix(name, "_test.go") {
			p.testLines += n
			return nil
		}
		p.lines += n
		f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		p.files = append(p.files, f)
		p.exported += exportedNames(f)
		ast.Inspect(f, func(n ast.Node) bool {
			_, ok := n.(*ast.GoStmt)
			p.goStmts += b2i(ok)
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// exportedNames counts a file's exported top-level types, functions,
// variables and constants, and the exported methods of its exported types.
func exportedNames(f *ast.File) (n int) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && (d.Recv == nil || ast.IsExported(typeName(d.Recv.List[0].Type))) {
				n++
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					n += b2i(s.Name.IsExported())
				case *ast.ValueSpec:
					for _, id := range s.Names {
						n += b2i(id.IsExported())
					}
				}
			}
		}
	}
	return n
}

// typeName is the name of a method receiver's type.
func typeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// structFields counts the field names of the named struct type.
func structFields(t *testing.T, files []*ast.File, typ string) (n int) {
	for _, f := range files {
		ast.Inspect(f, func(node ast.Node) bool {
			if s, ok := node.(*ast.TypeSpec); ok && s.Name.Name == typ {
				for _, fl := range s.Type.(*ast.StructType).Fields.List {
					n += max(len(fl.Names), 1)
				}
			}
			return true
		})
	}
	if n == 0 {
		t.Fatalf("no struct %s", typ)
	}
	return n
}

// literalCall matches a call x.sel("lit", ...) and returns x, sel and lit.
func literalCall(n ast.Node) (x, sel, lit string, ok bool) {
	c, isCall := n.(*ast.CallExpr)
	if !isCall || len(c.Args) == 0 {
		return "", "", "", false
	}
	s, isSel := c.Fun.(*ast.SelectorExpr)
	a, isLit := c.Args[0].(*ast.BasicLit)
	if !isSel || !isLit || a.Kind != token.STRING {
		return "", "", "", false
	}
	if id, isIdent := s.X.(*ast.Ident); isIdent {
		x = id.Name
	}
	lit, _ = strconv.Unquote(a.Value)
	return x, s.Sel.Name, lit, true
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
