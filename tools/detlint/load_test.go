package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"testing"
)

// writeModule lays out a two-package module: b imports a, and b's test
// file would not type-check if it were loaded.
func writeModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod":      "module example.com/m\n\ngo 1.22\n",
		"a/a.go":      "package a\n\nfunc F() int { return 1 }\n",
		"b/b.go":      "package b\n\nimport \"example.com/m/a\"\n\nvar X = a.F()\n",
		"b/b_test.go": "package b\n\nvar Y undefined\n",
	}
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestFindModuleFromNestedDir(t *testing.T) {
	root := writeModule(t)
	gotRoot, gotPath := findModule(filepath.Join(root, "b"))
	if gotRoot != root || gotPath != "example.com/m" {
		t.Fatalf("findModule = %q, %q; want %q, %q", gotRoot, gotPath, root, "example.com/m")
	}
}

func TestLoaderResolvesModuleImportAndSkipsTests(t *testing.T) {
	root := writeModule(t)
	l := newLoader(findModule(root))
	pkg, err := l.load(filepath.Join(root, "b"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.files) != 1 || filepath.Base(l.fset.Position(pkg.files[0].Pos()).Filename) != "b.go" {
		t.Fatalf("loaded %d files, want b.go alone", len(pkg.files))
	}
	var call *ast.CallExpr
	ast.Inspect(pkg.files[0], func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			call = c
		}
		return call == nil
	})
	fn, ok := pkg.info.Uses[call.Fun.(*ast.SelectorExpr).Sel].(*types.Func)
	if !ok || fn.Pkg().Path() != "example.com/m/a" {
		t.Fatalf("a.F resolved to %v, want a function of example.com/m/a", pkg.info.Uses[call.Fun.(*ast.SelectorExpr).Sel])
	}
	if tv := pkg.info.Types[call]; tv.Type == nil || tv.Type.String() != "int" {
		t.Fatalf("a.F() has type %v, want int", tv.Type)
	}
}

func TestParseAllows(t *testing.T) {
	const src = `package p

// detlint:allow — reason
var a = 1

var b = 2
var c = 3 // detlint:allow — reason
var d = 4

// otherlint:allow — reason
var e = 5
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	allowed := allowedLines(fset, f)
	for _, tc := range []struct {
		name string
		line int
		want bool
	}{
		{"own line", 3, true},
		{"next line", 4, true},
		{"two lines on", 5, false},
		{"line before a trailing directive", 6, false},
		{"trailing directive, own line", 7, true},
		{"trailing directive, next line", 8, true},
		{"another tool's directive", 10, false},
		{"after another tool's directive", 11, false},
	} {
		if got := allowed[tc.line]; got != tc.want {
			t.Errorf("%s: line %d allowed = %v, want %v", tc.name, tc.line, got, tc.want)
		}
	}
}
