package lintkit

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
	gotRoot, gotPath := FindModule(filepath.Join(root, "b"))
	if gotRoot != root || gotPath != "example.com/m" {
		t.Fatalf("FindModule = %q, %q; want %q, %q", gotRoot, gotPath, root, "example.com/m")
	}
}

func TestLoaderResolvesModuleImportAndSkipsTests(t *testing.T) {
	root := writeModule(t)
	l := NewLoader(FindModule(root))
	pkg, err := l.Load(filepath.Join(root, "b"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Files) != 1 || filepath.Base(l.Fset.Position(pkg.Files[0].Pos()).Filename) != "b.go" {
		t.Fatalf("loaded %d files, want b.go alone", len(pkg.Files))
	}
	var call *ast.CallExpr
	ast.Inspect(pkg.Files[0], func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			call = c
		}
		return call == nil
	})
	fn, ok := pkg.Info.Uses[call.Fun.(*ast.SelectorExpr).Sel].(*types.Func)
	if !ok || fn.Pkg().Path() != "example.com/m/a" {
		t.Fatalf("a.F resolved to %v, want a function of example.com/m/a", pkg.Info.Uses[call.Fun.(*ast.SelectorExpr).Sel])
	}
	if tv := pkg.Info.Types[call]; tv.Type == nil || tv.Type.String() != "int" {
		t.Fatalf("a.F() has type %v, want int", tv.Type)
	}
}

func TestParseAllows(t *testing.T) {
	const src = `package p

// detlint:allow — reason
var a = 1

// hotlint:allow(make,closure): reason
var b = 2
var c = 3 // hotlint:allow()
var d = 4
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	det, hot := ParseAllows(fset, f, "detlint"), ParseAllows(fset, f, "hotlint")
	for _, tc := range []struct {
		name   string
		allows Allows
		line   int
		kind   string
		want   bool
	}{
		{"bare directive, own line", det, 3, "map-range-return", true},
		{"bare directive, next line", det, 4, "wall-clock", true},
		{"bare directive, two lines on", det, 5, "wall-clock", false},
		{"another tool's directive", det, 7, "make", false},
		{"listed kind, own line", hot, 6, "make", true},
		{"listed kind, next line", hot, 7, "closure", true},
		{"unlisted kind", hot, 7, "composite", false},
		{"empty parentheses, own line", hot, 8, "composite", true},
		{"empty parentheses, next line", hot, 9, "iface-arg", true},
		{"another tool's bare directive", hot, 4, "make", false},
	} {
		if got := tc.allows.Allowed(tc.line, tc.kind); got != tc.want {
			t.Errorf("%s: Allowed(%d, %q) = %v, want %v", tc.name, tc.line, tc.kind, got, tc.want)
		}
	}
}
