// Package lintkit is what the repository's Go linters (tools/detlint,
// tools/hotlint) share: the module finder, the package loader, the
// `<tool>:allow` directive parser, the report order and the type
// predicates their rules test. It uses only the standard library. A
// package directory is parsed with go/parser and type-checked with
// go/types; imports within the module are resolved by type-checking their
// directories, everything else through go/importer's source importer.
// Test files are skipped.
package lintkit

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// FindModule walks up from dir to the enclosing go.mod, returning its
// directory and module path; both are empty when there is none.
func FindModule(dir string) (root, path string) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", ""
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if strings.HasPrefix(line, "module ") {
					return d, strings.TrimSpace(strings.TrimPrefix(line, "module "))
				}
			}
			return d, ""
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", ""
		}
		d = parent
	}
}

// Package is one loaded package directory.
type Package struct {
	Files []*ast.File
	Info  *types.Info
}

// Loader loads package directories of one module. It is the
// types.Importer its type checks use.
type Loader struct {
	Fset    *token.FileSet
	ModRoot string // directory containing go.mod
	ModPath string // module path from go.mod; "" resolves nothing in-module
	cache   map[string]*types.Package
	std     types.Importer
}

// NewLoader returns a loader for the module at modRoot with path modPath.
func NewLoader(modRoot, modPath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		ModRoot: modRoot,
		ModPath: modPath,
		cache:   map[string]*types.Package{},
		std:     importer.ForCompiler(fset, "source", nil),
	}
}

// Import implements types.Importer: an in-module path by type-checking its
// directory, anything else through the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	var pkg *types.Package
	var err error
	if l.ModPath != "" && (path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/")) {
		dir := filepath.Join(l.ModRoot, strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/"))
		pkg, _, err = l.check(dir, path, nil)
	} else {
		pkg, err = l.std.Import(path)
	}
	if err != nil {
		return nil, err
	}
	l.cache[path] = pkg
	return pkg, nil
}

// Load parses the package in dir and type-checks it with full types.Info:
// Types, Defs, Uses and Selections.
func (l *Loader) Load(dir string) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	path := dir
	if l.ModPath != "" {
		if rel, err := filepath.Rel(l.ModRoot, dir); err == nil && !strings.HasPrefix(rel, "..") {
			path = l.ModPath + "/" + filepath.ToSlash(rel)
		}
	}
	_, files, err := l.check(dir, path, info)
	if err != nil {
		return nil, err
	}
	return &Package{Files: files, Info: info}, nil
}

// check parses and type-checks the non-test files of one directory; info
// is nil when the package is only imported.
func (l *Loader) check(dir, path string, info *types.Info) (*types.Package, []*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		fn := e.Name()
		if e.IsDir() || !strings.HasSuffix(fn, ".go") || strings.HasSuffix(fn, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, fn), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		if f.Name.Name == "main" {
			// A command does not type-check as a library under its
			// directory's path; commands are only ever named directly.
			path = "main"
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("no Go files in %s", dir)
	}
	conf := types.Config{
		Importer: l,
		Error:    func(error) {}, // best-effort: keep partial type info
	}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil && pkg == nil {
		return nil, nil, err
	}
	return pkg, files, nil
}

// Allows maps a line to the finding kinds a directive suppresses there;
// "*" stands for every kind.
type Allows map[int]map[string]bool

// ParseAllows collects f's `<tool>:allow` and `<tool>:allow(kind,...)`
// directives. A bare directive or empty parentheses allow every kind, and
// a directive covers its own line and the next. Each use should say why
// the construct is safe.
func ParseAllows(fset *token.FileSet, f *ast.File, tool string) Allows {
	re := regexp.MustCompile(regexp.QuoteMeta(tool) + `:allow(?:\(([^)]*)\))?`)
	out := Allows{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := re.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			kinds := map[string]bool{}
			for _, k := range strings.Split(m[1], ",") {
				if k = strings.TrimSpace(k); k != "" {
					kinds[k] = true
				}
			}
			if len(kinds) == 0 {
				kinds["*"] = true
			}
			line := fset.Position(c.Pos()).Line
			for _, ln := range []int{line, line + 1} {
				if out[ln] == nil {
					out[ln] = map[string]bool{}
				}
				for k := range kinds {
					out[ln][k] = true
				}
			}
		}
	}
	return out
}

// Allowed reports whether a finding of kind on line is suppressed.
func (a Allows) Allowed(line int, kind string) bool {
	return a[line][kind] || a[line]["*"]
}

// SortByPos sorts xs into report order: by file, then offset, then kind.
// key returns an element's position and kind.
func SortByPos[T any](xs []T, key func(T) (token.Position, string)) {
	sort.SliceStable(xs, func(i, j int) bool {
		a, ak := key(xs[i])
		b, bk := key(xs[j])
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Offset != b.Offset {
			return a.Offset < b.Offset
		}
		return ak < bk
	})
}

// IsMap reports whether t, which may be nil, is a map type.
func IsMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// IsString reports whether t, which may be nil, is a string type.
func IsString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// BuiltinCall returns the name of the builtin call calls, or "". An
// identifier the type checker left unresolved counts by its name.
func BuiltinCall(info *types.Info, call *ast.CallExpr) string {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return ""
	}
	switch info.Uses[id].(type) {
	case *types.Builtin, nil:
		return id.Name
	}
	return ""
}

// PkgPath returns the import path of the package a selector like time.Now
// is qualified by, or "" when its receiver is not a package name.
func PkgPath(info *types.Info, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}
