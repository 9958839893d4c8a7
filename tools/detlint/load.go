package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// findModule walks up from dir to the enclosing go.mod, returning its
// directory and module path; both are empty when there is none.
func findModule(dir string) (root, path string) {
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

// loaded is one loaded package directory.
type loaded struct {
	files []*ast.File
	info  *types.Info
}

// loader loads package directories of one module. It is the types.Importer
// its type checks use: an import within the module is resolved by
// type-checking its directory, anything else through go/importer's source
// importer.
type loader struct {
	fset    *token.FileSet
	modRoot string // directory containing go.mod
	modPath string // module path from go.mod; "" resolves nothing in-module
	cache   map[string]*types.Package
	std     types.Importer
}

func newLoader(modRoot, modPath string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		modRoot: modRoot,
		modPath: modPath,
		cache:   map[string]*types.Package{},
		std:     importer.ForCompiler(fset, "source", nil),
	}
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	var pkg *types.Package
	var err error
	if l.modPath != "" && (path == l.modPath || strings.HasPrefix(path, l.modPath+"/")) {
		dir := filepath.Join(l.modRoot, strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/"))
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

// load parses the package in dir and type-checks it with the types.Info the
// rules read: Types, Defs and Uses.
func (l *loader) load(dir string) (*loaded, error) {
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
	}
	path := dir
	if l.modPath != "" {
		if rel, err := filepath.Rel(l.modRoot, dir); err == nil && !strings.HasPrefix(rel, "..") {
			path = l.modPath + "/" + filepath.ToSlash(rel)
		}
	}
	_, files, err := l.check(dir, path, info)
	if err != nil {
		return nil, err
	}
	return &loaded{files: files, info: info}, nil
}

// check parses and type-checks the non-test files of one directory; info
// is nil when the package is only imported.
func (l *loader) check(dir, path string, info *types.Info) (*types.Package, []*ast.File, error) {
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
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, fn), nil, parser.ParseComments)
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
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil && pkg == nil {
		return nil, nil, err
	}
	return pkg, files, nil
}

// allowedLines collects the lines f's `detlint:allow` directives cover: a
// directive covers its own line and the next. Each use should say why the
// construct is safe.
func allowedLines(fset *token.FileSet, f *ast.File) map[int]bool {
	out := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "detlint:allow") {
				line := fset.Position(c.Pos()).Line
				out[line], out[line+1] = true, true
			}
		}
	}
	return out
}

// isMap reports whether t, which may be nil, is a map type.
func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isString reports whether t, which may be nil, is a string type.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// builtinCall returns the name of the builtin call calls, or "". An
// identifier the type checker left unresolved counts by its name.
func builtinCall(info *types.Info, call *ast.CallExpr) string {
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

// pkgPath returns the import path of the package a selector like time.Now
// is qualified by, or "" when its receiver is not a package name.
func pkgPath(info *types.Info, sel *ast.SelectorExpr) string {
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
