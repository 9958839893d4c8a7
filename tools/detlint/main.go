// Command detlint is the repository's determinism linter. The simulator's
// core guarantee — identical results for identical seeds, across engines
// and protocols — is easy to break with three innocuous Go idioms, none of
// which the compiler or vet objects to:
//
//   - wall-clock time (time.Now and friends) leaking into simulated state
//     or output;
//   - the process-global math/rand source, which is shared, unseeded (or
//     racily seeded) and order-dependent, instead of an explicitly seeded
//     rand.New(rand.NewSource(seed));
//   - order-sensitive accumulation inside a map range: Go randomizes map
//     iteration order per run, so building strings, writing to buffers, or
//     collecting the *values* into a slice inside `for k, v := range m`
//     produces run-dependent results. (Collecting just the keys and
//     sorting them afterwards is the sanctioned pattern and is not
//     flagged.) Returning from inside a map range is order-sensitive too
//     when what is returned depends on the key or value: which element
//     is found first is up to the runtime.
//
// detlint type-checks the named package directories using only the
// standard library: imports within this module are resolved by
// type-checking their directories recursively, everything else through
// go/importer's source importer. Test files are skipped. Any finding makes
// the exit status 1.
//
// Usage: detlint DIR...
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
	"sort"
	"strings"
)

type finding struct {
	pos  token.Position
	kind string
	msg  string
}

type linter struct {
	fset    *token.FileSet
	modRoot string // directory containing go.mod
	modPath string // module path from go.mod
	cache   map[string]*types.Package
	std     types.Importer
}

func newLinter(modRoot, modPath string) *linter {
	fset := token.NewFileSet()
	return &linter{
		fset:    fset,
		modRoot: modRoot,
		modPath: modPath,
		cache:   map[string]*types.Package{},
		std:     importer.ForCompiler(fset, "source", nil),
	}
}

// Import implements types.Importer over the hybrid resolution scheme.
func (l *linter) Import(path string) (*types.Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.modPath != "" && (path == l.modPath || strings.HasPrefix(path, l.modPath+"/")) {
		dir := filepath.Join(l.modRoot, strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/"))
		pkg, _, _, err := l.check(dir, path, nil)
		if err != nil {
			return nil, err
		}
		l.cache[path] = pkg
		return pkg, nil
	}
	pkg, err := l.std.Import(path)
	if err != nil {
		return nil, err
	}
	l.cache[path] = pkg
	return pkg, nil
}

// check parses and type-checks one package directory. Test files are
// ignored; info may be nil when the caller only needs the package for an
// import.
func (l *linter) check(dir, path string, info *types.Info) (*types.Package, []*ast.File, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, "", err
	}
	var files []*ast.File
	var name string
	for _, e := range entries {
		fn := e.Name()
		if e.IsDir() || !strings.HasSuffix(fn, ".go") || strings.HasSuffix(fn, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, fn), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, "", err
		}
		if f.Name.Name == "main" && path != "main" {
			// A command directory imported by path would not type-check as
			// a library; commands are only ever named directly.
			path = "main"
		}
		name = f.Name.Name
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil, "", fmt.Errorf("no Go files in %s", dir)
	}
	conf := types.Config{
		Importer: l,
		Error:    func(error) {}, // best-effort: keep partial type info
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil && pkg == nil {
		return nil, nil, "", err
	}
	return pkg, files, name, nil
}

// lintDir type-checks and lints one directory, returning its findings.
func (l *linter) lintDir(dir string) ([]finding, error) {
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
	}
	importPath := dir
	if l.modPath != "" {
		if rel, err := filepath.Rel(l.modRoot, dir); err == nil && !strings.HasPrefix(rel, "..") {
			importPath = l.modPath + "/" + filepath.ToSlash(rel)
		}
	}
	_, files, _, err := l.check(dir, importPath, info)
	if err != nil {
		return nil, err
	}
	var out []finding
	for _, f := range files {
		out = append(out, lintFile(l.fset, f, info)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return out, nil
}

// pkgOf resolves a selector like time.Now to its package path, when the
// receiver is a package name.
func pkgOf(info *types.Info, sel *ast.SelectorExpr) string {
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

// statefulRand is the set of math/rand package-level functions backed by
// the shared global source. Constructors (New, NewSource, NewZipf) are the
// sanctioned alternative and stay legal.
var statefulRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

func lintFile(fset *token.FileSet, f *ast.File, info *types.Info) []finding {
	// A comment containing "detlint:allow" suppresses findings on its own
	// line and the next — for provably-sound cases the heuristics cannot
	// see (e.g. collecting map values that are sorted by a total key
	// immediately afterwards). Each use should say why it is safe.
	allowed := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "detlint:allow") {
				line := fset.Position(c.Pos()).Line
				allowed[line] = true
				allowed[line+1] = true
			}
		}
	}
	var out []finding
	add := func(n ast.Node, kind, format string, args ...any) {
		pos := fset.Position(n.Pos())
		if allowed[pos.Line] {
			return
		}
		out = append(out, finding{pos: pos, kind: kind, msg: fmt.Sprintf(format, args...)})
	}

	isMapRange := func(rs *ast.RangeStmt) bool {
		tv, ok := info.Types[rs.X]
		if !ok || tv.Type == nil {
			return false
		}
		_, isMap := tv.Type.Underlying().(*types.Map)
		return isMap
	}
	isString := func(e ast.Expr) bool {
		tv, ok := info.Types[e]
		if !ok || tv.Type == nil {
			return false
		}
		b, ok := tv.Type.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}

	// lintMapRangeBody flags order-sensitive accumulation in the body of a
	// range over a map, whose value variable (if any) is val.
	lintMapRangeBody := func(body *ast.BlockStmt, val *ast.Ident) {
		valObj := info.Defs[val] // nil for `=` ranges and when val is nil
		usesVal := func(e ast.Expr) bool {
			if val == nil {
				return false
			}
			found := false
			ast.Inspect(e, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == val.Name &&
					(valObj == nil || info.Uses[id] == valObj) {
					found = true
				}
				return !found
			})
			return found
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				// String concatenation accumulates in iteration order.
				if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(n.Lhs[0]) {
					add(n, "map-range-string", "string built up inside a map range: iteration order is randomized — collect and sort the keys first")
				}
			case *ast.CallExpr:
				switch fun := n.Fun.(type) {
				case *ast.SelectorExpr:
					// Writes into a stream or builder are order-sensitive.
					if p := pkgOf(info, fun); p == "fmt" && strings.HasPrefix(fun.Sel.Name, "Fprint") {
						add(n, "map-range-write", "fmt.%s inside a map range: iteration order is randomized — collect and sort the keys first", fun.Sel.Name)
					}
					switch fun.Sel.Name {
					case "WriteString", "WriteByte", "WriteRune":
						add(n, "map-range-write", "%s inside a map range: iteration order is randomized — collect and sort the keys first", fun.Sel.Name)
					}
				case *ast.Ident:
					// Appending the *value* leaks iteration order into the
					// slice; appending just the key (then sorting) is the
					// sanctioned pattern.
					_, isBuiltin := info.Uses[fun].(*types.Builtin)
					if fun.Name == "append" && (isBuiltin || info.Uses[fun] == nil) && len(n.Args) > 1 {
						for _, a := range n.Args[1:] {
							if usesVal(a) {
								add(n, "map-range-append-value", "map value appended to a slice inside a map range: the slice order is randomized — iterate sorted keys instead")
								break
							}
						}
					}
				}
			}
			return true
		})
	}

	// lintMapRangeReturns flags a return inside a map range whose results
	// use the key, the value, or a local the body derived from them: which
	// element is returned depends on iteration order. A local is derived if
	// it is assigned from, or ranges over, something that already is.
	lintMapRangeReturns := func(rs *ast.RangeStmt) {
		derived := map[types.Object]bool{}
		changed := false
		mark := func(e ast.Expr) {
			if id, ok := e.(*ast.Ident); ok {
				if obj := info.ObjectOf(id); obj != nil && !derived[obj] {
					derived[obj] = true
					changed = true
				}
			}
		}
		uses := func(n ast.Node) bool {
			found := false
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && derived[info.ObjectOf(id)] {
					found = true
				}
				return !found
			})
			return found
		}
		for _, e := range []ast.Expr{rs.Key, rs.Value} {
			if e != nil {
				mark(e)
			}
		}
		for changed {
			changed = false
			ast.Inspect(rs.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, r := range n.Rhs {
						if uses(r) {
							for _, l := range n.Lhs {
								mark(l)
							}
							break
						}
					}
				case *ast.ValueSpec:
					for _, v := range n.Values {
						if uses(v) {
							for _, name := range n.Names {
								mark(name)
							}
							break
						}
					}
				case *ast.RangeStmt:
					if uses(n.X) {
						for _, e := range []ast.Expr{n.Key, n.Value} {
							if e != nil {
								mark(e)
							}
						}
					}
				}
				return true
			})
		}
		ast.Inspect(rs.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // its returns leave the literal, not the range
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					if uses(r) {
						add(n, "map-range-return", "return inside a map range uses its key or value: which element is returned depends on the randomized iteration order — iterate sorted keys instead")
						break
					}
				}
			}
			return true
		})
	}

	// Pass 1: wall-clock time and the global RNG, anywhere in the file.
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch pkgOf(info, sel) {
		case "time":
			switch sel.Sel.Name {
			case "Now", "Since", "Until":
				add(call, "wall-clock", "time.%s in simulation code: wall-clock time is nondeterministic — derive time from the simulated clock", sel.Sel.Name)
			}
		case "math/rand":
			if statefulRand[sel.Sel.Name] {
				add(call, "global-rand", "rand.%s uses the shared global source: seed an explicit rand.New(rand.NewSource(seed)) instead", sel.Sel.Name)
			}
		}
		return true
	})

	// Pass 2: order-sensitive accumulation inside map ranges. Nested map
	// ranges get visited twice (once per enclosing range); duplicate
	// findings are collapsed below.
	ast.Inspect(f, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || !isMapRange(rs) {
			return true
		}
		var val *ast.Ident
		if id, ok := rs.Value.(*ast.Ident); ok && id.Name != "_" {
			val = id
		}
		lintMapRangeBody(rs.Body, val)
		lintMapRangeReturns(rs)
		return true
	})

	seen := map[string]bool{}
	dedup := out[:0]
	for _, fd := range out {
		key := fmt.Sprintf("%s|%s", fd.pos, fd.kind)
		if !seen[key] {
			seen[key] = true
			dedup = append(dedup, fd)
		}
	}
	return dedup
}

// findModule walks up from dir to the enclosing go.mod, returning its
// directory and module path.
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

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: detlint DIR...")
		os.Exit(2)
	}
	dirs := os.Args[1:]
	root, mod := findModule(dirs[0])
	l := newLinter(root, mod)
	bad := false
	for _, dir := range dirs {
		abs, err := filepath.Abs(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "detlint: %v\n", err)
			os.Exit(2)
		}
		fs, err := l.lintDir(abs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "detlint: %s: %v\n", dir, err)
			os.Exit(2)
		}
		for _, fd := range fs {
			bad = true
			fmt.Printf("%s: %s: %s\n", fd.pos, fd.kind, fd.msg)
		}
	}
	if bad {
		os.Exit(1)
	}
}
