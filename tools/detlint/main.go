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
// detlint parses and type-checks the named package directories with the
// standard library alone (load.go), skipping test files. Any finding makes
// the exit status 1.
//
// Usage: detlint DIR...
package main

import (
	"fmt"
	"go/ast"
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

// lintDir type-checks and lints one directory, returning its findings.
func lintDir(l *loader, dir string) ([]finding, error) {
	pkg, err := l.load(dir)
	if err != nil {
		return nil, err
	}
	var out []finding
	for _, f := range pkg.files {
		out = append(out, lintFile(l.fset, f, pkg.info)...)
	}
	// Report order: by file, then offset, then kind.
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Offset != b.pos.Offset {
			return a.pos.Offset < b.pos.Offset
		}
		return a.kind < b.kind
	})
	return out, nil
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
	// A detlint:allow comment is for provably-sound cases the heuristics
	// cannot see (e.g. collecting map values that are sorted by a total key
	// immediately afterwards).
	allowed := allowedLines(fset, f)
	var out []finding
	add := func(n ast.Node, kind, format string, args ...any) {
		pos := fset.Position(n.Pos())
		if allowed[pos.Line] {
			return
		}
		out = append(out, finding{pos: pos, kind: kind, msg: fmt.Sprintf(format, args...)})
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
				if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(info.Types[n.Lhs[0]].Type) {
					add(n, "map-range-string", "string built up inside a map range: iteration order is randomized — collect and sort the keys first")
				}
			case *ast.CallExpr:
				switch fun := n.Fun.(type) {
				case *ast.SelectorExpr:
					// Writes into a stream or builder are order-sensitive.
					if p := pkgPath(info, fun); p == "fmt" && strings.HasPrefix(fun.Sel.Name, "Fprint") {
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
					if builtinCall(info, n) == "append" && len(n.Args) > 1 {
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
		switch pkgPath(info, sel) {
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
		if !ok || !isMap(info.Types[rs.X].Type) {
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

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: detlint DIR...")
		os.Exit(2)
	}
	dirs := os.Args[1:]
	l := newLoader(findModule(dirs[0]))
	bad := false
	for _, dir := range dirs {
		abs, err := filepath.Abs(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "detlint: %v\n", err)
			os.Exit(2)
		}
		fs, err := lintDir(l, abs)
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
