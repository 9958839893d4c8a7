// Command hotlint is the repository's hot-path allocation linter. The
// simulator's message/miss path runs millions of times per benchmark run;
// a single heap allocation per event dominates the host-side profile long
// before any simulated cost does. hotlint makes the zero-allocation
// discipline on those paths checkable:
//
//   - a `//hot:path` directive line in a function's doc comment roots an
//     intra-module call-closure walk: the function and everything it
//     (transitively) calls inside the analyzed directories is hot;
//   - a `//hot:cold` directive cuts the walk: the marked function is
//     never entered even when called from hot code (panic formatting,
//     error paths, one-time setup);
//   - within hot code, every allocation-shaped construct is reported:
//     make/new, address-taken or reference-typed composite literals,
//     append growth, non-constant string concatenation and string<->[]byte
//     conversions, boxing a concrete value into an interface parameter,
//     calls through interface values (whose arguments escape), closures,
//     map writes, and pass-by-value copies of 100+ byte values.
//
// Arguments to panic() are skipped — a panicking path is cold by
// definition. A `hotlint:allow(kind,...)` comment suppresses the named
// kinds on its own line and the next; each use should say why the
// construct is safe (pool cold paths, bounded tables).
//
// Findings are compared against a committed baseline (-baseline) keyed
// without line numbers, so the tool fails CI only on NEW findings while
// the recorded debt is paid down incrementally. -write-baseline records
// the current findings.
//
// hotlint loads the named package directories through tools/lintkit, which
// uses only the standard library and skips test files. New findings make
// the exit status 1; usage or analysis errors make it 2.
//
// Usage: hotlint [-baseline file] [-write-baseline] DIR...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/tools/lintkit"
)

// bigCopyBytes is the pass-by-value size threshold: copying this many
// bytes per call is treated as allocation-shaped work on a hot path.
const bigCopyBytes = 100

type finding struct {
	pos    token.Position
	fn     string // containing hot function, short form (Recv.Name)
	kind   string
	detail string // short, line-free description used in baseline keys
	msg    string
}

// key is the line-free baseline identity of a finding: moving code around
// must not invalidate the baseline, adding a new construct must.
func (f finding) key(modRoot string) string {
	file := f.pos.Filename
	if rel, err := filepath.Rel(modRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return file + ":" + f.fn + ":" + f.kind + ":" + f.detail
}

// funcInfo is one function declaration found in the analyzed set.
type funcInfo struct {
	info     *types.Info    // its package's
	allows   lintkit.Allows // its file's hotlint:allow directives
	decl     *ast.FuncDecl
	fullName string // types.Func.FullName — stable across re-checks
	short    string // Recv.Name or Name
	hot      bool   // //hot:path directive
	cold     bool   // //hot:cold directive
}

type analyzer struct {
	*lintkit.Loader
	sizes types.Sizes
	decls map[string]*funcInfo // keyed by fullName
}

func newAnalyzer(modRoot, modPath string) *analyzer {
	sizes := types.SizesFor("gc", runtime.GOARCH)
	if sizes == nil {
		sizes = &types.StdSizes{WordSize: 8, MaxAlign: 8}
	}
	return &analyzer{
		Loader: lintkit.NewLoader(modRoot, modPath),
		sizes:  sizes,
		decls:  map[string]*funcInfo{},
	}
}

// load type-checks one target directory and indexes its function
// declarations (and directives) into the analyzer.
func (a *analyzer) load(dir string) error {
	pkg, err := a.Load(dir)
	if err != nil {
		return err
	}
	for _, f := range pkg.Files {
		allows := lintkit.ParseAllows(a.Fset, f, "hotlint")
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &funcInfo{
				info:     pkg.Info,
				allows:   allows,
				decl:     fd,
				fullName: obj.FullName(),
				short:    shortName(fd),
				hot:      hasDirective(fd.Doc, "//hot:path"),
				cold:     hasDirective(fd.Doc, "//hot:cold"),
			}
			a.decls[fi.fullName] = fi
		}
	}
	return nil
}

func shortName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

func hasDirective(doc *ast.CommentGroup, dir string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == dir {
			return true
		}
	}
	return false
}

// hotClosure computes the set of hot functions: every //hot:path root
// plus everything transitively called from one inside the analyzed set,
// stopping at //hot:cold marks. Returns the hot funcInfos in a stable
// order (file, then position).
func (a *analyzer) hotClosure() []*funcInfo {
	names := make([]string, 0, len(a.decls))
	for name := range a.decls {
		names = append(names, name)
	}
	sort.Strings(names)
	var work []*funcInfo
	seen := map[string]bool{}
	for _, name := range names {
		if fi := a.decls[name]; fi.hot {
			work = append(work, fi)
			seen[fi.fullName] = true
		}
	}
	var hot []*funcInfo
	for len(work) > 0 {
		fi := work[len(work)-1]
		work = work[:len(work)-1]
		hot = append(hot, fi)
		for _, callee := range a.callees(fi) {
			c := a.decls[callee]
			if c == nil || c.cold || seen[c.fullName] {
				continue
			}
			seen[c.fullName] = true
			work = append(work, c)
		}
	}
	lintkit.SortByPos(hot, func(fi *funcInfo) (token.Position, string) { return a.Fset.Position(fi.decl.Pos()), "" })
	return hot
}

// callees returns the full names of statically resolvable calls in fi's
// body. Calls through interface values resolve to interface methods,
// which have no declaration in the analyzed set and terminate the walk
// there (and are flagged separately as iface-call findings).
func (a *analyzer) callees(fi *funcInfo) []string {
	info := fi.info
	var out []string
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if lintkit.BuiltinCall(info, call) == "panic" {
			return false // panic arguments are cold by definition
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if f, ok := info.Uses[fun].(*types.Func); ok {
				out = append(out, f.FullName())
			}
		case *ast.SelectorExpr:
			if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
				out = append(out, f.FullName())
			}
		}
		return true
	})
	return out
}

// typeStr renders a type without package qualification, for stable and
// readable finding details.
func typeStr(t types.Type) string {
	if t == nil {
		return "?"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// lint reports the allocation-shaped constructs in the hot functions, in
// report order.
func (a *analyzer) lint(hot []*funcInfo) []finding {
	var out []finding
	for _, fi := range hot {
		out = append(out, a.lintFunc(fi)...)
	}
	lintkit.SortByPos(out, func(f finding) (token.Position, string) { return f.pos, f.kind })
	return out
}

// lintFunc reports the allocation-shaped constructs in one hot function.
func (a *analyzer) lintFunc(fi *funcInfo) []finding {
	info := fi.info
	var out []finding
	add := func(n ast.Node, kind, detail, format string, args ...any) {
		pos := a.Fset.Position(n.Pos())
		if fi.allows.Allowed(pos.Line, kind) {
			return
		}
		out = append(out, finding{
			pos: pos, fn: fi.short, kind: kind, detail: detail,
			msg: fmt.Sprintf(format, args...),
		})
	}

	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if lintkit.BuiltinCall(info, n) == "panic" {
				return false
			}
			a.lintCall(fi, n, add)
		case *ast.CompositeLit:
			// Reference-typed literals allocate their backing store
			// unconditionally; struct/array literals only when their
			// address is taken (handled at the UnaryExpr below).
			tv, ok := info.Types[n]
			if !ok || tv.Type == nil {
				break
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				add(n, "composite", typeStr(tv.Type), "slice literal %s allocates its backing array", typeStr(tv.Type))
			case *types.Map:
				add(n, "composite", typeStr(tv.Type), "map literal %s allocates", typeStr(tv.Type))
			}
		case *ast.UnaryExpr:
			if n.Op != token.AND {
				break
			}
			if cl, ok := n.X.(*ast.CompositeLit); ok {
				tv := info.Types[cl]
				add(n, "composite", typeStr(tv.Type), "&%s{...} may escape to the heap — pool it or hoist it", typeStr(tv.Type))
			}
		case *ast.FuncLit:
			add(n, "closure", "func-literal", "closure on a hot path: the function value and its captures may allocate")
		case *ast.BinaryExpr:
			if n.Op != token.ADD {
				break
			}
			// Constant-folded concats are free.
			if tv := info.Types[n]; tv.Value == nil && lintkit.IsString(tv.Type) {
				add(n, "string-concat", "concat", "string concatenation allocates — precompute the string or index a name table")
			}
		case *ast.AssignStmt:
			a.lintAssign(info, n, add)
		case *ast.IncDecStmt:
			if ix, ok := n.X.(*ast.IndexExpr); ok && lintkit.IsMap(info.Types[ix.X].Type) {
				add(n, "map-write", "index", "map write on a hot path: bucket growth allocates — preallocate or use a slice-backed table")
			}
		}
		return true
	})
	return out
}

func (a *analyzer) lintAssign(info *types.Info, n *ast.AssignStmt, add func(ast.Node, string, string, string, ...any)) {
	for _, lhs := range n.Lhs {
		if ix, ok := lhs.(*ast.IndexExpr); ok && lintkit.IsMap(info.Types[ix.X].Type) {
			add(n, "map-write", "index", "map write on a hot path: bucket growth allocates — preallocate or use a slice-backed table")
		}
	}
	if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && lintkit.IsString(info.Types[n.Lhs[0]].Type) {
		add(n, "string-concat", "concat", "string concatenation allocates — precompute the string or index a name table")
	}
}

// lintCall reports the allocation-shaped aspects of one call: allocating
// builtins, string conversions, interface boxing, interface dispatch, and
// large pass-by-value copies.
func (a *analyzer) lintCall(fi *funcInfo, call *ast.CallExpr, add func(ast.Node, string, string, string, ...any)) {
	info := fi.info

	// Builtins.
	if name := lintkit.BuiltinCall(info, call); name != "" {
		t := typeStr(info.Types[call].Type)
		switch name {
		case "make":
			add(call, "make", t, "make(%s) on a hot path — take from a pool or preallocate", t)
		case "new":
			add(call, "new", t, "new(%s) on a hot path — take from a pool or preallocate", t)
		case "append":
			add(call, "append-growth", t, "append may grow %s on a hot path — preallocate capacity or reuse via [:0]", t)
		}
		return
	}

	// Conversions: only string<->[]byte/[]rune copy and allocate.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		src := info.Types[call.Args[0]].Type
		if src != nil && stringBytesConv(src, dst) {
			add(call, "string-conv", typeStr(dst), "%s(...) conversion copies and allocates on a hot path", typeStr(dst))
		}
		return
	}

	// Interface method dispatch: the callee is unknown to the compiler,
	// so pointer arguments (including the receiver) escape.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
			if types.IsInterface(s.Recv().Underlying()) {
				add(call, "iface-call", sel.Sel.Name, "call through interface method %s: arguments escape (unknown callee) — devirtualize with a type switch on the known backends", sel.Sel.Name)
			}
			// Large value receivers are copied per call.
			if sig, ok := s.Obj().Type().(*types.Signature); ok && sig.Recv() != nil {
				rt := sig.Recv().Type()
				if _, ptr := rt.Underlying().(*types.Pointer); !ptr && !types.IsInterface(rt.Underlying()) {
					if sz := a.sizes.Sizeof(rt); sz >= bigCopyBytes {
						add(call, "big-copy", typeStr(rt), "method call copies %d-byte receiver %s — use a pointer receiver", sz, typeStr(rt))
					}
				}
			}
		}
	}

	// Interface boxing and big copies at the parameters.
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				if i == params.Len()-1 {
					pt = params.At(params.Len() - 1).Type()
				}
			} else {
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		at := info.Types[arg].Type
		if at == nil {
			continue
		}
		if types.IsInterface(pt.Underlying()) && !types.IsInterface(at.Underlying()) {
			if b, ok := at.Underlying().(*types.Basic); !ok || b.Kind() != types.UntypedNil {
				add(arg, "iface-arg", typeStr(at), "%s boxed into interface parameter: the value escapes and may allocate", typeStr(at))
			}
			continue
		}
		switch pt.Underlying().(type) {
		case *types.Pointer, *types.Interface, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Basic:
			continue
		}
		if sz := a.sizes.Sizeof(pt); sz >= bigCopyBytes {
			add(arg, "big-copy", typeStr(pt), "call copies %d-byte %s by value — pass a pointer", sz, typeStr(pt))
		}
	}
}

func stringBytesConv(src, dst types.Type) bool {
	isByteish := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		e, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
	}
	return (lintkit.IsString(src) && isByteish(dst)) || (isByteish(src) && lintkit.IsString(dst))
}

// ---- baseline ----

type baseline struct {
	Version  int            `json:"version"`
	Findings map[string]int `json:"findings"`
}

func loadBaseline(path string) (*baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return &baseline{Version: 1, Findings: map[string]int{}}, nil
		}
		return nil, err
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, err
	}
	if b.Findings == nil {
		b.Findings = map[string]int{}
	}
	return &b, nil
}

func writeBaseline(path string, counts map[string]int) error {
	b := baseline{Version: 1, Findings: counts}
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// newAgainstBaseline returns the findings whose baseline key count
// exceeds the recorded count (all instances of an exceeded key, so the
// report is actionable).
func newAgainstBaseline(findings []finding, base *baseline, modRoot string) []finding {
	counts := map[string]int{}
	for _, f := range findings {
		counts[f.key(modRoot)]++
	}
	var out []finding
	for _, f := range findings {
		k := f.key(modRoot)
		if counts[k] > base.Findings[k] {
			out = append(out, f)
		}
	}
	return out
}

// run executes the full analysis; separated from main for tests.
func run(dirs []string, baselinePath string, writeBase bool, stdout io.Writer) int {
	abs := make([]string, len(dirs))
	for i, d := range dirs {
		a, err := filepath.Abs(d)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hotlint: %v\n", err)
			return 2
		}
		abs[i] = a
	}
	a := newAnalyzer(lintkit.FindModule(abs[0]))
	root := a.ModRoot
	for _, d := range abs {
		if err := a.load(d); err != nil {
			fmt.Fprintf(os.Stderr, "hotlint: %s: %v\n", d, err)
			return 2
		}
	}
	hot := a.hotClosure()
	findings := a.lint(hot)

	counts := map[string]int{}
	for _, f := range findings {
		counts[f.key(root)]++
	}
	if writeBase {
		if err := writeBaseline(baselinePath, counts); err != nil {
			fmt.Fprintf(os.Stderr, "hotlint: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "hotlint: wrote %d finding key(s) to %s\n", len(counts), baselinePath)
		return 0
	}

	report := findings
	if baselinePath != "" {
		base, err := loadBaseline(baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hotlint: %v\n", err)
			return 2
		}
		report = newAgainstBaseline(findings, base, root)
		if n := len(findings) - len(report); n > 0 {
			fmt.Fprintf(stdout, "hotlint: %d finding(s) matched the baseline %s\n", n, baselinePath)
		}
	}
	for _, f := range report {
		fmt.Fprintf(stdout, "%s: %s: [%s] %s: %s\n", f.pos, f.fn, f.kind, f.msg, "key="+f.key(root))
	}
	fmt.Fprintf(stdout, "hotlint: %d hot function(s), %d finding(s), %d new\n", len(hot), len(findings), len(report))
	if len(report) > 0 {
		return 1
	}
	return 0
}

func main() {
	baselinePath := flag.String("baseline", "", "baseline JSON file; only findings not in the baseline fail")
	writeBase := flag.Bool("write-baseline", false, "record current findings into -baseline and exit 0")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: hotlint [-baseline file] [-write-baseline] DIR...")
		os.Exit(2)
	}
	if *writeBase && *baselinePath == "" {
		fmt.Fprintln(os.Stderr, "hotlint: -write-baseline requires -baseline")
		os.Exit(2)
	}
	os.Exit(run(flag.Args(), *baselinePath, *writeBase, os.Stdout))
}
