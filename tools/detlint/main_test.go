package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// lintFixture writes the files into a fresh package directory and lints it.
func lintFixture(t *testing.T, files map[string]string) []finding {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := lintDir(newLoader("", ""), dir)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func kinds(fs []finding) map[string]int {
	m := map[string]int{}
	for _, f := range fs {
		m[f.kind]++
	}
	return m
}

func TestDetlintFlagsNondeterminism(t *testing.T) {
	fs := lintFixture(t, map[string]string{"bad.go": `package fixture

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

func clock() int64 { return time.Now().UnixNano() }

func draw() int { return rand.Intn(6) }

func describe(m map[int]string) string {
	out := ""
	for k, v := range m {
		out += fmt.Sprintf("%d=%s ", k, v)
	}
	return out
}

func write(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		fmt.Fprintf(&b, "%s ", k)
	}
	return b.String()
}

func collect(m map[int]int) []int {
	var vs []int
	for _, v := range m {
		vs = append(vs, v)
	}
	return vs
}

func first(m map[string][]int) string {
	for k, vs := range m {
		name := "key " + k
		for _, v := range vs {
			if v < 0 {
				return name
			}
		}
	}
	return ""
}
`})
	got := kinds(fs)
	want := map[string]int{
		"wall-clock":             1,
		"global-rand":            1,
		"map-range-string":       1,
		"map-range-write":        1,
		"map-range-append-value": 1,
		"map-range-return":       1,
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("kind %q: %d findings, want %d\nall: %+v", k, got[k], n, fs)
		}
	}
	if len(fs) != 6 {
		t.Errorf("%d findings total, want 6: %+v", len(fs), fs)
	}
}

func TestDetlintAllowsSanctionedPatterns(t *testing.T) {
	fs := lintFixture(t, map[string]string{"good.go": `package fixture

import (
	"fmt"
	"math/rand"
	"sort"
)

// The sanctioned map-iteration pattern: collect keys, sort, then range the
// slice.
func describe(m map[int]string) string {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := ""
	for _, k := range keys {
		out += fmt.Sprintf("%d=%s ", k, m[k])
	}
	return out
}

// Explicitly seeded RNGs are fine.
func draw(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(6)
}

// Commutative accumulation over a map is order-insensitive.
func sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// So is asking whether any element qualifies, and so is a closure's return.
func anyNegative(m map[string]int) bool {
	for k, v := range m {
		less := func(i, j int) bool { return len(k) < v }
		if v < 0 && less(0, 0) {
			return true
		}
	}
	return false
}
`})
	if len(fs) != 0 {
		t.Fatalf("clean fixture produced findings: %+v", fs)
	}
}

func TestDetlintAllowDirective(t *testing.T) {
	fs := lintFixture(t, map[string]string{"allow.go": `package fixture

import "sort"

type pair struct{ k, v int }

func collect(m map[int]int) []pair {
	var ps []pair
	for k, v := range m {
		// detlint:allow — sorted below by the total key k.
		ps = append(ps, pair{k, v})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].k < ps[j].k })
	return ps
}
`})
	if len(fs) != 0 {
		t.Fatalf("allow directive ignored: %+v", fs)
	}
}

func TestDetlintSkipsTestFiles(t *testing.T) {
	fs := lintFixture(t, map[string]string{
		"code.go": `package fixture

func ok() {}
`,
		"code_test.go": `package fixture

import "time"

var when = time.Now()
`,
	})
	if len(fs) != 0 {
		t.Fatalf("test file was linted: %+v", fs)
	}
}

// TestDetlintRepoPackages is the in-repo acceptance gate: every package
// under internal/ and cmd/ stays clean. It lints the list CI lints, from the
// same `go list -f '{{.Dir}}' ./internal/... ./cmd/...`.
func TestDetlintRepoPackages(t *testing.T) {
	root, mod := findModule(".")
	if root == "" || mod == "" {
		t.Fatal("module root not found")
	}
	cmd := exec.Command("go", "list", "-f", "{{.Dir}}", "./internal/...", "./cmd/...")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	dirs := strings.Fields(string(out))
	listed := map[string]bool{}
	for _, dir := range dirs {
		rel, _ := filepath.Rel(root, dir)
		listed[filepath.ToSlash(rel)] = true
	}
	for _, want := range []string{"internal/core", "internal/sim", "internal/modelcheck", "cmd/shasta-bench"} {
		if !listed[want] {
			t.Fatalf("go list did not name %s: %v", want, dirs)
		}
	}
	l := newLoader(root, mod)
	for _, dir := range dirs {
		rel, _ := filepath.Rel(root, dir)
		fs, err := lintDir(l, dir)
		if err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		for _, f := range fs {
			t.Errorf("%s: %s: %s: %s", rel, f.pos, f.kind, f.msg)
		}
	}
}
