package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/tools/lintkit"
)

// fixtureDir returns the absolute path of the fixture package.
func fixtureDir(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("testdata", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// analyzeFixture runs the static analysis over the fixture package.
func analyzeFixture(t *testing.T) (*analyzer, []*funcInfo, []finding) {
	t.Helper()
	dir := fixtureDir(t)
	root, mod := lintkit.FindModule(dir)
	if root == "" || mod == "" {
		t.Fatalf("no module found above %s", dir)
	}
	a := newAnalyzer(root, mod)
	if err := a.load(dir); err != nil {
		t.Fatalf("load: %v", err)
	}
	hot := a.hotClosure()
	return a, hot, a.lint(hot)
}

func countBy(findings []finding, f func(finding) string) map[string]int {
	out := map[string]int{}
	for _, fd := range findings {
		out[f(fd)]++
	}
	return out
}

func TestHotClosure(t *testing.T) {
	_, hot, _ := analyzeFixture(t)
	got := map[string]bool{}
	for _, fi := range hot {
		got[fi.short] = true
	}
	for _, want := range []string{"Root", "Allowed", "StackProven", "Escaping", "suffix", "box", "sinkBig", "callee"} {
		if !got[want] {
			t.Errorf("hot closure is missing %s (have %v)", want, got)
		}
	}
	for _, never := range []string{"coldCallee", "NotHot"} {
		if got[never] {
			t.Errorf("hot closure wrongly contains %s", never)
		}
	}
}

func TestFindingKinds(t *testing.T) {
	_, _, findings := analyzeFixture(t)
	kinds := countBy(findings, func(f finding) string { return f.kind })
	want := map[string]int{
		"make":          3, // Root, callee, StackProven (Allowed suppressed, coldCallee cold, NotHot unreachable)
		"new":           1,
		"append-growth": 1,
		"composite":     3, // &big{} in Root, []int literal in Root, &big{} in Escaping
		"string-concat": 1, // the panic argument concat must be skipped
		"string-conv":   1,
		"iface-arg":     1,
		"iface-call":    1,
		"closure":       1,
		"map-write":     2, // assignment + increment
		"big-copy":      1,
	}
	for k, n := range want {
		if kinds[k] != n {
			t.Errorf("kind %s: got %d findings, want %d", k, kinds[k], n)
		}
	}
	if kinds["escape"] != 0 {
		t.Errorf("static pass must not produce escape findings, got %d", kinds["escape"])
	}
}

func TestAttributionAndSuppression(t *testing.T) {
	_, _, findings := analyzeFixture(t)
	byFn := countBy(findings, func(f finding) string { return f.fn })
	if byFn["Allowed"] != 0 {
		t.Errorf("hotlint:allow failed: %d finding(s) in Allowed", byFn["Allowed"])
	}
	if byFn["coldCallee"] != 0 || byFn["NotHot"] != 0 {
		t.Errorf("cold/unreachable functions reported: coldCallee=%d NotHot=%d",
			byFn["coldCallee"], byFn["NotHot"])
	}
	if byFn["callee"] != 1 {
		t.Errorf("closure walk: callee should carry exactly its own make finding, got %d", byFn["callee"])
	}
}

func TestBaselineGate(t *testing.T) {
	a, _, findings := analyzeFixture(t)
	counts := map[string]int{}
	for _, f := range findings {
		counts[f.key(a.ModRoot)]++
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := writeBaseline(path, counts); err != nil {
		t.Fatal(err)
	}
	base, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := newAgainstBaseline(findings, base, a.ModRoot); len(n) != 0 {
		t.Errorf("full baseline should suppress everything, got %d new", len(n))
	}
	// Remove one key: all its instances become new again.
	var victim string
	for k := range base.Findings {
		if victim == "" || k < victim {
			victim = k
		}
	}
	removed := base.Findings[victim]
	delete(base.Findings, victim)
	n := newAgainstBaseline(findings, base, a.ModRoot)
	if len(n) != removed {
		t.Errorf("removing key %q (count %d) should yield %d new findings, got %d",
			victim, removed, removed, len(n))
	}
	// Keys must be line-free so reformatting does not invalidate them.
	for k := range base.Findings {
		parts := strings.Split(k, ":")
		if len(parts) < 4 {
			t.Errorf("baseline key %q does not have file:func:kind:detail shape", k)
		}
	}
}

// TestRunEndToEnd drives the run() entry point the way CI does.
func TestRunEndToEnd(t *testing.T) {
	dir := fixtureDir(t)
	path := filepath.Join(t.TempDir(), "baseline.json")
	var buf bytes.Buffer
	// Without a baseline: findings fail.
	if code := run([]string{dir}, "", false, &buf); code != 1 {
		t.Fatalf("run without baseline: got exit %d, want 1\n%s", code, buf.String())
	}
	// Write a baseline, then the same findings pass.
	buf.Reset()
	if code := run([]string{dir}, path, true, &buf); code != 0 {
		t.Fatalf("write-baseline: got exit %d\n%s", code, buf.String())
	}
	buf.Reset()
	if code := run([]string{dir}, path, false, &buf); code != 0 {
		t.Fatalf("run with full baseline: got exit %d, want 0\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "0 new") {
		t.Errorf("baseline run should report 0 new findings:\n%s", buf.String())
	}
}
