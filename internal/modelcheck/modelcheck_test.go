package modelcheck

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func mustModel(t *testing.T, name string) Model {
	t.Helper()
	m, err := ModelByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestExhaustive2p1b is the headline acceptance check: the 2-process,
// 1-block configuration is explored to convergence under both
// consistency models with every invariant (and bounded liveness)
// holding on the unmodified protocol.
func TestExhaustive2p1b(t *testing.T) {
	for _, cons := range []core.ConsistencyModel{core.ReleaseConsistent, core.SequentiallyConsistent} {
		m := mustModel(t, "2p1b").WithConsistency(cons)
		res := Check(m, Options{Liveness: true})
		if res.Violation != nil {
			t.Fatalf("%s/%s: unexpected violation: %+v", m.Name, res.Consistency, res.Violation)
		}
		if !res.Converged {
			t.Fatalf("%s/%s: exploration did not converge (states=%d depth=%d)",
				m.Name, res.Consistency, res.States, res.Depth)
		}
		if res.States < 10 {
			t.Fatalf("%s/%s: implausibly few states: %d", m.Name, res.Consistency, res.States)
		}
		t.Logf("%s/%s: states=%d transitions=%d depth=%d outcomes=%v",
			m.Name, res.Consistency, res.States, res.Transitions, res.Depth, res.Outcomes)
	}
}

func TestExhaustiveSmallModels(t *testing.T) {
	for _, name := range []string{"2p2b", "llsc"} {
		for _, cons := range []core.ConsistencyModel{core.ReleaseConsistent, core.SequentiallyConsistent} {
			m := mustModel(t, name).WithConsistency(cons)
			res := Check(m, Options{Liveness: true})
			if res.Violation != nil {
				t.Fatalf("%s/%s: unexpected violation: %+v", name, res.Consistency, res.Violation)
			}
			if !res.Converged {
				t.Fatalf("%s/%s: did not converge (states=%d)", name, res.Consistency, res.States)
			}
			t.Logf("%s/%s: states=%d transitions=%d depth=%d outcomes=%v",
				name, res.Consistency, res.States, res.Transitions, res.Depth, res.Outcomes)
		}
	}
}

func TestExhaustive3p1b(t *testing.T) {
	if testing.Short() {
		t.Skip("3-process exploration is slow in -short mode")
	}
	// SC is the regression half: its retried-store cycles only close now
	// that the canonical encoding excludes the monotonic ghost counters.
	for _, cons := range []core.ConsistencyModel{core.ReleaseConsistent, core.SequentiallyConsistent} {
		m := mustModel(t, "3p1b").WithConsistency(cons)
		res := Check(m, Options{})
		if res.Violation != nil {
			t.Fatalf("%s: violation: %+v", res.Consistency, res.Violation)
		}
		if !res.Converged {
			t.Fatalf("%s: did not converge (states=%d depth=%d)", res.Consistency, res.States, res.Depth)
		}
		t.Logf("3p1b/%s: states=%d transitions=%d depth=%d",
			res.Consistency, res.States, res.Transitions, res.Depth)
	}
}

// TestCheckLeavesNoGoroutine: an explorer process's body runs on a
// coroutine of its own, so Check must close every explorer it replays.
// Full sweeps of 3p1b and mig-llsc on both backends, which park bodies in
// stalls and between operations, leave the goroutine count where it was.
func TestCheckLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, name := range []string{"3p1b", "mig-llsc"} {
		for _, proto := range core.ProtocolNames() {
			res := Check(mustModel(t, name).WithProtocol(proto), Options{})
			if res.Violation != nil || !res.Converged {
				t.Fatalf("%s %s: converged %t, violation %+v", name, proto, res.Converged, res.Violation)
			}
		}
	}
	for i := 0; i < 100 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the sweeps, %d before", n, base)
	}
}

// TestLitmusOutcomes cross-validates the model checker against the
// memory-model specification: the exact set of reachable litmus
// outcomes under each consistency model.
func TestLitmusOutcomes(t *testing.T) {
	cases := []struct {
		model string
		cons  core.ConsistencyModel
		want  []string
	}{
		// p1 observes (ry, rx): ry=1 && rx=0 is the relaxed outcome,
		// forbidden under SC.
		{"mp", core.SequentiallyConsistent, []string{
			"p0:[];p1:[0 0]", "p0:[];p1:[0 1]", "p0:[];p1:[1 1]",
		}},
		{"mp", core.ReleaseConsistent, []string{
			"p0:[];p1:[0 0]", "p0:[];p1:[0 1]", "p0:[];p1:[1 0]", "p0:[];p1:[1 1]",
		}},
		// Store buffering: both loads reading 0 is forbidden under SC.
		{"sb", core.SequentiallyConsistent, []string{
			"p0:[0];p1:[1]", "p0:[1];p1:[0]", "p0:[1];p1:[1]",
		}},
		{"sb", core.ReleaseConsistent, []string{
			"p0:[0];p1:[0]", "p0:[0];p1:[1]", "p0:[1];p1:[0]", "p0:[1];p1:[1]",
		}},
	}
	for _, tc := range cases {
		m := mustModel(t, tc.model).WithConsistency(tc.cons)
		res := Check(m, Options{})
		if res.Violation != nil {
			t.Fatalf("%s/%s: violation: %+v", tc.model, res.Consistency, res.Violation)
		}
		if !res.Converged {
			t.Fatalf("%s/%s: did not converge", tc.model, res.Consistency)
		}
		got := strings.Join(res.Outcomes, " | ")
		want := strings.Join(tc.want, " | ")
		if got != want {
			t.Errorf("%s/%s outcomes:\n got  %s\n want %s", tc.model, res.Consistency, got, want)
		}
	}
}

// TestBrokenVariantCounterexample checks that the deliberately broken
// protocol (requester forgets one InvalAck) yields a stable minimal
// counterexample, that Replay confirms it, and that the path matches
// the golden file.
func TestBrokenVariantCounterexample(t *testing.T) {
	m := mustModel(t, "broken-upgrade")
	res := Check(m, Options{})
	if res.Violation == nil {
		t.Fatal("broken variant explored clean; expected a violation")
	}
	v := res.Violation
	if v.Invariant != "swmr" && v.Invariant != "data-value" && v.Invariant != "dir-agreement" {
		t.Fatalf("unexpected invariant %q (detail: %s)", v.Invariant, v.Detail)
	}
	if len(v.Path) == 0 {
		t.Fatal("violation has no counterexample path")
	}
	// Deterministic replay must reproduce the same violation.
	rv, events, err := Replay(m, v.Path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rv == nil {
		t.Fatalf("replay of counterexample %v did not reproduce a violation", v.Path)
	}
	if rv.Invariant != v.Invariant {
		t.Fatalf("replay reproduced %q, search found %q", rv.Invariant, v.Invariant)
	}
	if len(events) == 0 {
		t.Fatal("replay produced no trace events")
	}

	got := v.Invariant + "\n" + strings.Join(v.Path, "\n") + "\n"
	golden := filepath.Join("testdata", "broken-upgrade.counterexample")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file: %v\n(counterexample was:\n%s)", err, got)
	}
	if got != string(want) {
		t.Errorf("counterexample drifted from golden file %s:\n got:\n%s\n want:\n%s",
			golden, got, want)
	}
}

// TestReplayCleanPrefix: replaying a prefix of a counterexample (all
// but the final action) must NOT violate — i.e. the counterexample is
// tight at its final transition.
func TestReplayCleanPrefix(t *testing.T) {
	m := mustModel(t, "broken-upgrade")
	res := Check(m, Options{})
	if res.Violation == nil {
		t.Fatal("expected a violation")
	}
	prefix := res.Violation.Path[:len(res.Violation.Path)-1]
	rv, _, err := Replay(m, prefix, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rv != nil {
		t.Fatalf("prefix already violates (%s); counterexample is not minimal", rv.Invariant)
	}
}

// TestDisabledInvariant: with swmr/data-value/dir-agreement disabled the
// broken model must instead surface the stray InvalAck as a panic or
// run into another invariant — it must never explore clean.
func TestDisabledInvariant(t *testing.T) {
	m := mustModel(t, "broken-upgrade")
	res := Check(m, Options{Disabled: map[string]bool{
		"swmr": true, "data-value": true, "dir-agreement": true,
	}})
	if res.Violation == nil {
		t.Fatal("broken variant explored clean with safety invariants disabled; expected a stray-ack panic")
	}
	t.Logf("surfaced as %q: %s", res.Violation.Invariant, res.Violation.Detail)
}

func TestModelByNameUnknown(t *testing.T) {
	if _, err := ModelByName("no-such-model"); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestMaxStatesTruncates(t *testing.T) {
	m := mustModel(t, "2p1b")
	res := Check(m, Options{MaxStates: 5})
	if res.Converged {
		t.Fatal("expected truncated run to report Converged=false")
	}
}
