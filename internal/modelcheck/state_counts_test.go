package modelcheck

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/state_counts.txt and testdata/outcomes.txt from this run")

// TestStateCounts pins the size of the reachable state space — distinct
// canonical states, transitions and depth — of every catalogue model
// (minus the broken variant) under both consistency models on both
// backends to testdata/state_counts.txt. A refactor that keeps all 32 rows
// has not added, lost or reordered a transition the models reach. It says
// less about the encoding: in the first six models the home record is a
// function of what the encoding already holds (state tables, MSHRs,
// messages in flight), so of the fields of the two encodeBlocks only
// Tardis's rts moves a row when dropped (sb tardis RC, 179 -> 143 states;
// tried field by field when the counts were first pinned). Of dirinval's
// migratory-sharing state, tried the same way when mig and mig-llsc came
// in, dropping the migratory bit moves all four dirinval rows of the two
// (mig SC 2074 -> 2025) and dropping the never bit both SC rows (mig SC
// 2074 -> 2054). The has-writer bit, the agents' granted-unwritten records
// and the owner's unwritten mark on its reply move no row: in these models
// each is a function of the owner, the state tables and the program
// counters. Tardis's SC mark (a block the home served an SC upgrade for
// keeps the base lease), encoded in place of the grown lease when leases
// began to be sized by the version's age, moves no row whether encoded or
// dropped, and neither did the grown lease and ran-out records before it;
// nor did the age rule itself move a row.
//
// Four Tardis rows were pinned again when the Tardis home began to detect
// migratory blocks. mp RC 70 -> 78 states: the explorer's in-place stores
// now run the store-hit hook for Tardis too, whose dirty stamp of such a
// store decides the timestamp its version leaves the agent with. mig SC
// 301 -> 312 and mig-llsc RC 805 -> 812 and SC 844 -> 867: a read-exclusive
// by the one agent that read a block since another's write classifies it,
// and a read of it is then granted exclusive, through the master copy, the
// home's own downgrade or a 3-hop transfer (mig RC reaches such grants and
// keeps its count). Dropping any field of the shared migratory record from
// the Tardis encoding — last writer, readers, the migratory or never bit,
// the granted-unwritten records, or the owner's unwritten mark — moves no
// Tardis row: in these models each is a function of the timestamps, the
// owner, the state tables and the program counters. No dirinval row moved
// when the record became the core's.
//
// Two dirinval rows were pinned again when an SC's store began to ride its
// grant: mig-llsc RC 1958 -> 1826 states (3915 -> 3705 transitions) and SC
// 2551 -> 2398 (4856 -> 4621). The explorer used to interleave the window
// between an SC upgrade's fill and the SC's re-check of its reservation;
// finishMiss now performs the store at the fill, so that window is gone.
// No outcome set moved.
//
// The same sweep pins each row's reachable litmus outcomes, the set
// shasta-check -json prints, to testdata/outcomes.txt: one line per model,
// protocol and consistency, the outcomes joined by " | ".
// Regenerate both with -update only when a change is meant to alter the
// protocol or the models.
func TestStateCounts(t *testing.T) {
	var counts, outcomes strings.Builder
	for _, m := range Models() {
		if m.Cfg.Broken {
			continue
		}
		for _, proto := range core.ProtocolNames() {
			for _, cons := range []core.ConsistencyModel{core.ReleaseConsistent, core.SequentiallyConsistent} {
				res := Check(m.WithProtocol(proto).WithConsistency(cons), Options{})
				if res.Violation != nil || !res.Converged {
					t.Fatalf("%s %s %s: violation %+v, converged %v", m.Name, proto, cons, res.Violation, res.Converged)
				}
				fmt.Fprintf(&counts, "%s %s %s %d %d %d\n", m.Name, proto, cons, res.States, res.Transitions, res.Depth)
				fmt.Fprintf(&outcomes, "%s %s %s %s\n", m.Name, proto, cons, strings.Join(res.Outcomes, " | "))
			}
		}
	}
	compareGolden(t, "testdata/state_counts.txt", counts.String(), "model protocol consistency states transitions depth")
	compareGolden(t, "testdata/outcomes.txt", outcomes.String(), "model protocol consistency outcomes")
}

// compareGolden checks out, one row per line, against the file at path, or
// rewrites the file under -update; legend names the columns of a row.
func compareGolden(t *testing.T, path, out, legend string) {
	t.Helper()
	if *updateGoldens {
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got := strings.Split(strings.TrimSpace(out), "\n")
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines for %d cases", path, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s:\ngot  %s (%s)\nwant %s", path, got[i], legend, want[i])
		}
	}
}
