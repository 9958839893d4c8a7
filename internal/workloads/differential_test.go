package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/kernel_digests.txt from this run")

// TestKernelDigests pins, for the nine kernels on both protocols and both
// agent layouts at 4 processes, the completion time, a digest of
// AggregateStats and a digest of SnapshotShared to the values committed in
// testdata/kernel_digests.txt (recorded on the commit before agent memory
// became sized to the allocated prefix). A change to how the system lays
// out or constructs memory must not move any of them. Regenerate with
// -update only when a change is meant to alter simulated behaviour.
func TestKernelDigests(t *testing.T) {
	const path = "testdata/kernel_digests.txt"
	var out strings.Builder
	for _, app := range All() {
		for _, proto := range core.ProtocolNames() {
			for _, v := range []struct {
				name    string
				variant core.ProtocolVariant
			}{{"smp", core.SMPShasta()}, {"base", core.BaseShasta()}} {
				sys := core.Build(core.WithMaxTime(sim.Cycles(900e6)),
					core.WithVariant(v.variant), core.WithProtocol(proto))
				res, err := Run(sys, app, RunConfig{Procs: 4})
				if err != nil {
					t.Fatalf("%s %s %s: %v", app.Name, proto, v.name, err)
				}
				stats := sha256.Sum256([]byte(fmt.Sprintf("%v", sys.AggregateStats())))
				mem := sha256.New()
				var word [8]byte
				for _, w := range sys.SnapshotShared() {
					binary.LittleEndian.PutUint64(word[:], w)
					mem.Write(word[:])
				}
				fmt.Fprintf(&out, "%s-%s-%s %d %x %x\n", app.Name, proto, v.name,
					res.Elapsed, stats[:8], mem.Sum(nil)[:8])
			}
		}
	}
	if *updateGoldens {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines for %d cases", path, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("got  %s (case cycles stats mem)\nwant %s", got[i], want[i])
		}
	}
}

// TestKernelRunAllocationBounded guards short runs against paying for the
// whole shared region again: Barnes at one process allocates 48 KB of
// shared memory, and building the default 4-node system, running it and
// tearing it down must allocate no more than a small multiple of
// agents x that (2.5x when written; 100x when every agent's image was
// sized to SharedBytes).
func TestKernelRunAllocationBounded(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys := core.Build()
	if _, err := Run(sys, Barnes(), RunConfig{Procs: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	agents, shared := sys.Cfg.Nodes, len(sys.SnapshotShared())*8
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*agents*shared); got > limit {
		t.Errorf("run allocated %d bytes for %d shared bytes on %d agents, want at most %d", got, shared, agents, limit)
	}
}

// TestLookaheadWindowsSaveSteps pins the two things that keep a process
// running where strict global order switched at nearly every Advance.
// Lookahead windows: on eight single-CPU nodes (517 242 scheduler steps for
// Barnes at scale 4 under Tardis in global order, 99 073 in windows) each
// node runs a wire latency past the others before it yields. And Compute in
// closed form: on four 4-CPU nodes, where a node's processes hem each other
// in and windows alone left Barnes at 455 131 steps and Raytrace at 140 572,
// a stretch of polls that find nothing is one step, not one per poll. It
// must not cost the eight single-CPU nodes anything, whose shards hold one
// process each. The cycles are the ones recorded before either change.
func TestLookaheadWindowsSaveSteps(t *testing.T) {
	for _, c := range []struct {
		app      *App
		opts     []core.Option
		procs    int
		elapsed  sim.Time
		maxSteps int64
	}{
		{Barnes(), []core.Option{core.WithProcs(8, 1), core.WithVariant(core.BaseShasta()), core.WithProtocol("tardis")},
			8, 51510240, 99073 * 101 / 100},
		{Barnes(), []core.Option{core.WithProcs(4, 4), core.WithVariant(core.SMPShasta())}, 16, 35062201, 455131 * 10 / 18},
		{Raytrace(), []core.Option{core.WithProcs(4, 4), core.WithVariant(core.SMPShasta())}, 16, 6371876, 140572 / 3},
	} {
		sys := core.Build(append(c.opts, core.WithMaxTime(sim.Cycles(900e6)))...)
		res, err := Run(sys, c.app, RunConfig{Procs: c.procs, Scale: 4})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s at %d procs", c.app.Name, c.procs)
		if res.Elapsed != c.elapsed {
			t.Errorf("%s: elapsed %d cycles, want %d", name, res.Elapsed, c.elapsed)
		}
		n := sys.Eng.SchedCounters()
		if n.Steps > c.maxSteps || n.Steps != n.Switches+n.SelfPicks {
			t.Errorf("%s: %d scheduler steps (%d switches + %d self-picks), want at most %d", name, n.Steps, n.Switches, n.SelfPicks, c.maxSteps)
		}
		if n.Windows == 0 || n.HorizonClamps == 0 {
			t.Errorf("%s: %d windows, %d horizon clamps for %d steps", name, n.Windows, n.HorizonClamps, n.Steps)
		}
		if n.Parks == 0 || n.EarlyWakes == 0 || n.EarlyWakes > n.Parks || n.Parks > n.Steps {
			t.Errorf("%s: %d parks, %d early wakes for %d steps", name, n.Parks, n.EarlyWakes, n.Steps)
		}
	}
}
