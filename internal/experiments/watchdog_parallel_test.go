package experiments

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// stallSystem builds a two-node system with a genuine livelock: the
// process on node 0 lets simulated time pass without ever charging work
// (the watchdog's definition of a stall), while the process on node 1
// performs real work for a while and then parks forever, so it is still
// live when the dump is taken. Under the parallel engine the drifter's
// shard trips its local watchdog early — before the anchor's work is
// visible to it — and the coordinator must resync it at the barrier
// against global progress, confirming the stall only once the whole
// system has genuinely stopped progressing.
func stallSystem(workers int) error {
	cfg := core.DefaultConfig()
	cfg.Nodes = 2
	cfg.CPUsPerNode = 1
	cfg.WatchdogCycles = 200_000
	cfg.MaxTime = 50_000_000 // backstop: a missed stall fails, not hangs
	opts := append([]core.Option{core.WithConfig(cfg)}, EngineOptions(workers)...)
	sys := core.Build(opts...)
	sys.Spawn("drifter", 0, func(p *core.Proc) {
		for {
			p.Sim.NotifyAt(p.Now() + 1000)
			p.Sim.Block()
		}
	})
	sys.Spawn("anchor", 1, func(p *core.Proc) {
		for i := 0; i < 20_000; i++ {
			p.Sim.Advance(100)
		}
		p.Sim.Wait() // park forever; stays live for the dump
	})
	return sys.Run()
}

// TestWatchdogStallConfirmedAtBarrierParallel is the regression test for
// torn watchdog dumps under the parallel engine. A shard-local watchdog
// trip parks the shard (sim.WindowStall) instead of dumping mid-window;
// the coordinator confirms or clears it at the window barrier, where
// every shard is parked and staged effects are committed. The test pins
// three properties:
//
//  1. A false alarm resyncs: the drifter's shard trips long before the
//     anchor stops working (its local progress mark never moves), and the
//     run must continue until global progress genuinely halts.
//  2. The confirmed dump is a consistent global snapshot: it lists live
//     processes from both shards, not just the tripping one.
//  3. Detection is deterministic and engine-invariant: both engines
//     report the same stall time and last-progress time.
func TestWatchdogStallConfirmedAtBarrierParallel(t *testing.T) {
	seqErr := stallSystem(-1)
	parErr := stallSystem(4)
	for _, tc := range []struct {
		name string
		err  error
	}{{"sequential", seqErr}, {"parallel", parErr}} {
		if tc.err == nil {
			t.Fatalf("%s: livelock run completed; expected a watchdog stall", tc.name)
		}
		var se *sim.StallError
		if !errors.As(tc.err, &se) {
			t.Fatalf("%s: want StallError, got %T: %v", tc.name, tc.err, tc.err)
		}
		// The anchor finishes its charged work at t≈2M; a stall confirmed
		// before that means a false alarm was not resynced at the barrier.
		if se.LastProgress < 1_900_000 {
			t.Errorf("%s: stall confirmed at last-progress %d; false alarm not resynced against global progress",
				tc.name, se.LastProgress)
		}
		msg := tc.err.Error()
		for _, want := range []string{"drifter", "anchor", "live processes", "cpus"} {
			if !strings.Contains(msg, want) {
				t.Errorf("%s: stall dump missing %q:\n%s", tc.name, want, msg)
			}
		}
	}
	var seSeq, sePar *sim.StallError
	errors.As(seqErr, &seSeq)
	errors.As(parErr, &sePar)
	if seSeq.At != sePar.At || seSeq.LastProgress != sePar.LastProgress {
		t.Errorf("stall detection diverges across engines: sequential (at=%d, last=%d) vs parallel (at=%d, last=%d)",
			seSeq.At, seSeq.LastProgress, sePar.At, sePar.LastProgress)
	}
	if seSeq.Budget != sePar.Budget {
		t.Errorf("budget differs: %d vs %d", seSeq.Budget, sePar.Budget)
	}
}
