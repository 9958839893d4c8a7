package experiments

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/memchannel"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestWatchdogCatchesDowngradeStall is the regression test for the
// direct-downgrade-off livelock (§4.3.4/§6.5): daemon processes blocked in
// pid_block never service the downgrade requests sent to their private
// reply queues, so the requester waits forever while only the daemons'
// timed sleeps advance simulated time. Before the watchdog this run crawled
// toward MaxTime for minutes of wall clock, while protocol processes polled
// every 100 µs; now it must fail within a bounded number of simulated
// cycles and carry a protocol-state dump naming the stuck processes.
func TestWatchdogCatchesDowngradeStall(t *testing.T) {
	const budget = sim.Time(2_000_000)
	cfg := baseConfig()
	cfg.ProtocolProcs = true
	cfg.DirectDowngrade = false
	cfg.MaxTime = sim.Cycles(3000e6)
	cfg.WatchdogCycles = budget
	sys, osl := newDBSystem(cfg)
	_, err := oracleRun(sys, osl, oracleParams("dss1", 2, []int{0, 4}, 0))
	if err == nil {
		t.Fatal("DirectDowngrade=off DSS-1 run completed; expected a watchdog stall")
	}
	var se *sim.StallError
	if !errors.As(err, &se) {
		t.Fatalf("want StallError, got %T: %v", err, err)
	}
	if se.At > 100*budget {
		t.Errorf("watchdog fired at t=%d, not within a small multiple of the %d budget", se.At, budget)
	}
	msg := err.Error()
	for _, want := range []string{"protocol state", "live processes", "outstanding"} {
		if !strings.Contains(msg, want) {
			t.Errorf("stall dump missing %q:\n%s", want, msg)
		}
	}
}

// TestTotalLossTripsUnreachableNotStall: a link that drops 100% of its
// traffic must be reported by the reliability sublayer as a structured
// NodeUnreachableError — with the retry history populated — well before
// the generic stall watchdog would give up on the run. The retransmit
// budget is sized so it always exhausts first (see core.RetxMaxRetries).
func TestTotalLossTripsUnreachableNotStall(t *testing.T) {
	cfg := baseConfig()
	cfg.Faults = memchannel.FaultConfig{Seed: 1, DropProb: 1}
	app, ok := workloads.Get("LU")
	if !ok {
		t.Fatal("LU workload not registered")
	}
	sys := build(cfg)
	_, err := workloads.Run(sys, app, workloads.RunConfig{Procs: 8, Scale: 1})
	if err == nil {
		t.Fatal("run over a total-loss network completed")
	}
	var se *sim.StallError
	if errors.As(err, &se) {
		t.Fatalf("total loss tripped the generic stall watchdog, not the reliability sublayer:\n%v", err)
	}
	var ne *core.NodeUnreachableError
	if !errors.As(err, &ne) {
		t.Fatalf("want NodeUnreachableError, got %T: %v", err, err)
	}
	if ne.Attempts != core.RetxMaxRetries+1 {
		t.Errorf("attempts = %d, want %d (the full retry budget)", ne.Attempts, core.RetxMaxRetries+1)
	}
	if len(ne.RetryHistory) != ne.Attempts {
		t.Errorf("retry history has %d entries, want %d", len(ne.RetryHistory), ne.Attempts)
	}
	for i := 1; i < len(ne.RetryHistory); i++ {
		if ne.RetryHistory[i] <= ne.RetryHistory[i-1] {
			t.Fatalf("retry history not strictly increasing: %v", ne.RetryHistory)
		}
	}
	if !strings.Contains(err.Error(), "protocol state") {
		t.Errorf("unreachable error missing the protocol-state dump:\n%v", err)
	}
}
