package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestNoHandlerNests: Figure 3's 16-process runs (the nine kernels on four
// 4-CPU nodes of SMP-Shasta, message-passing and shared-memory
// synchronization), on both backends, finish with no handler stalling — a
// stall inside a handler panics (stallWhile), so no message is taken off a
// queue inside one — and end at rest, which Run checks (no message left on
// any queue, no miss, home record or downgrade record open, every MP lock
// free). No process is left waiting: none watches its queues or stalls on
// agent state.
// While a handler that sent node-mates downgrade requests waited for their
// acks, Barnes on dirinval alone handled 3 255 messages inside such waits.
func TestNoHandlerNests(t *testing.T) {
	for _, proto := range core.ProtocolNames() {
		for _, sync := range []workloads.SyncStyle{workloads.MPSync, workloads.SMSync} {
			for _, app := range workloads.All() {
				cfg := core.DefaultConfig()
				cfg.SharedBytes, cfg.MaxTime, cfg.Protocol = 4<<20, sim.Cycles(150e6), proto
				sys := core.Build(core.WithConfig(cfg))
				cell := fmt.Sprintf("%s %s %v", app.Name, proto, sync)
				if _, err := workloads.Run(sys, app, workloads.RunConfig{Procs: 16, Sync: sync}); err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				if sys.Cfg.Nodes != 4 || !sys.Cfg.SMP {
					t.Fatalf("%s: %d nodes, SMP %v, want Figure 3's four SMP nodes", cell, sys.Cfg.Nodes, sys.Cfg.SMP)
				}
				if _, onAgent := sys.OpenTransitions(); onAgent+sys.Watching() != 0 {
					t.Errorf("%s: %d processes left stalled on agent state, %d watching their queues", cell, onAgent, sys.Watching())
				}
			}
		}
	}
}
