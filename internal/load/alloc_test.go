package load

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestDispatchAllocs: heap objects per dispatched transaction, end to end
// through Run. It runs the same tenants for a horizon and for twice as long
// and divides the difference in mallocs by the difference in transactions,
// so what the two runs share (construction, warm-up, pool growth) cancels.
func TestDispatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, proto := range core.ProtocolNames() {
		t.Run(proto, func(t *testing.T) {
			run := func(horizon sim.Time) (mallocs, txns int64) {
				sys := newLoadSystem(proto, -1)
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				res, err := Run(sys, Config{Tenants: DefaultTenants(8, 42, 20), Horizon: horizon, Policy: "rr"})
				if err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return int64(after.Mallocs - before.Mallocs), int64(len(res.Records))
			}
			m1, n1 := run(4_000_000)
			m2, n2 := run(8_000_000)
			if n2 <= n1 {
				t.Fatalf("%d transactions in the longer run, %d in the shorter", n2, n1)
			}
			got := float64(m2-m1) / float64(n2-n1)
			t.Logf("%.2f heap objects per transaction (%d more transactions)", got, n2-n1)
			// What is left is message buffers on one-way flows (core/pool.go).
			// Two of the three workers are off the dispatcher's node. A
			// worker's read of its ring entry is forwarded to the dispatcher,
			// whose reply and sharing writeback both carry the entry's data:
			// two buffers out of the dispatcher's pool per such transaction.
			// Under dirinval its next store to the entry upgrades without
			// data, so only its reads of completion counters bring buffers
			// back (about 1.1 net). Under Tardis the store fetches the entry
			// with data, which returns one of the two (about 0.7 net).
			bound := 1.0
			if proto == "dirinval" {
				bound = 1.5
			}
			if got > bound {
				t.Errorf("%.2f heap objects per transaction, want at most %.1f", got, bound)
			}
		})
	}
}
