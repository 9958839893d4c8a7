package load

import (
	"testing"

	"repro/internal/core"
)

// TestOpenLoopQuickPointFinishes runs one quick sweep point of the
// benchmark's oltp-open workload the way its harness does: eight Poisson
// OLTP tenants at seed 4321 for 300 000 cycles of arrivals, on a system
// whose MaxTime is four times that horizon. The run must finish. While
// exited processes woke on a doubling back-off to look for work, the last
// of those wakes carried a worker's clock to 1 899 835 and the run failed
// at MaxTime with every process exited.
func TestOpenLoopQuickPointFinishes(t *testing.T) {
	const horizon = 300_000
	ts := DefaultTenants(8, 4321, 10)
	for i := range ts {
		ts[i].Arrival, ts[i].DSSFraction, ts[i].SLOCycles = "poisson", 0, 400_000
	}
	sys := core.Build(core.WithMaxTime(4 * horizon))
	cfg := Config{Tenants: ts, Horizon: horizon, Policy: "locality", Admission: "none", RowCompute: 500}
	if _, err := Run(sys, cfg); err != nil {
		t.Fatal(err)
	}
}
