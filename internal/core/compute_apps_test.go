package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// appRun is what a workload leaves behind, whichever way Compute took its
// polls.
type appRun struct {
	Elapsed sim.Time
	Clocks  []sim.Time
	Stats   []core.Stats
	Mem     []uint64
	Events  uint64
	parks   int64
}

func runBothWays(t *testing.T, name string, run func(sys *core.System) (sim.Time, error), opts ...core.Option) {
	t.Helper()
	var runs [2]appRun
	for mode, pollEach := range []bool{true, false} {
		md := trace.NewMultisetDigest()
		sys := core.Build(append([]core.Option{core.WithMaxTime(sim.Cycles(900e6)), core.WithTrace(trace.New(0, md))}, opts...)...)
		if pollEach {
			sys.PollEach()
		}
		elapsed, err := run(sys)
		if err != nil {
			t.Fatalf("%s pollEach=%v: %v", name, pollEach, err)
		}
		r := &runs[mode]
		r.Elapsed, r.Mem, r.Events = elapsed, sys.SnapshotShared(), md.Sum64()
		for _, p := range sys.Procs() {
			r.Clocks = append(r.Clocks, p.Now())
			r.Stats = append(r.Stats, *p.Stats())
		}
		r.parks = sys.Eng.SchedCounters().Parks
	}
	if diff := core.DiffExported(runs[0], runs[1]); diff != "" {
		t.Errorf("%s: %s", name, diff)
	}
	if runs[0].parks != 0 || runs[1].parks == 0 {
		t.Errorf("%s: %d parks polling, %d in closed form", name, runs[0].parks, runs[1].parks)
	}
}

// TestWorkloadsSameBothWays runs the nine kernels at 4 processes (both
// protocols, SMP- and Base-Shasta, message-passing and LL/SC synchronization,
// whose lock back-off is a Compute) and the load generator with 4 tenants,
// each with Compute one poll at a time and in closed form.
func TestWorkloadsSameBothWays(t *testing.T) {
	for _, app := range workloads.All() {
		for _, proto := range core.ProtocolNames() {
			for _, v := range []struct {
				name    string
				variant core.ProtocolVariant
				sync    workloads.SyncStyle
			}{{"smp", core.SMPShasta(), workloads.MPSync}, {"base", core.BaseShasta(), workloads.MPSync}, {"smp-llsc", core.SMPShasta(), workloads.SMSync}} {
				runBothWays(t, fmt.Sprintf("%s-%s-%s", app.Name, proto, v.name), func(sys *core.System) (sim.Time, error) {
					res, err := workloads.Run(sys, app, workloads.RunConfig{Procs: 4, Sync: v.sync})
					if err != nil {
						return 0, err
					}
					return res.Elapsed, nil
				}, core.WithVariant(v.variant), core.WithProtocol(proto))
			}
		}
	}
	for _, proto := range core.ProtocolNames() {
		runBothWays(t, "load-4-tenants-"+proto, runFourTenants, core.WithProtocol(proto), core.WithMaxTime(4*fourTenantsHorizon))
	}
}

const fourTenantsHorizon = 400_000

// runFourTenants runs the load generator with 4 tenants for 400 000 cycles
// of arrivals.
func runFourTenants(sys *core.System) (sim.Time, error) {
	ts := load.DefaultTenants(4, 1, 10)
	for i := range ts {
		// The mix of the oltp-open benchmark workload: the default
		// 16-page DSS scans livelock on one seed in ten.
		ts[i].Arrival, ts[i].DSSFraction = "poisson", 0
	}
	res, err := load.Run(sys, load.Config{Tenants: ts, Horizon: fourTenantsHorizon, Policy: "locality", RowCompute: 500})
	if err != nil {
		return 0, err
	}
	return res.Elapsed, nil
}

// TestIdleSpinsCostNoSteps: the load generator's idle workers spin on their
// ring's next stamp, which stays cached in node memory until the dispatcher
// writes it, so a spin costs a scheduler step per message, Tardis tick or
// write that may end it, not one per iteration; the warm-up fills each
// page in one block store; and the dispatcher computes toward its next
// arrival in one stretch per wake (Proc.ComputeUntil). load-4-tenants takes
// 921 steps on dirinval and 2 195 on Tardis; the bound of 2 300 fails if
// each of the dispatcher's 500-cycle chunks is a stretch of its own (2 419
// on Tardis).
func TestIdleSpinsCostNoSteps(t *testing.T) {
	const most = 2_300
	for _, proto := range core.ProtocolNames() {
		sys := core.Build(core.WithProtocol(proto), core.WithMaxTime(4*fourTenantsHorizon))
		if _, err := runFourTenants(sys); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		c := sys.Eng.SchedCounters()
		t.Logf("%s: %d steps, %d parks, %d early wakes", proto, c.Steps, c.Parks, c.EarlyWakes)
		if c.Steps > most {
			t.Errorf("%s: load-4-tenants took %d scheduler steps, want at most %d", proto, c.Steps, most)
		}
	}
}
