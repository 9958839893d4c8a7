package load

import (
	"testing"

	"repro/internal/core"
)

// TestDSSMixFinishes is a seed sweep of the mix that used to wedge: 25%
// 16-page DSS scans over pages OLTP writers keep dirty, 8 tenants at 20
// transactions per Mcycle for 800 000 cycles on the default 4x4 cluster, both
// protocols (bench.QuickLoadgenCases' mix, shasta-run -tenants' too). At the
// commit before the home-local downgrade fix (DESIGN.md §8 finding 8) about
// one seed in ten never finished: a second request handled inside the home's
// own downgrade stall waited for ever, the other processes kept polling, and
// the run spun to MaxTime. MaxTime is capped at 20 horizons, nine times what
// the slowest seed needs, so that a wedge is an error within seconds, and
// its message says where (sim.MaxTimeError).
func TestDSSMixFinishes(t *testing.T) {
	const horizon = 800_000
	seeds := int64(30)
	if testing.Short() {
		seeds = 6
	}
	for _, proto := range []string{"dirinval", "tardis"} {
		for seed := int64(1); seed <= seeds; seed++ {
			ts := DefaultTenants(8, seed, 20)
			for i := range ts {
				ts[i].DSSFraction, ts[i].DSSPages = 0.25, 16
			}
			sys := core.Build(core.WithProtocol(proto), core.WithMaxTime(20*horizon),
				core.WithConfigure(func(cfg *core.Config) { cfg.SharedBytes = 4 << 20 }))
			res, err := Run(sys, Config{Tenants: ts, Horizon: horizon, Policy: "locality", RowCompute: 500})
			if err != nil {
				t.Errorf("%s seed %d: %.2000v", proto, seed, err)
				continue
			}
			if len(res.Records) != res.Arrivals {
				t.Errorf("%s seed %d: %d of %d transactions completed", proto, seed, len(res.Records), res.Arrivals)
			}
		}
	}
}
