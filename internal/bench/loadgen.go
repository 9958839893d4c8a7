// Loadgen sweep: open-loop multi-tenant traffic against the database
// environment, swept over tenant count until the latency knee, for every
// coherence backend. This is the ROADMAP's "millions of users" measurement:
// the sweep holds per-tenant rate constant and adds tenants until the DSM
// protocol — not the database — is the bottleneck, and the report records
// where each protocol saturates (the knee) and what the service time is
// made of on either side of it.
package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/sim"
	"repro/internal/sim/parallel"
)

// LoadgenPoint is one sweep point: a tenant count on one protocol.
type LoadgenPoint struct {
	Tenants  int   `json:"tenants"`
	Offered  int64 `json:"offered"`
	Admitted int64 `json:"admitted"`
	Shed     int64 `json:"shed"`
	// Latency percentiles over admitted transactions, simulated cycles.
	P50 sim.Time `json:"p50"`
	P95 sim.Time `json:"p95"`
	P99 sim.Time `json:"p99"`
	// SLOAttainMean is the mean per-tenant SLO attainment (admitted
	// basis); SLOOfferedMean counts sheds as misses.
	SLOAttainMean  float64 `json:"slo_attain_mean"`
	SLOOfferedMean float64 `json:"slo_offered_mean"`
	// Mean per-transaction service breakdown: database compute vs
	// protocol stalls (miss + message + membar) vs sync (latch) stalls.
	MeanDB   sim.Time `json:"mean_db"`
	MeanProt sim.Time `json:"mean_prot"`
	MeanSync sim.Time `json:"mean_sync"`
	// Per-kind mean breakdown: the aggregate means move with the admitted
	// OLTP/DSS mix, so the saturation verdict compares like with like.
	OLTPDB   sim.Time `json:"oltp_db"`
	OLTPProt sim.Time `json:"oltp_prot"`
	DSSDB    sim.Time `json:"dss_db"`
	DSSProt  sim.Time `json:"dss_prot"`
	WallMS   float64  `json:"wall_ms"`
	// Tenants' individual metrics (name, percentiles, attainment).
	PerTenant []load.TenantMetrics `json:"per_tenant"`
}

// LoadgenSweep is one protocol's full sweep plus the knee verdict.
type LoadgenSweep struct {
	Protocol string         `json:"protocol"`
	Points   []LoadgenPoint `json:"points"`
	// KneeTenants is the first swept tenant count whose p99 exceeds
	// kneeFactor x the first point's p99 (0 = no knee inside the sweep).
	KneeTenants int `json:"knee_tenants"`
	// ProtocolBound reports the saturation evidence at the knee: protocol
	// stalls dominate database compute there, and per-OLTP-transaction
	// protocol stalls grew faster than per-OLTP-transaction compute did
	// (the database is not what saturated). The growth comparison is
	// per-kind on purpose: aggregate means shift with the admitted mix.
	ProtocolBound bool `json:"protocol_bound"`
	// ProtGrowth / DBGrowth are the knee-vs-baseline per-OLTP growth
	// factors the verdict is derived from.
	ProtGrowth float64 `json:"prot_growth"`
	DBGrowth   float64 `json:"db_growth"`
}

// LoadgenReport is the BENCH_PR10.json envelope.
type LoadgenReport struct {
	Suite      string `json:"suite"`
	HostCPUs   int    `json:"host_cpus"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// Workers is the simulated worker count (CPUs minus the dispatcher).
	Workers       int      `json:"workers"`
	Policy        string   `json:"policy"`
	Admission     string   `json:"admission"`
	RatePerMCycle float64  `json:"rate_per_mcycle"`
	Horizon       sim.Time `json:"horizon"`
	Seed          int64    `json:"seed"`
	// EnginesAgree is the determinism spot check: the first sweep point
	// re-run on the parallel engine produced identical records & metrics.
	EnginesAgree bool           `json:"engines_agree"`
	Sweeps       []LoadgenSweep `json:"sweeps"`
}

// kneeFactor: a point is past the knee once its p99 exceeds this multiple
// of the lightest point's p99.
const kneeFactor = 4.0

// LoadgenCases parameterizes the sweep.
type LoadgenCases struct {
	TenantCounts  []int
	RatePerMCycle float64
	Horizon       sim.Time
	Seed          int64
}

// DefaultLoadgenCases sweeps from a lightly loaded cluster well past the
// 15-worker saturation point.
func DefaultLoadgenCases() LoadgenCases {
	return LoadgenCases{
		TenantCounts:  []int{4, 8, 16, 32, 64},
		RatePerMCycle: 10,
		Horizon:       2_000_000,
		Seed:          1234,
	}
}

// QuickLoadgenCases is the CI smoke variant: two light points.
func QuickLoadgenCases() LoadgenCases {
	return LoadgenCases{
		TenantCounts:  []int{3, 9},
		RatePerMCycle: 20,
		Horizon:       800_000,
		Seed:          1234,
	}
}

// loadgenSystem builds the swept system: the default 4x4 topology (one
// dispatcher CPU + 15 worker CPUs).
func loadgenSystem(protocol string, parWorkers int) *core.System {
	cfg := core.DefaultConfig()
	cfg.SharedBytes = 4 << 20
	cfg.MaxTime = sim.Cycles(900e6)
	cfg.Protocol = protocol
	opts := []core.Option{core.WithConfig(cfg)}
	if parWorkers >= 0 {
		opts = append(opts, core.WithEngine(parallel.New(parWorkers)))
	}
	return core.Build(opts...)
}

func loadgenConfig(cases LoadgenCases, tenants int) load.Config {
	ts := load.DefaultTenants(tenants, cases.Seed, cases.RatePerMCycle)
	// A heavier DSS share than the smoke-test default: decision-support
	// scans over pages that OLTP writers keep dirtying are the cross-node
	// sharing that makes protocol stalls — not database compute — grow with
	// tenant count.
	for i := range ts {
		ts[i].DSSFraction = 0.25
		ts[i].DSSPages = 16
	}
	return load.Config{
		Tenants: ts,
		Horizon: cases.Horizon,
		// Per-row compute sized so protocol stalls are a visible share of
		// service time. (Up to about 330 transactions per Mcycle the single
		// dispatcher is not the bottleneck, whatever this is: load's front
		// door, DESIGN.md §6.13.)
		RowCompute: 500,
		// Locality placement makes the light end of the sweep genuinely
		// light (row RMWs hit home pages), so the latency growth the sweep
		// measures is protocol traffic — log-stripe migration, remote DSS
		// scans, latch messages — not self-inflicted remote row misses.
		Policy: "locality",
		// The sweep runs open-loop with admission off on purpose: the
		// knee is only visible if overload turns into queueing delay.
		Admission: "none",
	}
}

func runLoadgenPoint(cases LoadgenCases, protocol string, tenants, parWorkers int) (*load.Result, float64, error) {
	sys := loadgenSystem(protocol, parWorkers)
	start := time.Now()
	res, err := load.Run(sys, loadgenConfig(cases, tenants))
	if err != nil {
		return nil, 0, fmt.Errorf("bench loadgen (%s, %d tenants): %w", protocol, tenants, err)
	}
	return res, ms(time.Since(start)), nil
}

// RunLoadgenSuite sweeps tenant count per protocol, locates each
// protocol's knee, and runs the cross-engine determinism spot check.
func RunLoadgenSuite(cases LoadgenCases, protocols []string) (*LoadgenReport, error) {
	if len(cases.TenantCounts) == 0 {
		return nil, fmt.Errorf("bench: loadgen sweep has no tenant counts")
	}
	r := &LoadgenReport{
		Suite:         "loadgen",
		HostCPUs:      runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Policy:        "locality",
		Admission:     "none",
		RatePerMCycle: cases.RatePerMCycle,
		Horizon:       cases.Horizon,
		Seed:          cases.Seed,
	}
	for _, proto := range protocols {
		sweep := LoadgenSweep{Protocol: proto}
		for _, n := range cases.TenantCounts {
			res, wall, err := runLoadgenPoint(cases, proto, n, -1)
			if err != nil {
				return nil, err
			}
			m := res.Metrics
			pt := LoadgenPoint{
				Tenants: n, Offered: m.Offered, Admitted: m.Admitted, Shed: m.Shed,
				P50: m.P50, P95: m.P95, P99: m.P99,
				MeanDB: m.MeanDB, MeanProt: m.MeanProt, MeanSync: m.MeanSync,
				WallMS: wall, PerTenant: m.Tenants,
			}
			pt.OLTPDB, pt.OLTPProt, pt.DSSDB, pt.DSSProt = perKindMeans(res)
			var attain, offered float64
			for _, tm := range m.Tenants {
				attain += tm.SLOAttained
				offered += tm.SLOOffered
			}
			pt.SLOAttainMean = attain / float64(len(m.Tenants))
			pt.SLOOfferedMean = offered / float64(len(m.Tenants))
			sweep.Points = append(sweep.Points, pt)
			r.Workers = res.Workers
		}
		base := sweep.Points[0]
		for _, pt := range sweep.Points[1:] {
			if float64(pt.P99) > kneeFactor*float64(base.P99) {
				sweep.KneeTenants = pt.Tenants
				if base.OLTPProt > 0 && base.OLTPDB > 0 {
					sweep.ProtGrowth = float64(pt.OLTPProt) / float64(base.OLTPProt)
					sweep.DBGrowth = float64(pt.OLTPDB) / float64(base.OLTPDB)
				}
				sweep.ProtocolBound = sweep.ProtGrowth > sweep.DBGrowth && pt.MeanProt > pt.MeanDB
				break
			}
		}
		r.Sweeps = append(r.Sweeps, sweep)
	}
	// Determinism spot check: lightest point, first protocol, both engines.
	seqRes, _, err := runLoadgenPoint(cases, protocols[0], cases.TenantCounts[0], -1)
	if err != nil {
		return nil, err
	}
	parRes, _, err := runLoadgenPoint(cases, protocols[0], cases.TenantCounts[0], 0)
	if err != nil {
		return nil, err
	}
	r.EnginesAgree = loadgenRunsEqual(seqRes, parRes)
	return r, nil
}

// perKindMeans splits the service-time breakdown by transaction kind.
func perKindMeans(res *load.Result) (oltpDB, oltpProt, dssDB, dssProt sim.Time) {
	var odb, oprot, ddb, dprot, on, dn int64
	for _, rec := range res.Records {
		if rec.Kind == load.KindOLTP {
			odb += int64(rec.DB)
			oprot += int64(rec.Protocol)
			on++
		} else {
			ddb += int64(rec.DB)
			dprot += int64(rec.Protocol)
			dn++
		}
	}
	if on > 0 {
		oltpDB, oltpProt = sim.Time(odb/on), sim.Time(oprot/on)
	}
	if dn > 0 {
		dssDB, dssProt = sim.Time(ddb/dn), sim.Time(dprot/dn)
	}
	return
}

// loadgenRunsEqual compares everything two engines must agree on.
func loadgenRunsEqual(a, b *load.Result) bool {
	if len(a.Records) != len(b.Records) || a.Arrivals != b.Arrivals {
		return false
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			return false
		}
	}
	for i := range a.Sheds {
		if a.Sheds[i] != b.Sheds[i] {
			return false
		}
	}
	return true
}
