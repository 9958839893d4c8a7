package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/sim"
)

// Open-loop workload sizing. Every tenant is a Poisson source of 10
// transactions per million cycles, all OLTP, placed by page locality with
// admission off: with the default mix (bursty and diurnal sources, 25%
// 16-page DSS scans) the latency percentiles move by 40% from seed to
// seed and one seed in ten livelocks inside a scan (README, findings).
const (
	oltpRate       = 10 // transactions per tenant per million cycles
	oltpSLO        = 400_000
	oltpPages      = 128 // load.Run's default buffer cache
	oltpRepTenants = 8
)

var oltpSweepTenants = []int{4, 8, 12, 16}

func oltpConfig(tenants int, seed int64, horizon sim.Time) load.Config {
	ts := load.DefaultTenants(tenants, seed, oltpRate)
	for i := range ts {
		ts[i].Arrival = "poisson"
		ts[i].DSSFraction = 0
		ts[i].SLOCycles = oltpSLO
	}
	return load.Config{Tenants: ts, Horizon: horizon, Policy: "locality", Admission: "none", RowCompute: 500}
}

// oltpCase runs the open-loop load of the given tenant count for horizon
// cycles of arrivals on the default 4x4 directory-invalidation cluster.
func oltpCase(tenants int, seed int64, horizon sim.Time) benchCase {
	name := fmt.Sprintf("oltp/t%d", tenants)
	cfg := oltpConfig(tenants, seed, horizon)
	return benchCase{name: name, sameAs: -1, run: func(r *recorder, extra ...core.Option) (caseOut, error) {
		r.begin(spSchedule, name)
		sched, err := load.BuildSchedule(cfg.Tenants, oltpPages, cfg.Horizon)
		r.end()
		if err != nil {
			return caseOut{}, err
		}
		r.begin(spBuild, name)
		// A wedged run must fail, not spin to the default 15-minute cap.
		sys := core.Build(append([]core.Option{core.WithMaxTime(4 * horizon)}, extra...)...)
		r.end()
		r.begin(spLoadRun, name)
		res, err := load.Run(sys, cfg)
		r.end()
		if err != nil {
			return caseOut{}, err
		}
		out, err := extract(r, name, sys)
		if err != nil {
			return out, err
		}
		out.cycles, out.load = int64(res.Elapsed), res
		m := res.Metrics
		if res.Arrivals != len(sched) || m.Offered != int64(res.Arrivals) || m.Offered != m.Admitted+m.Shed {
			return out, fmt.Errorf("%s: offered %d, scheduled %d, admitted %d + shed %d", name, m.Offered, len(sched), m.Admitted, m.Shed)
		}
		return out, nil
	}}
}

// oltpWorkload times the 8-tenant point rep after rep on the host clock,
// and sweeps 4 to 16 tenants once on the simulated clock. Near the knee
// the latency of one arrival schedule follows the number of arrivals the
// seed happened to draw (p99 moves 19% from seed to seed at 8 tenants), so
// the 8-tenant point runs five schedules and reports the mean of their
// percentiles. (The p99 of the pooled transactions is the tail of the one
// worst schedule, and moves half as much again.)
func oltpWorkload(seed int64, quick bool) *workload {
	repHorizon, sweepHorizon := sim.Time(4_000_000), sim.Time(8_000_000)
	if quick {
		repHorizon, sweepHorizon = 200_000, 300_000
	}
	w := &workload{name: "oltp-open", usesSeed: true, cases: []benchCase{oltpCase(oltpRepTenants, seed, repHorizon)}}
	w.exact = func(r *recorder, _ []caseOut) (simResult, error) {
		res := simResult{e2e: map[string]float64{}, layer: map[string]float64{}}
		var p99s []float64
		for _, n := range oltpSweepTenants {
			schedules := 1
			if n == oltpRepTenants {
				schedules = 5
			}
			var runs []*load.Result
			for k := 0; k < schedules; k++ {
				out, err := oltpCase(n, seed+int64(k)*1_000_003, sweepHorizon).run(r)
				if err != nil {
					return res, err
				}
				runs = append(runs, out.load)
				res.executions++
				res.e2e["sim_cycles"] += float64(sweepHorizon)
			}
			pt := summarizePoint(runs, sweepHorizon)
			p99s = append(p99s, pt.p99)
			sfx := fmt.Sprintf("_t%d", n)
			res.layer["load.txn_p50_cycles"+sfx] = pt.p50
			res.layer["load.txn_p99_cycles"+sfx] = pt.p99
			res.layer["load.slo_attainment"+sfx] = pt.slo
			res.layer["load.queue_frac"+sfx] = pt.queueFrac
			res.layer["load.txn_per_mcycle"+sfx] = pt.throughput
			switch n {
			case 4:
				res.e2e["txn_p50_cycles_t4"] = pt.p50
			case oltpRepTenants:
				res.e2e["txn_p50_cycles"] = pt.p50
				res.e2e["txn_p99_cycles"] = pt.p99
				for k, v := range pt.layer {
					res.layer[k] = v
				}
			case 16:
				// Offered 160 per Mcycle against a capacity near 137: the
				// backlog grows for the whole horizon, so the completion
				// rate is the capacity, whatever the seed drew.
				res.e2e["txn_capacity"] = pt.throughput
			}
		}
		res.e2e["tenants_in_slo"] = tenantsInSLO(oltpSweepTenants, p99s, oltpSLO)
		return res, nil
	}
	return w
}

// point summarises one sweep point: one or more arrival schedules at one
// tenant count. Percentiles are the mean of the schedules' percentiles;
// everything else is over the transactions of all schedules.
type point struct {
	p50, p99, slo, queueFrac float64
	throughput               float64 // completed transactions per million cycles
	layer                    map[string]float64
}

func summarizePoint(runs []*load.Result, horizon sim.Time) point {
	var early, late []float64
	var offered, admitted, shed, met int64
	var p50, p99, n, queue, latency, db, prot, sync, elapsed float64
	perWorker := make([]float64, runs[0].Workers)
	for _, res := range runs {
		recs := res.Records
		first := recs[0].Arrive
		for i := range recs {
			first = min(first, recs[i].Arrive)
		}
		for i := range recs {
			rec := &recs[i]
			lat := float64(rec.Latency())
			if rec.Latency() <= oltpSLO {
				met++
			}
			queue += float64(rec.Queueing())
			latency += lat
			db += float64(rec.DB)
			prot += float64(rec.Protocol)
			sync += float64(rec.Sync)
			perWorker[rec.Worker]++
			switch at := rec.Arrive - first; {
			case at < horizon/3:
				early = append(early, lat)
			case at >= 2*horizon/3:
				late = append(late, lat)
			}
		}
		n += float64(len(recs))
		p50 += float64(res.Metrics.P50) / float64(len(runs))
		p99 += float64(res.Metrics.P99) / float64(len(runs))
		offered += res.Metrics.Offered
		admitted += res.Metrics.Admitted
		shed += res.Metrics.Shed
		elapsed += float64(res.Elapsed)
	}
	var busiest float64
	for _, n := range perWorker {
		busiest = max(busiest, n)
	}
	return point{
		p50: p50, p99: p99,
		// Refused and shed transactions miss the objective.
		slo:        float64(met) / float64(offered),
		queueFrac:  ratio(queue, latency),
		throughput: n / (elapsed / 1e6),
		layer: map[string]float64{
			"load.offered":              float64(offered),
			"load.admitted":             float64(admitted),
			"load.shed":                 float64(shed),
			"load.queue_cycles_mean":    queue / n,
			"load.backlog_growth":       ratio(median(late), median(early)),
			"load.worker_imbalance":     ratio(busiest, n/float64(len(perWorker))),
			"oracledb.db_cycles_mean":   db / n,
			"oracledb.prot_cycles_mean": prot / n,
			"oracledb.sync_cycles_mean": sync / n,
		},
	}
}

// tenantsInSLO is the tenant count at which the p99 latency crosses the
// objective, linearly interpolated between the bracketing sweep points
// (from the origin below the first point); the last point when none does.
func tenantsInSLO(tenants []int, p99 []float64, slo float64) float64 {
	prevN, prevP := 0.0, 0.0
	for i, n := range tenants {
		if p99[i] > slo {
			return prevN + (float64(n)-prevN)*(slo-prevP)/(p99[i]-prevP)
		}
		prevN, prevP = float64(n), p99[i]
	}
	return prevN
}
