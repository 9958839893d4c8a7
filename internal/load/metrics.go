package load

import (
	"sort"

	"repro/internal/sim"
)

// TxnRecord is the outcome of one admitted transaction, recorded by the
// worker that executed it, in simulated time only. Its five times are in
// order, and the four stretches between them are its latency exactly.
type TxnRecord struct {
	Tenant int
	Seq    int
	Kind   TxnKind
	Worker int
	Arrive sim.Time // scheduled arrival
	// Admitted and Dispatched are the dispatcher's: when it took the
	// transaction up (admission passed, placement next) and when it had
	// published the ring entry. They never travel through simulated memory:
	// the dispatcher notes them host-side in ring order and Run merges them
	// into the worker's records afterwards.
	Admitted   sim.Time
	Dispatched sim.Time
	Start      sim.Time // worker began service
	Done       sim.Time // worker finished
	// Service-time breakdown from the worker's stats buckets: DB is
	// compute (task + check + poll overhead), Protocol is miss and
	// message stalls, Sync is lock/flag stalls — the queueing vs. service
	// vs. protocol-stall split of the trace events.
	DB       sim.Time
	Protocol sim.Time
	Sync     sim.Time
}

// Latency is the full arrival-to-completion latency: FrontDoor + Dispatch +
// RingWait + Service.
func (r *TxnRecord) Latency() sim.Time { return r.Done - r.Arrive }

// Queueing is the time from arrival until a worker began service:
// FrontDoor + Dispatch + RingWait.
func (r *TxnRecord) Queueing() sim.Time { return r.Start - r.Arrive }

// FrontDoor is the wait for the dispatcher: from arrival until it took the
// transaction up, behind earlier arrivals, its own protocol work, and any
// time in an admission queue.
func (r *TxnRecord) FrontDoor() sim.Time { return r.Admitted - r.Arrive }

// Dispatch is what the dispatcher spent on the transaction: placement, any
// wait for a ring slot, and the stores of the entry.
func (r *TxnRecord) Dispatch() sim.Time { return r.Dispatched - r.Admitted }

// RingWait is the time from the entry's publication until the worker began
// service: the block's way to the worker, and the worker's earlier entries.
func (r *TxnRecord) RingWait() sim.Time { return r.Start - r.Dispatched }

// Service is the time the worker spent executing the transaction.
func (r *TxnRecord) Service() sim.Time { return r.Done - r.Start }

// TenantMetrics summarizes one tenant's outcomes.
type TenantMetrics struct {
	Name      string   `json:"name"`
	Offered   int64    `json:"offered"`  // arrivals generated
	Admitted  int64    `json:"admitted"` // executed to completion
	Shed      int64    `json:"shed"`     // rejected by admission control
	P50       sim.Time `json:"p50"`      // latency percentiles over admitted
	P95       sim.Time `json:"p95"`
	P99       sim.Time `json:"p99"`
	MeanQueue sim.Time `json:"mean_queue"`
	SLOCycles sim.Time `json:"slo_cycles"`
	// SLOAttained is the fraction of admitted transactions that met the
	// SLO; SLOOffered counts sheds as misses (the tenant's view: a shed
	// request did not meet its objective).
	SLOAttained float64 `json:"slo_attained"`
	SLOOffered  float64 `json:"slo_offered"`
}

// Metrics summarizes a whole run.
type Metrics struct {
	Offered  int64           `json:"offered"`
	Admitted int64           `json:"admitted"`
	Shed     int64           `json:"shed"`
	P50      sim.Time        `json:"p50"`
	P95      sim.Time        `json:"p95"`
	P99      sim.Time        `json:"p99"`
	MeanDB   sim.Time        `json:"mean_db"` // per-txn service breakdown means
	MeanProt sim.Time        `json:"mean_prot"`
	MeanSync sim.Time        `json:"mean_sync"`
	Tenants  []TenantMetrics `json:"tenants"`

	// Per-txn means of the four stretches of a latency (TxnRecord).
	MeanFrontDoor sim.Time `json:"mean_front_door"`
	MeanDispatch  sim.Time `json:"mean_dispatch"`
	MeanRingWait  sim.Time `json:"mean_ring_wait"`
	MeanService   sim.Time `json:"mean_service"`
}

// pctile returns the nearest-rank percentile of sorted (ascending); zero
// for an empty slice.
func pctile(sorted []sim.Time, p float64) sim.Time {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Summarize computes run and per-tenant metrics from the merged records
// and shed counts. recs may be in any order; sheds[i] is tenant i's shed
// count.
func Summarize(recs []TxnRecord, sheds []int64, tenants []TenantConfig) *Metrics {
	m := &Metrics{Tenants: make([]TenantMetrics, len(tenants))}
	perTenant := make([][]sim.Time, len(tenants))
	var all []sim.Time
	var sumDB, sumProt, sumSync int64
	var sumFrontDoor, sumDispatch, sumRingWait, sumService int64
	queuePer := make([]int64, len(tenants))
	attained := make([]int64, len(tenants))
	counts := make([]int64, len(tenants))
	for i := range recs {
		r := &recs[i]
		lat := r.Latency()
		all = append(all, lat)
		perTenant[r.Tenant] = append(perTenant[r.Tenant], lat)
		counts[r.Tenant]++
		queuePer[r.Tenant] += int64(r.Queueing())
		sumFrontDoor += int64(r.FrontDoor())
		sumDispatch += int64(r.Dispatch())
		sumRingWait += int64(r.RingWait())
		sumService += int64(r.Service())
		sumDB += int64(r.DB)
		sumProt += int64(r.Protocol)
		sumSync += int64(r.Sync)
		if lat <= tenants[r.Tenant].SLOCycles {
			attained[r.Tenant]++
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	m.Admitted = int64(len(recs))
	m.P50, m.P95, m.P99 = pctile(all, 0.50), pctile(all, 0.95), pctile(all, 0.99)
	if len(recs) > 0 {
		n := int64(len(recs))
		m.MeanDB = sim.Time(sumDB / n)
		m.MeanProt = sim.Time(sumProt / n)
		m.MeanSync = sim.Time(sumSync / n)
		m.MeanFrontDoor = sim.Time(sumFrontDoor / n)
		m.MeanDispatch = sim.Time(sumDispatch / n)
		m.MeanRingWait = sim.Time(sumRingWait / n)
		m.MeanService = sim.Time(sumService / n)
	}
	for tn := range tenants {
		lats := perTenant[tn]
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		tm := &m.Tenants[tn]
		tm.Name = tenants[tn].Name
		tm.SLOCycles = tenants[tn].SLOCycles
		tm.Admitted = counts[tn]
		tm.Shed = sheds[tn]
		tm.Offered = counts[tn] + sheds[tn]
		tm.P50, tm.P95, tm.P99 = pctile(lats, 0.50), pctile(lats, 0.95), pctile(lats, 0.99)
		if counts[tn] > 0 {
			tm.MeanQueue = sim.Time(queuePer[tn] / counts[tn])
			tm.SLOAttained = float64(attained[tn]) / float64(counts[tn])
		}
		if tm.Offered > 0 {
			tm.SLOOffered = float64(attained[tn]) / float64(tm.Offered)
		}
		m.Shed += sheds[tn]
	}
	m.Offered = m.Admitted + m.Shed
	return m
}
