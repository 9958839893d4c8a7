package load

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sim/parallel"
)

// testTenants returns a small three-tenant population covering all three
// arrival models at the given per-tenant rate.
func testTenants(rate float64) []TenantConfig {
	ts := DefaultTenants(3, 42, rate)
	for i := range ts {
		ts[i].SLOCycles = 300_000
	}
	return ts
}

// newLoadSystem builds a 2x2 system (1 dispatcher CPU + 3 worker CPUs).
func newLoadSystem(protocol string, parWorkers int) *core.System {
	cfg := core.DefaultConfig()
	cfg.Nodes = 2
	cfg.CPUsPerNode = 2
	cfg.SharedBytes = 2 << 20
	cfg.MaxTime = sim.Cycles(400e6)
	cfg.Protocol = protocol
	opts := []core.Option{core.WithConfig(cfg)}
	if parWorkers >= 0 {
		opts = append(opts, core.WithEngine(parallel.New(parWorkers)))
	}
	return core.Build(opts...)
}

func TestLoadgenSmoke(t *testing.T) {
	for _, proto := range core.ProtocolNames() {
		t.Run(proto, func(t *testing.T) {
			sys := newLoadSystem(proto, -1)
			res, err := Run(sys, Config{
				Tenants: testTenants(20),
				Horizon: 2_000_000,
				Policy:  "rr",
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Arrivals == 0 {
				t.Fatal("no arrivals generated")
			}
			if len(res.Records) != res.Arrivals {
				t.Fatalf("admitted %d of %d arrivals with admission none", len(res.Records), res.Arrivals)
			}
			m := res.Metrics
			if m.P50 <= 0 || m.P95 < m.P50 || m.P99 < m.P95 {
				t.Fatalf("implausible percentiles: p50=%d p95=%d p99=%d", m.P50, m.P95, m.P99)
			}
			if m.MeanDB <= 0 || m.MeanProt <= 0 {
				t.Fatalf("service breakdown empty: db=%d prot=%d", m.MeanDB, m.MeanProt)
			}
			for _, tm := range m.Tenants {
				if tm.Admitted == 0 {
					t.Fatalf("tenant %s admitted no transactions", tm.Name)
				}
				if tm.SLOAttained <= 0 || tm.SLOAttained > 1 {
					t.Fatalf("tenant %s: SLO attainment out of range: %g", tm.Name, tm.SLOAttained)
				}
			}
		})
	}
}

func TestLoadgenPolicies(t *testing.T) {
	for _, pol := range []string{"rr", "least", "locality"} {
		t.Run(pol, func(t *testing.T) {
			sys := newLoadSystem("dirinval", -1)
			res, err := Run(sys, Config{
				Tenants: testTenants(15),
				Horizon: 1_500_000,
				Policy:  pol,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Records) != res.Arrivals {
				t.Fatalf("%s lost transactions: %d of %d", pol, len(res.Records), res.Arrivals)
			}
		})
	}
}

func TestLocalityPlacesAtHome(t *testing.T) {
	view := &ClusterView{
		Issued:     make([]int64, 3),
		Done:       make([]int64, 3),
		HomeWorker: func(pg int) int { return pg % 3 },
	}
	pol, err := NewPolicy("locality")
	if err != nil {
		t.Fatal(err)
	}
	for pg := 0; pg < 9; pg++ {
		if w := pol.Pick(Txn{Page: pg}, view); w != pg%3 {
			t.Fatalf("page %d placed on worker %d, want %d", pg, w, pg%3)
		}
	}
}

func TestLeastLoadedBalances(t *testing.T) {
	view := &ClusterView{Issued: []int64{5, 2, 9}, Done: []int64{1, 1, 4}}
	pol, _ := NewPolicy("least")
	if w := pol.Pick(Txn{}, view); w != 1 {
		t.Fatalf("least-loaded picked worker %d, want 1 (backlogs 4,1,5)", w)
	}
}

func TestUnknownPolicyAndAdmission(t *testing.T) {
	if _, err := NewPolicy("random"); err == nil {
		t.Fatal("NewPolicy accepted unknown name")
	}
	if _, err := NewController("drop", testTenants(1), 4, 4); err == nil {
		t.Fatal("NewController accepted unknown mode")
	}
	if _, err := NewController("queue", testTenants(1), 0, 4); err == nil {
		t.Fatal("NewController accepted zero MaxInFlight")
	}
}

func TestControllerFairness(t *testing.T) {
	tenants := testTenants(1)[:2]
	tenants[0].Weight = 1
	tenants[1].Weight = 1
	c, err := NewController("shed", tenants, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Tenant 0 floods: it may take only its weighted share (2 of 4).
	for i := 0; i < 2; i++ {
		if d := c.Arrive(Txn{Tenant: 0, Seq: i}); d != Admit {
			t.Fatalf("arrival %d: got %v, want Admit", i, d)
		}
	}
	if d := c.Arrive(Txn{Tenant: 0, Seq: 2}); d != Queue {
		t.Fatalf("over-share arrival: got %v, want Queue", d)
	}
	// Tenant 1 still gets its share despite tenant 0's backlog.
	if d := c.Arrive(Txn{Tenant: 1, Seq: 0}); d != Admit {
		t.Fatalf("light tenant: got %v, want Admit", d)
	}
	// Tenant 0's queue fills (limit 2), then sheds.
	if d := c.Arrive(Txn{Tenant: 0, Seq: 3}); d != Queue {
		t.Fatalf("got %v, want Queue", d)
	}
	if d := c.Arrive(Txn{Tenant: 0, Seq: 4}); d != Shed {
		t.Fatalf("got %v, want Shed", d)
	}
	if c.ShedCount(0) != 1 {
		t.Fatalf("shed count = %d, want 1", c.ShedCount(0))
	}
	// A completion lets the queue drain in FIFO order.
	c.Complete(0)
	txn, ok := c.PopQueued()
	if !ok || txn.Tenant != 0 || txn.Seq != 2 {
		t.Fatalf("PopQueued = %+v ok=%v, want tenant 0 seq 2", txn, ok)
	}
	if _, ok := c.PopQueued(); ok {
		t.Fatal("PopQueued admitted past capacity")
	}
}

// TestLatencyDecomposes: the dispatcher's host-side times land in every
// record, in order between arrival and start, so the four stretches are each
// non-negative and sum to the latency exactly — with admission queueing (time
// in a tenant queue is front door) and without.
func TestLatencyDecomposes(t *testing.T) {
	cases := []Config{
		{Policy: "locality"},
		{Policy: "least", Admission: "shed", MaxInFlight: 6, QueueLimit: 4},
		{Policy: "rr", Admission: "queue", MaxInFlight: 3},
	}
	for _, proto := range []string{"dirinval", "tardis"} {
		for _, cfg := range cases {
			cfg.Tenants, cfg.Horizon = testTenants(25), 1_500_000
			res, err := Run(newLoadSystem(proto, -1), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var sumFD, sumDi, sumRW, sumSv sim.Time
			for i := range res.Records {
				r := &res.Records[i]
				fd, di, rw, sv := r.FrontDoor(), r.Dispatch(), r.RingWait(), r.Service()
				if fd < 0 || di <= 0 || rw <= 0 || sv <= 0 {
					t.Fatalf("%s %s/%s: times out of order in %+v", proto, cfg.Policy, cfg.Admission, *r)
				}
				if fd+di+rw+sv != r.Latency() || fd+di+rw != r.Queueing() {
					t.Fatalf("%s %s/%s: %d + %d + %d + %d is not latency %d (queueing %d) in %+v",
						proto, cfg.Policy, cfg.Admission, fd, di, rw, sv, r.Latency(), r.Queueing(), *r)
				}
				sumFD, sumDi, sumRW, sumSv = sumFD+fd, sumDi+di, sumRW+rw, sumSv+sv
			}
			n, m := sim.Time(len(res.Records)), res.Metrics
			if m.MeanFrontDoor != sumFD/n || m.MeanDispatch != sumDi/n || m.MeanRingWait != sumRW/n || m.MeanService != sumSv/n {
				t.Fatalf("%s %s/%s: means %d %d %d %d do not match the records", proto, cfg.Policy, cfg.Admission,
					m.MeanFrontDoor, m.MeanDispatch, m.MeanRingWait, m.MeanService)
			}
		}
	}
}

// TestCompletionsReadOnDemand: a dispatcher that is not blocked reads a
// worker's completion counter only for a policy that places by backlog. Below
// one ring of entries per worker and with admission off, nothing else
// consumes one, so the dispatcher performs no load at all.
func TestCompletionsReadOnDemand(t *testing.T) {
	for _, c := range []struct {
		policy string
		reads  bool
	}{{"rr", false}, {"locality", false}, {"least", true}} {
		pol, err := NewPolicy(c.policy)
		if err != nil {
			t.Fatal(err)
		}
		if pol.ReadsBacklog() != c.reads {
			t.Fatalf("%s: ReadsBacklog() = %v", c.policy, pol.ReadsBacklog())
		}
		sys := newLoadSystem("dirinval", -1)
		res, err := Run(sys, Config{Tenants: testTenants(10), Horizon: 1_000_000, Policy: c.policy})
		if err != nil {
			t.Fatal(err)
		}
		if res.Arrivals == 0 || res.Arrivals >= ringSlots {
			t.Fatalf("%d arrivals: want some, and fewer than one ring", res.Arrivals)
		}
		if loads := sys.Proc(0).Stats().Loads(); (loads > 0) != c.reads {
			t.Errorf("%s: the dispatcher performed %d loads over %d dispatches", c.policy, loads, res.Arrivals)
		}
	}
}

// TestRingBackpressure pushes more entries through one worker's ring than it
// has slots, faster than the worker serves them: the dispatcher must wait for
// slots, reading the completion counter on demand, and every transaction must
// come out once, in order, as published.
func TestRingBackpressure(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Nodes, cfg.CPUsPerNode = 1, 2 // one worker
	cfg.SharedBytes = 2 << 20
	cfg.MaxTime = sim.Cycles(400e6)
	sys := core.Build(core.WithConfig(cfg))
	ts := testTenants(400)
	for i := range ts {
		ts[i].Arrival, ts[i].DSSFraction = "poisson", 0
	}
	res, err := Run(sys, Config{Tenants: ts, Horizon: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != res.Arrivals || res.Arrivals < 3*ringSlots {
		t.Fatalf("%d records of %d arrivals; want all of at least %d", len(res.Records), res.Arrivals, 3*ringSlots)
	}
	var waited int
	for i := range res.Records {
		if res.Records[i].Dispatch() >= retryTick {
			waited++
		}
	}
	if waited == 0 {
		t.Error("no dispatch waited for a ring slot: backpressure was not exercised")
	}
}

// TestMergeNamesBadEntry: a worker's record that is not the entry the
// dispatcher published at that ring position fails the run, naming the
// worker and both transactions.
func TestMergeNamesBadEntry(t *testing.T) {
	d := &driver{
		records: [][]TxnRecord{{{Tenant: 0, Seq: 0}}, {{Tenant: 1, Seq: 0}, {Tenant: 1, Seq: 1}}},
		fifo: [][]published{
			{{tenant: 0, seq: 0, admitted: 5, dispatched: 9}, {tenant: -1}},
			{{tenant: 1, seq: 0}, {tenant: 2, seq: 7}, {tenant: -1}},
		},
	}
	_, err := d.merge()
	if err == nil || !strings.Contains(err.Error(), "worker 1 read (tenant 1, seq 1) at ring position 1, where the dispatcher published (tenant 2, seq 7)") {
		t.Fatalf("torn entry: got %v", err)
	}
	d.fifo[1][1] = published{tenant: 1, seq: 1}
	recs, err := d.merge()
	if err != nil || len(recs) != 3 || recs[0].Admitted != 5 || recs[0].Dispatched != 9 {
		t.Fatalf("good rings: got %+v, %v", recs, err)
	}
	d.records[0] = nil
	if _, err := d.merge(); err == nil || !strings.Contains(err.Error(), "worker 0 stopped after 0 of the 1 transactions") {
		t.Fatalf("early stop: got %v", err)
	}
}
