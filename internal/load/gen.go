package load

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dsmsync"
	"repro/internal/oracledb"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config configures one load-generation run.
type Config struct {
	Tenants []TenantConfig
	// Horizon is the arrival-generation window: tenants stop generating at
	// this simulated time (dispatch and drain continue past it).
	Horizon sim.Time
	// Policy is the load-balancer policy name: "rr", "least", "locality".
	Policy string
	// Admission is the admission-control mode: "none", "queue", "shed".
	Admission string
	// MaxInFlight caps admitted-but-incomplete transactions (modes queue
	// and shed); 0 defaults to 2 transactions per worker.
	MaxInFlight int
	// QueueLimit bounds each tenant's queue in mode "shed"; 0 defaults
	// to 8.
	QueueLimit int
	// DBPages sizes the shared buffer cache; 0 defaults to 128.
	DBPages int
	// RowCompute overrides the database mix's per-row compute cycles; 0
	// keeps the oracledb.LoadMix default. Scaling this up scales raw
	// transaction service time relative to dispatch cost, which moves the
	// saturating resource from the dispatcher to the worker pool.
	RowCompute int
}

// Result reports one load-generation run.
type Result struct {
	Records  []TxnRecord // admitted transactions, sorted by (tenant, seq)
	Sheds    []int64     // per-tenant shed counts
	Metrics  *Metrics
	Workers  int
	Arrivals int      // schedule length (offered load)
	Elapsed  sim.Time // last completion relative to measurement start
}

// Ring geometry: each worker has a ring of ringSlots fixed 64-byte entries,
// one coherence block each, homed at the worker, and a completed word the
// worker publishes through. A dispatch is one block: the entry's last word is
// its publish flag, the stamp, holding ring position + 1 and stored last.
// Entry and flag share a block, so the dispatcher's eight stores merge into
// one miss, perform together when it completes, and reach the worker as a
// unit; the dispatcher issues them and moves on with the miss outstanding
// (release consistency), and the worker spins on the stamp of the slot it
// expects next. The ring doubles as the hard in-flight bound per worker — a
// full ring backpressures the dispatcher even with admission "none", the way
// a full listen queue eventually stalls any real front end.
const (
	ringSlots  = 64
	entryWords = 8

	// pollGap is the worker's idle poll interval: the gap between stamp
	// checks while its ring is empty.
	pollGap = 500
	// retryTick is how long the dispatcher waits before re-checking
	// completion counters when admission or ring capacity is blocking it.
	retryTick = 20_000
	// refreshPeriod bounds how stale the dispatcher's completion view may
	// get under a placement policy that reads backlogs (Policy.ReadsBacklog).
	// Nothing else consumes a completion count before it is needed: a full
	// ring and an admission decision at capacity read it on demand.
	refreshPeriod = 100_000
)

// Entry word layout.
const (
	ewTenant = iota
	ewSeq
	ewKind // 0 oltp, 1 dss, 2 stop
	ewPage
	ewRow
	ewPages
	ewArrive
	ewStamp // ring position + 1: the publish flag, stored last
)

const kindStop = 2

// Run executes the configured open-loop load against a freshly booted
// database environment on sys. It spawns a dispatcher process on CPU 0 and
// one worker process on every remaining CPU, precomputes all tenant
// schedules, runs the simulation, and summarizes the outcome. The caller
// owns sys (engine choice, protocol, MaxTime — which must cover the
// horizon plus drain).
func Run(sys *core.System, cfg Config) (*Result, error) {
	nCPU := sys.Cfg.Nodes * sys.Cfg.CPUsPerNode
	if nCPU < 2 {
		return nil, fmt.Errorf("load: need at least 2 CPUs (1 dispatcher + 1 worker), have %d", nCPU)
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("load: Horizon must be positive, got %d", cfg.Horizon)
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("load: no tenants configured")
	}
	workers := nCPU - 1
	pages := cfg.DBPages
	if pages == 0 {
		pages = 128
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight == 0 {
		maxInFlight = 2 * workers
	}
	queueLimit := cfg.QueueLimit
	if queueLimit == 0 {
		queueLimit = 8
	}
	policyName := cfg.Policy
	if policyName == "" {
		policyName = "rr"
	}
	admission := cfg.Admission
	if admission == "" {
		admission = "none"
	}

	sched, err := BuildSchedule(cfg.Tenants, pages, cfg.Horizon)
	if err != nil {
		return nil, err
	}
	policy, err := NewPolicy(policyName)
	if err != nil {
		return nil, err
	}
	ctrl, err := NewController(admission, cfg.Tenants, maxInFlight, queueLimit)
	if err != nil {
		return nil, err
	}

	// Spawn first (homes are proc ids), then allocate.
	d := &driver{
		sys: sys, cfg: cfg, sched: sched, policy: policy, ctrl: ctrl,
		workers:  workers,
		issued:   make([]int64, workers),
		doneView: make([]int64, workers),
		fifo:     make([][]published, workers),
		ringAddr: make([]uint64, workers),
		doneAddr: make([]uint64, workers),
		records:  make([][]TxnRecord, workers),
	}
	sys.Spawn("lb", 0, d.dispatcher)
	for w := 0; w < workers; w++ {
		w := w
		sys.Spawn(fmt.Sprintf("ldw%d", w), w+1, func(p *core.Proc) { d.worker(p, w) })
	}

	// Database pages homed round-robin over the worker procs (ids 1..W);
	// redo buffer at worker 0's proc. HomeWorker below must match this
	// assignment for the locality policy to mean anything.
	homes := make([]int, workers)
	for w := range homes {
		homes[w] = w + 1
	}
	prm := oracledb.LoadMix(pages)
	if cfg.RowCompute > 0 {
		prm.RowComputeCycles = cfg.RowCompute
	}
	d.env, err = oracledb.NewEnv(sys, prm, homes, homes[0])
	if err != nil {
		return nil, err
	}
	for w := 0; w < workers; w++ {
		d.ringAddr[w] = sys.Alloc(ringSlots*entryWords*8, core.AllocOptions{BlockLines: 1, Home: core.HomeAt(w + 1)})
		d.doneAddr[w] = sys.Alloc(64, core.AllocOptions{BlockLines: 1, Home: core.HomeAt(w + 1)})
	}
	d.bar = dsmsync.NewMPBarrier(sys, 0, workers+1)

	if err := sys.Run(); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}

	recs, err := d.merge()
	if err != nil {
		return nil, err
	}
	sheds := make([]int64, len(cfg.Tenants))
	for tn := range sheds {
		sheds[tn] = ctrl.ShedCount(tn)
	}
	res := &Result{
		Records: recs, Sheds: sheds, Workers: workers, Arrivals: len(sched),
		Metrics: Summarize(recs, sheds, cfg.Tenants),
	}
	for i := range recs {
		if done := recs[i].Done - d.t0; done > res.Elapsed {
			res.Elapsed = done
		}
	}
	return res, nil
}

// merge returns the workers' records in (tenant, seq) order: a deterministic
// total order independent of worker count or engine. A worker's k-th record
// is its reading of the k-th entry of its ring, so on the way each is checked
// against, and takes its dispatch times from, the k-th entry the dispatcher
// published there.
func (d *driver) merge() ([]TxnRecord, error) {
	var recs []TxnRecord
	for w := range d.records {
		if got, want := len(d.records[w]), len(d.fifo[w])-1; got != want {
			return nil, fmt.Errorf("load: worker %d stopped after %d of the %d transactions in its ring: stale ring entry", w, got, want)
		}
		for k := range d.records[w] {
			rec, pub := &d.records[w][k], d.fifo[w][k]
			if rec.Tenant != int(pub.tenant) || rec.Seq != int(pub.seq) {
				return nil, fmt.Errorf("load: worker %d read (tenant %d, seq %d) at ring position %d, where the dispatcher published (tenant %d, seq %d): torn or stale ring entry",
					w, rec.Tenant, rec.Seq, k, pub.tenant, pub.seq)
			}
			rec.Admitted, rec.Dispatched = pub.admitted, pub.dispatched
		}
		recs = append(recs, d.records[w]...)
	}
	sort.Slice(recs, func(a, b int) bool {
		if recs[a].Tenant != recs[b].Tenant {
			return recs[a].Tenant < recs[b].Tenant
		}
		return recs[a].Seq < recs[b].Seq
	})
	return recs, nil
}

// published is the dispatcher's host-side note of one ring entry: whose it
// is and when it went through the front door.
type published struct {
	tenant, seq int32    // tenant -1: the poison entry
	admitted    sim.Time // the dispatcher took the transaction up
	dispatched  sim.Time // its entry was published
}

// driver holds the host-side run state shared between spawn-time setup and
// the simulated processes. Host-side mutation follows the parallel engine's
// shard-isolation rules: the dispatcher owns issued/doneView/fifo and the
// controller; each worker owns only records[w]; t0 is written once by the
// dispatcher before any worker reads it (ordered by the start barrier).
type driver struct {
	sys    *core.System
	cfg    Config
	env    *oracledb.Env
	sched  []Txn
	policy Policy
	ctrl   *Controller
	bar    dsmsync.Barrier

	workers  int
	issued   []int64       // dispatcher: entries published per worker
	doneView []int64       // dispatcher: completion counts as last read
	fifo     [][]published // dispatcher: every entry published, per worker, in ring order
	ringAddr []uint64
	doneAddr []uint64

	t0      sim.Time      // measurement origin (set after the start barrier)
	records [][]TxnRecord // per-worker outcomes (worker-owned)
}

// homeWorker maps a page to the worker index whose proc homes it; must
// match the round-robin page homing in Run.
func (d *driver) homeWorker(page int) int { return page % d.workers }

// pollUntil spins the process forward to absolute time target in pollGap
// steps. The dispatcher never truly sleeps: it owns a ring line exclusively
// after writing it, so it must keep executing inline polls for the workers'
// coherence requests to be serviced. (ProtocolProcs would serve them for a
// sleeping process, but they share its CPU, which puts the whole run in one
// shard in strict global order.) The spin is cheap on the host but not
// free: a stretch of polls that find nothing is one move
// (core.Proc.Compute), but one that ends past the instant a node-mate or
// another node may act next parks, which is a scheduler step. In oltp-open's
// 8-tenant rep (4 M cycles of arrivals) the dispatcher parks 1 686 times
// and its 15 workers 1 967 times between them, of 8 981 steps.
func pollUntil(p *core.Proc, target sim.Time) {
	for {
		now := p.Now()
		if now >= target {
			return
		}
		step := target - now
		if step > pollGap {
			step = pollGap
		}
		p.Compute(step)
	}
}

// refresh reads worker w's completion counter and credits finished
// transactions back to the admission controller. The MemBar gives the
// refresh acquire semantics so the load observes the worker's latest
// published count under both protocols.
func (d *driver) refresh(p *core.Proc, w int) {
	p.MemBar()
	nd := int64(p.Load(d.doneAddr[w]))
	for k := d.doneView[w]; k < nd; k++ {
		d.ctrl.Complete(int(d.fifo[w][k].tenant))
	}
	d.doneView[w] = nd
}

// refreshAll refreshes every worker's counter: when admission is blocked
// and the dispatcher needs any completion it can find, and on the timer a
// backlog-reading policy asks for.
func (d *driver) refreshAll(p *core.Proc) {
	for w := 0; w < d.workers; w++ {
		d.refresh(p, w)
	}
}

// publish writes one entry into worker w's ring, waiting for a slot if the
// ring is full (the hard backpressure path, and the one place an unblocked
// dispatcher reads a completion counter: once per ringSlots entries per
// worker). The stores are left outstanding on purpose: under RC they are
// one miss that completes while the dispatcher moves on (its inline polls
// service the reply), and the stamp, last of them, performs with the words
// it publishes. Waiting here would serialize every dispatch behind a full
// ownership round trip and make the single dispatcher, not the protocol, the
// measured bottleneck.
func (d *driver) publish(p *core.Proc, w int, words [ewStamp]uint64, pub published) {
	for d.issued[w]-d.doneView[w] >= ringSlots {
		if d.refresh(p, w); d.issued[w]-d.doneView[w] >= ringSlots {
			pollUntil(p, p.Now()+retryTick)
		}
	}
	base := d.ringAddr[w] + uint64(d.issued[w]%ringSlots)*entryWords*8
	for i, v := range words {
		p.Store(base+uint64(i)*8, v)
	}
	d.issued[w]++
	p.Store(base+ewStamp*8, uint64(d.issued[w]))
	pub.dispatched = p.Now()
	d.fifo[w] = append(d.fifo[w], pub)
}

// dispatch places one admitted transaction and publishes it.
func (d *driver) dispatch(p *core.Proc, t Txn, view *ClusterView) {
	admitted := p.Now()
	w := d.policy.Pick(t, view)
	d.publish(p, w, [ewStamp]uint64{
		ewTenant: uint64(t.Tenant), ewSeq: uint64(t.Seq), ewKind: uint64(t.Kind),
		ewPage: uint64(t.Page), ewRow: uint64(t.Row), ewPages: uint64(t.Pages),
		ewArrive: uint64(d.t0 + t.At),
	}, published{tenant: int32(t.Tenant), seq: int32(t.Seq), admitted: admitted})
	if tr := p.Tracer(); tr != nil {
		tr.Emit(trace.Event{T: int64(p.Now()), Cat: "load", Ev: "dispatch", P: p.ID, O: t.Tenant, Blk: w, A: int64(t.Seq)})
	}
}

// dispatcher is the load-balancer process: it sleeps until each scheduled
// arrival, runs admission, places admitted transactions with the policy,
// and drains tenant queues as completions come back.
func (d *driver) dispatcher(p *core.Proc) {
	d.bar.Wait(p)
	d.t0 = p.Now()
	view := &ClusterView{Issued: d.issued, Done: d.doneView, HomeWorker: d.homeWorker}
	tr := p.Tracer()

	i := 0
	timed := d.policy.ReadsBacklog()
	var lastRefresh sim.Time
	for {
		now := p.Now() - d.t0
		if timed && now-lastRefresh >= refreshPeriod {
			d.refreshAll(p)
			lastRefresh = now
		}
		// Admit everything that has arrived by now.
		for i < len(d.sched) && d.sched[i].At <= now {
			t := d.sched[i]
			i++
			if tr = p.Tracer(); tr != nil {
				tr.Emit(trace.Event{T: int64(p.Now()), Cat: "load", Ev: "arrive", P: p.ID, O: t.Tenant, A: int64(t.Seq), S: t.Kind.String()})
			}
			switch d.ctrl.Arrive(t) {
			case Admit:
				d.dispatch(p, t, view)
			case Shed:
				if tr != nil {
					tr.Emit(trace.Event{T: int64(p.Now()), Cat: "load", Ev: "shed", P: p.ID, O: t.Tenant, A: int64(t.Seq)})
				}
			case Queue:
				if tr != nil {
					tr.Emit(trace.Event{T: int64(p.Now()), Cat: "load", Ev: "queue", P: p.ID, O: t.Tenant, A: int64(t.Seq)})
				}
			}
		}
		// Drain queues into free capacity.
		if d.ctrl.HasQueued() {
			d.refreshAll(p)
			for {
				t, ok := d.ctrl.PopQueued()
				if !ok {
					break
				}
				d.dispatch(p, t, view)
			}
		}
		if i >= len(d.sched) && !d.ctrl.HasQueued() {
			break
		}
		// Sleep until the next arrival, or a retry tick if queued work is
		// waiting on completions.
		var next sim.Time = -1
		if i < len(d.sched) {
			next = d.sched[i].At
		}
		if d.ctrl.HasQueued() {
			if rt := now + retryTick; next < 0 || rt < next {
				next = rt
			}
		}
		if next > now {
			pollUntil(p, d.t0+next)
		}
	}
	// The poison entry that makes a worker exit after draining its ring.
	for w := 0; w < d.workers; w++ {
		d.publish(p, w, [ewStamp]uint64{ewKind: kindStop}, published{tenant: -1})
	}
	// Flush the outstanding entry stores before exiting: a finished process
	// no longer polls, so anything still buffered here would never be seen
	// by the workers.
	p.MemBar()
}

// worker executes transactions from its ring in FIFO order until poisoned.
func (d *driver) worker(p *core.Proc, w int) {
	d.env.WarmOwned(p, w+1)
	d.bar.Wait(p)
	st := p.Stats()
	// Group commit: batch GroupCommitEvery OLTP transactions' redo into one
	// log append. The counter depends only on this worker's processed
	// sequence, so it is identical across engines.
	groupEvery, inGroup := d.env.GroupCommitEvery(), 0
	for consumed := int64(0); ; consumed++ {
		base := d.ringAddr[w] + uint64(consumed%ringSlots)*entryWords*8
		// Idle: spin on the entry's stamp, polling. The polls serve the
		// worker's protocol requests, and their Tardis poll tick expires a
		// stale lease, which keeps the spin live. A spin on a cached stamp
		// costs a scheduler step per message, tick or node-mate's write
		// that may end it, not per iteration (core.Proc.SpinWhile).
		p.SpinWhile(base+ewStamp*8, pollGap, uint64(consumed+1), false)
		// Acquire: stamp observed before entry words. Nothing of the
		// worker's own is outstanding here, so it is the base charge only.
		p.MemBar()
		kind := p.Load(base + ewKind*8)
		if kind == kindStop {
			return
		}
		rec := TxnRecord{
			Tenant: int(p.Load(base + ewTenant*8)),
			Seq:    int(p.Load(base + ewSeq*8)),
			Kind:   TxnKind(kind),
			Worker: w,
			Arrive: sim.Time(p.Load(base + ewArrive*8)),
			Start:  p.Now(),
		}
		page := int(p.Load(base + ewPage*8))
		row := int(p.Load(base + ewRow*8))
		pages := int(p.Load(base + ewPages*8))
		if tr := p.Tracer(); tr != nil {
			tr.Emit(trace.Event{T: int64(p.Now()), Cat: "load", Ev: "start", P: p.ID, O: rec.Tenant, A: int64(rec.Seq), B: int64(rec.Start - rec.Arrive)})
		}
		db0 := st.Time[core.CatTask] + st.Time[core.CatCheck] + st.Time[core.CatPoll]
		pr0 := st.Time[core.CatReadStall] + st.Time[core.CatWriteStall] + st.Time[core.CatMBStall] + st.Time[core.CatMessage]
		sy0 := st.Time[core.CatSyncStall]
		if rec.Kind == KindDSS {
			d.env.DSSTxn(p, page, pages)
		} else {
			inGroup++
			commit := inGroup >= groupEvery
			if commit {
				inGroup = 0
			}
			d.env.OLTPTxn(p, page, row, commit)
		}
		rec.Done = p.Now()
		rec.DB = st.Time[core.CatTask] + st.Time[core.CatCheck] + st.Time[core.CatPoll] - db0
		rec.Protocol = st.Time[core.CatReadStall] + st.Time[core.CatWriteStall] + st.Time[core.CatMBStall] + st.Time[core.CatMessage] - pr0
		rec.Sync = st.Time[core.CatSyncStall] - sy0
		d.records[w] = append(d.records[w], rec)
		p.Store(d.doneAddr[w], uint64(consumed+1))
		p.MemBar() // release: publish the completion count
		if tr := p.Tracer(); tr != nil {
			tr.Emit(trace.Event{T: int64(p.Now()), Cat: "load", Ev: "done", P: p.ID, O: rec.Tenant, A: int64(rec.Seq), B: int64(rec.Done - rec.Arrive), S: rec.Kind.String()})
		}
	}
}
