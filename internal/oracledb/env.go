// Re-entrant transaction API. Run (oracledb.go) executes a fixed,
// closed-loop workload: every server loops over its partition or its Txns
// budget and the run ends when the loops end. The open-loop load subsystem
// (internal/load) instead needs to issue *individual* transactions, from
// any process, at externally scheduled arrival times. Env provides that: a
// booted database environment — buffer cache, per-page latches, group-commit
// redo buffer — without Run's daemon processes, against which any simulated
// process can execute one OLTP or DSS transaction at a time.
//
// Everything an Env touches is protocol-mediated shared memory (checked
// loads/stores and message-passing latches), so transactions may be issued
// from processes on any node and the parallel engine's shard-isolation rules
// are respected: there is no host-side cross-process mutation anywhere on
// the transaction path.

package oracledb

import (
	"repro/internal/core"
	"repro/internal/dsmsync"
	"repro/internal/sim"
)

// envLogSlots is the capacity of each wrapping redo buffer in 8-byte
// records. Small on purpose: a log tail is the classic multi-writer hot
// spot, and a compact buffer keeps commits colliding on the same blocks the
// way the real engine's group commit does.
const envLogSlots = 64

// envLogStripes is the number of independent redo streams. A single global
// log latch caps the whole cluster at one commit per latch round-trip —
// measured at ~40 transactions per Mcycle, saturated before any interesting
// tenant count — so the Env shards the redo log by page, the way production
// engines shard redo ("log groups") precisely to relieve this latch.
const envLogStripes = 8

// envLatches is the page-latch count. Run keeps the paper's 16 latches for
// its fixed server counts; the Env serves an open-loop cluster-wide load
// and stripes finer so page latches contend only on genuinely shared pages.
const envLatches = 64

// Env is a booted database environment for re-entrant transaction issue.
// Create it with NewEnv before core.System.Run, then call OLTPTxn / DSSTxn
// from running processes. Methods on a built Env never mutate host-visible
// Env state, so concurrent transactions from different simulated processes
// are safe under both engines.
type Env struct {
	prm       Params
	sga       uint64
	pageHomes []int // homing proc per page (placement for the locality LB)
	latches   []dsmsync.Lock
	// Redo log, sharded into envLogStripes independent streams (stripe =
	// page % envLogStripes). Each stripe has a latch, an append counter
	// word, and a wrapping record buffer.
	logLatch []dsmsync.Lock
	logSeq   []uint64
	logBuf   []uint64
}

// NewEnv allocates the database environment on sys. Pages are homed
// round-robin over pageHomes (each page is its own coherence block, as in
// Run, so a page travels as a unit); redo stripe 0 lives at logHome and the
// remaining stripes spread round-robin over pageHomes. Homes are proc ids,
// so the homing processes must already be spawned: call sys.Spawn for every
// proc first, then NewEnv, then sys.Run. Only the data-set fields of prm are
// used (Pages, RowsPerPage, RowComputeCycles, DaemonInteractEvery as the
// group-commit batch); the server fields belong to Run.
func NewEnv(sys *core.System, prm Params, pageHomes []int, logHome int) (*Env, error) {
	if prm.Pages <= 0 {
		return nil, &ParamsError{Field: "Pages", Reason: "must be positive for an Env"}
	}
	if prm.RowsPerPage <= 0 || PageBytes/8%prm.RowsPerPage != 0 {
		return nil, &ParamsError{Field: "RowsPerPage", Reason: "must evenly divide a page"}
	}
	if len(pageHomes) == 0 {
		pageHomes = []int{0}
	}
	blockLines := PageBytes / sys.Cfg.LineSize
	if blockLines < 1 {
		blockLines = 1
	}
	e := &Env{prm: prm, pageHomes: make([]int, prm.Pages)}
	for pg := 0; pg < prm.Pages; pg++ {
		home := pageHomes[pg%len(pageHomes)]
		e.pageHomes[pg] = home
		addr := sys.Alloc(PageBytes, core.AllocOptions{BlockLines: blockLines, Home: core.HomeAt(home)})
		if pg == 0 {
			e.sga = addr
		} else if addr != e.sga+uint64(pg*PageBytes) {
			// Alloc hands out contiguous lines; per-page calls stay
			// page-strided as long as the block size divides PageBytes.
			return nil, &ParamsError{Field: "Pages", Reason: "buffer cache not contiguous (line size does not divide a page)"}
		}
	}
	e.latches = make([]dsmsync.Lock, envLatches)
	for i := range e.latches {
		e.latches[i] = dsmsync.NewMPLock(sys, pageHomes[i%len(pageHomes)])
	}
	e.logLatch = make([]dsmsync.Lock, envLogStripes)
	e.logSeq = make([]uint64, envLogStripes)
	e.logBuf = make([]uint64, envLogStripes)
	for s := 0; s < envLogStripes; s++ {
		home := logHome
		if s > 0 {
			home = pageHomes[s%len(pageHomes)]
		}
		e.logLatch[s] = dsmsync.NewMPLock(sys, home)
		e.logSeq[s] = sys.Alloc(64, core.AllocOptions{Home: core.HomeAt(home)})
		e.logBuf[s] = sys.Alloc(envLogSlots*8, core.AllocOptions{Home: core.HomeAt(home)})
	}
	return e, nil
}

// SGA returns the base address of the buffer cache.
func (e *Env) SGA() uint64 { return e.sga }

// Pages returns the buffer-cache size in pages.
func (e *Env) Pages() int { return e.prm.Pages }

// PageHome returns the proc id that homes page pg — the placement signal
// the locality-aware load balancer steers by.
func (e *Env) PageHome(pg int) int { return e.pageHomes[pg%len(e.pageHomes)] }

// WarmOwned seeds the contents of every page homed at proc home, using the
// same pg*1000+w fill as Run. Called from that proc itself before the
// measured phase so warming costs no coherence traffic and the data set
// starts fully cached at its homes (§6.5).
func (e *Env) WarmOwned(c *core.Proc, home int) {
	for pg := 0; pg < e.prm.Pages; pg++ {
		if e.pageHomes[pg] != home {
			continue
		}
		base := e.sga + uint64(pg*PageBytes)
		b := c.BatchStart(core.Range{Addr: base, Bytes: PageBytes, Write: true})
		for w := 0; w < PageBytes/8; w++ {
			b.Store(base+uint64(w*8), uint64(pg*1000+w))
		}
		c.BatchEnd(b)
	}
}

// GroupCommitEvery returns the group-commit batch size: the number of OLTP
// transactions whose redo a worker batches into one log append (Run's
// DaemonInteractEvery knob, reused — both model the paper's amortized
// daemon/commit interaction). Always >= 1.
func (e *Env) GroupCommitEvery() int {
	if e.prm.DaemonInteractEvery < 1 {
		return 1
	}
	return e.prm.DaemonInteractEvery
}

// OLTPTxn executes one TPC-B-style transaction on process c: a latched
// read-modify-write of row word rowWord on page pg and the per-row compute.
// When commit is true the call also appends the accumulated group's redo
// record to the page's log stripe (the group-commit hot spot); callers batch
// GroupCommitEvery transactions per append. pg and rowWord are chosen by the
// caller so arrival schedules can pre-draw them from per-tenant PRNGs and
// stay engine-invariant.
func (e *Env) OLTPTxn(c *core.Proc, pg, rowWord int, commit bool) {
	rowRMW(c, e.sga, e.latches, pg%e.prm.Pages, rowWord%(PageBytes/8))
	c.Compute(sim.Time(e.prm.RowComputeCycles))
	if commit {
		e.logAppend(c, pg%envLogStripes, uint64(pg)<<32|uint64(rowWord)&0xffffffff)
	}
}

// DSSTxn executes one decision-support transaction on process c: a batched
// read scan of pages [startPg, startPg+pages) with per-row compute,
// wrapping at the table end. Returns the row aggregate. Read-only: no log
// append.
func (e *Env) DSSTxn(c *core.Proc, startPg, pages int) uint64 {
	var agg uint64
	for i := 0; i < pages; i++ {
		agg += scanPage(c, e.sga, e.prm.RowsPerPage, sim.Time(e.prm.RowComputeCycles), (startPg+i)%e.prm.Pages)
	}
	return agg
}

// logAppend serializes one redo record into stripe s's wrapping buffer under
// that stripe's latch: committing writers of the same stripe contend for the
// latch and migrate the same few blocks between nodes, which is exactly the
// cross-node sharing that saturates the protocol first under open-loop load.
func (e *Env) logAppend(c *core.Proc, s int, rec uint64) {
	e.logLatch[s].Acquire(c)
	seq := c.Load(e.logSeq[s])
	c.Store(e.logBuf[s]+(seq%envLogSlots)*8, rec)
	c.Store(e.logSeq[s], seq+1)
	c.MemBar()
	e.logLatch[s].Release(c)
}

// LoadMix returns data-set parameters for the open-loop load subsystem: an
// OLTP-sized buffer cache with short per-row compute so transaction service
// time is dominated by latching and coherence, not compute — the regime
// where the protocol saturation knee is visible at modest tenant counts.
func LoadMix(pages int) Params {
	return Params{
		Pages: pages, RowsPerPage: 8, RowComputeCycles: 250,
		DaemonInteractEvery: 4, Query: "oltp", Txns: 1,
		Servers: 1, ServerCPUs: []int{0},
	}
}
