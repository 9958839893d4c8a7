// Package oracledb implements a miniature database engine with the system
// structure of Oracle 7.3 as run on Shasta (§4.3, §6.5): a buffer cache in
// a shared-memory segment, long-lived daemon processes (log writer, DB
// writer, process monitor), and server processes created with fork that do
// the query work — possibly on other nodes. Workloads model TPC-B (OLTP)
// and TPC-D (DSS) style benchmarks.
//
// The engine exercises exactly the OS machinery of §4: shmget/shmat,
// cluster fork, pid_block/pid_unblock for daemon hand-offs, kill for
// shutdown, file reads/writes with shared-memory argument validation, and
// dynamic process creation and destruction.
package oracledb

import (
	"fmt"

	"repro/internal/clusteros"
	"repro/internal/core"
	"repro/internal/dsmsync"
	"repro/internal/sim"
)

// PageBytes is the size of one buffer-cache page.
const PageBytes = 512

// noTransients disables the transient startup processes (debugging).
var noTransients bool

// ParamsError reports an invalid database configuration field with enough
// structure for callers (flag parsing, the load subsystem) to name the
// offending knob instead of surfacing a silent misbehavior.
type ParamsError struct {
	Field  string // the Params field that is invalid
	Reason string // why it was rejected
}

func (e *ParamsError) Error() string {
	return fmt.Sprintf("oracledb: invalid Params.%s: %s", e.Field, e.Reason)
}

// Params configures a database run.
type Params struct {
	// Servers is the number of query server processes; ServerCPUs gives
	// the CPU for each (Table 4 varies this placement).
	Servers    int
	ServerCPUs []int
	// DaemonCPU hosts the three daemons (the "extra processor" of the EX
	// runs when distinct from the server CPUs).
	DaemonCPU int
	// Pages is the table size in buffer-cache pages; the DSS-1 data set
	// is fully cached in memory (§6.5).
	Pages int
	// RowComputeCycles is per-row processing work; RowsPerPage the rows
	// scanned per page.
	RowsPerPage      int
	RowComputeCycles int
	// DaemonInteractEvery makes a server do one daemon round-trip (log
	// write hand-off via pid_block/pid_unblock) every N pages.
	DaemonInteractEvery int
	// Query selects the workload: "dss1", "dss2", or "oltp".
	Query string
	// Txns is the OLTP transaction count per server.
	Txns int
}

// Validate rejects structurally invalid parameters with a *ParamsError
// naming the offending field. Run calls it before spawning anything so a
// bad configuration fails loudly instead of hanging a zero-server run or
// silently executing zero transactions.
func (p *Params) Validate() error {
	if p.Servers <= 0 {
		return &ParamsError{Field: "Servers", Reason: fmt.Sprintf("must be positive, got %d", p.Servers)}
	}
	if len(p.ServerCPUs) != p.Servers {
		return &ParamsError{Field: "ServerCPUs", Reason: fmt.Sprintf("need a CPU for each of %d servers, got %d", p.Servers, len(p.ServerCPUs))}
	}
	switch p.Query {
	case "dss1", "dss2", "oltp":
	default:
		return &ParamsError{Field: "Query", Reason: fmt.Sprintf("unknown query %q (want dss1, dss2, or oltp)", p.Query)}
	}
	if p.Query == "oltp" && p.Txns <= 0 {
		return &ParamsError{Field: "Txns", Reason: fmt.Sprintf("oltp needs a positive transaction count, got %d", p.Txns)}
	}
	if p.Pages <= 0 {
		return &ParamsError{Field: "Pages", Reason: fmt.Sprintf("must be positive, got %d", p.Pages)}
	}
	if p.RowsPerPage <= 0 || PageBytes/8%p.RowsPerPage != 0 {
		return &ParamsError{Field: "RowsPerPage", Reason: fmt.Sprintf("must evenly divide the %d words of a page, got %d", PageBytes/8, p.RowsPerPage)}
	}
	return nil
}

// DSS1 returns parameters modeled after the paper's TPC-D-like DSS-1
// query: a small scan over fully cached tables.
func DSS1(servers int, serverCPUs []int, daemonCPU int) Params {
	return Params{
		Servers: servers, ServerCPUs: serverCPUs, DaemonCPU: daemonCPU,
		Pages: 96, RowsPerPage: 8, RowComputeCycles: 18000,
		DaemonInteractEvery: 24, Query: "dss1",
	}
}

// DSS2 is the larger decision-support query (about 10x DSS-1).
func DSS2(servers int, serverCPUs []int, daemonCPU int) Params {
	p := DSS1(servers, serverCPUs, daemonCPU)
	p.Pages = 384
	p.RowComputeCycles = 24000
	p.Query = "dss2"
	return p
}

// OLTP returns parameters modeled after TPC-B: short read-modify-write
// transactions with log writes. Writes to the database require a coherent
// file system, so OLTP runs must keep all processes on one node (§6.5).
func OLTP(servers int, serverCPUs []int, daemonCPU int, txns int) Params {
	return Params{
		Servers: servers, ServerCPUs: serverCPUs, DaemonCPU: daemonCPU,
		Pages: 128, RowsPerPage: 8, RowComputeCycles: 250,
		DaemonInteractEvery: 4, Query: "oltp", Txns: txns,
	}
}

// Result reports a run.
type Result struct {
	Params  Params
	Elapsed sim.Time   // query phase duration
	Stats   core.Stats // aggregate over all processes
	// ServerStats aggregates only the server processes (Figure 5's
	// breakdowns are for the servers doing the work).
	ServerStats core.Stats
}

// Run starts the database on the system and executes the workload. It
// spawns an init process which creates the data files, the SGA segment,
// the daemons and the servers, mirroring the Oracle startup sequence
// (several processes are created, some die almost immediately, then the
// servers do most of the work — §4.3.3).
func Run(sys *core.System, osl *clusteros.OS, prm Params) (*Result, error) {
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Params: prm}
	var serverProcs []*core.Proc

	sys.Spawn("init", prm.DaemonCPU, func(p *core.Proc) {
		osl.Attach(p)
		fs := osl.FS()
		fs.Create("/db/datafile")
		fs.Create("/db/redo.log")

		// SGA: buffer cache pages + per-page latches + daemon mailboxes.
		// Each page is its own coherence block (variable granularity,
		// §2.1), so a page travels as a unit.
		seg := osl.Shmget(p, prm.Pages*PageBytes, core.AllocOptions{BlockLines: PageBytes / 64, Home: core.HomeAt(0)})
		sga, _ := osl.Shmat(p, seg)
		mboxSeg := osl.Shmget(p, 3*64, core.AllocOptions{Home: core.HomeAt(0)})
		mbox, _ := osl.Shmat(p, mboxSeg)

		latches := make([]dsmsync.Lock, 16)
		for i := range latches {
			latches[i] = dsmsync.NewMPLock(sys, 0)
		}

		// Seed the datafile and warm the cache (the DSS tables are
		// cached in memory before the measured run — §6.5).
		fd, _ := osl.Open(p, "/db/datafile", 0)
		for pg := 0; pg < prm.Pages; pg++ {
			base := sga + uint64(pg*PageBytes)
			b := p.BatchStart(core.Range{Addr: base, Bytes: PageBytes, Write: true})
			for w := 0; w < PageBytes/8; w++ {
				b.Store(base+uint64(w*8), uint64(pg*1000+w))
			}
			p.BatchEnd(b)
		}
		osl.Write(p, fd, sga, prm.Pages*PageBytes)
		osl.Close(p, fd)

		// Transient startup processes that die almost immediately.
		if !noTransients {
			for i := 0; i < 2; i++ {
				osl.Fork(p, prm.DaemonCPU, func(c *core.Proc) { c.Compute(2000) })
			}
			// Reap the transient processes.
			osl.Wait(p)
			osl.Wait(p)
		}

		// Daemons: lgwr (log writer), dbwr (DB writer), pmon (monitor).
		// The redo-log hand-off is serialized by a latch, as the real
		// engine serializes log writes.
		d := &daemons{os: osl, sys: sys, mbox: mbox, logLatch: dsmsync.NewMPLock(sys, 0)}
		d.lgwr = osl.Fork(p, prm.DaemonCPU, func(c *core.Proc) { d.logWriter(c) })
		d.dbwr = osl.Fork(p, prm.DaemonCPU, func(c *core.Proc) { d.dbWriter(c, sga, prm.Pages) })
		d.pmon = osl.Fork(p, prm.DaemonCPU, func(c *core.Proc) { d.monitor(c) })

		// Measured phase: fork the servers, wait for them.
		start := p.Now()
		for s := 0; s < prm.Servers; s++ {
			s := s
			osl.Fork(p, prm.ServerCPUs[s], func(c *core.Proc) {
				serverProcs = append(serverProcs, c)
				server(c, osl, d, prm, sga, latches, s)
			})
		}
		for s := 0; s < prm.Servers; s++ {
			osl.Wait(p)
		}
		res.Elapsed = p.Now() - start

		// Shut the daemons down.
		d.shutdown = true
		for _, pid := range []int{d.lgwr, d.dbwr, d.pmon} {
			osl.PidUnblock(p, pid)
			osl.Wait(p)
		}
	})
	if err := sys.Run(); err != nil {
		return nil, fmt.Errorf("oracledb: %w", err)
	}
	res.Stats = sys.AggregateStats()
	for _, sp := range serverProcs {
		res.ServerStats.Add(sp.Stats())
	}
	return res, nil
}

// daemons holds daemon coordination state. The mailbox word tells a woken
// daemon which server to unblock when its work is done.
type daemons struct {
	os       *clusteros.OS
	sys      *core.System
	mbox     uint64
	logLatch dsmsync.Lock
	lgwr     int
	dbwr     int
	pmon     int
	shutdown bool
}

// logHandoff performs one serialized redo-log hand-off: the server posts
// its PID in the mailbox, wakes lgwr, and blocks until the daemon finishes
// the write and wakes it back (§4.3.1's daemon interaction).
func (d *daemons) logHandoff(c *core.Proc, osl *clusteros.OS, myPID int) {
	d.logLatch.Acquire(c)
	c.Store(d.mbox, uint64(myPID))
	c.MemBar()
	osl.PidUnblock(c, d.lgwr)
	osl.PidBlock(c)
	d.logLatch.Release(c)
}

// logWriter sleeps in pid_block; when a server hands off a log write, it
// appends to the redo log (a file write whose buffer is in shared memory)
// and wakes the requesting server (§4.3.1's daemon interaction).
func (d *daemons) logWriter(c *core.Proc) {
	fd, _ := d.os.Open(c, "/db/redo.log", 0)
	buf := d.sys.Alloc(512, core.AllocOptions{Home: core.HomeAt(0)})
	for {
		d.os.PidBlock(c)
		if d.shutdown {
			return
		}
		requester := int(c.Load(d.mbox))
		c.Store(buf, uint64(requester))
		d.os.Write(c, fd, buf, 512)
		if requester > 0 {
			d.os.PidUnblock(c, requester)
		}
	}
}

// dbWriter periodically flushes dirty pages to the datafile.
func (d *daemons) dbWriter(c *core.Proc, sga uint64, pages int) {
	fd, _ := d.os.Open(c, "/db/datafile", 0)
	pg := 0
	for {
		d.os.PidBlock(c)
		if d.shutdown {
			return
		}
		d.os.Seek(c, fd, pg*PageBytes)
		d.os.Write(c, fd, sga+uint64(pg*PageBytes), PageBytes)
		pg = (pg + 1) % pages
		requester := int(c.Load(d.mbox + 64))
		if requester > 0 {
			d.os.PidUnblock(c, requester)
		}
	}
}

// monitor is pmon: it wakes rarely and checks process state.
func (d *daemons) monitor(c *core.Proc) {
	for {
		d.os.PidBlock(c)
		if d.shutdown {
			return
		}
		c.Compute(3000)
	}
}

// server executes the configured query.
func server(c *core.Proc, osl *clusteros.OS, d *daemons, prm Params, sga uint64, latches []dsmsync.Lock, rank int) {
	switch prm.Query {
	case "oltp":
		serverOLTP(c, osl, d, prm, sga, latches, rank)
	default:
		serverDSS(c, osl, d, prm, sga, rank)
	}
}

// serverDSS scans this server's partition of the cached table, aggregating
// rows; every DaemonInteractEvery pages it blocks while lgwr completes a
// request on its behalf — the hand-off whose latency dominates the EQ runs
// of Figure 5.
func serverDSS(c *core.Proc, osl *clusteros.OS, d *daemons, prm Params, sga uint64, rank int) {
	myPID := osl.Getpid(c)
	per := prm.Pages / prm.Servers
	start, end := rank*per, (rank+1)*per
	if rank == prm.Servers-1 {
		end = prm.Pages
	}
	var agg uint64
	for pg := start; pg < end; pg++ {
		agg += scanPage(c, sga, prm.RowsPerPage, sim.Time(prm.RowComputeCycles), pg)
		if prm.DaemonInteractEvery > 0 && (pg-start+1)%prm.DaemonInteractEvery == 0 {
			d.logHandoff(c, osl, myPID)
		}
	}
	_ = agg
}

// scanPage aggregates the rows of one cached page through a read batch,
// charging the per-row compute cost. Shared by the closed-loop DSS servers
// and the Env.DSSTxn open-loop path so both issue identical access
// sequences.
func scanPage(c *core.Proc, sga uint64, rowsPerPage int, rowCompute sim.Time, pg int) uint64 {
	base := sga + uint64(pg*PageBytes)
	b := c.BatchStart(core.Range{Addr: base, Bytes: PageBytes, Write: false})
	rowW := PageBytes / 8 / rowsPerPage
	var agg uint64
	for r := 0; r < rowsPerPage; r++ {
		agg += b.Load(base + uint64(r*rowW*8))
		c.Compute(rowCompute)
	}
	c.BatchEnd(b)
	return agg
}

// rowRMW performs the latched read-modify-write of one account row: latch
// the page, increment the row under the latch, publish with a release
// barrier. Shared by the closed-loop OLTP servers and the Env.OLTPTxn
// open-loop path.
func rowRMW(c *core.Proc, sga uint64, latches []dsmsync.Lock, pg, rowWord int) {
	lk := latches[pg%len(latches)]
	lk.Acquire(c)
	row := sga + uint64(pg*PageBytes) + uint64(rowWord)*8
	c.Store(row, c.Load(row)+1)
	c.MemBar()
	lk.Release(c)
}

// serverOLTP runs TPC-B-like transactions: latch a page, read-modify-write
// an account row, then hand a log record to lgwr and wait for the commit.
func serverOLTP(c *core.Proc, osl *clusteros.OS, d *daemons, prm Params, sga uint64, latches []dsmsync.Lock, rank int) {
	myPID := osl.Getpid(c)
	r := c.Rand()
	for t := 0; t < prm.Txns; t++ {
		pg := r.Intn(prm.Pages)
		rowRMW(c, sga, latches, pg, r.Intn(PageBytes/8))
		c.Compute(sim.Time(prm.RowComputeCycles))
		if (t+1)%prm.DaemonInteractEvery == 0 {
			d.logHandoff(c, osl, myPID) // group commit
		}
	}
}
