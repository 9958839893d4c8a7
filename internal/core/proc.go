package core

import (
	"fmt"
	"math/rand"

	"repro/internal/memchannel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Proc is one Shasta application process. Guest code runs inside the
// process body and accesses shared memory through the checked Load/Store
// API, which executes the same logic as the in-line checks inserted by the
// Shasta binary rewriter.
type Proc struct {
	ID   int
	Name string
	Sim  *sim.Proc

	sys   *System
	node  int
	cpu   int
	agent int

	mem  *agentMem   // this process's view of shared data
	priv []LineState // private state table (aliases mem.table in Base mode)

	replyQ *queueBox
	reqQ   *queueBox // only when SharedQueues is off; see procBox

	mshr        map[int]*mshrEntry
	mshrFree    []*mshrEntry // completed entries awaiting reuse (pool.go)
	outstanding int
	// scMissFailed is the outcome of the most recent store-conditional
	// upgrade miss — refused by the home, or the reservation broke before
	// the fill — latched by finishMiss (the MSHR entry itself is recycled
	// on completion). Only one SC miss is ever in flight per process —
	// StoreCond stalls on it synchronously.
	scMissFailed bool

	// Reliability sublayer state (ReliableDelivery only; see reliable.go).
	// Sequencing and resequencing are per link and live on System.
	retx      []*retxEntry // unacknowledged sends, in send order
	retxBySeq map[retxKey]*retxEntry

	deferredReqs []msg // forwarded requests deferred behind a fill
	// depth counts the handlers the process is inside and handling names
	// the innermost one's message: a handler never stalls (stallWhile).
	depth    int
	handling msgKind
	// Message-passing synchronization, indexed by lock / barrier ID and
	// grown by NewLock / NewBarrier: a grant not yet consumed, barrier
	// releases seen, barrier waits begun.
	granted      []bool
	barrierSeen  []int
	barrierWaits []int
	// handed is set with handedTs when a process of this agent wakes this
	// one from a lock or barrier wait: the release or grant timestamp this
	// process has yet to observe (see Proc.handOff).
	handed   bool
	handedTs int64

	// inProtocol is the not-in-application-code flag of §4.3.4: set while
	// executing protocol code or a system call, it permits other processes
	// to directly downgrade this process's private state table.
	inProtocol bool
	// pinnedLines are lines validated for an in-flight system call; direct
	// downgrades of these are disallowed (§4.3.4 footnote).
	pinnedLines map[int]bool

	deferredFills []int // lines logically invalid, flag fill deferred (§4.1)

	// The LL/SC reservation: set by LoadLocked, held through the SC's
	// protocol work, and cleared by the SC, a local store by another
	// process (stored) or an applied invalidation
	// (invalidateLocalLLs). llState is the line's state at the LL.
	llValid bool
	llLine  int
	llState LineState

	curBatch *Batch // &batch while a batch is open, else nil
	batch    Batch  // the one batch every BatchStart reuses

	override   TimeCategory // active stall category
	overridden bool

	pollGap sim.Time // cycles until the next back-edge poll in Compute
	// watching says a put to any queue the process serves wakes it
	// (watchQueues), and onAgent that a node-mate's change to agent state
	// does (stallOnAgent).
	watching, onAgent bool
	// While the process is parked on its queues, what it waits for there
	// (spareWake): quiet is the timetable of the stretch of a compute or a
	// spin it is taking (quietly); stalled says it waits in stallWhile, and
	// poked that a node-mate has since woken it for what its stall waits for
	// (wake).
	quiet          quietPlan
	stalled, poked bool

	stats Stats
	// seed is fixed at creation; rng is made from it on the first Rand.
	seed   int64
	rng    *rand.Rand
	exited bool
	// sendSeq numbers this process's wire transmissions for the queues'
	// canonical ordering key (see memchannel.Ord).
	sendSeq int64

	// OSData is used by the cluster OS layer for per-process state.
	OSData any

	// protoData holds the coherence backend's per-process state (tardis:
	// the process timestamp and poll clock). Keeping it on the Proc — not
	// in a backend-global map — preserves the shard-locality discipline
	// the parallel PDES engine relies on: a process's state is touched
	// only by code running on its own node's shard.
	protoData any
}

// Node returns the node this process runs on.
func (p *Proc) Node() int { return p.node }

// CPU returns the global CPU index this process is bound to.
func (p *Proc) CPU() int { return p.cpu }

// System returns the owning system.
func (p *Proc) System() *System { return p.sys }

// Stats returns this process's statistics.
func (p *Proc) Stats() *Stats { return &p.stats }

// Rand returns the process-local deterministic random source. Few
// processes draw from it, so it is seeded on the first call: seeding a
// source is most of what building a system would otherwise cost.
func (p *Proc) Rand() *rand.Rand {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.seed))
	}
	return p.rng
}

// Now returns the process's local simulated time.
func (p *Proc) Now() sim.Time { return p.Sim.Now() }

// Tracer returns the tracer that events attributed to this process must be
// emitted on: the node's private buffer during a parallel run (so workload
// layers never touch the shared main tracer from inside a window), the main
// tracer otherwise. Nil when tracing is disabled — callers guard Emit with
// a nil check, as everywhere else.
func (p *Proc) Tracer() *trace.Tracer { return p.sys.tr(p) }

// charge advances simulated time and attributes it to a category. While a
// stall is in progress (override set), all time funnels into the stall's
// category, matching the paper's breakdowns.
func (p *Proc) charge(cat TimeCategory, c sim.Time) {
	p.stats.Time[p.chargedTo(cat)] += c
	p.Sim.Advance(c)
}

// chargedTo returns the category time of category cat is attributed to: the
// stall's, while one is in progress.
func (p *Proc) chargedTo(cat TimeCategory) TimeCategory {
	if p.overridden {
		return p.override
	}
	return cat
}

// chargeWallClock attributes time that passed while waiting (Sim.Wait).
func (p *Proc) chargeWallClock(cat TimeCategory, c sim.Time) {
	if c <= 0 {
		return
	}
	p.stats.Time[p.chargedTo(cat)] += c
}

// Compute models application work: c cycles of it, with a loop back-edge
// poll every PollInterval cycles (§2.1).
//
// A poll that finds nothing is three instructions on a cached flag and
// changes nothing anybody can see, so a stretch of them is arithmetic, not
// events (computeQuiet). Two kinds of process still take every poll as an
// event of its own (computePolling): one on an engine without lookahead (a
// system with the cluster OS or with protocol processes), because there
// quantum expiry and sleeper displacement are taken where a process yields,
// and one that shares its CPU, a protocol process's included, because a
// process parked in the middle of a stretch would keep computing while the
// quantum gives the CPU to another.
func (p *Proc) Compute(c sim.Time) {
	s := p.sys
	switch {
	case !s.Cfg.Checks:
		p.charge(CatTask, c)
	case p.pollsQuietly():
		p.computeQuiet(c)
	default:
		p.computePolling(c)
	}
}

// pollsQuietly reports whether the process takes stretches of polls in
// closed form: it runs on an engine with lookahead and has its CPU to
// itself.
func (p *Proc) pollsQuietly() bool {
	return !p.sys.pollEach && p.sys.cpus[p.cpu].procs == 1
}

// computePolling is Compute one poll at a time, and the reference the closed
// form is tested against.
func (p *Proc) computePolling(c sim.Time) {
	for c > 0 {
		if p.pollGap <= 0 {
			p.Poll()
			p.pollGap = p.sys.Cfg.PollInterval
		}
		step := c
		if step > p.pollGap {
			step = p.pollGap
		}
		p.charge(CatTask, step)
		p.pollGap -= step
		c -= step
	}
}

// Poll executes one in-line message poll ("three instructions"): it tests
// the receive flag and services any ready messages.
func (p *Proc) Poll() {
	p.stats.N[CntPolls]++
	p.charge(CatPoll, p.sys.Cfg.Cost.Poll)
	p.polled()
}

// polled is what a poll does once it is charged and counted.
func (p *Proc) polled() {
	if every := p.sys.pollTickEvery; every > 0 && p.stats.N[CntPolls]%every == 0 {
		p.sys.proto.pollTick(p)
	}
	for p.serviceReady(CatMessage) {
	}
}

// forwardedStore returns the value of this process's own buffered store to
// addr, if an exclusive miss with such a store is in flight (read-own-write
// forwarding: even the Alpha memory model requires a processor to see its
// own stores).
func (p *Proc) forwardedStore(addr uint64) (uint64, bool) {
	if p.outstanding == 0 {
		return 0, false
	}
	blk := p.sys.lineBlock[p.sys.lineOf(addr)]
	m := p.mshr[int(blk)]
	if m == nil {
		return 0, false
	}
	for i := len(m.stores) - 1; i >= 0; i-- {
		if m.stores[i].addr == addr {
			return m.stores[i].val, true
		}
	}
	return 0, false
}

// Load performs a checked 64-bit load from shared memory.
func (p *Proc) Load(addr uint64) uint64 {
	v, _ := p.load(addr)
	return v
}

// load is Load, and also reports whether the load hit a word other than the
// flag value on the flag technique's fast path: a read of a copy cached in
// node memory, which only a write of the node changes (SpinWhile).
func (p *Proc) load(addr uint64) (uint64, bool) {
	p.stats.N[CntLoads]++
	s := p.sys
	if !s.Cfg.Checks {
		w := s.allocWord(addr)
		p.charge(CatTask, 1)
		if v, ok := p.forwardedStore(addr); ok {
			return v, false
		}
		return p.mem.data[w], false
	}
	w := s.wordOf(addr)
	if v, ok := p.forwardedStore(addr); ok {
		p.stats.N[CntLoadChecks]++
		p.charge(CatCheck, s.Cfg.Cost.LoadCheck)
		return v, false
	}
	line := s.lineOf(addr)
	if s.Cfg.FlagCheck {
		// Flag technique (§2.2): load the data, compare against the flag
		// value; only enter the protocol when it matches.
		p.stats.N[CntLoadChecks]++
		p.charge(CatCheck, s.Cfg.Cost.LoadCheck)
		return p.loaded(w, line)
	}
	// Full state-table check ("about seven instructions").
	p.stats.N[CntLoadChecks]++
	p.charge(CatCheck, s.Cfg.Cost.FullCheck)
	if st := p.priv[line]; st == Shared || st == Exclusive {
		return p.mem.data[w], false
	}
	p.loadMiss(line)
	return p.mem.data[w], false
}

// loaded is the rest of a flag-technique load of word w, on line, once its
// check is charged, and what load returns.
func (p *Proc) loaded(w, line int) (uint64, bool) {
	v := p.mem.data[w]
	if v != FlagWord {
		return v, true
	}
	p.charge(CatCheck, p.sys.Cfg.Cost.ProtocolEntry)
	if st := p.priv[line]; st == Shared || st == Exclusive {
		p.stats.N[CntFalseMisses]++
		return v, false
	}
	p.loadMiss(line)
	return p.mem.data[w], false
}

// loadMiss brings the line to at least shared state and returns. It waits
// for each miss of its own fetch reports in flight and asks again: in rare
// races the line is invalidated again before it could be used.
func (p *Proc) loadMiss(line int) {
	p.enterProtocol()
	defer p.exitProtocol()
	blk := p.sys.blockOf(line)
	for p.fetch(blk, line, false, nil, CatReadStall) {
		p.stallWhile(CatReadStall, func() bool { return p.mshr[blk.id] != nil })
	}
}

// fetch is the requester's side of a miss, for every access that waits for
// its block: Load, LoadLocked, Store and BatchStart. line is the line of blk
// the access checked. It returns false once the private entry allows the
// access, filling it from the node's copy if that allows it (localFill),
// and true if a miss of the process's own on blk is in flight. It waits out a
// node-mate's transition of the block, a Pending copy or a held transition
// lock, charged to cat. Otherwise it takes the transition lock, counts the
// miss, issues it with stores riding it, and returns true; a miss the
// process sends to itself has completed by then.
func (p *Proc) fetch(blk *blockInfo, line int, write bool, stores []pendingStore, cat TimeCategory) bool {
	for {
		// The private entry goes first: a miss of the process's own holds
		// it Pending, and a batch's hits skip the MSHR lookup.
		if st := p.priv[line]; st == Exclusive || (st == Shared && !write) {
			return false
		}
		if p.mshr[blk.id] != nil {
			return true
		}
		switch st := p.mem.table[line]; {
		case st == Exclusive || (st == Shared && !write):
			p.localFill(line)
			continue
		case st == Pending:
			p.stallOnAgent(cat, func() bool { return p.mem.table[line] == Pending && p.mshr[blk.id] == nil })
			continue
		}
		if !p.tryBeginTransition(blk, cat) {
			continue
		}
		if write {
			p.stats.N[CntWriteMisses]++
		} else {
			p.stats.N[CntReadMisses]++
		}
		p.issueMiss(blk, write, stores, false)
		return true
	}
}

// localFill upgrades the private table from the node's shared table (SMP).
// It reports false if the node state changed while the fill was charged
// (the caller must re-evaluate) — the SMP-Shasta protocol guarantees this
// by holding the line pending during agent-level transitions.
func (p *Proc) localFill(line int) bool {
	s := p.sys
	p.charge(CatCheck, s.Cfg.Cost.NodeFill)
	st := p.mem.table[line]
	if st != Shared && st != Exclusive {
		return false
	}
	p.stats.N[CntLocalFills]++
	blk := s.blockOf(line)
	for l := blk.firstLine; l < blk.firstLine+blk.lines; l++ {
		p.priv[l] = st
	}
	return true
}

// stallOnAgent is stallWhile for conditions over this agent's shared state
// (pending fills, transition locks): the stalled process sets its onAgent
// flag so completions wake it — and only it — rather than every local
// process (notifyAgentWaiters). A flag needs no count: such stalls never
// nest, since a handler never stalls (stallWhile); one that would panics.
func (p *Proc) stallOnAgent(cat TimeCategory, cond func() bool) {
	if p.onAgent {
		panic(fmt.Sprintf("core: %s stalls on agent state twice", p))
	}
	p.onAgent = true
	p.stallWhile(cat, cond)
	p.onAgent = false
}

// notifyAgentWaiters wakes the local processes stalled on agent state, in
// the order they were built.
func (p *Proc) notifyAgentWaiters() {
	now := p.Sim.Now()
	for _, q := range p.sys.localProcs(p.agent) {
		if q.onAgent && q != p {
			q.wake(now)
		}
	}
}

// wake notifies p, stalled for something a node-mate has just done in the
// memory they share, at time t (see spareWake).
func (p *Proc) wake(t sim.Time) {
	p.poked = true
	p.Sim.NotifyAt(t)
}

// tryBeginTransition attempts to take the agent-level transition lock for
// the block. It returns true when the lock was acquired without yielding,
// so the caller's state checks are still valid; if the lock was busy it
// waits for the holder to finish and returns false, and the caller must
// re-evaluate. In Base-Shasta the only possible holder is the process
// itself, and every caller has first waited out its own miss on the block,
// so the lock is never busy there.
func (p *Proc) tryBeginTransition(blk *blockInfo, cat TimeCategory) bool {
	if p.mem.busy[blk.id] == nil {
		p.mem.busy[blk.id] = p
		return true
	}
	p.stallOnAgent(cat, func() bool { return p.mem.busy[blk.id] != nil })
	return false
}

// endTransition releases the agent-level transition lock and wakes local
// processes waiting on it.
func (p *Proc) endTransition(blk *blockInfo) {
	if p.mem.busy[blk.id] != p {
		panic(fmt.Sprintf("core: %s releasing transition lock it does not hold (block %d)", p, blk.id))
	}
	delete(p.mem.busy, blk.id)
	p.notifyAgentWaiters()
}

// debugForceDup, when non-nil, is consulted with a global index for each
// message offered to the wire; returning true injects a duplicate copy of
// that message (sequenced messages only — tests of delivery idempotence).
var debugForceDup func(n int64) bool

// SetDebugForceDup installs the duplicate-injection hook (tests only).
func SetDebugForceDup(fn func(n int64) bool) { debugForceDup = fn }

func traceEvent(p *Proc, blk *blockInfo, site string) {
	if t := p.sys.tr(p); t != nil {
		t.Emit(trace.Event{T: p.Sim.Now(), Cat: "line", Ev: site, P: p.ID, Blk: blk.id})
	}
}

// performStore completes a store on this process's exclusive copy: every
// checked store does, in line or within the protocol. It writes the word,
// shows it to the model checker's ghost memory, and breaks the LL
// reservations node-mates hold on the line. The first store since a
// migratory grant clears the agent's granted-unwritten record of the block;
// it takes the copy from exclusive-clean to exclusive-dirty, a protocol
// entry in a software DSM, so it is charged one. Then the backend's hook
// runs.
func (p *Proc) performStore(addr, v uint64, line int) {
	s := p.sys
	p.mem.data[s.wordOf(addr)] = v
	if s.onStorePerform != nil {
		s.onStorePerform(p, addr, v)
	}
	p.stored(line)
	if p.mem.takeUnwritten(int(s.lineBlock[line])) {
		p.charge(CatCheck, s.Cfg.Cost.ProtocolEntry)
	}
	s.proto.noteStoreHit(p, line)
}

// Store performs a checked 64-bit store to shared memory.
func (p *Proc) Store(addr uint64, v uint64) {
	p.stats.N[CntStores]++
	s := p.sys
	if !s.Cfg.Checks {
		w := s.allocWord(addr)
		p.charge(CatTask, 1)
		p.mem.data[w] = v
		return
	}
	line := s.lineOf(addr)
	p.stats.N[CntStoreChecks]++
	p.charge(CatCheck, s.Cfg.Cost.FullCheck)
	if p.priv[line] == Exclusive {
		p.performStore(addr, v, line)
		return
	}
	p.storeMiss(addr, v, line)
}

// storeMiss obtains exclusive ownership and performs the store. A store to
// a block with an exclusive miss of the process's in flight merges into it;
// one behind a read miss waits for it and asks again. Otherwise fetch
// issues the miss with the store riding it, and under release consistency
// the store is non-blocking: finishMiss performs it with the fill. Under
// sequential consistency the store waits for the fill and then asks again,
// so it is performed once more on the line it obtained.
func (p *Proc) storeMiss(addr, v uint64, line int) {
	p.enterProtocol()
	defer p.exitProtocol()
	sc := p.sys.Cfg.Consistency == SequentiallyConsistent
	blk := p.sys.blockOf(line)
	inFlight := func() bool { return p.mshr[blk.id] != nil }
	for {
		if m := p.mshr[blk.id]; m != nil {
			if !m.wantExcl {
				p.stallWhile(CatWriteStall, inFlight)
				continue
			}
			m.stores = append(m.stores, pendingStore{addr, v})
			if sc {
				p.stallWhile(CatWriteStall, inFlight)
			}
			return
		}
		if !p.fetch(blk, line, true, []pendingStore{{addr, v}}, CatWriteStall) {
			p.performStore(addr, v, line)
			return
		}
		if !sc {
			return
		}
		p.stallWhile(CatWriteStall, inFlight)
	}
}

// MemBar executes a memory barrier (§3.2.3): protocol code runs after the
// hardware MB, completing all outstanding operations and servicing any
// received invalidations. Then the process observes its own release
// timestamp, so that under Tardis its later loads follow its earlier stores
// in logical time.
func (p *Proc) MemBar() {
	s := p.sys
	p.stats.N[CntMemoryBarriers]++
	if !s.Cfg.Checks {
		p.charge(CatTask, 1)
		return
	}
	cost := s.Cfg.Cost.MBBase
	if s.Cfg.SMP {
		cost = s.Cfg.Cost.MBSMP
	}
	p.charge(CatMBStall, cost)
	if p.outstanding > 0 {
		p.enterProtocol()
		p.stallWhile(CatMBStall, func() bool { return p.outstanding > 0 })
		p.exitProtocol()
	}
	s.proto.observeTs(p, s.proto.syncTs(p))
}

// RawLoad reads shared memory without any in-line check — what an
// un-instrumented binary does. Correct only when the data is known
// coherent (single node, or inside a validated batch).
func (p *Proc) RawLoad(addr uint64) uint64 {
	w := p.sys.allocWord(addr)
	p.stats.N[CntLoads]++
	p.charge(CatTask, 1)
	return p.mem.data[w]
}

// RawStore writes shared memory without any in-line check.
func (p *Proc) RawStore(addr uint64, v uint64) {
	line := p.sys.lineOf(addr)
	p.stats.N[CntStores]++
	p.charge(CatTask, 1)
	p.mem.data[p.sys.wordOf(addr)] = v
	p.stored(line)
}

// ElidedLoad performs a load whose in-line check the rewriter statically
// eliminated: an earlier check of the same line dominates this access with
// no intervening protocol entry, so the line cannot have been flag-filled
// in between (invalidations are only applied at protocol entries, and an
// agent's copy is flag-filled only once we have applied our downgrade).
// Only read-own-write forwarding remains: under RC the covering check may
// itself have returned a buffered store value without validating the line,
// in which case this access (to the same address — the analysis only trusts
// exact-offset facts while a store miss may be outstanding) must see that
// store too.
func (p *Proc) ElidedLoad(addr uint64) uint64 {
	w := p.sys.allocWord(addr)
	p.stats.N[CntLoads]++
	p.stats.N[CntElidedChecks]++
	p.charge(CatTask, 1)
	if v, ok := p.forwardedStore(addr); ok {
		return v
	}
	return p.mem.data[w]
}

// ElidedLoadValid reports whether an ElidedLoad at addr would read coherent
// data right now: a buffered store of our own forwards, the line is valid
// in the private state table, or — under the flag technique — the word
// holds non-flag data (the fast path of a load check validates exactly
// this without ever touching the state table, so a line can be readable
// while its private state still says Invalid). A genuine datum equal to
// FlagWord reports invalid here, erring toward a sanitizer report. The
// interpreter's sanitizer mode uses this to cross-check the rewriter's
// static elimination proof.
func (p *Proc) ElidedLoadValid(addr uint64) bool {
	if !p.sys.Cfg.Checks {
		return true
	}
	if _, ok := p.forwardedStore(addr); ok {
		return true
	}
	if st := p.priv[p.sys.lineOf(addr)]; st == Shared || st == Exclusive {
		return true
	}
	return p.sys.Cfg.FlagCheck && p.mem.data[p.sys.wordOf(addr)] != FlagWord
}

// SyscallEnter marks the process as executing a system call: it is outside
// application code (§4.3.4), so other processes may directly downgrade its
// private state table while it is (possibly) blocked in the kernel.
func (p *Proc) SyscallEnter() { p.enterProtocol() }

// SyscallExit returns the process to application code.
func (p *Proc) SyscallExit() { p.exitProtocol() }

// PinRange records that a system call may access the given shared range;
// direct downgrades of these lines are disallowed for the duration
// (§4.3.4 footnote).
func (p *Proc) PinRange(addr uint64, bytes int) {
	if bytes <= 0 {
		return
	}
	first := p.sys.lineOf(addr)
	last := p.sys.lineOf(addr + uint64(bytes) - 1)
	for l := first; l <= last; l++ {
		p.pinnedLines[l] = true
	}
}

// UnpinAll clears all system-call range pins.
func (p *Proc) UnpinAll() {
	for l := range p.pinnedLines {
		delete(p.pinnedLines, l)
	}
}

// ChargeTime advances simulated time, attributing it to the category (used
// by the cluster OS layer for system call costs).
func (p *Proc) ChargeTime(cat TimeCategory, c sim.Time) { p.charge(cat, c) }

// AccountWait attributes time that elapsed while the process was blocked.
func (p *Proc) AccountWait(cat TimeCategory, dt sim.Time) { p.chargeWallClock(cat, dt) }

// Outstanding returns the number of incomplete misses.
func (p *Proc) Outstanding() int { return p.outstanding }

// DrainOutstanding waits for all outstanding misses to complete.
func (p *Proc) DrainOutstanding() { p.drainOutstanding() }

// drainOutstanding stalls until all outstanding misses complete (release
// semantics for the built-in synchronization routines).
func (p *Proc) drainOutstanding() {
	if p.outstanding > 0 {
		p.stallWhile(CatMBStall, func() bool { return p.outstanding > 0 })
	}
}

// enterProtocol marks the process as outside application code (§4.3.4).
func (p *Proc) enterProtocol() { p.inProtocol = true }

func (p *Proc) exitProtocol() {
	if p.curBatch == nil && len(p.deferredFills) > 0 {
		p.applyDeferredFills()
	}
	p.inProtocol = false
}

// stallWhile services messages and waits until cond becomes false, charging
// all elapsed time to cat.
func (p *Proc) stallWhile(cat TimeCategory, cond func() bool) {
	if p.depth > 0 {
		panic(fmt.Sprintf("core: %s stalls inside its %s handler", p, p.handling))
	}
	if !cond() {
		return
	}
	prevOv, prevCat := p.overridden, p.override
	p.overridden, p.override = true, cat
	p.watchQueues()
	defer func() { p.overridden, p.override, p.watching = prevOv, prevCat, false }()
	for cond() {
		if p.serviceReady(cat) {
			continue
		}
		before := p.Sim.Now()
		if a, ok := p.nextArrival(); ok {
			p.Sim.NotifyAt(a)
		}
		p.stalled, p.poked = true, false
		p.Sim.Wait()
		p.stalled = false
		p.chargeWallClock(cat, p.Sim.Now()-before)
	}
}

// procBox is the queue of p's requests that are not its agent's: its own
// without shared queues, its CPU's with them.
func (p *Proc) procBox() *queueBox {
	if p.reqQ != nil {
		return p.reqQ
	}
	return p.sys.cpus[p.cpu].reqQ
}

// watchQueues has a message put on any queue the process serves — its reply
// queue, procBox and its agent's queue if there is one, each of which lists
// it from its construction (newProc) — wake it, until it clears watching.
// Waits never nest (stallWhile); one that would panics.
func (p *Proc) watchQueues() {
	if p.watching {
		panic(fmt.Sprintf("core: %s watches its queues twice", p))
	}
	p.watching = true
}

// nextArrival returns the earliest queued arrival on any watched queue.
func (p *Proc) nextArrival() (sim.Time, bool) {
	best := sim.Forever
	ok := false
	if a, has := p.replyQ.q.NextArrival(); has && a < best {
		best, ok = a, true
	}
	if a, has := p.procBox().q.NextArrival(); has && a < best {
		best, ok = a, true
	}
	if q := p.mem.reqQ; q != nil {
		if a, has := q.q.NextArrival(); has && a < best {
			best, ok = a, true
		}
	}
	if d, has := p.nextRetxDeadline(); has && d < best {
		best, ok = d, true
	}
	return best, ok
}

// spareWake moves the wake of a process parked on its queues, woken for a
// message another process has taken, to when it next has something to do:
// the next arrival on its queues or a retransmission (at the poll that
// finds it, in a stretch: wakeFor), the stop of the stretch's park, or the
// load of a spin that sees a node-mate's write, whichever is first. One
// parked in stallWhile keeps its wake if a node-mate has woken it since
// (what its stall waits for may have come); a message that ends a stall is
// on its queues. One serving after its exit waits for nothing else. The
// wake it spares changes nothing: a poll, a stall or a server that finds
// nothing just sleeps on.
func (p *Proc) spareWake() {
	t := sim.Forever
	switch {
	case p.quiet.stop > 0:
		t = min(p.quiet.stop, p.quiet.seen)
	case p.exited:
	case !p.stalled || p.poked:
		return
	}
	if a, ok := p.nextArrival(); ok {
		t = min(t, p.wakeFor(a))
	}
	p.Sim.DelayWake(t)
}

// serviceReady pops and services one ready message: from the reply queue
// first, then the earlier arrival of procBox and the agent's queue (procBox
// on a tie); it reports whether anything was handled.
func (p *Proc) serviceReady(cat TimeCategory) bool {
	now := p.Sim.Now()
	if p.pumpReliability(cat) {
		return true
	}
	if m, ok := p.replyQ.q.Pop(now); ok {
		p.handleMessage(&m, cat, 0)
		return true
	}
	box := p.procBox()
	if a := p.mem.reqQ; a != nil {
		if at, ok := a.q.NextArrival(); ok && at <= now {
			if bt, ok := box.q.NextArrival(); !ok || bt > at {
				box = a
			}
		}
	}
	m, ok := box.q.Pop(now)
	if !ok {
		return false
	}
	if len(box.waiters) > 1 {
		box.spare(p)
	}
	var lock sim.Time
	if p.sys.Cfg.SharedQueues {
		lock = p.sys.Cfg.Cost.QueueLock
	}
	p.handleMessage(&m, cat, lock)
	return true
}

// stored is what a store of p's to a line of its agent's memory does to the
// agent's other processes: it clears the lock flag of any that has a
// load-locked outstanding on the line (hardware LL/SC semantics), and ends
// the spin of any spinning on it (sawWrite).
func (p *Proc) stored(line int) {
	for _, q := range p.sys.localProcs(p.agent) {
		if q != p {
			q.invalidateLocalLLs(line)
			q.sawWrite(p, line, 1)
		}
	}
}

// invalidateLocalLLs clears lock flags on this process for a line that has
// been invalidated or downgraded by the protocol.
func (p *Proc) invalidateLocalLLs(line int) {
	if p.llValid && p.llLine == line {
		p.llValid = false
	}
}

// applyDeferredFills stores the flag value into lines whose invalidation
// was deferred past a batch (§4.1).
func (p *Proc) applyDeferredFills() {
	s := p.sys
	for _, line := range p.deferredFills {
		if p.priv[line] != Invalid {
			continue // re-fetched since
		}
		if p.mem.table[line] != Invalid {
			continue // the agent has a valid copy again; data is live
		}
		// A co-resident process may still be inside a batch covering this
		// line: it shares the node copy, and its batched loads are still
		// entitled to the old contents (§4.1). Hand the fill to it instead
		// of clobbering the data under it.
		handed := false
		for _, q := range s.localProcs(p.agent) {
			if q != p && q.curBatch != nil && q.curBatch.lines[line] {
				q.deferredFills = append(q.deferredFills, line)
				handed = true
			}
		}
		if handed {
			continue
		}
		p.fillFlag(line)
	}
	p.deferredFills = p.deferredFills[:0]
}

// fillFlag stores the flag value into the line's words in the agent's
// memory, which ends node-mates' spins on it.
func (p *Proc) fillFlag(line int) {
	s := p.sys
	base := line * s.wordsPerLine
	for w := 0; w < s.wordsPerLine; w++ {
		p.mem.data[base+w] = FlagWord
	}
	p.wroteLines(p.agent, line, 1)
}

// serveAfterExit keeps the Shasta process serving requests for its
// protocol and application data after the application process terminates
// (§4.3.3). It waits on its queues as a stall does, off its CPU: the run
// ends when it and every other process have nothing left to do
// (sim.Proc.Serve), so it never returns.
func (p *Proc) serveAfterExit() {
	p.watchQueues()
	defer func() { p.watching = false }()
	for {
		if p.serviceReady(CatMessage) {
			continue
		}
		if a, ok := p.nextArrival(); ok {
			p.Sim.NotifyAt(a)
		}
		p.Sim.Serve()
	}
}

// nextOrd allocates the canonical ordering key for one wire transmission
// sent by this process at the given time (see memchannel.Ord).
func (p *Proc) nextOrd(now sim.Time) memchannel.Ord {
	p.sendSeq++
	return memchannel.Ord{At: now, Sender: p.ID, Seq: p.sendSeq}
}

// Exited reports whether the process body has returned.
func (p *Proc) Exited() bool { return p.exited }

func (p *Proc) String() string {
	return fmt.Sprintf("%s[%d]@n%dc%d", p.Name, p.ID, p.node, p.cpu)
}
