package core

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the protocol-independent half of the coherence machinery:
// miss issue and completion (MSHRs), the one sender (send), message
// dispatch, the reply's, the invalidation's and its ack's handlers, and the
// intra-node downgrade path shared by every backend. The home record (owner,
// busy window, queue), the steps every home takes over it, the writeback's
// handler and the owner's half of a 3-hop transfer are in home.go; the
// protocol proper — what else a home keeps, serving the master copy, what a
// fill and a writeback mean — lives behind the Protocol interface
// (coherence.go) in the backend files (dirinval.go, tardis.go).

// issueMiss allocates an MSHR for the block and sends the appropriate
// request to the home (§2.1: read, read-exclusive, or exclusive/upgrade),
// with stores riding it. scMode marks a store-conditional upgrade, which
// the home may refuse. A miss sent to the process itself completes inside
// the call.
func (p *Proc) issueMiss(blk *blockInfo, wantExcl bool, stores []pendingStore, scMode bool) {
	s := p.sys
	if p.mem.busy[blk.id] != p {
		panic(fmt.Sprintf("core: %s issuing miss for block %d without the transition lock", p, blk.id))
	}
	m := p.allocMSHR()
	m.block = blk.id
	m.wantExcl = wantExcl
	m.scMode = scMode
	m.stores = append(m.stores, stores...)
	m.issued = p.Sim.Now()
	p.mshr[blk.id] = m
	p.outstanding++

	kind := s.proto.missKind(p, blk, wantExcl, scMode)
	for l := blk.firstLine; l < blk.firstLine+blk.lines; l++ {
		p.priv[l] = Pending
		p.mem.table[l] = Pending
	}
	traceEvent(p, blk, issueSiteNames[kind])
	req := msg{kind: kind, block: blk.id, from: p.ID, reqProc: p.ID}
	req.ts, req.rts = s.proto.stamp(p, blk, kind, 0, 0)
	p.send(s.procs[blk.home], &req, CatReadStall)
}

// send is the one way a process sends a message. To another process m goes
// over the wire (System.deliver), charged to cat. Sent to the process
// itself it never touches the wire: a reply (msgKind.isReply) is applied in
// place, and a request is handled as an arrival, at one MsgHandle charged
// to CatMessage.
func (p *Proc) send(to *Proc, m *msg, cat TimeCategory) {
	switch {
	case to != p:
		p.sys.deliver(p, to, m, cat)
	case m.kind.isReply():
		p.dispatch(m)
	default:
		p.handleMessage(m, CatMessage, 0)
	}
}

// issueSiteNames precomputes the per-kind "issue:" trace labels so the
// miss path does not concatenate strings when tracing is off.
var issueSiteNames = func() (out [len(msgKindNames)]string) {
	for k := range out {
		out[k] = "issue:" + msgKindNames[k]
	}
	return
}()

// downgradeSiteNames does the same for the target states of a downgrade.
var downgradeSiteNames = [...]string{Invalid: "downgradeAgent:invalid", Shared: "downgradeAgent:shared"}

// handleMessage dispatches one protocol message on the servicing process.
// The message is passed by pointer — the struct is ~128 bytes and used to
// be copied at every level of the dispatch chain — but ownership stays
// with the caller: retention points (home-side queues, deferred requests,
// retransmit entries) store value copies. lock is what taking m from a
// shared queue cost, 0 for any other message: it is charged with the
// handler's entry, and m is handled once it is paid.
func (p *Proc) handleMessage(m *msg, cat TimeCategory, lock sim.Time) {
	s := p.sys
	if t := s.tr(p); t != nil {
		at := p.Sim.Now() + lock
		var delay sim.Time
		if m.arrive > 0 {
			delay = at - m.arrive
		}
		t.Emit(trace.Event{
			T: at, Cat: "msg", Ev: "handle",
			P: p.ID, O: m.from, Blk: m.block, S: m.kind.String(), A: delay,
		})
	}
	p.stats.N[CntMessagesHandled]++
	p.charge(cat, lock+s.Cfg.Cost.MsgHandle)
	wasIn, outer := p.inProtocol, p.handling
	p.inProtocol, p.handling = true, m.kind
	p.depth++
	defer func() { p.inProtocol, p.handling = wasIn, outer; p.depth-- }()
	// Reliability sublayer: acknowledge sequenced messages at receipt and
	// suppress duplicate deliveries before they reach a handler. Ordering
	// was already restored by the link resequencer at enqueue time, so
	// every handler observes exactly-once, in-order semantics over a
	// lossy, reordering wire.
	if m.seq != 0 {
		p.sendNetAck(m, cat)
		if m.dup {
			p.stats.N[CntDupsSuppressed]++
			return
		}
		// Strip the wire sequence number: handlers may re-dispatch the
		// message internally (home-side queues, deferred requests), and
		// those replays must not look like duplicate deliveries.
		m.seq = 0
	}
	p.dispatch(m)
}

// dispatch routes an in-order, deduplicated message to its handler. Every
// handler is the core's, under either backend: the coherence ones call the
// backend's hooks for what a request, a fill or a writeback means beyond
// the core's home record, MSHR and data.
func (p *Proc) dispatch(m *msg) {
	s := p.sys
	switch m.kind {
	case msgReadReq, msgReadExclReq, msgUpgradeReq, msgSCUpgradeReq:
		s.handleHome(p, m)
	case msgReadReply, msgReadExclReply, msgUpgradeAck, msgSCFail:
		p.handleReply(m)
	case msgInvalAck:
		p.handleInvalAck(m)
	case msgInvalReq:
		p.handleInval(m)
	case msgShareWB, msgOwnerTransfer:
		s.handleWriteback(p, m)
	case msgFwdRead, msgFwdReadExcl:
		p.serveForward(m)
	case msgDowngradeReq:
		p.handleDowngradeReq(m)
	case msgLockReq:
		p.handleLockReq(m)
	case msgLockGrant:
		s.proto.observeTs(p, m.ts)
		p.granted[m.id] = true
	case msgLockRelease:
		p.handleLockRelease(m)
	case msgBarrierEnter:
		p.handleBarrierEnter(m)
	case msgBarrierRelease:
		p.handleBarrierRelease(m)
	case msgNetAck:
		p.handleNetAck(m)
	case msgUser:
		// User messages are applied on behalf of their target process —
		// which may be blocked in a system call — by whichever process
		// services them (§4.3.2).
		if s.userHandler != nil {
			s.userHandler(s.procs[m.reqProc], m.from, m.id, m.payload)
		}
	default:
		panic(fmt.Sprintf("core: %s cannot handle %s", p, m.kind))
	}
}

// blockData copies the block's contents out of an agent's memory into a
// buffer from the agent's pool (see pool.go for the recycle lifecycle).
func (s *System) blockData(mem *agentMem, blk *blockInfo) []uint64 {
	base := blk.firstLine * s.wordsPerLine
	n := blk.lines * s.wordsPerLine
	out := s.getBuf(mem, n)
	copy(out, mem.data[base:base+n])
	return out
}

// setAgentState sets the agent-level state of every line of a block.
func (s *System) setAgentState(mem *agentMem, blk *blockInfo, st LineState) {
	for l := blk.firstLine; l < blk.firstLine+blk.lines; l++ {
		mem.table[l] = st
	}
}

// deferIfPending queues a request on the block's open downgrade record, or
// behind a local miss (the grant from the home can outrun the data reply)
// whose holder re-executes it when the miss completes. A miss of except's
// (nil: nobody's) does not count: a request does not defer behind its own
// requester.
func (p *Proc) deferIfPending(m *msg, blk *blockInfo, except *Proc) bool {
	holder := p.mem.busy[blk.id]
	if r := p.mem.record(blk.id); r != nil {
		r.deferred = append(r.deferred, *m)
	} else if holder != nil && holder != except && holder.mshr[blk.id] != nil {
		holder.deferredReqs = append(holder.deferredReqs, *m)
	} else {
		return false
	}
	return true
}

// dgThen is what a downgrade record does once the agent's tables are down.
type dgThen uint8

const (
	thenNothing dgThen = iota
	thenSend
	thenHome    // grantFromHome
	thenForward // replyForward
)

// dgRecord is a downgrade of an agent's copy of a block in progress (§2.3):
// the node-mate that applies the last downgrade request finishes it and
// does what the handler that opened it left to do, so no handler waits.
type dgRecord struct {
	block, opener int
	pending       int       // requests not yet applied, +1 while the opener scans
	locked        bool      // it holds the transition lock and sets the agent's state
	to            LineState // the state the private tables go down to
	then          dgThen
	m             msg   // thenSend: the message, to m.reqProc; thenHome, thenForward: the request
	deferred      []msg // requests that found the record open
}

// ride makes a downgrade to invalid with nothing left to do send m, to
// m.reqProc, once it is done.
func (r *dgRecord) ride(m *msg) {
	if r.to != Invalid || r.then != thenNothing {
		panic(fmt.Sprintf("core: %s for block %d cannot wait on a downgrade to %v that then does %d", m.kind, r.block, r.to, r.then))
	}
	r.then, r.m = thenSend, *m
}

func (mem *agentMem) record(block int) *dgRecord {
	for i := range mem.dgs {
		if mem.dgs[i].block == block {
			return &mem.dgs[i]
		}
	}
	return nil
}

// downgradeAgent transitions this agent's copy of a block to the target
// state, then does then: it takes the transition lock, marks the block
// pending (so no local fill slips between a private-table downgrade and the
// agent state change) and downgrades every private table (downgradeMates).
// The lock is free: a handler never waits for it. A request that finds a
// downgrade holding it defers on the record (deferIfPending) or rides it
// (invalidateAgent), and one that finds a miss holding it defers on the miss
// or absorbs into it; reaching it held is a protocol bug.
func (p *Proc) downgradeAgent(blk *blockInfo, to LineState, then dgThen, m *msg) {
	if h := p.mem.busy[blk.id]; h != nil {
		panic(fmt.Sprintf("core: %s downgrades block %d while %s holds its transition lock", p, blk.id, h))
	}
	p.mem.busy[blk.id] = p
	p.sys.setAgentState(p.mem, blk, Pending)
	if r := p.mem.record(blk.id); r != nil {
		// finishMiss drops a copy while an invalidation its miss absorbed
		// is still downgrading node-mates: the copy goes with the last.
		r.locked = true
		p.downgradeSelf(blk, to)
		return
	}
	p.downgradeMates(blk, to, true, then, m)
}

// handleInval invalidates this agent's copy and acks the requester (§2.1).
// It defers on an open downgrade record of the block, never behind a local
// miss (except is the holder; see invalidateAgent).
func (p *Proc) handleInval(m *msg) {
	s := p.sys
	blk := s.blocks[m.block]
	if p.deferIfPending(m, blk, p.mem.busy[blk.id]) {
		return
	}
	p.stats.N[CntInvalidations]++
	p.invalidateAgent(blk, &msg{kind: msgInvalAck, block: blk.id, from: p.ID, reqProc: m.reqProc})
}

// invalidateAgent drops this agent's copy of a block for a writer the home
// has already made owner, then sends m to m.reqProc: a remote sharer's copy on
// an invalidation message, the home's own from dirinval's serveMaster. It
// never waits for a local miss on the block, because that miss may itself
// be waiting, through the home or through the writer's fill, for the ack or
// the grant that follows (DESIGN.md §8 finding 9), nor for a node-mate's
// downgrade of the copy.
func (p *Proc) invalidateAgent(blk *blockInfo, m *msg) {
	holder := p.mem.busy[blk.id]
	switch {
	case holder != nil && holder.mshr[blk.id] != nil:
		// A miss by a local process is in flight. Local private copies
		// are dropped either way (downgradeMates skips the holder's
		// Pending entries), but what the pending fill will install depends
		// on the miss kind. An upgrade serializes after this invalidation
		// at the home and installs fresh data, so absorbing the inval is
		// enough. A read fill, however, may predate the invalidating writer
		// (its reply can trail this inval on another link), so the
		// invalidation is remembered and re-applied the moment the fill
		// installs — otherwise a stale shared copy the directory no longer
		// tracks would survive. The holder's reservation is broken here:
		// its SC upgrade may still be granted, after a writeback, against
		// newer data than its LL read.
		holder.invalidateLocalLLs(blk.firstLine)
		if mshr := holder.mshr[blk.id]; !mshr.wantExcl {
			mshr.invalAfterFill = true
		}
		p.downgradeMates(blk, Invalid, false, thenSend, m)
	case holder != nil:
		// A node-mate's downgrade holds the lock: a miss of its completed
		// while the home sent its invalidations, and drops the copy it
		// installed (finishMiss). m goes once the copy is down.
		p.mem.record(blk.id).ride(m)
	case p.mem.table[blk.firstLine] != Invalid:
		p.downgradeAgent(blk, Invalid, thenSend, m)
	default:
		p.send(p.sys.procs[m.reqProc], m, CatMessage)
	}
}

// fillAgentInvalid stores the flag value into the block's words, deferring
// the fill for lines inside an open batch (§4.1), and clears per-line
// bookkeeping.
func (p *Proc) fillAgentInvalid(blk *blockInfo) {
	s := p.sys
	deferFill := false
	for _, q := range s.localProcs(p.agent) {
		if q.curBatch != nil && q.curBatch.covers(blk) {
			// Record every line of the block: the fill below is skipped
			// for the whole block, so multi-line blocks need all their
			// lines re-filled after the batch, not just the first.
			for l := blk.firstLine; l < blk.firstLine+blk.lines; l++ {
				q.deferredFills = append(q.deferredFills, l)
			}
			q.stats.N[CntDeferredFlagFills]++
			deferFill = true
		}
	}
	if !deferFill {
		for l := blk.firstLine; l < blk.firstLine+blk.lines; l++ {
			p.fillFlag(l)
		}
	}
	p.invalidateLocalLLs(blk.firstLine)
}

// downgradeMates opens a downgrade record (locked: holding the transition
// lock) and brings every local private table down to the target state: a
// process outside application code directly (§4.3.4), decided as it is
// edited, the others by message (§2.3). The direct edits are charged once
// the messages have left. In Base-Shasta the one table is the process's own.
func (p *Proc) downgradeMates(blk *blockInfo, to LineState, locked bool, then dgThen, m *msg) {
	s := p.sys
	if p.mem.record(blk.id) != nil {
		panic(fmt.Sprintf("core: %s opens a second downgrade record of block %d", p, blk.id))
	}
	r := dgRecord{block: blk.id, opener: p.ID, pending: 1, locked: locked, to: to, then: then}
	if m != nil {
		r.m = *m
	}
	p.mem.dgs = append(p.mem.dgs, r)
	direct, req := int64(0), msg{} // req: a literal inside the loop would escape
	for _, q := range s.localProcs(p.agent) {
		switch {
		case q == p:
			p.downgradeSelf(blk, to)
		case !q.needsDowngrade(blk, to):
		case q.exited || (s.Cfg.DirectDowngrade && q.inProtocol && !q.pinned(blk)):
			direct++
			q.downgradeSelf(blk, to)
		default:
			p.mem.record(blk.id).pending++ // re-read: a send can yield, and dgs grow
			p.stats.N[CntDowngradesSent]++
			req = msg{kind: msgDowngradeReq, block: blk.id, from: p.ID, downTo: to}
			p.send(q, &req, CatMessage)
		}
	}
	p.stats.N[CntDowngradesDirect] += direct
	p.charge(CatMessage, sim.Time(direct)*s.Cfg.Cost.DirectDowngrade)
	p.downgradeApplied(blk)
}

// needsDowngrade: p's private table holds a line of the block above to.
func (p *Proc) needsDowngrade(blk *blockInfo, to LineState) bool {
	for l := blk.firstLine; l < blk.firstLine+blk.lines; l++ {
		if p.priv[l] > to && p.priv[l] != Pending {
			return true
		}
	}
	return false
}

// downgradeSelf lowers this process's own private entries.
func (p *Proc) downgradeSelf(blk *blockInfo, to LineState) {
	for l := blk.firstLine; l < blk.firstLine+blk.lines; l++ {
		if p.priv[l] > to && p.priv[l] != Pending {
			p.priv[l] = to
		}
	}
	if to == Invalid {
		p.invalidateLocalLLs(blk.firstLine)
	}
}

// pinned reports whether any line of the block is within a shared-memory
// range validated for an in-flight system call (§4.3.4 footnote).
func (p *Proc) pinned(blk *blockInfo) bool {
	if len(p.pinnedLines) == 0 {
		return false
	}
	for l := blk.firstLine; l < blk.firstLine+blk.lines; l++ {
		if p.pinnedLines[l] {
			return true
		}
	}
	return false
}

// handleDowngradeReq services an explicit downgrade at its target.
func (p *Proc) handleDowngradeReq(m *msg) {
	s := p.sys
	blk := s.blocks[m.block]
	p.stats.N[CntDowngradesReceived]++
	p.charge(CatMessage, s.Cfg.Cost.DowngradeHandle)
	p.downgradeSelf(blk, m.downTo)
	p.downgradeApplied(blk)
}

// downgradeApplied counts one downgrade of the block's record as applied,
// at p; an opener that leaves the record open emits a "dg-open" line event.
// The last finishes the record: a locked one snapshots the data a reply
// carries before an invalidation flag-fills it, sets the agent's state and
// releases the lock. Then p does what was left to do and re-executes the
// requests deferred on the record, with a "dg-done" event if p is a mate.
func (p *Proc) downgradeApplied(blk *blockInfo) {
	s, mem := p.sys, p.mem
	r := mem.record(blk.id)
	if r.pending--; r.pending > 0 {
		if p.ID == r.opener {
			traceEvent(p, blk, "dg-open")
		}
		return
	}
	rec, last := *r, len(mem.dgs)-1
	*r, mem.dgs[last] = mem.dgs[last], dgRecord{}
	mem.dgs = mem.dgs[:last]
	var data []uint64
	if rec.locked {
		if rec.to == Invalid {
			if rec.then == thenHome || rec.then == thenForward {
				data = s.blockData(mem, blk)
			}
			p.fillAgentInvalid(blk)
		}
		s.setAgentState(mem, blk, rec.to)
		traceEvent(p, blk, downgradeSiteNames[rec.to])
		delete(mem.busy, blk.id)
		p.notifyAgentWaiters()
	}
	if p.ID != rec.opener {
		traceEvent(p, blk, "dg-done")
	}
	switch rec.then {
	case thenSend:
		rec.m.from = p.ID
		p.send(s.procs[rec.m.reqProc], &rec.m, CatMessage)
	case thenHome:
		p.grantFromHome(blk, &rec.m, data)
	case thenForward:
		p.replyForward(blk, &rec.m, data)
	}
	for i := range rec.deferred {
		p.handleMessage(&rec.deferred[i], CatMessage, 0)
	}
}

// handleReply records a home's (or forwarded owner's) reply in the
// requester's MSHR and installs the data it carries; what the grant means
// beyond shared or exclusive is the backend's (Protocol.noteFill). The
// reply completes the miss unless invalidation acks are still due; the
// process then observes the timestamp noteFill returned.
func (p *Proc) handleReply(m *msg) {
	s := p.sys
	mshr := p.mshr[m.block]
	if mshr == nil {
		panic(fmt.Sprintf("core: %s got %s for block %d with no MSHR", p, m.kind, m.block))
	}
	mshr.haveReply = true
	mshr.acksWanted = m.invals
	if s.brokenSkipInvalAck && m.invals > 0 {
		// Broken variant for counterexample tests: forget one expected
		// invalidation ack, so the miss can complete while a stale
		// sharer still holds a valid copy (single-writer violation).
		mshr.acksWanted--
	}
	mshr.grant = Shared
	if m.kind == msgReadExclReply || m.kind == msgUpgradeAck {
		mshr.grant = Exclusive
	}
	if m.kind == msgReadExclReply && !mshr.wantExcl {
		// A read granted exclusive (a migratory grant), recorded until the
		// agent's first store to it (Proc.performStore). The grant was
		// serialized at the home after any invalidation this miss absorbed,
		// so the copy it installs is current: dropping it after the fill
		// would lose the only copy of the block.
		mshr.invalAfterFill = false
		p.mem.noteUnwritten(m.block, len(s.blocks))
	}
	if m.kind == msgSCFail {
		mshr.scFailed = true
	}
	if m.data != nil {
		s.installData(p, p.mem, m)
	}
	ts := s.proto.noteFill(p, mshr, m.ts, m.rts)
	if mshr.complete() {
		p.finishMiss(mshr)
		s.proto.observeTs(p, ts)
	}
}

// handleInvalAck counts one invalidation acknowledgment.
func (p *Proc) handleInvalAck(m *msg) {
	mshr := p.mshr[m.block]
	if mshr == nil {
		panic(fmt.Sprintf("core: %s got inval-ack for block %d with no MSHR", p, m.block))
	}
	mshr.acksGot++
	if mshr.complete() {
		p.finishMiss(mshr)
	}
}

// finishMiss installs the final line states, performs buffered stores, and
// re-executes any requests deferred while the fill was in flight. An SC
// upgrade's store is performed only if the requester's reservation held
// until now; if it broke, the grant is installed all the same and the SC
// fails.
func (p *Proc) finishMiss(m *mshrEntry) {
	s := p.sys
	blk := s.blocks[m.block]
	stores := m.stores
	if m.scMode {
		// The issuing StoreCond reads the outcome from the proc after its
		// stall: the entry itself is recycled below.
		p.scMissFailed = m.scFailed || !p.llValid
		p.llValid = false
		if p.scMissFailed {
			stores = nil
		}
	}
	if m.scFailed {
		traceEvent(p, blk, "finish:scfail")
		// The SC upgrade was refused, and the copy it held reverts to
		// shared. The home agent's is kept while the home record names no
		// owner: it is then the master copy, current under every backend,
		// and the home serves reads from it. Any other is stale, and is
		// dropped after the fill like an invalidation that raced it, so
		// that node-mates that filled their private tables from it before
		// the SC are downgraded before it is flag-filled.
		m.invalAfterFill = p.agent != blk.homeAgent || s.homes[blk.id].owner != -1
		for l := blk.firstLine; l < blk.firstLine+blk.lines; l++ {
			p.mem.table[l], p.priv[l] = Shared, Shared
		}
	} else {
		st := m.grant
		if m.wantExcl {
			st = Exclusive
		}
		for l := blk.firstLine; l < blk.firstLine+blk.lines; l++ {
			p.priv[l] = st
			p.mem.table[l] = st
		}
		for _, st := range stores {
			p.performStore(st.addr, st.val, s.lineOf(st.addr))
		}
		if p.sys.tracer != nil {
			traceEvent(p, blk, fmt.Sprintf("finish:grant-%v-data%v-acks%d", st, m.grant != 0, m.acksWanted))
		}
	}
	delete(p.mshr, m.block)
	p.outstanding--
	p.endTransition(blk)
	if m.invalAfterFill {
		// An invalidation from a newer epoch raced ahead of this fill, or
		// the SC failed; drop the just-installed copy so no stale data
		// survives. Stalled operations observe the invalid line and re-miss.
		traceEvent(p, blk, "finish:inval-after-fill")
		p.downgradeAgent(blk, Invalid, thenNothing, nil)
	}
	p.freeMSHR(m)
	p.notifyAgentWaiters()
	if len(p.deferredReqs) > 0 {
		pending := p.deferredReqs
		p.deferredReqs = nil
		for i := range pending {
			p.handleMessage(&pending[i], CatMessage, 0)
		}
		if p.deferredReqs == nil {
			// Nothing re-deferred during the replays: keep the slice's
			// capacity for the next deferral instead of reallocating.
			p.deferredReqs = pending[:0]
		}
	}
}
