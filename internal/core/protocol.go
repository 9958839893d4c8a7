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
		p.handleMessage(m, CatMessage)
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

// downgradeSiteNames does the same for downgradeAgent's target states.
var downgradeSiteNames = [...]string{
	Invalid:   "downgradeAgent:invalid",
	Shared:    "downgradeAgent:shared",
	Exclusive: "downgradeAgent:exclusive",
	Pending:   "downgradeAgent:pending",
}

// handleMessage dispatches one protocol message on the servicing process.
// The message is passed by pointer — the struct is ~128 bytes and used to
// be copied at every level of the dispatch chain — but ownership stays
// with the caller: retention points (home-side queues, deferred requests,
// retransmit entries) store value copies.
func (p *Proc) handleMessage(m *msg, cat TimeCategory) {
	s := p.sys
	if t := s.tr(p); t != nil {
		var delay sim.Time
		if m.arrive > 0 {
			delay = p.Sim.Now() - m.arrive
		}
		t.Emit(trace.Event{
			T: p.Sim.Now(), Cat: "msg", Ev: "handle",
			P: p.ID, O: m.from, Blk: m.block, S: m.kind.String(), A: delay,
		})
	}
	p.stats.N[CntMessagesHandled]++
	p.charge(cat, s.Cfg.Cost.MsgHandle)
	wasIn := p.inProtocol
	p.inProtocol = true
	defer func() { p.inProtocol = wasIn }()
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
	case msgDowngradeAck:
		p.dgAcks[m.block]++
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

// deferIfPending queues a forwarded request when this agent's copy is still
// in flight (the grant from the home can outrun the data reply). The
// request is re-executed when the local miss completes. A miss of except's
// (nil: nobody's) does not count: a request does not defer behind its own
// requester.
func (p *Proc) deferIfPending(m *msg, blk *blockInfo, except *Proc) bool {
	holder := p.mem.busy[blk.id]
	if holder == nil || holder == except || holder.mshr[blk.id] == nil {
		return false
	}
	holder.deferredReqs = append(holder.deferredReqs, *m)
	return true
}

// downgradeAgent transitions this agent's copy of a block to the target
// state: it marks the block pending (so concurrent local fills cannot slip
// between a private-table downgrade and the agent state change), downgrades
// every local private table (§2.3), optionally snapshots the data just
// before an invalidating transition, installs the final state, and wakes
// local processes waiting on the transition.
func (p *Proc) downgradeAgent(blk *blockInfo, to LineState, wantData bool) []uint64 {
	s := p.sys
	for !p.tryBeginTransition(blk, CatMessage) {
	}
	s.setAgentState(p.mem, blk, Pending)
	p.waitDowngrades(blk, to)
	var data []uint64
	if wantData {
		data = s.blockData(p.mem, blk)
	}
	if to == Invalid {
		p.fillAgentInvalid(blk)
	}
	s.setAgentState(p.mem, blk, to)
	traceEvent(p, blk, downgradeSiteNames[to])
	p.endTransition(blk)
	return data
}

// handleInval invalidates this agent's copy and acks the requester (§2.1).
func (p *Proc) handleInval(m *msg) {
	s := p.sys
	blk := s.blocks[m.block]
	p.stats.N[CntInvalidations]++
	p.invalidateAgent(blk)
	p.send(s.procs[m.reqProc], &msg{kind: msgInvalAck, block: blk.id, from: p.ID}, CatMessage)
}

// invalidateAgent drops this agent's copy of a block for a writer the home
// has already made owner: a remote sharer's on an invalidation message,
// the home's own from dirinval's serveMaster. It never waits for a local
// miss on the block, because that miss may itself be waiting, through the
// home or through the writer's fill, for the ack or the grant that follows
// (DESIGN.md §8 finding 9).
func (p *Proc) invalidateAgent(blk *blockInfo) {
	holder := p.mem.busy[blk.id]
	if holder != nil && holder.mshr[blk.id] != nil {
		// A miss by a local process is in flight. Local private copies
		// are dropped either way, but what the pending fill will install
		// depends on the miss kind. An upgrade serializes after this
		// invalidation at the home and installs fresh data, so absorbing
		// the inval is enough. A read fill, however, may predate the
		// invalidating writer (its reply can trail this inval on another
		// link), so the invalidation is remembered and re-applied the
		// moment the fill installs — otherwise a stale shared copy the
		// directory no longer tracks would survive. waitDowngrades skips
		// the holder's Pending entries, so the holder's reservation is
		// broken here: its SC upgrade may still be granted, after a
		// writeback, against newer data than its LL read.
		p.waitDowngrades(blk, Invalid)
		holder.invalidateLocalLLs(blk.firstLine)
		if mshr := holder.mshr[blk.id]; mshr != nil && !mshr.wantExcl {
			mshr.invalAfterFill = true
		}
	} else if p.mem.table[blk.firstLine] != Invalid {
		p.downgradeAgent(blk, Invalid, false)
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
			fillFlag(p.mem, l, s.wordsPerLine)
		}
	}
	p.invalidateLocalLLs(blk.firstLine)
}

// waitDowngrades brings every local process's private state table down to
// the target state for the block, using direct downgrades for processes
// outside application code (§4.3.4) and explicit messages otherwise (§2.3).
// It scans the private tables of the agent's processes: in Base-Shasta that
// is the process itself, whose private table is the agent table.
func (p *Proc) waitDowngrades(blk *blockInfo, to LineState) {
	s := p.sys
	expected := 0
	for _, q := range s.localProcs(p.agent) {
		if q == p {
			p.downgradeSelf(blk, to)
			continue
		}
		needs := false
		for l := blk.firstLine; l < blk.firstLine+blk.lines; l++ {
			if q.priv[l] > to && q.priv[l] != Pending {
				needs = true
				break
			}
		}
		if !needs {
			continue
		}
		if q.exited || (s.Cfg.DirectDowngrade && q.inProtocol && !q.pinned(blk)) {
			p.directDowngrade(q, blk, to)
			continue
		}
		// Explicit downgrade message; the target handles it at its next
		// poll or protocol entry.
		p.stats.N[CntDowngradesSent]++
		p.send(q, &msg{kind: msgDowngradeReq, block: blk.id, from: p.ID, downTo: to}, CatMessage)
		expected++
	}
	if expected > 0 {
		base := p.dgAcks[blk.id]
		want := base + expected
		p.stallWhile(CatMessage, func() bool { return p.dgAcks[blk.id] < want })
		p.dgAcks[blk.id] -= expected
		if p.dgAcks[blk.id] == 0 {
			delete(p.dgAcks, blk.id)
		}
	}
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

// directDowngrade edits another process's private state table (§4.3.4).
func (p *Proc) directDowngrade(q *Proc, blk *blockInfo, to LineState) {
	p.stats.N[CntDowngradesDirect]++
	p.charge(CatMessage, p.sys.Cfg.Cost.DirectDowngrade)
	q.downgradeSelf(blk, to)
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
	p.send(s.procs[m.from], &msg{kind: msgDowngradeAck, block: blk.id, from: p.ID}, CatMessage)
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
		// The SC upgrade was refused. Normally the line reverts to
		// invalid, but the home agent's copy is kept while the home record
		// names no owner: it is then the master copy, current under every
		// backend, and the home serves reads from it. The agent table goes
		// first: in Base-Shasta it is the private table too, and only a
		// line taken out of Pending is flag-filled.
		retain := p.agent == blk.homeAgent && s.homes[blk.id].owner == -1
		for l := blk.firstLine; l < blk.firstLine+blk.lines; l++ {
			if p.mem.table[l] == Pending {
				if retain {
					p.mem.table[l] = Shared
				} else {
					p.mem.table[l] = Invalid
					fillFlag(p.mem, l, s.wordsPerLine)
				}
			}
			if p.priv[l] == Pending {
				p.priv[l] = Invalid
				if retain {
					p.priv[l] = Shared
				}
			}
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
	if m.invalAfterFill && !m.scFailed {
		// An invalidation from a newer epoch raced ahead of this fill;
		// drop the just-installed copy so no stale data survives.
		// Stalled operations observe the invalid line and re-miss.
		traceEvent(p, blk, "finish:inval-after-fill")
		p.downgradeAgent(blk, Invalid, false)
	}
	p.freeMSHR(m)
	p.notifyAgentWaiters()
	if len(p.deferredReqs) > 0 {
		pending := p.deferredReqs
		p.deferredReqs = nil
		for i := range pending {
			p.handleMessage(&pending[i], CatMessage)
		}
		if p.deferredReqs == nil {
			// Nothing re-deferred during the replays: keep the slice's
			// capacity for the next deferral instead of reallocating.
			p.deferredReqs = pending[:0]
		}
	}
}
