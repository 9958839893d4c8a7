package core

// The home every backend shares (§2.1). A block's home serves a request
// from the master copy, grants it from its own agent's copy, or forwards
// it to a remote owner and holds later requests until the transfer lands;
// the owner downgrades, replies to the requester and writes back to the
// home (serveForward). The record, the one switch on its owner
// (handleHome), the busy window, the owner's half and the writeback that
// closes the window (handleWriteback) are the core's. An owner of -1 means
// the master copy is valid, under every backend. What a grant means —
// sharer sets, timestamps, and serving from the master copy — is the
// backend's, through its hooks (Protocol.noteRequest, serveMaster,
// grantOwned, stamp and noteWriteback). Nothing here asks which backend
// that is. The migratory-sharing record is the core's too (migEntry); a
// backend says only when a request classifies a block, and on what
// evidence.

import "fmt"

// homeEntry is the per-block record kept at the block's home, indexed by
// block ID in System.homes and touched by home-side handlers alone.
type homeEntry struct {
	owner        int   // owning agent, -1 while the home's master copy is valid
	pendingOwner int   // next owner during a busy ownership transfer, -1 otherwise
	busy         bool  // a forward, or the home's own downgrade, is in flight
	queue        []msg // requests that arrived while busy
	mig          migEntry
}

// migEntry is the home's migratory-sharing record of a block, after Cox &
// Fowler and Stenström, Brorsson & Sandberg (ISCA '93; DESIGN.md §5 item
// 8). A block that moves read-then-write from agent to agent is migratory,
// and a read of it the requester's agent does not own is granted exclusive,
// so the write that follows is a hit. The backend classifies the block on a
// write (classify): each has its own predicate for "read-then-write handed
// on", over the last writer and what else it knows of the readers since. A
// grantee that gives the block up without storing to it sets never: the
// block stays ordinary from then on, so a block many agents read and few
// write is not granted on a read over and over.
type migEntry struct {
	// writer is the agent of the last exclusive grant, -1 before the first:
	// what the home's processes wrote into the block before anybody asked
	// for it does not count.
	writer int
	// reader is what the home served reads to since that grant: noReader,
	// one agent, or manyReaders. Only Tardis, which keeps no sharer set,
	// records it.
	reader    int
	migratory bool
	never     bool
}

const (
	noReader    = -1
	manyReaders = -2
)

// classify runs on a write the backend classifies on, from agent
// reqAgent: the block becomes migratory when it has a last writer other
// than the requester, it was never declassified, and the backend's own
// predicate, handedOn, says nobody but the two of them shared it since.
// Otherwise it stops being migratory.
func (s *System) classify(p *Proc, blk *blockInfo, reqAgent int, handedOn bool) {
	mg := &s.homes[blk.id].mig
	was := mg.migratory
	mg.migratory = handedOn && !mg.never && mg.writer >= 0 && mg.writer != reqAgent
	if mg.migratory && !was {
		traceEvent(p, blk, "migratory")
	}
}

// noteGrant records an exclusive grant of the block to reqAgent, its last
// writer from now on, for a request of kind; a read granted exclusive is a
// migratory grant.
func (s *System) noteGrant(p *Proc, blk *blockInfo, reqAgent int, kind msgKind) {
	mg := &s.homes[blk.id].mig
	mg.writer, mg.reader = reqAgent, noReader
	if kind == msgReadReq {
		traceEvent(p, blk, "grant-migratory")
	}
}

// noteRead records a read served to reqAgent since the last grant.
func (s *System) noteRead(blk *blockInfo, reqAgent int) {
	switch mg := &s.homes[blk.id].mig; mg.reader {
	case noReader:
		mg.reader = reqAgent
	case reqAgent:
	default:
		mg.reader = manyReaders
	}
}

// declassify makes the block ordinary for good: an agent granted it on a
// read gave it up unwritten.
func (s *System) declassify(p *Proc, blk *blockInfo) {
	mg := &s.homes[blk.id].mig
	mg.migratory, mg.never = false, true
	traceEvent(p, blk, "declassify")
}

// handleHome services a request at the block's home (§2.1), for both
// backends. A request that finds the block busy queues behind the transfer
// in flight; otherwise its process is recorded as the one of its node to
// send later forwards and invalidations to, and the backend notes it
// (Protocol.noteRequest). A read of a migratory block, and a plain upgrade
// whose copy was lost in flight, are then served as read-exclusives, and an
// SC upgrade of an owned block fails. What is left is one switch on the
// owner: the master copy is valid (the backend serves it), the home agent
// owns the block (it downgrades its own copy and replies), or another agent
// does (the home forwards the request to it). The backend stamps both of
// the last two grants (Protocol.grantOwned).
func (s *System) handleHome(p *Proc, m *msg) {
	blk := s.blocks[m.block]
	h := &s.homes[blk.id]
	if h.busy {
		h.queue = append(h.queue, *m)
		return
	}
	req := s.procs[m.reqProc]
	s.noteRequester(blk, req)
	reqAgent := s.agentOf(req)
	s.proto.noteRequest(p, blk, reqAgent, m.kind)
	kind := m.kind
	switch {
	case kind == msgReadReq && h.mig.migratory && h.owner != reqAgent:
		// The write that follows a read of a migratory block then needs
		// no upgrade.
		kind = msgReadExclReq
	case kind == msgUpgradeReq && h.owner != -1:
		// The requester's copy was invalidated in flight.
		kind = msgReadExclReq
	case kind == msgSCUpgradeReq && h.owner != -1:
		// Exclusivity moved (possibly to the requester's own agent, via
		// another of its processes): a write serialized ahead of this SC,
		// so it fails (§3.1.2). No third party is disturbed, which avoids
		// livelock.
		p.send(req, &msg{kind: msgSCFail, block: blk.id, from: p.ID}, CatMessage)
		return
	}
	excl := kind != msgReadReq
	switch h.owner {
	case -1:
		s.proto.serveMaster(p, blk, req, kind, *m)
	case reqAgent:
		// An agent issues at most one request per block (its miss holds
		// the transition lock from issueMiss to finishMiss), and one that
		// holds the block fills locally without a request, so no agent
		// can be granted the block while its request is in flight.
		panic(fmt.Sprintf("core: block %d: %s from %s, whose agent %d already owns the block", blk.id, m.kind, req, reqAgent))
	case blk.homeAgent:
		// Defer behind the home's own fill still in flight, exactly as a
		// forwarded request would be. The home agent's copy goes down to
		// invalid for a write, whose data goes with the grant, to shared for
		// a read; the entry is busy until then, so a second request queues
		// behind this one and does not act on the state of before it
		// (DESIGN.md §8 finding 8). grantFromHome grants the request.
		if p.deferIfPending(m, blk, nil) {
			return
		}
		h.busy = true
		p.downgradeAgent(blk, downgradeFor(excl), thenHome, m)
	default:
		// The entry is busy until the owner's writeback or ownership
		// transfer comes back (handleWriteback).
		fwd := msg{kind: msgFwdRead, block: blk.id, from: p.ID, reqProc: m.reqProc}
		fwd.ts, fwd.rts = s.proto.grantOwned(p, blk, *m, excl, false)
		if excl {
			fwd.kind, h.pendingOwner = msgFwdReadExcl, reqAgent
			s.noteGrant(p, blk, reqAgent, m.kind)
		}
		h.busy = true
		p.send(s.requesterOf(blk, h.owner), &fwd, CatMessage)
	}
}

// downgradeFor is the state an owner's copy goes down to for a request:
// invalid for a write, shared for a read.
func downgradeFor(excl bool) LineState {
	if excl {
		return Invalid
	}
	return Shared
}

// grantFromHome grants a request from the home agent's copy once it is
// down; data is the copy a write takes. A home agent granted the block on a
// read that gives it up unwritten declassifies it. The grant is stamped
// (Protocol.grantOwned) after the downgrade, so it covers every store the
// home agent's processes made before it.
func (p *Proc) grantFromHome(blk *blockInfo, m *msg, data []uint64) {
	s := p.sys
	s.homes[blk.id].busy = false
	if p.mem.takeUnwritten(blk.id) {
		s.declassify(p, blk)
	}
	excl := data != nil
	req := s.procs[m.reqProc]
	rep := msg{kind: msgReadReply, block: blk.id, from: p.ID}
	rep.ts, rep.rts = s.proto.grantOwned(p, blk, *m, excl, true)
	if h := &s.homes[blk.id]; excl {
		rep.kind, rep.data = msgReadExclReply, data
		h.owner = s.agentOf(req)
		s.noteGrant(p, blk, h.owner, m.kind)
	} else {
		h.owner = -1
		rep.data = s.blockData(s.agents[blk.homeAgent], blk)
	}
	p.send(req, &rep, CatMessage)
	s.drainHome(p, blk)
}

// serveForward is the owner's half of a 3-hop transfer, at the process the
// forward reached. Behind a local fill still in flight it defers. Otherwise
// it downgrades the owner's copy: to shared for a forwarded read, whose data
// the home gets back, or to invalid for a forwarded read-exclusive, whose
// ownership moves.
func (p *Proc) serveForward(m *msg) {
	blk := p.sys.blocks[m.block]
	if !p.deferIfPending(m, blk, nil) {
		p.downgradeAgent(blk, downgradeFor(m.kind == msgFwdReadExcl), thenForward, m)
	}
}

// replyForward answers a forward once the owner's copy is down (data: the
// copy a read-exclusive takes): the requester gets its reply and the home
// its writeback or ownership transfer. The reply starts from the stamps the
// home put on the forward, the backend adds its own (Protocol.stamp), and
// the home's message carries the same. Both payloads are taken before
// either send: a send can yield, and a node-mate's protocol activity in that
// window may flag-invalidate the copy just demoted (DESIGN.md §8 finding 7).
func (p *Proc) replyForward(blk *blockInfo, m *msg, data []uint64) {
	s := p.sys
	rep := msg{block: blk.id, from: p.ID, ts: m.ts, rts: m.rts}
	home := msg{block: blk.id, from: p.ID}
	if m.kind == msgFwdRead {
		rep.kind, home.kind, home.reqProc = msgReadReply, msgShareWB, m.reqProc
		// Each message gets its own buffer: both are recycled independently
		// at their consumers, so they must not alias.
		rep.data, home.data = s.blockData(p.mem, blk), s.blockData(p.mem, blk)
	} else {
		rep.kind, home.kind, rep.data = msgReadExclReply, msgOwnerTransfer, data
	}
	// An owner granted the block on a read that gives it up without having
	// stored to it says so; the home then declassifies the block
	// (handleWriteback).
	rep.unwritten = p.mem.takeUnwritten(blk.id)
	rep.ts, rep.rts = s.proto.stamp(p, blk, rep.kind, rep.ts, rep.rts)
	home.ts, home.rts, home.unwritten = rep.ts, rep.rts, rep.unwritten
	p.send(s.procs[m.reqProc], &rep, CatMessage)
	p.send(s.procs[blk.home], &home, CatMessage)
}

// installData copies a message's block payload into an agent's memory,
// where the agent's processes spinning on the block see it (wroteLines),
// and recycles the buffer.
func (s *System) installData(p *Proc, mem *agentMem, m *msg) {
	blk := s.blocks[m.block]
	base := blk.firstLine * s.wordsPerLine
	copy(mem.data[base:base+len(m.data)], m.data)
	s.recycleMsgData(p, m)
	p.wroteLines(mem.agent, blk.firstLine, blk.lines)
}

// handleWriteback closes the window handleHome's forward opened, on the
// owner's writeback or ownership transfer m. A writeback installs the data
// at the home, whose master copy is valid again (the home agent's copy is
// at least shared, so the state table and flag invariants hold); a
// transfer makes the pending owner the owner. The backend then notes the
// writeback (Protocol.noteWriteback); a block the owner gave up unwritten
// is declassified, and what queued is served.
func (s *System) handleWriteback(p *Proc, m *msg) {
	blk := s.blocks[m.block]
	h := &s.homes[blk.id]
	if m.kind == msgShareWB {
		homeMem := s.agents[blk.homeAgent]
		s.installData(p, homeMem, m)
		if homeMem.table[blk.firstLine] == Invalid {
			s.setAgentState(homeMem, blk, Shared)
		}
		traceEvent(p, blk, "shareWB")
		h.owner = -1
	} else {
		h.owner, h.pendingOwner = h.pendingOwner, -1
	}
	s.proto.noteWriteback(p, blk, *m)
	if m.unwritten {
		s.declassify(p, blk)
	}
	s.homes[blk.id].busy = false // re-read: the backend's note can yield, and homes grow
	s.drainHome(p, blk)
}

// drainHome re-services requests that queued while the entry was busy,
// until one of them makes it busy again.
func (s *System) drainHome(p *Proc, blk *blockInfo) {
	for {
		h := &s.homes[blk.id] // re-read: a replayed request can yield, and homes grow
		if h.busy || len(h.queue) == 0 {
			return
		}
		m := h.queue[0]
		// Pop by shifting down so the slice's base (and capacity) is kept
		// for reuse; queues are bounded by the process count, so the copy
		// is cheap.
		n := copy(h.queue, h.queue[1:])
		h.queue = h.queue[:n]
		s.handleHome(p, &m)
	}
}

// blockQuiet reports whether the block's home record is at rest: no
// transfer in flight, no queued request.
func (s *System) blockQuiet(blk *blockInfo) bool {
	h := &s.homes[blk.id]
	return !h.busy && len(h.queue) == 0
}
