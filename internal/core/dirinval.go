package core

// The directory-based invalidation backend: Shasta's own protocol
// (§2.1). On top of the core's home record (home.go: the owner, the busy
// window of a 3-hop transfer and its queue) each block's home keeps a
// directory entry — shared or exclusive, and a sharer bitmask. Writes
// invalidate every other sharer (multicast invalidations, acks collected
// at the requester); reads of a remotely-owned block are forwarded to the
// owner, whose downgrade and writeback are the core's (serveForward).
//
// The home also detects migratory blocks (the core's migEntry, home.go): a
// block that moves read-then-write from agent to agent has its reads
// granted exclusive, so the write that follows needs no upgrade round trip
// (DESIGN.md §5 item 8). This backend classifies on a plain upgrade, over
// its sharer set.

import (
	"fmt"
	"math/bits"
	"strings"
)

// dirEntry is what the directory adds to the block's homeEntry (§2.1).
// Either the home memory is valid and sharers hold copies (shared), or one
// agent, the home record's owner, holds the only copy (exclusive).
type dirEntry struct {
	shared  bool
	sharers uint64 // bitmask of agents holding shared copies
}

// dirInval is the directory-invalidation backend; dirs is indexed by block
// ID.
type dirInval struct {
	s    *System
	dirs []dirEntry
}

func (d *dirInval) attach(s *System) { d.s = s }

func (d *dirInval) initBlock(blk *blockInfo) {
	if blk.id != len(d.dirs) {
		panic(fmt.Sprintf("core: dirinval initBlock out of order (block %d, have %d)", blk.id, len(d.dirs)))
	}
	d.dirs = append(d.dirs, dirEntry{}) // exclusive at the home agent
}

// classify runs on a plain upgrade from a sharer of the block. The block is
// handed on read-then-write when no sharer is left but the requester, the
// last writer and the home's own copy (see migEntry). The last writer is the
// home record's owner: this backend sets the owner on every exclusive grant
// and nowhere else.
func (d *dirInval) classify(p *Proc, blk *blockInfo, reqAgent int) {
	others := d.dirs[blk.id].sharers &^ (1<<uint(blk.homeAgent) | 1<<uint(reqAgent) | 1<<uint(d.s.homes[blk.id].owner))
	d.s.classify(p, blk, reqAgent, others == 0)
}

func (d *dirInval) missKind(p *Proc, blk *blockInfo, wantExcl, scMode bool) msgKind {
	// Decide between upgrade (agent already shares the data) and a full
	// data fetch.
	agentState := p.mem.table[blk.firstLine]
	kind := msgReadReq
	if wantExcl {
		switch {
		case scMode:
			kind = msgSCUpgradeReq
		case agentState == Shared:
			kind = msgUpgradeReq
		default:
			kind = msgReadExclReq
		}
	}
	return kind
}

// stamp: no logical time, so nothing to add to a message.
func (d *dirInval) stamp(p *Proc, blk *blockInfo, m *msg) {}

func (d *dirInval) handle(p *Proc, m *msg) {
	switch m.kind {
	case msgReadReq, msgReadExclReq, msgUpgradeReq, msgSCUpgradeReq:
		d.handleHome(p, m)
	case msgInvalReq:
		d.handleInval(p, m)
	case msgReadReply, msgReadExclReply, msgUpgradeAck, msgSCFail:
		d.handleReply(p, m)
	case msgInvalAck:
		d.handleInvalAck(p, m)
	case msgShareWB:
		d.handleShareWB(p, m)
	case msgOwnerTransfer:
		d.handleOwnerTransfer(p, m)
	default:
		panic(fmt.Sprintf("core: dirinval cannot handle %s", m.kind))
	}
}

// handleHome services a request at the block's home.
func (d *dirInval) handleHome(p *Proc, m *msg) {
	s := d.s
	blk := s.blocks[m.block]
	reqProc := s.homeAdmit(blk, m)
	if reqProc == nil {
		return
	}
	reqAgent := s.agentOf(reqProc)
	homeAgent := blk.homeAgent
	homeMem := s.agents[homeAgent]
	dir, h := &d.dirs[blk.id], &s.homes[blk.id]

	kind := m.kind
	if kind == msgReadReq && h.mig.migratory && (dir.shared || h.owner != reqAgent) {
		// A read of a migratory block is served as a read-exclusive: the
		// write that follows it then needs no upgrade.
		kind = msgReadExclReq
	}
	switch kind {
	case msgReadReq:
		switch {
		case dir.shared:
			dir.sharers |= 1 << uint(reqAgent)
			p.send(reqProc, &msg{kind: msgReadReply, block: blk.id, from: p.ID, data: s.blockData(homeMem, blk)}, CatMessage)
		case h.owner == reqAgent:
			// Another process on the requester's agent took ownership
			// while this request was in flight; the data is already local
			// and the grant is exclusive.
			p.send(reqProc, &msg{kind: msgReadReply, block: blk.id, from: p.ID, downTo: Exclusive}, CatMessage)
		case h.owner == homeAgent:
			// Home agent owns it: downgrade locally and reply — but defer
			// if the home's own exclusive fill is incomplete, exactly as a
			// forwarded request would be.
			if p.deferIfPending(m, blk, nil) {
				return
			}
			p.downgradeHome(blk, Shared, false)
			d.dirs[blk.id] = dirEntry{shared: true, sharers: 1<<uint(homeAgent) | 1<<uint(reqAgent)}
			p.send(reqProc, &msg{kind: msgReadReply, block: blk.id, from: p.ID, data: s.blockData(homeMem, blk)}, CatMessage)
			s.drainHome(p, blk)
		default:
			s.forwardToOwner(p, blk, &msg{kind: msgFwdRead, block: blk.id, from: p.ID, reqProc: m.reqProc})
		}

	case msgReadExclReq, msgUpgradeReq, msgSCUpgradeReq:
		isUpgrade := kind == msgUpgradeReq || kind == msgSCUpgradeReq
		if isUpgrade && !(dir.shared && dir.sharers&(1<<uint(reqAgent)) != 0) {
			if m.kind == msgSCUpgradeReq {
				// The requester lost its shared copy: the SC fails
				// (§3.1.2); crucially no invalidations are sent, which
				// avoids livelock.
				p.send(reqProc, &msg{kind: msgSCFail, block: blk.id, from: p.ID}, CatMessage)
				return
			}
			// A plain upgrade whose copy was invalidated in flight is
			// converted to a full read-exclusive.
			isUpgrade = false
		}
		if m.kind == msgSCUpgradeReq && !dir.shared {
			// Exclusivity moved (possibly to the requester's own agent
			// via another local process) — some write serialized ahead
			// of this SC, so it must fail.
			p.send(reqProc, &msg{kind: msgSCFail, block: blk.id, from: p.ID}, CatMessage)
			return
		}
		if isUpgrade && m.kind == msgUpgradeReq {
			d.classify(p, blk, reqAgent)
		}
		switch {
		case dir.shared:
			others := dir.sharers &^ (1 << uint(reqAgent))
			homeIsSharer := others&(1<<uint(homeAgent)) != 0
			remote := others &^ (1 << uint(homeAgent))
			nacks := bits.OnesCount64(others)
			var data []uint64
			if !isUpgrade {
				data = s.blockData(homeMem, blk)
			}
			*dir = dirEntry{}
			h.owner = reqAgent
			s.noteGrant(p, blk, reqAgent, m)
			// Send remote invalidations; acks flow to the requester. Each is
			// composed afresh, since a send may number it for the reliability
			// sublayer, in a variable declared outside the loop: a literal
			// inside the loop would escape to the heap.
			var inv msg
			for a := 0; remote != 0; a++ {
				if remote&(1<<uint(a)) != 0 {
					remote &^= 1 << uint(a)
					inv = msg{kind: msgInvalReq, block: blk.id, from: p.ID, reqProc: m.reqProc}
					p.send(s.requesterOf(blk, a), &inv, CatMessage)
				}
			}
			// Reply before doing the (possibly slow) local invalidation.
			k := msgReadExclReply
			if isUpgrade {
				k = msgUpgradeAck
			}
			p.send(reqProc, &msg{kind: k, block: blk.id, from: p.ID, invals: nacks, data: data}, CatMessage)
			if homeIsSharer && homeAgent != reqAgent {
				if s.brokenHomeInval {
					p.downgradeAgent(blk, Invalid, false)
				} else {
					d.invalidateAgent(p, blk)
				}
				p.send(reqProc, &msg{kind: msgInvalAck, block: blk.id, from: p.ID}, CatMessage)
			}
		case h.owner == reqAgent:
			s.noteGrant(p, blk, reqAgent, m)
			p.send(reqProc, &msg{kind: msgUpgradeAck, block: blk.id, from: p.ID}, CatMessage)
		case h.owner == homeAgent:
			if p.deferIfPending(m, blk, nil) {
				return
			}
			data := p.downgradeHome(blk, Invalid, true)
			s.homes[blk.id].owner = reqAgent
			s.noteGrant(p, blk, reqAgent, m)
			p.send(reqProc, &msg{kind: msgReadExclReply, block: blk.id, from: p.ID, data: data}, CatMessage)
			s.drainHome(p, blk)
		default:
			h.pendingOwner = reqAgent
			s.noteGrant(p, blk, reqAgent, m)
			s.forwardToOwner(p, blk, &msg{kind: msgFwdReadExcl, block: blk.id, from: p.ID, reqProc: m.reqProc})
		}
	}
}

// handleInval invalidates this agent's copy and acks the requester (§2.1).
func (d *dirInval) handleInval(p *Proc, m *msg) {
	s := d.s
	blk := s.blocks[m.block]
	p.stats.N[CntInvalidations]++
	d.invalidateAgent(p, blk)
	p.send(s.procs[m.reqProc], &msg{kind: msgInvalAck, block: blk.id, from: p.ID}, CatMessage)
}

// invalidateAgent drops this agent's copy of a block for a writer the home
// has already made owner: a remote sharer's on an invalidation message,
// the home's own from handleHome. It never waits for a local miss on the
// block, because that miss may itself be waiting, through the home or
// through the writer's fill, for the ack that follows (DESIGN.md §8
// finding 9).
func (d *dirInval) invalidateAgent(p *Proc, blk *blockInfo) {
	holder := p
	if d.s.Cfg.SMP {
		holder = p.mem.busy[blk.id]
	}
	if holder != nil && holder.mshr[blk.id] != nil {
		// A miss by a local process is in flight. Local private copies
		// are dropped either way, but what the pending fill will install
		// depends on the miss kind. An upgrade serializes after this
		// invalidation at the home and installs fresh data, so absorbing
		// the inval is enough. A read fill, however, may predate the
		// invalidating writer (its reply can trail this inval on another
		// link), so the invalidation is remembered and re-applied the
		// moment the fill installs — otherwise a stale shared copy the
		// directory no longer tracks would survive.
		p.waitDowngrades(blk, Invalid)
		if mshr := holder.mshr[blk.id]; mshr != nil && !mshr.wantExcl {
			mshr.invalAfterFill = true
		}
	} else if p.mem.table[blk.firstLine] != Invalid {
		p.downgradeAgent(blk, Invalid, false)
	}
}

// handleShareWB installs written-back data at the home and reopens the
// directory entry as shared.
func (d *dirInval) handleShareWB(p *Proc, m *msg) {
	s := d.s
	blk := s.blocks[m.block]
	s.installAtHome(p, blk, m)
	fromAgent := s.agentOf(s.procs[m.from])
	reqAgent := s.agentOf(s.procs[m.reqProc])
	d.dirs[blk.id] = dirEntry{shared: true, sharers: 1<<uint(blk.homeAgent) | 1<<uint(fromAgent) | 1<<uint(reqAgent)}
	s.endTransfer(p, blk, m)
}

// handleOwnerTransfer completes a 3-hop exclusive transfer at the home.
func (d *dirInval) handleOwnerTransfer(p *Proc, m *msg) {
	s := d.s
	blk := s.blocks[m.block]
	h := &s.homes[blk.id]
	h.owner = h.pendingOwner
	s.endTransfer(p, blk, m)
}

// handleReply completes (part of) an outstanding miss at the requester.
func (d *dirInval) handleReply(p *Proc, m *msg) {
	mshr := p.noteReply(m)
	if d.s.brokenSkipInvalAck && m.invals > 1 {
		// Broken variant for counterexample tests: forget one expected
		// invalidation ack, so the miss can complete while a stale
		// sharer still holds a valid copy (single-writer violation).
		mshr.acksWanted = m.invals - 1
	}
	if mshr.complete() {
		p.finishMiss(mshr)
	}
}

// handleInvalAck counts one invalidation acknowledgment.
func (d *dirInval) handleInvalAck(p *Proc, m *msg) {
	mshr := p.mshr[m.block]
	if mshr == nil {
		panic(fmt.Sprintf("core: %s got inval-ack for block %d with no MSHR", p, m.block))
	}
	mshr.acksGot++
	if mshr.complete() {
		p.finishMiss(mshr)
	}
}

// No logical time, no leases: the hooks below are no-ops.
func (d *dirInval) noteStoreHit(p *Proc, line int) {}
func (d *dirInval) refreshLL(p *Proc, line int)    {}
func (d *dirInval) pollTick(p *Proc)               {}

// scFailRetains: a failed SC upgrade means the node was no longer a
// sharer — its copy was invalidated by the winning writer and is gone.
func (d *dirInval) scFailRetains(p *Proc, blk *blockInfo) bool { return false }
func (d *dirInval) syncTs(p *Proc) int64                       { return 0 }
func (d *dirInval) observeTs(p *Proc, ts int64)                {}

// checkExclusive is the directory's half of single-writer: no shared copy
// beside the exclusive one. A writer's fill completes only once every other
// sharer has acknowledged its invalidation.
func (d *dirInval) checkExclusive(s *System, line, excl int) *InvariantError {
	for a, am := range s.agents {
		if am.table[line] == Shared {
			return violated("swmr", "line %d exclusive at agent %d while agent %d holds a shared copy", line, excl, a)
		}
	}
	return nil
}

// checkAgreement verifies the directory against the agent tables copy for
// copy: a shared entry's sharer set is exactly the agents with shared
// copies, the home's among them; an exclusive entry's owner holds the only
// valid copy. It tolerates exactly the transients the protocol creates: a
// busy entry whose forward, writeback or ownership transfer is in flight
// (nothing else of the entry is settled), a requester's copy Pending on its
// miss, and a stale copy whose invalidation is in flight or deferred.
func (d *dirInval) checkAgreement(s *System, e *Explorer) *InvariantError {
	for _, blk := range s.blocks {
		dir, h := d.dirs[blk.id], s.homes[blk.id]
		if h.busy {
			if !e.busyJustified(blk.id) {
				return violated("dir-agreement", "block %d is busy with no forward, writeback or ownership transfer in flight", blk.id)
			}
			continue
		}
		for line := blk.firstLine; line < blk.firstLine+blk.lines; line++ {
			for a, am := range s.agents {
				st := am.table[line]
				filling := s.fillInFlight(a, blk, st)
				inSet := dir.sharers&(1<<uint(a)) != 0
				switch {
				case !dir.shared && a == h.owner:
					if st != Exclusive && !filling {
						return violated("dir-agreement", "block %d line %d: owner agent %d holds state %v", blk.id, line, a, st)
					}
				case !dir.shared:
					if st != Invalid && !filling && !e.invalPending(blk.id, a) {
						return violated("dir-agreement", "block %d line %d: owned by agent %d, but agent %d holds state %v with no invalidation in flight",
							blk.id, line, h.owner, a, st)
					}
				case st == Exclusive:
					return violated("dir-agreement", "block %d line %d: shared, but agent %d holds it exclusive", blk.id, line, a)
				case st == Shared && !inSet:
					return violated("dir-agreement", "block %d line %d: agent %d holds a shared copy but is not in sharer set %x",
						blk.id, line, a, dir.sharers)
				case (inSet || a == blk.homeAgent) && st != Shared && !filling:
					return violated("dir-agreement", "block %d line %d: shared (sharer set %x, home agent %d), but agent %d holds state %v",
						blk.id, line, dir.sharers, blk.homeAgent, a, st)
				}
			}
		}
	}
	return nil
}

// expectedValue: every valid copy is current, because the directory
// invalidates every other copy before it grants a write.
func (d *dirInval) expectedValue(s *System, e *Explorer, a int, blk *blockInfo, word int, cur uint64) (uint64, bool) {
	return cur, true
}

// snapshotSource: any agent with a valid copy; all-invalid can only
// happen mid-transition, in which case the home copy is authoritative.
func (d *dirInval) snapshotSource(line int) int {
	s := d.s
	for a, am := range s.agents {
		if am.table[line] != Invalid {
			return a
		}
	}
	return s.blockOf(line).homeAgent
}

func (d *dirInval) encodeBlock(e *Explorer, b *strings.Builder, blk *blockInfo, perm []int) {
	dir, h := d.dirs[blk.id], e.sys.homes[blk.id]
	state := 1 // 0 shared, 1 exclusive, 2 busy: the explorer's encodings are pinned byte for byte
	switch {
	case h.busy:
		state = 2
	case dir.shared:
		state = 0
	}
	fmt.Fprintf(b, "B%d{%d o%d po%d sh%x", blk.id, state,
		perm[h.owner], perm[h.pendingOwner], remapMask(dir.sharers, perm))
	e.encodeMig(b, blk, perm)
	e.encodeHomeQueue(b, blk, perm)
}

func (d *dirInval) encodeProcExtra(e *Explorer, b *strings.Builder, p *Proc, perm []int) {}

func (d *dirInval) encodeMsgExtra(m msg) string { return "" }

func (d *dirInval) noteGhostStore(e *Explorer, pid, word int, val uint64) {}
