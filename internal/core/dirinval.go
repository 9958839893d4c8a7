package core

// The directory-based invalidation backend: Shasta's own protocol
// (§2.1). On top of the core's home record (home.go: the owner, the busy
// window of a 3-hop transfer and its queue) each block's home keeps a
// sharer bitmask: while the master copy is valid (owner -1) the agents
// holding shared copies, the home's among them. Writes served from the
// master copy invalidate every other sharer: remote ones by multicast
// invalidations whose acks are collected at the requester, the home's own
// agent in place before the grant leaves, so it owes no ack. Requests for
// a remotely-owned block are forwarded to the owner by the core, as are its
// downgrade and writeback (serveForward).
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

// dirInval is the directory-invalidation backend; sharers, indexed by
// block ID, is each block's sharer bitmask, meaningful while the home
// record names no owner.
type dirInval struct {
	s       *System
	sharers []uint64
}

func (d *dirInval) initBlock(blk *blockInfo) {
	if blk.id != len(d.sharers) {
		panic(fmt.Sprintf("core: dirinval initBlock out of order (block %d, have %d)", blk.id, len(d.sharers)))
	}
	d.sharers = append(d.sharers, 0) // owned by the home agent
}

// noteRequest classifies the block on a plain upgrade from a sharer. It
// was handed on read-then-write when no sharer is left but the requester,
// the last writer and the home's own copy (see migEntry).
func (d *dirInval) noteRequest(p *Proc, blk *blockInfo, reqAgent int, kind msgKind) {
	h := &d.s.homes[blk.id]
	sharers := d.sharers[blk.id]
	if kind != msgUpgradeReq || h.owner != -1 || sharers&(1<<uint(reqAgent)) == 0 {
		return
	}
	others := sharers &^ (1<<uint(blk.homeAgent) | 1<<uint(reqAgent))
	if w := h.mig.writer; w >= 0 {
		others &^= 1 << uint(w)
	}
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

// stamp: no logical time; a message keeps the stamps it starts from.
func (d *dirInval) stamp(p *Proc, blk *blockInfo, kind msgKind, ts, rts int64) (int64, int64) {
	return ts, rts
}

// serveMaster serves a request from the master copy: a read joins the
// sharer set; a write is granted exclusive after the invalidation of every
// other sharer. The remote sharers are sent their invalidations first, and
// ack the writer; then the home invalidates its own agent's copy in place,
// so the one grant that follows owes the writer only the remote acks. On
// SMP-Shasta the grant leaves from the last node-mate to apply the home's
// downgrade (dgRecord).
func (d *dirInval) serveMaster(p *Proc, blk *blockInfo, req *Proc, kind msgKind, m msg) {
	s := d.s
	reqAgent := s.agentOf(req)
	homeAgent := blk.homeAgent
	sharers := &d.sharers[blk.id]
	if kind == msgReadReq {
		*sharers |= 1 << uint(reqAgent)
		p.send(req, &msg{kind: msgReadReply, block: blk.id, from: p.ID, data: s.blockData(s.agents[homeAgent], blk)}, CatMessage)
		return
	}
	// An upgrade whose requester is no longer a sharer lost its copy in
	// flight. An SC then fails (§3.1.2); crucially no invalidations are
	// sent, which avoids livelock. A plain upgrade is served as a full
	// read-exclusive.
	isUpgrade := kind != msgReadExclReq && *sharers&(1<<uint(reqAgent)) != 0
	if kind == msgSCUpgradeReq && !isUpgrade {
		p.send(req, &msg{kind: msgSCFail, block: blk.id, from: p.ID}, CatMessage)
		return
	}
	if s.brokenHomeInval && *sharers&(1<<uint(homeAgent)) != 0 && p.deferIfPending(&m, blk, nil) {
		return
	}
	others := *sharers &^ (1 << uint(reqAgent))
	remote := others &^ (1 << uint(homeAgent))
	rep := msg{kind: msgUpgradeAck, block: blk.id, from: p.ID, reqProc: req.ID, invals: bits.OnesCount64(remote)}
	if !isUpgrade {
		// Taken before the home's own invalidation flag-fills its copy.
		rep.kind, rep.data = msgReadExclReply, s.blockData(s.agents[homeAgent], blk)
	}
	*sharers = 0
	s.homes[blk.id].owner = reqAgent
	s.noteGrant(p, blk, reqAgent, m.kind)
	// Send remote invalidations; acks flow to the requester. Each is
	// composed afresh, since a send may number it for the reliability
	// sublayer, in a variable declared outside the loop: a literal inside
	// the loop would escape to the heap.
	var inv msg
	for a := 0; remote != 0; a++ {
		if remote&(1<<uint(a)) != 0 {
			remote &^= 1 << uint(a)
			inv = msg{kind: msgInvalReq, block: blk.id, from: p.ID, reqProc: m.reqProc}
			p.send(s.requesterOf(blk, a), &inv, CatMessage)
		}
	}
	if others&(1<<uint(homeAgent)) == 0 {
		p.send(req, &rep, CatMessage)
		return
	}
	p.invalidateAgent(blk, &rep)
}

// grantOwned: no timestamps. A read of a block the home agent owned leaves
// the two of them sharing it; a forwarded read's sharer set comes with the
// owner's writeback (noteWriteback).
func (d *dirInval) grantOwned(p *Proc, blk *blockInfo, m msg, excl, atHome bool) (ts, rts int64) {
	if atHome && !excl {
		d.sharers[blk.id] = 1<<uint(blk.homeAgent) | 1<<uint(d.s.agentOf(d.s.procs[m.reqProc]))
	}
	return 0, 0
}

// noteWriteback: the master copy a writeback makes valid again is shared
// by the home, the old owner and the reader. A transfer leaves an owner,
// and the sharer set means nothing.
func (d *dirInval) noteWriteback(p *Proc, blk *blockInfo, m msg) {
	if m.kind == msgShareWB {
		s := d.s
		from, reader := s.agentOf(s.procs[m.from]), s.agentOf(s.procs[m.reqProc])
		d.sharers[blk.id] = 1<<uint(blk.homeAgent) | 1<<uint(from) | 1<<uint(reader)
	}
}

// noteFill: the core's MSHR and data are the whole fill; no time to observe.
func (d *dirInval) noteFill(p *Proc, m *mshrEntry, ts, rts int64) int64 { return 0 }

// No logical time, no leases: the hooks below are no-ops.
func (d *dirInval) noteStoreHit(p *Proc, line int) {}
func (d *dirInval) refreshLL(p *Proc, line int)    {}
func (d *dirInval) pollTick(p *Proc)               {}
func (d *dirInval) syncTs(p *Proc) int64           { return 0 }
func (d *dirInval) observeTs(p *Proc, ts int64)    {}

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
// copy: while the master copy is valid the sharer set is exactly the agents
// with shared copies, the home's among them; otherwise the owner holds the
// only valid copy. It tolerates exactly the transients the protocol
// creates: a busy entry whose forward, writeback or ownership transfer is
// in flight (nothing else of the entry is settled), a requester's copy
// Pending on its miss, and a stale copy whose invalidation is in flight or
// deferred.
func (d *dirInval) checkAgreement(s *System, e *Explorer) *InvariantError {
	for _, blk := range s.blocks {
		sharers, h := d.sharers[blk.id], s.homes[blk.id]
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
				inSet := sharers&(1<<uint(a)) != 0
				switch {
				case a == h.owner:
					if st != Exclusive && !filling {
						return violated("dir-agreement", "block %d line %d: owner agent %d holds state %v", blk.id, line, a, st)
					}
				case h.owner != -1:
					if st != Invalid && !filling && !e.invalPending(blk.id, a) {
						return violated("dir-agreement", "block %d line %d: owned by agent %d, but agent %d holds state %v with no invalidation in flight",
							blk.id, line, h.owner, a, st)
					}
				case st == Exclusive:
					return violated("dir-agreement", "block %d line %d: shared, but agent %d holds it exclusive", blk.id, line, a)
				case st == Shared && !inSet:
					return violated("dir-agreement", "block %d line %d: agent %d holds a shared copy but is not in sharer set %x",
						blk.id, line, a, sharers)
				case (inSet || a == blk.homeAgent) && st != Shared && !filling:
					return violated("dir-agreement", "block %d line %d: shared (sharer set %x, home agent %d), but agent %d holds state %v",
						blk.id, line, sharers, blk.homeAgent, a, st)
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

func (d *dirInval) encodeBlock(e *Explorer, b *strings.Builder, blk *blockInfo, perm []int) {
	fmt.Fprintf(b, " sh%x", remapMask(d.sharers[blk.id], perm))
}

func (d *dirInval) encodeProcExtra(e *Explorer, b *strings.Builder, p *Proc, perm []int) {}

func (d *dirInval) noteGhostStore(e *Explorer, pid, word int, val uint64) {}
