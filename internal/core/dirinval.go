package core

// The directory-based invalidation backend: Shasta's own protocol
// (§2.1). Each block's home keeps a directory entry — shared/exclusive/
// busy state, an owner, a sharer bitmask, and a queue for requests that
// arrive while a 3-hop transfer is in flight. Writes invalidate every
// other sharer (multicast invalidations, acks collected at the
// requester); reads of a remotely-owned block are forwarded to the
// owner, which downgrades and writes the data back.

import (
	"fmt"
	"math/bits"
	"strings"
)

func init() {
	registerProtocol("dirinval", func() Protocol { return &dirInval{} })
}

// dirState is the directory's view of a block at its home (§2.1).
type dirState uint8

const (
	dirShared    dirState = iota // home memory valid; sharers hold copies
	dirExclusive                 // one agent (owner) holds the only copy
	dirBusy                      // a forwarded request is in flight
)

func (s dirState) String() string {
	switch s {
	case dirShared:
		return "shared"
	case dirExclusive:
		return "exclusive"
	case dirBusy:
		return "busy"
	}
	return "bad-dir-state"
}

// dirEntry is the per-block directory record kept at the block's home.
type dirEntry struct {
	state        dirState
	owner        int    // owning agent when state == dirExclusive
	pendingOwner int    // next owner during a busy ownership transfer
	sharers      uint64 // bitmask of agents holding shared copies
	queue        []msg  // requests queued while state == dirBusy
}

// dirInval is the directory-invalidation backend; dirs is indexed by
// block ID.
type dirInval struct {
	s    *System
	dirs []dirEntry
}

func (d *dirInval) name() string     { return "dirinval" }
func (d *dirInval) attach(s *System) { d.s = s }

func (d *dirInval) initBlock(blk *blockInfo) {
	s := d.s
	homeAgent := s.agentOf(s.procs[blk.home])
	if blk.id != len(d.dirs) {
		panic(fmt.Sprintf("core: dirinval initBlock out of order (block %d, have %d)", blk.id, len(d.dirs)))
	}
	d.dirs = append(d.dirs, dirEntry{state: dirExclusive, owner: homeAgent})
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

func (d *dirInval) stampRequest(p *Proc, blk *blockInfo, m *msg) {}

func (d *dirInval) handle(p *Proc, m *msg) {
	switch m.kind {
	case msgReadReq, msgReadExclReq, msgUpgradeReq, msgSCUpgradeReq:
		d.handleHome(p, m)
	case msgFwdRead:
		d.handleFwdRead(p, m)
	case msgFwdReadExcl:
		d.handleFwdReadExcl(p, m)
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
	dir := &d.dirs[blk.id]
	if dir.state == dirBusy {
		dir.queue = append(dir.queue, *m)
		return
	}
	reqProc := s.procs[m.reqProc]
	reqAgent := s.agentOf(reqProc)
	homeAgent := s.agentOf(s.procs[blk.home])
	homeMem := s.agents[homeAgent]
	s.noteRequester(blk, reqProc)

	switch m.kind {
	case msgReadReq:
		switch dir.state {
		case dirShared:
			dir.sharers |= 1 << uint(reqAgent)
			p.reply(reqProc, &msg{kind: msgReadReply, block: blk.id, from: p.ID, data: s.blockData(homeMem, blk)})
		case dirExclusive:
			switch dir.owner {
			case reqAgent:
				// Another process on the requester's agent took
				// ownership while this request was in flight; the data
				// is already local and the grant is exclusive.
				p.reply(reqProc, &msg{kind: msgReadReply, block: blk.id, from: p.ID, downTo: Exclusive})
			case homeAgent:
				// Home agent owns it: downgrade locally and reply — but
				// defer if the home's own exclusive fill is incomplete,
				// exactly as a forwarded request would be. The downgrade
				// can stall for a co-resident process's ack, servicing
				// messages meanwhile, so the entry is busy for as long: a
				// second request handled in that window (by this process,
				// re-entrantly, or by another on its CPU) queues behind
				// this one and does not act on the state of before it.
				if p.deferIfPending(m, blk) {
					return
				}
				dir.state = dirBusy
				p.downgradeAgent(blk, Shared, false)
				dir = &d.dirs[blk.id] // dirs may have grown during the stall
				dir.state = dirShared
				dir.sharers = 1<<uint(homeAgent) | 1<<uint(reqAgent)
				p.reply(reqProc, &msg{kind: msgReadReply, block: blk.id, from: p.ID, data: s.blockData(homeMem, blk)})
				d.drainDirQueue(p, blk)
			default:
				dir.state = dirBusy
				owner := s.requesterOf(blk, dir.owner)
				s.deliver(p, owner, &msg{kind: msgFwdRead, block: blk.id, from: p.ID, reqProc: m.reqProc}, CatMessage)
			}
		}

	case msgReadExclReq, msgUpgradeReq, msgSCUpgradeReq:
		isUpgrade := m.kind == msgUpgradeReq || m.kind == msgSCUpgradeReq
		if isUpgrade && !(dir.state == dirShared && dir.sharers&(1<<uint(reqAgent)) != 0) {
			if m.kind == msgSCUpgradeReq {
				// The requester lost its shared copy: the SC fails
				// (§3.1.2); crucially no invalidations are sent, which
				// avoids livelock.
				p.reply(reqProc, &msg{kind: msgSCFail, block: blk.id, from: p.ID})
				return
			}
			// A plain upgrade whose copy was invalidated in flight is
			// converted to a full read-exclusive.
			isUpgrade = false
		}
		if m.kind == msgSCUpgradeReq && dir.state == dirExclusive {
			// Exclusivity moved (possibly to the requester's own agent
			// via another local process) — some write serialized ahead
			// of this SC, so it must fail.
			p.reply(reqProc, &msg{kind: msgSCFail, block: blk.id, from: p.ID})
			return
		}
		switch dir.state {
		case dirShared:
			others := dir.sharers &^ (1 << uint(reqAgent))
			homeIsSharer := others&(1<<uint(homeAgent)) != 0
			remote := others &^ (1 << uint(homeAgent))
			nacks := bits.OnesCount64(others)
			var data []uint64
			if !isUpgrade {
				data = s.blockData(homeMem, blk)
			}
			dir.state = dirExclusive
			dir.owner = reqAgent
			dir.sharers = 0
			// Send remote invalidations; acks flow to the requester.
			for a := 0; remote != 0; a++ {
				if remote&(1<<uint(a)) != 0 {
					remote &^= 1 << uint(a)
					s.deliver(p, s.requesterOf(blk, a), &msg{kind: msgInvalReq, block: blk.id, from: p.ID, reqProc: m.reqProc}, CatMessage)
				}
			}
			// Reply before doing the (possibly slow) local invalidation.
			k := msgReadExclReply
			if isUpgrade {
				k = msgUpgradeAck
			}
			p.reply(reqProc, &msg{kind: k, block: blk.id, from: p.ID, invals: nacks, data: data})
			if homeIsSharer && homeAgent != reqAgent {
				if s.brokenHomeInval {
					p.downgradeAgent(blk, Invalid, false)
				} else {
					d.invalidateAgent(p, blk)
				}
				p.reply(reqProc, &msg{kind: msgInvalAck, block: blk.id, from: p.ID})
			}
		case dirExclusive:
			switch dir.owner {
			case reqAgent:
				p.reply(reqProc, &msg{kind: msgUpgradeAck, block: blk.id, from: p.ID})
			case homeAgent:
				if p.deferIfPending(m, blk) {
					return
				}
				dir.state = dirBusy // as for a read: busy across the downgrade
				data := p.downgradeAgent(blk, Invalid, true)
				dir = &d.dirs[blk.id]
				dir.state = dirExclusive
				dir.owner = reqAgent
				p.reply(reqProc, &msg{kind: msgReadExclReply, block: blk.id, from: p.ID, data: data})
				d.drainDirQueue(p, blk)
			default:
				dir.state = dirBusy
				dir.pendingOwner = reqAgent
				owner := s.requesterOf(blk, dir.owner)
				s.deliver(p, owner, &msg{kind: msgFwdReadExcl, block: blk.id, from: p.ID, reqProc: m.reqProc}, CatMessage)
			}
		}
	}
}

// handleFwdRead services a forwarded read at the owning agent: downgrade to
// shared, send the data to the requester, and write it back to the home.
func (d *dirInval) handleFwdRead(p *Proc, m *msg) {
	s := d.s
	blk := s.blocks[m.block]
	if p.deferIfPending(m, blk) {
		return
	}
	p.downgradeAgent(blk, Shared, false)
	// The reply and the writeback each get their own buffer: both are
	// recycled independently at their consumers, so they must not alias.
	reqProc := s.procs[m.reqProc]
	p.reply(reqProc, &msg{kind: msgReadReply, block: blk.id, from: p.ID, data: s.blockData(p.mem, blk)})
	home := s.procs[blk.home]
	wb := msg{kind: msgShareWB, block: blk.id, from: p.ID, reqProc: m.reqProc, data: s.blockData(p.mem, blk)}
	if home == p {
		d.handleShareWB(p, &wb)
	} else {
		s.deliver(p, home, &wb, CatMessage)
	}
}

// handleFwdReadExcl services a forwarded read-exclusive at the owning
// agent: invalidate the local copy, ship the data to the requester, and
// notify the home of the ownership transfer.
func (d *dirInval) handleFwdReadExcl(p *Proc, m *msg) {
	s := d.s
	blk := s.blocks[m.block]
	if p.deferIfPending(m, blk) {
		return
	}
	data := p.downgradeAgent(blk, Invalid, true)
	reqProc := s.procs[m.reqProc]
	p.reply(reqProc, &msg{kind: msgReadExclReply, block: blk.id, from: p.ID, data: data})
	home := s.procs[blk.home]
	ot := msg{kind: msgOwnerTransfer, block: blk.id, from: p.ID}
	if home == p {
		d.handleOwnerTransfer(p, &ot)
	} else {
		s.deliver(p, home, &ot, CatMessage)
	}
}

// handleInval invalidates this agent's copy and acks the requester (§2.1).
func (d *dirInval) handleInval(p *Proc, m *msg) {
	s := d.s
	blk := s.blocks[m.block]
	p.stats.N[CntInvalidations]++
	d.invalidateAgent(p, blk)
	reqProc := s.procs[m.reqProc]
	if reqProc == p {
		d.handleInvalAck(p, &msg{kind: msgInvalAck, block: blk.id, from: p.ID})
		return
	}
	s.deliver(p, reqProc, &msg{kind: msgInvalAck, block: blk.id, from: p.ID}, CatMessage)
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
	dir := &d.dirs[blk.id]
	homeAgent := s.agentOf(s.procs[blk.home])
	homeMem := s.agents[homeAgent]
	base := blk.firstLine * s.wordsPerLine
	copy(homeMem.data[base:base+len(m.data)], m.data)
	s.recycleMsgData(p, m)
	// The home memory is valid again; the home agent becomes a sharer so
	// the state table and flag invariants hold.
	if homeMem.table[blk.firstLine] == Invalid {
		s.setAgentState(homeMem, blk, Shared)
	}
	traceEvent(p, blk, "shareWB")
	fromAgent := s.agentOf(s.procs[m.from])
	reqAgent := s.agentOf(s.procs[m.reqProc])
	dir.state = dirShared
	dir.sharers = 1<<uint(homeAgent) | 1<<uint(fromAgent) | 1<<uint(reqAgent)
	d.drainDirQueue(p, blk)
}

// handleOwnerTransfer completes a 3-hop exclusive transfer at the home.
func (d *dirInval) handleOwnerTransfer(p *Proc, m *msg) {
	blk := d.s.blocks[m.block]
	dir := &d.dirs[blk.id]
	dir.state = dirExclusive
	dir.owner = dir.pendingOwner
	d.drainDirQueue(p, blk)
}

// drainDirQueue re-services requests that queued while the entry was busy.
func (d *dirInval) drainDirQueue(p *Proc, blk *blockInfo) {
	dir := &d.dirs[blk.id]
	for len(dir.queue) > 0 && dir.state != dirBusy {
		m := dir.queue[0]
		// Pop by shifting down so the slice's base (and capacity) is kept
		// for reuse; queues are bounded by the process count, so the copy
		// is cheap.
		n := copy(dir.queue, dir.queue[1:])
		dir.queue = dir.queue[:n]
		d.handleHome(p, &m)
	}
}

// handleReply completes (part of) an outstanding miss at the requester.
func (d *dirInval) handleReply(p *Proc, m *msg) {
	mshr := p.mshr[m.block]
	if mshr == nil {
		panic(fmt.Sprintf("core: %s got %s for block %d with no MSHR", p, m.kind, m.block))
	}
	mshr.haveReply = true
	mshr.acksWanted = m.invals
	if d.s.brokenSkipInvalAck && m.invals > 1 {
		// Broken variant for counterexample tests: forget one expected
		// invalidation ack, so the miss can complete while a stale
		// sharer still holds a valid copy (single-writer violation).
		mshr.acksWanted = m.invals - 1
	}
	mshr.grant = Shared
	if m.kind == msgReadExclReply || m.kind == msgUpgradeAck || m.downTo == Exclusive {
		mshr.grant = Exclusive
	}
	if m.kind == msgSCFail {
		mshr.scFailed = true
	}
	if m.data != nil {
		s := d.s
		blk := s.blocks[m.block]
		base := blk.firstLine * s.wordsPerLine
		copy(p.mem.data[base:base+len(m.data)], m.data)
		s.recycleMsgData(p, m)
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
func (d *dirInval) refreshLL(p *Proc, line int)    {}
func (d *dirInval) pollTick(p *Proc)               {}
func (d *dirInval) noteStoreHit(p *Proc, line int) {}

// scFailRetains: a failed SC upgrade means the node was no longer a
// sharer — its copy was invalidated by the winning writer and is gone.
func (d *dirInval) scFailRetains(p *Proc, blk *blockInfo) bool { return false }
func (d *dirInval) syncTs(p *Proc) int64                       { return 0 }
func (d *dirInval) observeTs(p *Proc, ts int64)                {}

// checkLight verifies single-writer over the agent tables and directory
// queue boundedness (see System.checkInvariantsLight).
func (d *dirInval) checkLight(s *System) error {
	for line := 0; line < s.allocCursor; line++ {
		excl, shared := -1, -1
		for a, am := range s.agents {
			switch am.table[line] {
			case Exclusive:
				if excl >= 0 {
					return &InvariantError{"swmr", fmt.Sprintf(
						"line %d exclusive at agents %d and %d", line, excl, a)}
				}
				excl = a
			case Shared:
				shared = a
			}
		}
		if excl >= 0 && shared >= 0 {
			return &InvariantError{"swmr", fmt.Sprintf(
				"line %d exclusive at agent %d while agent %d holds a shared copy",
				line, excl, shared)}
		}
	}
	for _, blk := range s.blocks {
		if len(d.dirs[blk.id].queue) > len(s.procs) {
			return &InvariantError{"bounded", fmt.Sprintf(
				"block %d directory queue holds %d requests (max %d)",
				blk.id, len(d.dirs[blk.id].queue), len(s.procs))}
		}
	}
	return nil
}

func (d *dirInval) blockQuiet(blk *blockInfo) bool {
	dir := &d.dirs[blk.id]
	return dir.state != dirBusy && len(dir.queue) == 0
}

// checkQuiescent verifies the invariants that hold exactly when nothing
// is in flight: the directory agrees with the agent tables copy for
// copy, all valid copies of a line hold identical data, and invalid
// lines are filled with the flag value (modulo fills still deferred
// behind an open batch).
func (d *dirInval) checkQuiescent(s *System) error {
	for _, blk := range s.blocks {
		dir := d.dirs[blk.id]
		for line := blk.firstLine; line < blk.firstLine+blk.lines; line++ {
			switch dir.state {
			case dirExclusive:
				for a, am := range s.agents {
					st := am.table[line]
					if a == dir.owner {
						if st != Exclusive {
							return &InvariantError{"dir-agreement", fmt.Sprintf(
								"block %d quiescent owner agent %d holds state %v on line %d",
								blk.id, dir.owner, st, line)}
						}
					} else if st != Invalid {
						return &InvariantError{"dir-agreement", fmt.Sprintf(
							"block %d owned by agent %d but agent %d holds state %v on line %d",
							blk.id, dir.owner, a, st, line)}
					}
				}
			case dirShared:
				for a, am := range s.agents {
					st := am.table[line]
					inSet := dir.sharers&(1<<uint(a)) != 0
					if st == Shared && !inSet {
						return &InvariantError{"dir-agreement", fmt.Sprintf(
							"block %d line %d: agent %d holds a shared copy but is not in sharer set %x",
							blk.id, line, a, dir.sharers)}
					}
					if st == Exclusive {
						return &InvariantError{"dir-agreement", fmt.Sprintf(
							"block %d line %d: dirShared but agent %d holds it exclusive",
							blk.id, line, a)}
					}
					if inSet && st != Shared {
						return &InvariantError{"dir-agreement", fmt.Sprintf(
							"block %d line %d: agent %d in sharer set %x but holds state %v",
							blk.id, line, a, dir.sharers, st)}
					}
				}
			}
			if err := s.checkLineData(blk, line); err != nil {
				return err
			}
		}
	}
	return nil
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
	blk := s.blockOf(line)
	return s.agentOf(s.procs[blk.home])
}

func (d *dirInval) encodeBlock(e *Explorer, b *strings.Builder, blk *blockInfo, perm []int) {
	dir := d.dirs[blk.id]
	fmt.Fprintf(b, "B%d{%d o%d po%d sh%x", blk.id, dir.state,
		perm[dir.owner], perm[dir.pendingOwner], remapMask(dir.sharers, perm))
	for _, qm := range dir.queue {
		b.WriteString(" q")
		b.WriteString(e.encMsg(qm, perm))
	}
	b.WriteByte('}')
}

func (d *dirInval) encodeProcExtra(e *Explorer, b *strings.Builder, p *Proc, perm []int) {}
func (d *dirInval) encodeMsgExtra(m msg) string                                          { return "" }

// expCheck evaluates the directory backend's safety invariant catalogue
// (see Explorer.Check for the invariant naming).
func (d *dirInval) expCheck(e *Explorer) *ExpViolation {
	dis := e.cfg.Disabled
	s := e.sys
	n := len(s.procs)
	if !dis["swmr"] {
		for line := 0; line < s.allocCursor; line++ {
			excl, shared := -1, -1
			for a, am := range s.agents {
				switch am.table[line] {
				case Exclusive:
					if excl >= 0 {
						return e.record("swmr", fmt.Sprintf(
							"line %d exclusive at both p%d and p%d", line, excl, a))
					}
					excl = a
				case Shared:
					shared = a
				}
			}
			if excl >= 0 && shared >= 0 {
				return e.record("swmr", fmt.Sprintf(
					"line %d exclusive at p%d while p%d holds a shared copy",
					line, excl, shared))
			}
		}
	}
	if !dis["data-value"] {
		for _, blk := range s.blocks {
			line := blk.firstLine
			for a, am := range s.agents {
				if st := am.table[line]; st != Shared && st != Exclusive {
					continue
				}
				for w := 0; w < s.wordsPerLine; w++ {
					word := line*s.wordsPerLine + w
					if am.data[word] != e.ghost[word].val {
						return e.record("data-value", fmt.Sprintf(
							"p%d holds %#x for w%d, last performed store was %#x",
							a, am.data[word], word, e.ghost[word].val))
					}
				}
			}
		}
	}
	if !dis["dir-agreement"] {
		for _, blk := range s.blocks {
			if v := d.checkDir(e, blk); v != nil {
				return v
			}
		}
	}
	if !dis["bounded"] {
		for _, ep := range e.eps {
			p := ep.p
			if p.outstanding != len(p.mshr) {
				return e.record("bounded", fmt.Sprintf(
					"p%d outstanding=%d but %d MSHRs", p.ID, p.outstanding, len(p.mshr)))
			}
			if len(p.deferredReqs) > n {
				return e.record("bounded", fmt.Sprintf(
					"p%d has %d deferred requests (max %d)", p.ID, len(p.deferredReqs), n))
			}
		}
		for _, blk := range s.blocks {
			if len(d.dirs[blk.id].queue) > n {
				return e.record("bounded", fmt.Sprintf(
					"block %d directory queue holds %d requests (max %d)",
					blk.id, len(d.dirs[blk.id].queue), n))
			}
		}
		limit := 4*len(s.blocks)*n + 4
		for k, q := range e.chans {
			if len(q) > limit {
				return e.record("bounded", fmt.Sprintf(
					"link %d->%d holds %d messages (limit %d)", k[0], k[1], len(q), limit))
			}
		}
	}
	if !dis["fwd-owner"] {
		for k, q := range e.chans {
			for _, m := range q {
				if m.kind != msgFwdRead && m.kind != msgFwdReadExcl {
					continue
				}
				dst := k[1]
				blk := s.blocks[m.block]
				st := s.agents[dst].table[blk.firstLine]
				if st != Exclusive && s.procs[dst].mshr[m.block] == nil {
					return e.record("fwd-owner", fmt.Sprintf(
						"%s for block %d in flight to p%d, which holds state %d with no miss outstanding",
						m.kind, m.block, dst, st))
				}
			}
		}
	}
	return nil
}

// checkDir verifies directory/state-table agreement for one block,
// tolerating exactly the transients the protocol creates (pending
// requesters already counted as sharers or owner, invalidations still in
// flight to stale sharers).
func (d *dirInval) checkDir(e *Explorer, blk *blockInfo) *ExpViolation {
	s := e.sys
	dir := d.dirs[blk.id]
	line := blk.firstLine
	switch dir.state {
	case dirShared:
		for a, am := range s.agents {
			st := am.table[line]
			if st == Exclusive {
				return e.record("dir-agreement", fmt.Sprintf(
					"block %d is dirShared but p%d holds it exclusive", blk.id, a))
			}
			if (st == Shared) && dir.sharers&(1<<uint(a)) == 0 {
				return e.record("dir-agreement", fmt.Sprintf(
					"block %d: p%d holds a shared copy but is not in the sharer set %x",
					blk.id, a, dir.sharers))
			}
		}
		if st := s.agents[blk.home].table[line]; st != Shared {
			return e.record("dir-agreement", fmt.Sprintf(
				"block %d is dirShared but its home p%d holds state %d", blk.id, blk.home, st))
		}
	case dirExclusive:
		st := s.agents[dir.owner].table[line]
		if st != Exclusive && st != Pending {
			return e.record("dir-agreement", fmt.Sprintf(
				"block %d owner p%d holds state %d (want exclusive or pending)",
				blk.id, dir.owner, st))
		}
		for a, am := range s.agents {
			if a == dir.owner {
				continue
			}
			ast := am.table[line]
			if ast != Shared && ast != Exclusive {
				continue
			}
			// A non-owner valid copy is legal only while its
			// invalidation is still in flight (or deferred behind the
			// holder's own fill).
			if !e.invalPending(blk.id, a) {
				return e.record("dir-agreement", fmt.Sprintf(
					"block %d owned by p%d but p%d holds a stale valid copy with no invalidation in flight",
					blk.id, dir.owner, a))
			}
		}
	case dirBusy:
		if !e.busyJustified(blk.id) {
			return e.record("dir-agreement", fmt.Sprintf(
				"block %d is dirBusy with no forward, writeback, or ownership transfer in flight",
				blk.id))
		}
	}
	return nil
}

// expCheckRead: the eager data-value check at read completion. Every
// copy a directory-protocol read observes must be the globally last
// performed store.
func (d *dirInval) expCheckRead(e *Explorer, ep *expProc, op ExpOp, v uint64) {
	if e.cfg.Disabled["data-value"] {
		return
	}
	if g := e.ghost[op.Word]; v != g.val {
		e.fail("data-value", fmt.Sprintf(
			"p%d %s read %#x, last performed store was %#x (version %d)",
			ep.p.ID, op, v, g.val, g.version))
	}
}

func (d *dirInval) noteGhostStore(e *Explorer, pid, word int, val uint64) {}
