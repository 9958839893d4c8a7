package core

import (
	"fmt"

	"repro/internal/trace"
)

// This file implements Shasta's message-passing synchronization (§6.2's
// "MP" synchronization): queue-based locks and combining barriers that
// applications can use instead of (or alongside) transparent Alpha LL/SC
// sequences. Both are grouped by coherence agent. Processes that share an
// agent's memory (a node's, in SMP-Shasta) synchronize through it at
// SyncLocal a step; only what crosses agents is a message. In Base-Shasta
// every process is its own agent, so every lock and barrier operation of a
// process other than the home is a message to or from the home.

// LockAcquire obtains the message-passing lock with the given ID, blocking
// until it is granted. Grants are queue-based: a waiter on the releaser's
// agent is woken in the memory they share, and the home grants the lock to
// a waiter elsewhere as the release reaches it. That gives MP locks their
// low contended latency (Table 1). Away from the home's agent, node-mates
// queue in their agent's slot of the lock behind the one that holds it or
// has asked for it, so the agent has at most one request at the home.
func (p *Proc) LockAcquire(id int) {
	s := p.sys
	lk := s.locks[id]
	p.stats.N[CntLockAcquires]++
	p.emitSync("lock-acquire", id)
	p.enterProtocol()
	defer p.exitProtocol()
	p.charge(CatSyncStall, s.Cfg.Cost.ProtocolEntry)
	home := s.procs[lk.home]
	if home.agent == p.agent {
		// The home shares this process's memory: manipulate the lock state
		// directly.
		p.charge(CatSyncStall, s.Cfg.Cost.SyncLocal)
		if !lk.held {
			lk.held = true
			s.proto.observeTs(p, lk.relTs) // what a grant would have carried
			p.awaitOwnDrops()
			return
		}
		lk.waiters = append(lk.waiters, p.ID)
	} else if slot := p.lockSlot(lk, CatSyncStall); slot != nil && slot.busy {
		slot.waiters = append(slot.waiters, p.ID)
	} else {
		if slot != nil {
			slot.busy = true
		}
		p.send(s.lockServer(lk, p), &msg{kind: msgLockReq, id: id, from: p.ID, reqProc: p.ID}, CatSyncStall)
	}
	p.stallWhile(CatSyncStall, func() bool { return !p.granted[id] })
	p.granted[id] = false
	p.observeHanded()
	p.awaitOwnDrops()
}

// awaitOwnDrops ends an acquire once the copies its timestamp made this
// process drop (Tardis) are gone from the agent. A drop that node-mates in
// application code have yet to apply leaves its downgrade record open and
// the copy's data in place, so an in-line load would still read it.
func (p *Proc) awaitOwnDrops() {
	open := func() bool {
		for _, r := range p.mem.dgs {
			if r.opener == p.ID && r.then == thenNothing {
				return true
			}
		}
		return false
	}
	if open() {
		p.stallOnAgent(CatSyncStall, open)
	}
}

// LockRelease releases a lock acquired with LockAcquire. Like Shasta's own
// lock routines it has release semantics: all outstanding stores complete
// before the lock is handed on.
func (p *Proc) LockRelease(id int) {
	s := p.sys
	lk := s.locks[id]
	p.emitSync("lock-release", id)
	p.enterProtocol()
	defer p.exitProtocol()
	p.drainOutstanding()
	p.charge(CatTask, s.Cfg.Cost.ProtocolEntry)
	home := s.procs[lk.home]
	if home.agent == p.agent {
		p.charge(CatTask, s.Cfg.Cost.SyncLocal)
		if ts := s.proto.syncTs(p); ts > lk.relTs {
			lk.relTs = ts
		}
		p.releaseLock(lk, p.agent)
		return
	}
	rel := msg{kind: msgLockRelease, id: id, from: p.ID, reqProc: -1, ts: s.proto.syncTs(p)}
	if slot := p.lockSlot(lk, CatTask); slot != nil {
		if len(slot.waiters) > 0 {
			next := slot.waiters[0]
			slot.waiters = slot.waiters[:copy(slot.waiters, slot.waiters[1:])]
			if slot.streak < len(s.localProcs(p.agent)) {
				// A node-mate waits, and the lock has not stayed on this
				// agent longer than the home's own bound allows.
				slot.streak++
				q := s.procs[next]
				q.granted[id] = true
				p.handOff(q, rel.ts)
				return
			}
			// The lock leaves, and the agent's next waiter asks for it
			// again, behind every waiter the home has queued meanwhile.
			rel.reqProc = next
		}
		slot.busy, slot.streak = rel.reqProc >= 0, 0
	}
	p.send(s.lockServer(lk, p), &rel, CatTask)
}

// lockSlot returns p's agent's slot of lk, or nil in Base-Shasta, where
// the agent is p alone. Reading the slot is a SyncLocal step when node-mates
// share it.
func (p *Proc) lockSlot(lk *lockState, cat TimeCategory) *lockSlot {
	if lk.slots == nil {
		return nil
	}
	if len(p.sys.localProcs(p.agent)) > 1 {
		p.charge(cat, p.sys.Cfg.Cost.SyncLocal)
	}
	return &lk.slots[p.agent]
}

// lockServer is the process of lk's home agent, whose memory holds the lock,
// that handles p's lock messages: each agent's go to a different one, so one
// process does not handle every other node's requests for a lock it homes.
func (s *System) lockServer(lk *lockState, p *Proc) *Proc {
	mates := s.localProcs(s.procs[lk.home].agent)
	return mates[(lk.home+p.agent)%len(mates)]
}

// releaseLock hands lk on from a holder on the given agent, or frees it.
// The next holder is the first waiter on that agent, which finds the data
// of the critical section dirty in the memory they share, unless the lock
// has already been handed on within the agent as many times in a row as
// the agent has processes; then, and when no waiter shares the agent, it
// is the first waiter of all. In Base-Shasta the releaser is its agent's
// only process and cannot be waiting, so hand-offs are FIFO there.
func (p *Proc) releaseLock(lk *lockState, agent int) {
	s := p.sys
	if len(lk.waiters) == 0 {
		lk.held = false
		return
	}
	i := 0
	if lk.streak < len(s.localProcs(agent)) {
		for j, w := range lk.waiters {
			if s.procs[w].agent == agent {
				i = j
				break
			}
		}
	}
	next := lk.waiters[i]
	copy(lk.waiters[i:], lk.waiters[i+1:])
	lk.waiters = lk.waiters[:len(lk.waiters)-1]
	if s.procs[next].agent == agent {
		lk.streak++
	} else {
		lk.streak = 0
	}
	p.grantLock(lk, next)
}

// grantLock hands the lock to process to. The grant carries the maximum
// timestamp of prior releases, so an acquiring process observes everything
// the releaser's critical section produced (release-consistency ordering
// under tardis; relTs stays zero under dirinval). A node-mate is woken in
// the memory they share; a grant to this process itself is applied in place.
func (p *Proc) grantLock(lk *lockState, to int) {
	dst := p.sys.procs[to]
	if dst != p && dst.agent == p.agent {
		dst.granted[lk.id] = true
		p.handOff(dst, lk.relTs)
		return
	}
	p.send(dst, &msg{kind: msgLockGrant, id: lk.id, from: p.ID, ts: lk.relTs}, CatMessage)
}

func (p *Proc) handleLockReq(m *msg) {
	lk := p.sys.locks[m.id]
	if !lk.held {
		lk.held = true
		p.grantLock(lk, m.reqProc)
		return
	}
	lk.waiters = append(lk.waiters, m.reqProc) // at most one entry per process, and a hand-off removes in place, so the capacity is reused
}

// handleLockRelease hands lk on, and then queues the waiter the releaser's
// agent put in the release, if any.
func (p *Proc) handleLockRelease(m *msg) {
	lk := p.sys.locks[m.id]
	if m.ts > lk.relTs {
		lk.relTs = m.ts
	}
	p.releaseLock(lk, p.sys.procs[m.from].agent)
	if m.reqProc >= 0 {
		p.handleLockReq(m)
	}
}

// handOff wakes q, which shares p's agent, from a lock or barrier wait whose
// flag the caller has just set in the memory they share: no message. q pays
// for the wake and observes the timestamp itself as it wakes
// (observeHanded).
func (p *Proc) handOff(q *Proc, ts int64) {
	q.handed = true
	if ts > q.handedTs {
		q.handedTs = ts
	}
	q.Sim.NotifyAt(p.Sim.Now())
}

// observeHanded ends a wait a node-mate ended with handOff. The woken
// process re-reads the flag its waker wrote, from agent memory, for one
// SyncLocal: the cost of a wake falls on the process woken, as a spinning
// waiter's miss on the flag does, so waking k mates costs the waker nothing
// and each mate one step. It then observes the handed timestamp, which may
// expire leases and so must run on its own coroutine.
func (p *Proc) observeHanded() {
	if !p.handed {
		return
	}
	ts := p.handedTs
	p.handed, p.handedTs = false, 0
	p.charge(CatSyncStall, p.sys.Cfg.Cost.SyncLocal)
	p.sys.proto.observeTs(p, ts)
}

// BarrierWait enters the message-passing barrier and blocks until every
// participant has arrived. Arrivals combine in their agent's slot; the last
// of an agent reports the agent's participants to the home, by message
// unless it shares the home's agent. The home counts participants and
// releases each agent through the process that reported it, which wakes the
// agent's other arrivals.
func (p *Proc) BarrierWait(id int) {
	s := p.sys
	b := s.barriers[id]
	p.stats.N[CntBarrierWaits]++
	p.emitSync("barrier-enter", id)
	p.enterProtocol()
	defer p.exitProtocol()
	p.drainOutstanding()
	p.charge(CatSyncStall, s.Cfg.Cost.ProtocolEntry)
	p.barrierWaits[id]++
	target := p.barrierWaits[id]
	slot := b.slotOf(p)
	home := s.procs[b.home]
	// An agent's only participant, away from the home, keeps nothing in
	// the agent's memory: its arrival is the message.
	if slot.need > 1 || p.agent == home.agent {
		p.charge(CatSyncStall, s.Cfg.Cost.SyncLocal)
	}
	slot.arrived.add(p.ID)
	if ts := s.proto.syncTs(p); ts > slot.maxTs {
		slot.maxTs = ts
	}
	if slot.arrived.len() == slot.need {
		ts := slot.maxTs
		slot.maxTs = 0
		if p.agent == home.agent {
			p.barrierArrive(b, p.ID, ts)
		} else {
			p.send(home, &msg{kind: msgBarrierEnter, id: id, from: p.ID, reqProc: p.ID, ts: ts}, CatSyncStall)
		}
	}
	p.stallWhile(CatSyncStall, func() bool { return p.barrierSeen[id] < target })
	p.observeHanded()
	p.awaitOwnDrops()
	p.emitSync("barrier-leave", id)
}

// emitSync traces one synchronization event; the id is the lock/barrier ID.
func (p *Proc) emitSync(ev string, id int) {
	if t := p.sys.tr(p); t != nil {
		t.Emit(trace.Event{T: p.Sim.Now(), Cat: "sync", Ev: ev, P: p.ID, A: int64(id)})
	}
}

func (p *Proc) handleBarrierEnter(m *msg) {
	p.barrierArrive(p.sys.barriers[m.id], m.reqProc, m.ts)
}

// barrierArrive counts, at the home's agent, the participants of the agent
// whose last arrival was who, and releases the episode once all are in.
func (p *Proc) barrierArrive(b *barrierState, who int, ts int64) {
	b.reporters.add(who)
	b.count += b.slots[p.sys.procs[who].agent].need
	if ts > b.maxTs {
		b.maxTs = ts
	}
	if b.count < b.needed {
		return
	}
	b.count = 0
	b.epoch++
	// The release broadcasts the maximum arrival timestamp: after the
	// barrier every participant observes every pre-barrier store (tardis;
	// zero and inert under dirinval).
	maxTs := b.maxTs
	b.maxTs = 0
	if p.sys.Cfg.Checks && !p.sys.parActive() {
		// Barrier release is a natural quiesce point: every participant
		// has drained its outstanding misses before arriving. (Skipped
		// mid-run under the parallel engine — the checker reads all
		// agents' state, which other shards may be mutating; the end-of-
		// run CheckInvariants still covers parallel runs.)
		if v := p.sys.checkLight(nil); v != nil {
			panic(fmt.Sprintf("core: %v (at barrier %d release, epoch %d)", v, b.id, b.epoch))
		}
	}
	for _, who := range b.reporters.take() {
		dst := p.sys.procs[who]
		if dst.agent == p.agent {
			p.releaseSlot(b, maxTs)
			continue
		}
		p.send(dst, &msg{kind: msgBarrierRelease, id: b.id, from: p.ID, ts: maxTs}, CatMessage)
	}
}

// handleBarrierRelease runs on the process that reported its agent.
func (p *Proc) handleBarrierRelease(m *msg) {
	p.releaseSlot(p.sys.barriers[m.id], m.ts)
}

// releaseSlot ends the episode for every arrival in p's agent's slot. p
// observes ts itself; it wakes the others, which pay for their own wakes.
func (p *Proc) releaseSlot(b *barrierState, ts int64) {
	for _, id := range b.slots[p.agent].arrived.take() {
		q := p.sys.procs[id]
		if q == p {
			p.sys.proto.observeTs(p, ts)
			p.barrierSeen[b.id]++
			continue
		}
		q.barrierSeen[b.id]++
		p.handOff(q, ts)
	}
}

// SendUser delivers an application-defined message (used by the cluster OS
// layer for fork, signals, process management...). The registered
// UserHandler runs on the receiving process.
func (p *Proc) SendUser(to int, tag int, payload any) {
	p.send(p.sys.procs[to], &msg{kind: msgUser, id: tag, from: p.ID, reqProc: to, payload: payload}, CatTask)
}
