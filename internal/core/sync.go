package core

import (
	"fmt"

	"repro/internal/trace"
)

// This file implements Shasta's message-passing synchronization (§6.2's
// "MP" synchronization): queue-based locks and combining barriers that
// applications can use instead of (or alongside) transparent Alpha LL/SC
// sequences. Both are grouped by coherence agent. Every agent keeps a slot
// of each lock and barrier in its memory (a node's, in SMP-Shasta), where
// its processes synchronize at SyncLocal a step; only what crosses agents
// is a message. In Base-Shasta every process is its own agent, so every
// lock and barrier operation of a process other than the home is a message
// to or from the home.

// LockAcquire obtains the message-passing lock with the given ID, blocking
// until it is granted. An MP lock is queued at two levels. A process queues
// in its agent's slot behind a node-mate that holds the lock or has asked
// for it; otherwise it asks the home, once for the agent, and the home
// queues agents in the order they asked. A release wakes a waiter on the
// releaser's agent in the memory they share, and the home grants the lock
// to the next agent as a release reaches it. That gives MP locks their low
// contended latency (Table 1).
func (p *Proc) LockAcquire(id int) {
	s := p.sys
	lk := s.locks[id]
	p.stats.N[CntLockAcquires]++
	p.emitSync("lock-acquire", id)
	p.enterProtocol()
	defer p.exitProtocol()
	p.charge(CatSyncStall, s.Cfg.Cost.ProtocolEntry)
	if slot := p.lockSlot(lk, CatSyncStall); slot.busy {
		slot.waiters = append(slot.waiters, p.ID)
	} else {
		slot.busy = true
		req := msg{kind: msgLockReq, id: id, from: p.ID, reqProc: p.ID}
		p.toLockHome(lk, &req, CatSyncStall)
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
// before the lock is handed on. The next waiter in the agent's slot takes
// the lock with no message, unless the lock has been handed on within the
// agent as many times in a row as the agent has processes; then, and when
// no node-mate waits, the lock goes back to the home, and the release
// carries the agent's next waiter to the back of the home's queue.
func (p *Proc) LockRelease(id int) {
	s := p.sys
	lk := s.locks[id]
	p.emitSync("lock-release", id)
	p.enterProtocol()
	defer p.exitProtocol()
	p.drainOutstanding()
	p.charge(CatTask, s.Cfg.Cost.ProtocolEntry)
	slot := p.lockSlot(lk, CatTask)
	rel := msg{kind: msgLockRelease, id: id, from: p.ID, reqProc: -1, ts: s.proto.syncTs(p)}
	if len(slot.waiters) > 0 {
		next := s.procs[slot.waiters[0]]
		slot.waiters = slot.waiters[:copy(slot.waiters, slot.waiters[1:])]
		if slot.streak < len(s.localProcs(p.agent)) {
			slot.streak++
			next.granted[id] = true
			p.handOff(next, rel.ts)
			return
		}
		rel.reqProc = next.ID
	}
	slot.busy, slot.streak = rel.reqProc >= 0, 0
	p.toLockHome(lk, &rel, CatTask)
}

// lockSlot returns p's agent's slot of lk. Reading it is a SyncLocal step at
// the home's agent, whose memory also holds the home's queue, and elsewhere
// when node-mates share the slot.
func (p *Proc) lockSlot(lk *lockState, cat TimeCategory) *lockSlot {
	if p.agent == p.sys.procs[lk.home].agent || len(p.sys.localProcs(p.agent)) > 1 {
		p.charge(cat, p.sys.Cfg.Cost.SyncLocal)
	}
	return &lk.slots[p.agent]
}

// toLockHome delivers m, a lock request or release of p's agent, to lk's
// home: handled in place at the home's agent, which shares the lock's
// memory, and otherwise sent to the home, whose agent's queue any process of
// the home's node serves (System.requestBox).
func (p *Proc) toLockHome(lk *lockState, m *msg, cat TimeCategory) {
	home := p.sys.procs[lk.home]
	if p.agent == home.agent {
		p.dispatch(m)
		return
	}
	p.send(home, m, cat)
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

// handleLockReq grants lk to the asking agent's process if it is free, and
// otherwise queues the agent.
func (p *Proc) handleLockReq(m *msg) {
	lk := p.sys.locks[m.id]
	if !lk.held {
		lk.held = true
		p.grantLock(lk, m.reqProc)
		return
	}
	lk.waiters = append(lk.waiters, m.reqProc) // at most one entry per agent, and a grant removes in place, so the capacity is reused
}

// handleLockRelease grants lk to the first agent queued, or frees it, and
// then queues the waiter the releaser's agent put in the release, if any.
func (p *Proc) handleLockRelease(m *msg) {
	lk := p.sys.locks[m.id]
	if m.ts > lk.relTs {
		lk.relTs = m.ts
	}
	if len(lk.waiters) == 0 {
		lk.held = false
	} else {
		next := lk.waiters[0]
		lk.waiters = lk.waiters[:copy(lk.waiters, lk.waiters[1:])]
		p.grantLock(lk, next)
	}
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
	q.wake(p.Sim.Now())
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
