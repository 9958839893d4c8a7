package core

import (
	"fmt"

	"repro/internal/trace"
)

// This file implements Shasta's message-passing synchronization: the
// queue-based locks and centralized barriers that applications can use
// instead of (or alongside) transparent Alpha LL/SC sequences (§6.2's "MP"
// synchronization). Both are implemented directly on the message layer
// rather than on top of the shared-memory abstraction.

// LockAcquire obtains the message-passing lock with the given ID, blocking
// until it is granted. Grants are queue-based: a release hands the lock
// directly to the next waiter, which gives MP locks their low contended
// latency (Table 1).
func (p *Proc) LockAcquire(id int) {
	s := p.sys
	lk := s.locks[id]
	p.stats.N[CntLockAcquires]++
	p.emitSync("lock-acquire", id)
	p.enterProtocol()
	defer p.exitProtocol()
	p.charge(CatSyncStall, s.Cfg.Cost.ProtocolEntry)
	if lk.home == p.ID {
		// Home-local acquire: manipulate the lock state directly.
		p.charge(CatSyncStall, s.Cfg.Cost.SyncLocal)
		if !lk.held {
			lk.held = true
			lk.holder = p.ID
			return
		}
		lk.waiters = append(lk.waiters, p.ID)
	} else {
		home := s.procs[lk.home]
		s.deliver(p, home, &msg{kind: msgLockReq, id: id, from: p.ID, reqProc: p.ID}, CatSyncStall)
	}
	p.stallWhile(CatSyncStall, func() bool { return !p.granted[id] })
	p.granted[id] = false
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
	if lk.home == p.ID {
		p.charge(CatTask, s.Cfg.Cost.SyncLocal)
		if ts := s.proto.syncTs(p); ts > lk.relTs {
			lk.relTs = ts
		}
		p.releaseLock(lk)
		return
	}
	home := s.procs[lk.home]
	s.deliver(p, home, &msg{kind: msgLockRelease, id: id, from: p.ID, ts: s.proto.syncTs(p)}, CatTask)
}

func (p *Proc) releaseLock(lk *lockState) {
	if len(lk.waiters) > 0 {
		next := lk.waiters[0]
		lk.waiters = lk.waiters[1:]
		lk.holder = next
		p.grantLock(lk, next)
		return
	}
	lk.held = false
	lk.holder = -1
}

func (p *Proc) grantLock(lk *lockState, to int) {
	dst := p.sys.procs[to]
	// The grant carries the maximum timestamp of prior releases, so an
	// acquiring process observes everything the releaser's critical
	// section produced (release-consistency ordering under tardis; relTs
	// stays zero under dirinval).
	if dst == p {
		p.sys.proto.observeTs(p, lk.relTs)
		p.granted[lk.id] = true
		return
	}
	p.sys.deliver(p, dst, &msg{kind: msgLockGrant, id: lk.id, from: p.ID, ts: lk.relTs}, CatMessage)
}

func (p *Proc) handleLockReq(m *msg) {
	lk := p.sys.locks[m.id]
	if !lk.held {
		lk.held = true
		lk.holder = m.reqProc
		p.grantLock(lk, m.reqProc)
		return
	}
	lk.waiters = append(lk.waiters, m.reqProc)
}

func (p *Proc) handleLockRelease(m *msg) {
	lk := p.sys.locks[m.id]
	if m.ts > lk.relTs {
		lk.relTs = m.ts
	}
	p.releaseLock(lk)
}

// BarrierWait enters the message-passing barrier and blocks until every
// participant has arrived. The barrier home counts arrivals and broadcasts
// a release.
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
	if b.home == p.ID {
		p.charge(CatSyncStall, s.Cfg.Cost.SyncLocal)
		p.barrierArrive(b, p.ID, s.proto.syncTs(p))
	} else {
		home := s.procs[b.home]
		s.deliver(p, home, &msg{kind: msgBarrierEnter, id: id, from: p.ID, reqProc: p.ID, ts: s.proto.syncTs(p)}, CatSyncStall)
	}
	p.stallWhile(CatSyncStall, func() bool { return p.barrierSeen[id] < target })
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

func (p *Proc) barrierArrive(b *barrierState, who int, ts int64) {
	b.arrived = append(b.arrived, who)
	if ts > b.maxTs {
		b.maxTs = ts
	}
	if len(b.arrived) < b.needed {
		return
	}
	arrived := b.arrived
	b.arrived = nil
	b.epoch++
	// The release broadcasts the maximum arrival timestamp: after the
	// barrier every participant observes every pre-barrier store (tardis;
	// zero and inert under dirinval).
	maxTs := b.maxTs
	b.maxTs = 0
	if p.sys.Cfg.InvariantChecks && p.sys.Cfg.Checks && !p.sys.parActive() {
		// Barrier release is a natural quiesce point: every participant
		// has drained its outstanding misses before arriving. (Skipped
		// mid-run under the parallel engine — the checker reads all
		// agents' state, which other shards may be mutating; the end-of-
		// run CheckInvariants still covers parallel runs.)
		if v := p.sys.checkLight(nil); v != nil {
			panic(fmt.Sprintf("core: %v (at barrier %d release, epoch %d)", v, b.id, b.epoch))
		}
	}
	for _, proc := range arrived {
		dst := p.sys.procs[proc]
		if dst == p {
			p.sys.proto.observeTs(p, maxTs)
			p.barrierSeen[b.id]++
			continue
		}
		p.sys.deliver(p, dst, &msg{kind: msgBarrierRelease, id: b.id, from: p.ID, ts: maxTs}, CatMessage)
	}
	// Hand the drained arrival slice back for the next epoch.
	if b.arrived == nil {
		b.arrived = arrived[:0]
	}
}

// SendUser delivers an application-defined message (used by the cluster OS
// layer for fork, signals, process management...). The registered
// UserHandler runs on the receiving process.
func (p *Proc) SendUser(to int, tag int, payload any) {
	dst := p.sys.procs[to]
	m := msg{kind: msgUser, id: tag, from: p.ID, reqProc: to, payload: payload}
	if dst == p {
		p.handleMessage(&m, CatMessage)
		return
	}
	p.sys.deliver(p, dst, &m, CatTask)
}
