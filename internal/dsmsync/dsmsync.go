// Package dsmsync provides the two synchronization styles compared in the
// Shasta paper (§6.2):
//
//   - MP ("message-passing") locks and barriers, implemented directly on the
//     message layer with queue-based grant hand-off — the special high-level
//     constructs traditional software DSM systems require. Processes that
//     share a node's memory (SMP-Shasta) synchronize through it, and only
//     what crosses nodes is a message; and
//   - SM ("shared-memory") locks and barriers, built from transparently
//     supported Alpha load-locked/store-conditional sequences and memory
//     barriers — exactly what an unmodified hardware-multiprocessor binary
//     executes.
//
// SM synchronization is what makes Shasta able to run unmodified binaries;
// Table 1 quantifies the cost difference.
package dsmsync

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// Lock is a mutual-exclusion lock in one of the two styles.
type Lock interface {
	// Acquire blocks the calling process until the lock is held.
	Acquire(p *core.Proc)
	// Release unlocks; the caller must hold the lock.
	Release(p *core.Proc)
}

// Barrier is an N-way rendezvous.
type Barrier interface {
	// Wait blocks until every participant has arrived.
	Wait(p *core.Proc)
}

// MPLock is the message-passing lock: the home process queues waiters and
// hands the lock directly to the next on release. The home's node-mates
// acquire and release it in node memory.
type MPLock struct{ id int }

// NewMPLock creates a message-passing lock homed at the given process.
func NewMPLock(s *core.System, home int) *MPLock {
	return &MPLock{id: s.NewLock(home)}
}

func (l *MPLock) Acquire(p *core.Proc) { p.LockAcquire(l.id) }
func (l *MPLock) Release(p *core.Proc) { p.LockRelease(l.id) }

// MPBarrier is the message-passing barrier: arrivals combine per node, the
// last of each node reports to the home, and the home releases each node
// through that process. Its n participants are processes 0 to n-1.
type MPBarrier struct{ id int }

// NewMPBarrier creates a message-passing barrier for n participants homed
// at the given process.
func NewMPBarrier(s *core.System, home, n int) *MPBarrier {
	return &MPBarrier{id: s.NewBarrier(home, n)}
}

func (b *MPBarrier) Wait(p *core.Proc) { p.BarrierWait(b.id) }

// SMLock is a test-and-test-and-set spin lock built from LL/SC, the way an
// Alpha binary implements a lock (Figure 1 of the paper). When the system's
// PrefetchExclusive option is on, a single exclusive prefetch is issued
// before the acquire loop (§3.1.2), converting the common uncontended
// remote acquire from two misses into one.
type SMLock struct {
	addr uint64
}

// NewSMLock allocates the lock word in shared memory. The allocation uses
// its own coherence block so the lock does not false-share.
func NewSMLock(s *core.System, opts core.AllocOptions) *SMLock {
	return &SMLock{addr: s.Alloc(8, opts)}
}

// Addr returns the shared address of the lock word.
func (l *SMLock) Addr() uint64 { return l.addr }

func (l *SMLock) Acquire(p *core.Proc) {
	// The prefetch is issued once, before the retry loop, to avoid
	// livelock among competing sequences (§3.1.2).
	p.PrefetchExclusive(l.addr)
	backoff := sim.Time(200)
	for {
		v := p.LoadLocked(l.addr)
		if v == 0 {
			if p.StoreCond(l.addr, 1) {
				break
			}
		}
		// The rewriter inserts a poll at every loop back-edge (§2.1) —
		// without it a spinning processor would never service incoming
		// protocol requests. Failed attempts back off exponentially, as
		// Alpha lock sequences do.
		p.Poll()
		p.Compute(backoff)
		if backoff < 6000 {
			backoff *= 2
		}
		// Spin reading until the lock looks free, then retry the LL/SC.
		// Each read has a poll at its back-edge; while the word is cached
		// in node memory the simulator runs the reads in closed form, up
		// to the first message, tick or write that can end the spin
		// (core.Proc.SpinWhile).
		p.SpinWhile(l.addr, 320, 0, false)
	}
	p.MemBar() // acquire barrier, as in the Alpha lock sequence
}

func (l *SMLock) Release(p *core.Proc) {
	p.MemBar() // release barrier
	p.Store(l.addr, 0)
}

// SMBarrier is a sense-reversing centralized barrier in shared memory: each
// arrival increments the count with an LL/SC sequence (the behaviour the
// paper calls out as expensive for Ocean, §6.4).
type SMBarrier struct {
	countAddr uint64
	senseAddr uint64
	n         int
}

// NewSMBarrier allocates barrier state in shared memory for n participants.
func NewSMBarrier(s *core.System, n int, opts core.AllocOptions) *SMBarrier {
	b := &SMBarrier{n: n}
	b.countAddr = s.Alloc(8, opts)
	b.senseAddr = s.Alloc(8, opts)
	return b
}

// CountAddr and SenseAddr expose the barrier words (tests).
func (b *SMBarrier) CountAddr() uint64 { return b.countAddr }

// SenseAddr exposes the sense word (tests).
func (b *SMBarrier) SenseAddr() uint64 { return b.senseAddr }

func (b *SMBarrier) Wait(p *core.Proc) {
	sense := p.Load(b.senseAddr)
	p.MemBar()
	backoff := sim.Time(200)
	for {
		v := p.LoadLocked(b.countAddr)
		if p.StoreCond(b.countAddr, v+1) {
			if v+1 == uint64(b.n) {
				// Last arrival: reset the count, flip the sense. The
				// trailing MB makes the flip visible before this process
				// can re-read the sense in a later episode — without it
				// the flipper can observe its own stale sense (a real
				// relaxed-consistency bug this simulator caught).
				p.Store(b.countAddr, 0)
				p.MemBar()
				p.Store(b.senseAddr, 1-sense)
				p.MemBar()
				return
			}
			break
		}
		p.Poll()
		p.Compute(backoff)
		if backoff < 6000 {
			backoff *= 2
		}
	}
	// Spin until the sense flips; the in-line poll at the loop back-edge
	// keeps invalidations serviced (§3.2.3). The sense word stays cached in
	// node memory until the flip writes it or invalidates it, so the spin
	// runs in closed form between those events (core.Proc.SpinWhile).
	p.SpinWhile(b.senseAddr, 320, sense, true)
	p.MemBar()
}

// AtomicAdd performs a fetch-and-add with an LL/SC retry loop, one of the
// "numerous other atomic operations" LL/SC supports (§3.1.1).
func AtomicAdd(p *core.Proc, addr uint64, delta uint64) uint64 {
	p.PrefetchExclusive(addr)
	backoff := sim.Time(150)
	for {
		v := p.LoadLocked(addr)
		if p.StoreCond(addr, v+delta) {
			return v
		}
		p.Poll()
		p.Compute(backoff)
		if backoff < 5000 {
			backoff *= 2
		}
	}
}

// CompareAndSwap implements CAS from LL/SC (§3.1.1). It returns whether the
// swap happened.
func CompareAndSwap(p *core.Proc, addr uint64, old, new uint64) bool {
	for {
		v := p.LoadLocked(addr)
		if v != old {
			return false
		}
		if p.StoreCond(addr, new) {
			return true
		}
		p.Poll()
		p.Compute(30)
	}
}
