// Package conformance is the cross-protocol behavioral test suite: one
// table of requirements every registered coherence backend must satisfy,
// executed against each backend by name (core.ProtocolNames). The suite
// pins down the OBSERVABLE contract of the Protocol interface — what
// programs can see — while leaving each backend free in how it keeps
// copies coherent (invalidation multicast vs. timestamp leases):
//
//   - Exhaustive model checking: every non-broken catalogue model
//     converges with all invariants (including liveness) intact.
//   - Litmus outcomes: the mp/sb explorer models produce exactly the
//     golden outcome sets under SC and RC — the consistency model is a
//     property of the system, not of the backend. For unsynchronized
//     races the backends may differ only by outcome SUBSET (a backend
//     with bounded staleness reaches fewer interleavings, never new
//     ones).
//   - ISA litmus sweeps: the full rewriter + inline-check path keeps
//     forbidden outcomes unreachable on every backend.
//   - Runtime miss/upgrade/downgrade behavior: synchronized
//     producer/consumer programs observe released values; statistics
//     reflect a read miss, a write upgrade, and (SMP) a downgrade.
//   - Workload equivalence: every workload completes with the identical
//     final memory image on every backend, on both engines, with the
//     runtime invariants clean.
//   - Fault tolerance: under the chaos profiles, each backend's faulty
//     runs reproduce its own fault-free memory image.
package conformance

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Protocols returns the backends under test.
func Protocols() []string { return core.ProtocolNames() }

// testConfig is a small, fast configuration for direct protocol tests.
func testConfig(protocol string, smp bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.SharedBytes = 256 << 10
	cfg.MaxTime = sim.Cycles(60e6)
	cfg.Protocol = protocol
	cfg.SMP = smp
	return cfg
}

// MissReport is what MissSequence observed: the values the phased
// readers saw and the relevant aggregate statistics.
type MissReport struct {
	FirstRead, FinalRead    uint64
	ReadMisses, WriteMisses int64
	Downgrades              int64 // explicit + direct (SMP only)
}

// MissSequence drives the canonical miss/upgrade/downgrade sequence on
// the named backend, with barrier synchronization between phases so the
// sequence is the same on every backend:
//
//	phase A: the home-node writer stores 1 (home starts exclusive)
//	phase B: the remote reader loads — a remote read miss
//	phase C: the remote reader stores 2 — a write miss/upgrade
//	phase D: the writer re-reads and must observe 2
//
// The writer runs on the home node's SECOND cpu: in SMP mode its
// private exclusive entry must then be demoted — an intra-node
// downgrade — before the home agent (on cpu 0) can serve the remote
// read in phase B.
func MissSequence(protocol string, smp bool) (*MissReport, error) {
	cfg := testConfig(protocol, smp)
	s := core.Build(core.WithConfig(cfg))
	bar := s.NewBarrier(0, 3)
	var addr uint64
	rep := &MissReport{}
	s.Spawn("peer", 0, func(p *core.Proc) {
		p.BarrierWait(bar)
		p.BarrierWait(bar)
		p.BarrierWait(bar)
	})
	s.Spawn("writer", 1, func(p *core.Proc) {
		p.Store(addr, 1)
		p.BarrierWait(bar) // A done
		p.BarrierWait(bar) // B done
		p.BarrierWait(bar) // C done
		rep.FinalRead = p.Load(addr)
	})
	s.Spawn("reader", cfg.CPUsPerNode, func(p *core.Proc) {
		p.BarrierWait(bar)
		r0 := p.Stats().ReadMisses()
		rep.FirstRead = p.Load(addr)
		rep.ReadMisses = p.Stats().ReadMisses() - r0
		p.BarrierWait(bar)
		w0 := p.Stats().WriteMisses()
		p.Store(addr, 2)
		p.MemBar()
		rep.WriteMisses = p.Stats().WriteMisses() - w0
		p.BarrierWait(bar)
	})
	addr = s.Alloc(64, core.AllocOptions{Home: core.HomeAt(0)})
	if err := s.Run(); err != nil {
		return nil, fmt.Errorf("%s smp=%v: %w", protocol, smp, err)
	}
	if err := s.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("%s smp=%v: %w", protocol, smp, err)
	}
	agg := s.AggregateStats()
	rep.Downgrades = agg.DowngradesSent() + agg.DowngradesDirect()
	return rep, nil
}

// ProducerConsumer runs the canonical synchronized visibility program on
// the named backend: the producer writes values and releases a lock; the
// consumer acquires the lock and must observe every write. Returns an
// error naming the first stale read. This is the cross-backend
// visibility contract: synchronization transfers writes, whatever the
// backend does with unsynchronized copies.
func ProducerConsumer(protocol string, smp bool, words int) error {
	cfg := testConfig(protocol, smp)
	s := core.Build(core.WithConfig(cfg))
	lk := s.NewLock(0)
	done := s.NewBarrier(0, 2)
	var addr uint64
	var stale error
	s.Spawn("prod", 0, func(p *core.Proc) {
		p.LockAcquire(lk)
		for i := 0; i < words; i++ {
			p.Store(addr+uint64(8*i), uint64(i+1))
		}
		p.LockRelease(lk)
		p.BarrierWait(done)
	})
	s.Spawn("cons", cfg.CPUsPerNode, func(p *core.Proc) {
		// Wait until the producer has published under the lock; lock
		// handoff must carry the writes (tardis: the release timestamp).
		for {
			p.LockAcquire(lk)
			v := p.Load(addr)
			p.LockRelease(lk)
			if v != 0 {
				break
			}
			p.Compute(500)
		}
		p.LockAcquire(lk)
		for i := 0; i < words; i++ {
			got := p.Load(addr + uint64(8*i))
			if got != uint64(i+1) && stale == nil {
				stale = fmt.Errorf("%s smp=%v: consumer read %d at word %d, want %d",
					protocol, smp, got, i, i+1)
			}
		}
		p.LockRelease(lk)
		p.BarrierWait(done)
	})
	addr = s.Alloc(words*8, core.AllocOptions{Home: core.HomeAt(0)})
	if err := s.Run(); err != nil {
		return fmt.Errorf("%s smp=%v: %w", protocol, smp, err)
	}
	if stale != nil {
		return stale
	}
	return s.CheckInvariants()
}
