package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// Steady-state allocation of the hot paths, in heap objects per round.
// allocsPerRound runs a scenario for n and for 2n rounds and divides the
// difference in mallocs by n. What the two runs share cancels: Build, Spawn
// and Alloc, the first miss on each block, the growth of pools, maps and
// free lists to their working size. The simulation is deterministic, so
// what is left is what one more round costs.

// allocRounds is n. Noise from the rest of the test binary (fewer than n
// objects between two ReadMemStats) is lost in the integer division.
const allocRounds = 100

// allocStep is the length of one turn of an alternating scenario: enough
// for any miss here to complete.
const allocStep = sim.Time(100_000)

// allocsPerRound returns the heap objects one more round of build's
// scenario allocates, counted around Run after a GC.
func allocsPerRound(t *testing.T, build func(rounds int) *System) int64 {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	mallocs := func(rounds int) int64 {
		s := build(rounds)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return int64(after.Mallocs - before.Mallocs)
	}
	one := mallocs(allocRounds)
	return (mallocs(2*allocRounds) - one) / allocRounds
}

// forEachAllocSystem runs f on both backends, SMP-Shasta and Base-Shasta,
// with cpus CPUs on each of nodes nodes.
func forEachAllocSystem(t *testing.T, nodes, cpus int, f func(t *testing.T, proto string, build func() *System)) {
	for _, proto := range ProtocolNames() {
		for _, v := range []struct {
			name    string
			variant ProtocolVariant
		}{{"smp", SMPShasta()}, {"base", BaseShasta()}} {
			t.Run(proto+"/"+v.name, func(t *testing.T) {
				f(t, proto, func() *System {
					return Build(WithConfig(testConfig()), WithVariant(v.variant), WithProcs(nodes, cpus), WithProtocol(proto))
				})
			})
		}
	}
}

// alternate spawns process i on CPU i for each op. In round r process i
// runs its op (if any) at cycle (r*len(ops) + i + 1) * allocStep, computing
// up to it, and after the last round every process computes to the same end.
func alternate(s *System, rounds int, ops ...func(p *Proc, r int)) {
	k := len(ops)
	end := sim.Time(rounds*k+1) * allocStep
	for i, op := range ops {
		s.Spawn(fmt.Sprintf("p%d", i), i, func(p *Proc) {
			for r := 0; r < rounds; r++ {
				computeUntil(p, sim.Time(r*k+i+1)*allocStep)
				if op != nil {
					op(p, r)
				}
			}
			computeUntil(p, end)
		})
	}
}

func checkAllocs(t *testing.T, got, bound int64, why string) {
	t.Helper()
	t.Logf("%d heap objects per round", got)
	if got > bound {
		t.Errorf("%d heap objects per round, want at most %d (%s)", got, bound, why)
	}
}

// TestHitsAllocNothing: a load hit and a store hit on the home's own block.
func TestHitsAllocNothing(t *testing.T) {
	forEachAllocSystem(t, 1, 1, func(t *testing.T, proto string, build func() *System) {
		got := allocsPerRound(t, func(rounds int) *System {
			s := build()
			var addr uint64
			s.Spawn("p0", 0, func(p *Proc) {
				for r := 0; r < rounds; r++ {
					p.Store(addr, uint64(r))
					p.Load(addr)
				}
			})
			addr = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
			return s
		})
		checkAllocs(t, got, 0, "a hit is the in-line check")
	})
}

// TestBatchAllocatesNothing: BatchStart, a store and a load in the window,
// BatchEnd. The process reuses one Batch, its maps and slices.
func TestBatchAllocatesNothing(t *testing.T) {
	forEachAllocSystem(t, 1, 1, func(t *testing.T, proto string, build func() *System) {
		got := allocsPerRound(t, func(rounds int) *System {
			s := build()
			var addr uint64
			s.Spawn("p0", 0, func(p *Proc) {
				for r := 0; r < rounds; r++ {
					b := p.BatchStart(Range{Addr: addr, Bytes: 128, Write: true})
					b.Store(addr, uint64(r))
					b.Load(addr + 64)
					p.BatchEnd(b)
				}
			})
			addr = s.Alloc(128, AllocOptions{Home: HomeAt(0)})
			return s
		})
		checkAllocs(t, got, 0, "the batch is the process's own")
	})
}

// TestTwoHopMissAllocs: p0 reads a block homed at p1, then p1 stores to it,
// which invalidates p0's copy (dirinval) or lets its lease run out (Tardis),
// so the next read misses again.
func TestTwoHopMissAllocs(t *testing.T) {
	forEachAllocSystem(t, 2, 1, func(t *testing.T, proto string, build func() *System) {
		got := allocsPerRound(t, func(rounds int) *System {
			s := build()
			var addr uint64
			alternate(s, rounds,
				func(p *Proc, r int) { p.Load(addr) },
				func(p *Proc, r int) { p.Store(addr, uint64(r)); p.MemBar() })
			addr = s.Alloc(64, AllocOptions{BlockLines: 1, Home: HomeAt(1)})
			return s
		})
		checkAllocs(t, got, 1, "the read reply's buffer: data flows only from the home to the reader, so the home's pool misses every time (pool.go)")
	})
}

// TestThreeHopReadAllocs: p0 stores to a block homed at p2, then p1 reads
// it, which the home forwards to p0.
func TestThreeHopReadAllocs(t *testing.T) {
	forEachAllocSystem(t, 3, 1, func(t *testing.T, proto string, build func() *System) {
		got := allocsPerRound(t, func(rounds int) *System {
			s := build()
			var addr uint64
			alternate(s, rounds,
				func(p *Proc, r int) { p.Store(addr, uint64(r)); p.MemBar() },
				func(p *Proc, r int) { p.Load(addr) },
				nil)
			addr = s.Alloc(64, AllocOptions{BlockLines: 1, Home: HomeAt(2)})
			return s
		})
		bound, why := int64(1), "the owner's reply to the reader, a one-way flow (pool.go); its sharing writeback comes back to it in the next read-exclusive reply"
		if proto == "dirinval" {
			bound, why = 2, "the owner's reply to the reader and its sharing writeback to the home: the owner then upgrades without data, so both flows are one-way (pool.go)"
		}
		checkAllocs(t, got, bound, why)
	})
}

// TestComputeAllocatesNothing: two processes on each of two nodes compute,
// so every round is lookahead windows, scheduler steps and coroutine
// switches between a node's two processes.
func TestComputeAllocatesNothing(t *testing.T) {
	forEachAllocSystem(t, 2, 2, func(t *testing.T, proto string, build func() *System) {
		var runs []*System
		got := allocsPerRound(t, func(rounds int) *System {
			s := build()
			alternate(s, rounds, nil, nil, nil, nil)
			runs = append(runs, s)
			return s
		})
		checkAllocs(t, got, 0, "a scheduler step and a coroutine switch reuse what they have")
		if a, b := runs[0].Eng.SchedCounters(), runs[1].Eng.SchedCounters(); b.Switches <= a.Switches {
			t.Errorf("%d coroutine switches in %d rounds, %d in twice as many: the rounds switch nothing", a.Switches, allocRounds, b.Switches)
		}
	})
}

// TestLockPassageAllocatesNothing: four processes on 2x2 take an MP lock
// homed at p0 in turn, each asking while the one before holds it, so the
// lock passes from process to process. On SMP-Shasta it passes within the
// home's agent (p0 to p1), through the home (p1 to p2, p3 to p0) and between
// remote node-mates (p2 to p3); on Base-Shasta every passage but those at
// p0 goes through the home. The requests and releases handed in place by
// address must stay on the stack, and the home's queue and each slot reuse
// their capacity.
func TestLockPassageAllocatesNothing(t *testing.T) {
	forEachAllocSystem(t, 2, 2, func(t *testing.T, proto string, build func() *System) {
		got := allocsPerRound(t, func(rounds int) *System {
			s := build()
			lk := s.NewLock(0)
			hold := func(p *Proc, r int) {
				p.LockAcquire(lk)
				computeUntil(p, sim.Time(r*4+p.ID+2)*allocStep+allocStep/2)
				p.LockRelease(lk)
			}
			alternate(s, rounds, hold, hold, hold, hold)
			return s
		})
		checkAllocs(t, got, 0, "a lock passage is a slot step, a hand-off or a message, none of which allocates")
	})
}

// TestQueueWaitAllocatesNothing: every way a process waits, on 2x2. Between
// its turns each process computes, parked on its queues in a stretch
// (quietly). p0 stores to a block homed at p2 and loads another word of it,
// which stalls on the store's miss; p1 stores to a block homed at p3 and
// stalls on agent state until the store completes (stallOnAgent). Then each home stores to its block, which takes
// it back with its data, so every buffer returns to the pool it came from.
// Waiting is a flag on the process: nothing registers with a queue or an
// agent.
func TestQueueWaitAllocatesNothing(t *testing.T) {
	forEachAllocSystem(t, 2, 2, func(t *testing.T, proto string, build func() *System) {
		var runs []*System
		got := allocsPerRound(t, func(rounds int) *System {
			s := build()
			runs = append(runs, s)
			var a, b uint64
			alternate(s, rounds,
				func(p *Proc, r int) { p.Store(a, uint64(r)); p.Load(a + 8) },
				func(p *Proc, r int) {
					p.Store(b, uint64(r))
					p.stallOnAgent(CatMBStall, func() bool { return p.outstanding > 0 })
				},
				func(p *Proc, r int) { p.Store(a, uint64(r)); p.MemBar() },
				func(p *Proc, r int) { p.Store(b, uint64(r)); p.MemBar() })
			a = s.Alloc(64, AllocOptions{BlockLines: 1, Home: HomeAt(2)})
			b = s.Alloc(64, AllocOptions{BlockLines: 1, Home: HomeAt(3)})
			return s
		})
		checkAllocs(t, got, 0, "a wait sets a flag")
		if p0, p1 := runs[0].procs[0].stats.Time, runs[0].procs[1].stats.Time; p0[CatReadStall] == 0 || p1[CatMBStall] == 0 {
			t.Errorf("p0 stalled %d cycles on its miss and p1 %d on agent state, want both to stall", p0[CatReadStall], p1[CatMBStall])
		}
	})
}
