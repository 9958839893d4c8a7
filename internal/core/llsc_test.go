package core

import (
	"testing"

	"repro/internal/sim"
)

// TestAbsorbedInvalidationFailsSC: an SC upgrade from the home's node that
// absorbed a writer's invalidation fails, and the writer's store survives.
// Three nodes of two CPUs under dirinval; the line is homed at process 0
// and shared by the home node and the writer's node. The home is deaf (no
// poll) while three requests queue, in this order:
//
//  1. the writer's upgrade. The home grants it and invalidates its own
//     node's copy, whose transition lock the SC process holds for its
//     upgrade: the invalidation is absorbed by that pending miss;
//  2. a read from a third node, forwarded to the writer, whose writeback
//     puts the written value in the home's memory and the home back among
//     the sharers;
//  3. the SC process's upgrade, which then finds the home agent a sharer
//     and is granted.
//
// Unless the absorbed invalidation broke its reservation, the SC stores the
// increment of the value its LL read over the writer's store.
func TestAbsorbedInvalidationFailsSC(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes, cfg.CPUsPerNode = 3, 2
	s := Build(WithConfig(cfg))
	wire := s.Cfg.Net.WireLatency
	// Everybody polls until start and then idles without polling to a
	// fixed time: the writer's upgrade leaves at writeAt, the reader's read
	// a quarter wire later, the SC's upgrade after both have arrived, and
	// the home looks at its queue once all three are in it.
	const start, writeAt = 100_000, 110_000
	idleUntil := func(p *Proc, t sim.Time) {
		computeUntil(p, start)
		p.ChargeTime(CatTask, t-p.Now())
	}
	var addr uint64
	scOK := false
	s.Spawn("home", 0, func(p *Proc) {
		idleUntil(p, writeAt+4*wire)
	})
	s.Spawn("sc", 1, func(p *Proc) {
		computeUntil(p, start)
		v := p.LoadLocked(addr)
		idleUntil(p, writeAt+2*wire)
		scOK = p.StoreCond(addr, v+1)
	})
	s.Spawn("writer", 2, func(p *Proc) {
		p.Load(addr)
		idleUntil(p, writeAt)
		p.Store(addr, 100)
		p.MemBar()
	})
	s.Spawn("reader", 4, func(p *Proc) {
		idleUntil(p, writeAt+wire/4)
		p.Load(addr)
	})
	addr = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if scOK {
		t.Error("the SC succeeded although a write was serialized between its LL and its grant")
	}
	if v := s.Peek(addr); v != 100 {
		t.Errorf("the line holds %d, want the writer's 100", v)
	}
	// The home granted the upgrade (the SC failed on its reservation, not
	// on a refusal): the SC's node owns the line.
	if o := s.homes[s.blockOf(s.lineOf(addr)).id].owner; o != s.procs[1].agent {
		t.Errorf("the line is owned by agent %d, not the SC's: the upgrade was not granted, and the race did not run", o)
	}
}

// TestSCAgainstContinuousReaders: an LL/SC increment on one SMP node
// succeeds within a few attempts while a process on each of three other
// nodes reads the word in a loop, on both backends, with the word homed on
// the SC's node or a reader's. The readers poll at different rates, so the
// SC upgrade's invalidation acks come back spread out, and a reader that
// acked early asks for the word again while the upgrade is still in
// flight: its request reaches the SC's node, now the owner, and waits
// behind the fill. It must not take the grant away from the SC's store.
func TestSCAgainstContinuousReaders(t *testing.T) {
	const incs, maxAttempts = 20, 4
	for _, proto := range []string{"dirinval", "tardis"} {
		for _, home := range []int{0, 1} {
			cfg := testConfig()
			cfg.Nodes, cfg.CPUsPerNode = 4, 2
			cfg.MaxTime = 20_000_000
			s := Build(WithConfig(cfg), WithProtocol(proto))
			var addr uint64
			done, worst := false, 0
			s.Spawn("sc", 0, func(p *Proc) {
				p.Compute(5000)
				for k := 0; k < incs; k++ {
					attempts := 1
					for !p.StoreCond(addr, p.LoadLocked(addr)+1) {
						attempts++
						p.Poll()
						p.Compute(200)
					}
					worst = max(worst, attempts)
					p.Compute(500)
				}
				done = true
			})
			for i, gap := range []sim.Time{20, 400, 3000} {
				s.Spawn("reader", 2*(i+1), func(p *Proc) {
					for !done {
						p.Load(addr)
						p.ChargeTime(CatTask, gap)
						p.Poll()
					}
				})
			}
			addr = s.Alloc(64, AllocOptions{Home: HomeAt(home)})
			if err := s.Run(); err != nil {
				t.Fatalf("%s home %d: %v", proto, home, err)
			}
			if v := s.Peek(addr); v != incs {
				t.Errorf("%s home %d: the word holds %d after %d increments", proto, home, v, incs)
			}
			if worst > maxAttempts {
				t.Errorf("%s home %d: an increment took %d LL/SC attempts, want at most %d", proto, home, worst, maxAttempts)
			}
			t.Logf("%s home %d: worst %d attempts", proto, home, worst)
		}
	}
}
