package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestBaseMissHoldsTransitionLock: Base-Shasta runs SMP-Shasta's
// transition-lock code with one process per agent. A remote miss holds its
// agent's lock from issue to fill, on Base as on SMP-Shasta, and a run
// that ends leaves no lock held and nobody waiting on agent state, on both.
func TestBaseMissHoldsTransitionLock(t *testing.T) {
	const procs, rounds = 8, 20
	for _, proto := range core.ProtocolNames() {
		for _, smp := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s-smp=%v", proto, smp), func(t *testing.T) {
				cfg := core.DefaultConfig()
				cfg.SharedBytes = 256 << 10
				cfg.MaxTime = sim.Cycles(60e6)
				cfg.SMP, cfg.Protocol = smp, proto
				s := core.Build(core.WithConfig(cfg))
				var x, counter uint64 // homed at process 0
				s.Spawn("home", 0, func(p *core.Proc) { p.Compute(1000) })
				s.Spawn("remote", cfg.CPUsPerNode, func(p *core.Proc) {
					p.Store(x, 1) // release consistency: returns with the miss in flight
					if p.Outstanding() == 0 {
						t.Error("the store to a remote line missed nothing")
						return
					}
					if h := p.TransitionHolder(x); h != p {
						t.Errorf("transition lock on x held by %v while %s's miss is in flight, want %s", h, p, p)
					}
					p.MemBar()
					if h := p.TransitionHolder(x); h != nil {
						t.Errorf("transition lock on x held by %v after the fill", h)
					}
				})
				ncpu := s.Eng.NumCPUs()
				for i := 0; i < procs; i++ {
					s.Spawn(fmt.Sprintf("w%d", i), i%ncpu, func(p *core.Proc) {
						for r := 0; r < rounds; r++ {
							for !p.StoreCond(counter, p.LoadLocked(counter)+1) {
							}
							p.Store(x, p.Load(x)+1)
						}
					})
				}
				x = s.Alloc(64, core.AllocOptions{Home: core.HomeAt(0)})
				counter = s.Alloc(64, core.AllocOptions{Home: core.HomeAt(0)})
				if err := s.Run(); err != nil {
					t.Fatal(err)
				}
				if got := s.Peek(counter); got != procs*rounds {
					t.Errorf("counter = %d, want %d", got, procs*rounds)
				}
				if locked, waiters := s.OpenTransitions(); locked != 0 || waiters != 0 {
					t.Errorf("after the run %d transition locks are held and %d processes wait on agent state, want none", locked, waiters)
				}
			})
		}
	}
}
