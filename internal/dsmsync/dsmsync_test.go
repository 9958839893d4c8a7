package dsmsync

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func testSystem(t *testing.T, smp bool) *core.System {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.SharedBytes = 256 << 10
	cfg.SMP = smp
	cfg.MaxTime = sim.Cycles(60e6)
	return core.Build(core.WithConfig(cfg))
}

// exerciseLock hammers a counter under the given lock and checks the total.
func exerciseLock(t *testing.T, s *core.System, mkLock func() Lock, mkBar func(n int) Barrier) {
	t.Helper()
	const nproc = 8
	const incs = 30
	var addr uint64
	var lk Lock
	var bar Barrier
	for i := 0; i < nproc; i++ {
		s.Spawn("w", i%s.Eng.NumCPUs(), func(p *core.Proc) {
			if p.ID == 0 {
				addr = s.Alloc(64, core.AllocOptions{Home: core.HomeAt(0)})
				lk = mkLock()
				bar = mkBar(nproc)
				p.MemBar()
			}
			bar.Wait(p)
			for k := 0; k < incs; k++ {
				lk.Acquire(p)
				v := p.Load(addr)
				p.Compute(80)
				p.Store(addr, v+1)
				lk.Release(p)
				p.Compute(120)
			}
			bar.Wait(p)
			if p.ID == 0 {
				if v := p.Load(addr); v != nproc*incs {
					t.Errorf("counter=%d want %d", v, nproc*incs)
				}
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMPLockAndBarrier(t *testing.T) {
	for _, smp := range []bool{true, false} {
		s := testSystem(t, smp)
		exerciseLock(t, s,
			func() Lock { return NewMPLock(s, 0) },
			func(n int) Barrier { return NewMPBarrier(s, 0, n) })
	}
}

func TestSMLockWithMPBarrier(t *testing.T) {
	for _, smp := range []bool{true, false} {
		s := testSystem(t, smp)
		exerciseLock(t, s,
			func() Lock { return NewSMLock(s, core.AllocOptions{Home: core.HomeAt(0)}) },
			func(n int) Barrier { return NewMPBarrier(s, 0, n) })
	}
}

func TestSMLockWithPrefetch(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.SharedBytes = 256 << 10
	cfg.PrefetchExclusive = true
	cfg.MaxTime = sim.Cycles(60e6)
	s := core.Build(core.WithConfig(cfg))
	exerciseLock(t, s,
		func() Lock { return NewSMLock(s, core.AllocOptions{Home: core.HomeAt(0)}) },
		func(n int) Barrier { return NewMPBarrier(s, 0, n) })
	if st := s.AggregateStats(); st.Prefetches() == 0 {
		t.Fatal("prefetch-exclusive never issued")
	}
}

func TestSMBarrier(t *testing.T) {
	for _, smp := range []bool{true, false} {
		s := testSystem(t, smp)
		exerciseLock(t, s,
			func() Lock { return NewSMLock(s, core.AllocOptions{Home: core.HomeAt(0)}) },
			func(n int) Barrier { return NewSMBarrier(s, n, core.AllocOptions{Home: core.HomeAt(0)}) })
	}
}

func TestAtomicAdd(t *testing.T) {
	s := testSystem(t, true)
	const nproc = 8
	const adds = 40
	var addr uint64
	bar := NewMPBarrier(s, 0, nproc)
	for i := 0; i < nproc; i++ {
		s.Spawn("a", i%s.Eng.NumCPUs(), func(p *core.Proc) {
			if p.ID == 0 {
				addr = s.Alloc(64, core.AllocOptions{Home: core.HomeAt(0)})
				p.MemBar()
			}
			bar.Wait(p)
			for k := 0; k < adds; k++ {
				AtomicAdd(p, addr, 3)
				p.Compute(100)
			}
			bar.Wait(p)
			if p.ID == 0 {
				if v := p.Load(addr); v != nproc*adds*3 {
					t.Errorf("sum=%d want %d", v, nproc*adds*3)
				}
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestAtomicAddEmulated: under the lock-flag emulation a fetch-and-add
// counter hammered by 16 processes on 4x4 SMP-Shasta ends exact, on both
// backends. An SC that completes on a local fill must check its reservation
// after the fill's charge: a node-mate's increment can land in it.
func TestAtomicAddEmulated(t *testing.T) {
	const nproc = 16
	const adds = 50
	for _, proto := range []string{"dirinval", "tardis"} {
		cfg := core.DefaultConfig()
		cfg.SharedBytes = 256 << 10
		cfg.EmulateLLSC = true
		cfg.MaxTime = sim.Cycles(60e6)
		s := core.Build(core.WithConfig(cfg), core.WithProtocol(proto))
		var addr uint64
		var got uint64
		bar := NewMPBarrier(s, 0, nproc)
		for i := 0; i < nproc; i++ {
			s.Spawn("a", i, func(p *core.Proc) {
				if p.ID == 0 {
					addr = s.Alloc(64, core.AllocOptions{Home: core.HomeAt(0)})
					p.MemBar()
				}
				bar.Wait(p)
				for k := 0; k < adds; k++ {
					AtomicAdd(p, addr, 1)
					p.Compute(100)
				}
				bar.Wait(p)
				if p.ID == 0 {
					got = p.Load(addr)
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if got != nproc*adds {
			t.Errorf("%s: count=%d want %d", proto, got, nproc*adds)
		}
	}
}

func TestCompareAndSwap(t *testing.T) {
	s := testSystem(t, true)
	const nproc = 6
	var addr uint64
	winners := 0
	bar := NewMPBarrier(s, 0, nproc)
	for i := 0; i < nproc; i++ {
		s.Spawn("c", i%s.Eng.NumCPUs(), func(p *core.Proc) {
			if p.ID == 0 {
				addr = s.Alloc(64, core.AllocOptions{Home: core.HomeAt(0)})
				p.MemBar()
			}
			bar.Wait(p)
			if CompareAndSwap(p, addr, 0, uint64(p.ID)+100) {
				winners++
			}
			bar.Wait(p)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if winners != 1 {
		t.Fatalf("CAS winners=%d want exactly 1", winners)
	}
}

// TestTable1Shape checks the qualitative ordering of Table 1: cached MP
// locks beat cached SM locks; uncontended remote MP < SM+prefetch < SM.
func TestTable1Shape(t *testing.T) {
	// The lock alternates between the home process and a remote measurer,
	// so every measured acquire finds the lock line resident on the home
	// node — Table 1's "uncontended miss latency" scenario.
	measure := func(mk func(s *core.System) Lock) float64 {
		cfg := core.DefaultConfig()
		cfg.SharedBytes = 64 << 10
		cfg.MaxTime = sim.Cycles(120e6)
		s := core.Build(core.WithConfig(cfg))
		var total sim.Time
		const reps = 20
		var turnAddr uint64
		var lk Lock
		s.Spawn("home", 0, func(p *core.Proc) {
			turnAddr = s.Alloc(64, core.AllocOptions{Home: core.HomeAt(0)})
			lk = mk(s)
			p.MemBar()
			for i := 0; i < reps; i++ {
				for p.Load(turnAddr) != uint64(2*i) {
					p.Compute(200)
				}
				lk.Acquire(p)
				lk.Release(p)
				p.Store(turnAddr, uint64(2*i+1))
				p.MemBar()
			}
			for p.Load(turnAddr) != uint64(2*reps) {
				p.Compute(200)
			}
		})
		s.Spawn("meas", cfg.CPUsPerNode, func(p *core.Proc) {
			for turnAddr == 0 {
				p.Compute(200)
			}
			for i := 0; i < reps; i++ {
				for p.Load(turnAddr) != uint64(2*i+1) {
					p.Compute(200)
				}
				t0 := p.Now()
				lk.Acquire(p)
				total += p.Now() - t0
				lk.Release(p)
				p.Store(turnAddr, uint64(2*i+2))
				p.MemBar()
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return sim.Microseconds(total) / reps
	}
	mpRemote := measure(func(s *core.System) Lock { return NewMPLock(s, 0) })
	smRemote := measure(func(s *core.System) Lock { return NewSMLock(s, core.AllocOptions{Home: core.HomeAt(0)}) })
	if mpRemote >= smRemote {
		t.Fatalf("MP remote %.2fus should beat SM remote %.2fus", mpRemote, smRemote)
	}
	if smRemote < 25 || smRemote > 70 {
		t.Fatalf("SM remote acquire %.2fus, want ~44us (Table 1)", smRemote)
	}
	if mpRemote < 8 || mpRemote > 30 {
		t.Fatalf("MP remote acquire %.2fus, want ~16us (Table 1)", mpRemote)
	}
}
