package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dsmsync"
	"repro/internal/sim"
)

// Table1 reproduces the lock-latency microbenchmark (§6.2): acquire times
// for MP locks, SM (LL/SC) locks, and SM locks with prefetch-exclusive, in
// the cached, uncontended-remote-miss, and contended cases.
func Table1() *Table {
	t := &Table{
		Title:   "Table 1: lock acquire latencies (microseconds)",
		Columns: []string{"case", "MP locks", "SM locks", "SM+prefetch"},
		Notes: []string{
			"paper: cached 1.11/1.88/1.91; uncontended 15.63/44.12/25.70; contended 81.02/136.48/137.90",
		},
	}
	kinds := []struct {
		name     string
		prefetch bool
		sm       bool
	}{{"MP", false, false}, {"SM", false, true}, {"SM+pfx", true, true}}

	var cached, uncontended, contended [3]float64
	for i, k := range kinds {
		cached[i] = lockLatency(k.sm, k.prefetch, "cached")
		uncontended[i] = lockLatency(k.sm, k.prefetch, "remote")
		contended[i] = lockLatency(k.sm, k.prefetch, "contended")
	}
	t.Rows = [][]string{
		{"cached (free, local)", usf(cached[0]), usf(cached[1]), usf(cached[2])},
		{"uncontended miss", usf(uncontended[0]), usf(uncontended[1]), usf(uncontended[2])},
		{"contended", usf(contended[0]), usf(contended[1]), usf(contended[2])},
	}
	return t
}

// lockLatency measures the average acquire latency for one scenario.
func lockLatency(sm, prefetch bool, scenario string) float64 {
	cfg := baseConfig()
	cfg.SharedBytes = 256 << 10
	cfg.PrefetchExclusive = prefetch
	return lockLatencyWith(cfg, sm, scenario)
}

// lockLatencyCfg measures SM-lock latency under an explicit configuration.
func lockLatencyCfg(cfg core.Config, scenario string) float64 {
	cfg.SharedBytes = 256 << 10
	return lockLatencyWith(cfg, true, scenario)
}

func lockLatencyWith(cfg core.Config, sm bool, scenario string) float64 {
	s := build(cfg)
	mk := func(home int) dsmsync.Lock {
		if sm {
			return dsmsync.NewSMLock(s, core.AllocOptions{Home: core.HomeAt(home)})
		}
		return dsmsync.NewMPLock(s, home)
	}
	const reps = 20
	var total sim.Time
	samples := 0

	switch scenario {
	case "cached":
		// The lock is free and resident on the acquiring process.
		s.Spawn("m", 0, func(p *core.Proc) {
			lk := mk(0)
			lk.Acquire(p) // warm: line becomes exclusive locally
			lk.Release(p)
			for i := 0; i < reps; i++ {
				t0 := p.Now()
				lk.Acquire(p)
				total += p.Now() - t0
				samples++
				lk.Release(p)
				p.Compute(1500)
			}
		})

	case "remote":
		// The free lock resides on the home node; a remote process
		// acquires it. Turn-taking keeps pulling it back home.
		var turn uint64
		var lk dsmsync.Lock
		ready := false
		s.Spawn("home", 0, func(p *core.Proc) {
			turn = s.Alloc(64, core.AllocOptions{Home: core.HomeAt(0)})
			lk = mk(0)
			ready = true
			p.MemBar()
			for i := 0; i < reps; i++ {
				for p.Load(turn) != uint64(2*i) {
					p.Compute(250)
				}
				lk.Acquire(p)
				lk.Release(p)
				p.Store(turn, uint64(2*i+1))
				p.MemBar()
			}
			for p.Load(turn) != uint64(2*reps) {
				p.Compute(250)
			}
		})
		s.Spawn("meas", cfg.CPUsPerNode, func(p *core.Proc) {
			for !ready {
				p.Compute(250)
			}
			for i := 0; i < reps; i++ {
				for p.Load(turn) != uint64(2*i+1) {
					p.Compute(250)
				}
				t0 := p.Now()
				lk.Acquire(p)
				total += p.Now() - t0
				samples++
				lk.Release(p)
				p.Store(turn, uint64(2*i+2))
				p.MemBar()
			}
		})

	case "contended":
		// Eight processes across the cluster hammer one lock; the
		// average acquire latency under contention is reported, over all
		// eight: one contender's depends on where it sits from the lock.
		var lk dsmsync.Lock
		const nproc = 8
		bar := dsmsync.NewMPBarrier(s, 0, nproc)
		for i := 0; i < nproc; i++ {
			i := i
			s.Spawn("c", i%s.Eng.NumCPUs(), func(p *core.Proc) {
				if p.ID == 0 {
					lk = mk(0)
					p.MemBar()
				}
				bar.Wait(p)
				for k := 0; k < reps/2; k++ {
					t0 := p.Now()
					lk.Acquire(p)
					total += p.Now() - t0
					samples++
					p.Compute(900) // critical section
					lk.Release(p)
					p.Compute(600)
				}
				bar.Wait(p)
			})
		}
	}
	if err := s.Run(); err != nil {
		panic(fmt.Sprintf("experiments: lock latency %s: %v", scenario, err))
	}
	if samples == 0 {
		return 0
	}
	return sim.Microseconds(total) / float64(samples)
}

// MemoryBarrierCosts measures the §6.2 memory-barrier costs: ~0.32 us for
// Base-Shasta, ~1.68 us for SMP-Shasta, ~0.03 us native.
func MemoryBarrierCosts() *Table {
	t := &Table{
		Title:   "Memory barrier cost (microseconds, no outstanding stores)",
		Columns: []string{"system", "MB cost"},
		Notes:   []string{"paper: 0.32 us Base-Shasta, 1.68 us SMP-Shasta, 0.03 us native"},
	}
	measure := func(smp, checks bool) float64 {
		cfg := baseConfig()
		cfg.SMP = smp
		cfg.Checks = checks
		cfg.SharedBytes = 64 << 10
		s := build(cfg)
		var avg float64
		s.Spawn("m", 0, func(p *core.Proc) {
			const reps = 50
			t0 := p.Now()
			for i := 0; i < reps; i++ {
				p.MemBar()
			}
			avg = sim.Microseconds(p.Now()-t0) / reps
		})
		if err := s.Run(); err != nil {
			panic(err)
		}
		return avg
	}
	t.Rows = [][]string{
		{"native (no checks)", usf(measure(true, false))},
		{"Base-Shasta", usf(measure(false, true))},
		{"SMP-Shasta", usf(measure(true, true))},
	}
	return t
}

// Table2 reproduces the system-call validation costs (§6.2): open and
// reads of 4, 8192 and 65536 bytes for a standard application, Base-Shasta
// and SMP-Shasta.
func Table2() *Table {
	t := &Table{
		Title:   "Table 2: system call times (microseconds)",
		Columns: []string{"call", "standard", "Base-Shasta", "SMP-Shasta"},
		Notes: []string{
			"paper: open 58/66/79; read4 12/16/20; read8192 51/70/126; read65536 370/576/845",
		},
	}
	type meas struct{ open, r4, r8k, r64k float64 }
	measure := func(smp, shared bool) meas {
		cfg := baseConfig()
		cfg.SMP = smp
		cfg.SharedBytes = 1 << 20
		sys, osl := newDBSystem(cfg)
		osl.FS().Create("/t")
		var m meas
		sys.Spawn("m", 0, func(p *core.Proc) {
			osl.Attach(p)
			buf := sys.Alloc(128<<10, core.AllocOptions{Home: core.HomeAt(0)})
			nameAddr := sys.Alloc(64, core.AllocOptions{Home: core.HomeAt(0)})
			fd, _ := osl.Open(p, "/t", 0)
			osl.Write(p, fd, buf, 96<<10)
			const reps = 8
			bench := func(f func()) float64 {
				t0 := p.Now()
				for i := 0; i < reps; i++ {
					f()
				}
				return sim.Microseconds(p.Now()-t0) / reps
			}
			na := uint64(0)
			if shared {
				na = nameAddr
			}
			m.open = bench(func() { osl.Open(p, "/t", na) })
			dst := uint64(0)
			if shared {
				dst = buf
			}
			m.r4 = bench(func() { osl.Seek(p, fd, 0); osl.Read(p, fd, dst, 4) })
			m.r8k = bench(func() { osl.Seek(p, fd, 0); osl.Read(p, fd, dst, 8192) })
			m.r64k = bench(func() { osl.Seek(p, fd, 0); osl.Read(p, fd, dst, 65536) })
		})
		if err := sys.Run(); err != nil {
			panic(err)
		}
		return m
	}
	std := measure(true, false)
	base := measure(false, true)
	smp := measure(true, true)
	t.Rows = [][]string{
		{"open", usf(std.open), usf(base.open), usf(smp.open)},
		{"read 4 bytes", usf(std.r4), usf(base.r4), usf(smp.r4)},
		{"read 8192 bytes", usf(std.r8k), usf(base.r8k), usf(smp.r8k)},
		{"read 65536 bytes", usf(std.r64k), usf(base.r64k), usf(smp.r64k)},
	}
	return t
}
