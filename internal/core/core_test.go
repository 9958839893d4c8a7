package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// testConfig returns a small, fast configuration for protocol tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.SharedBytes = 256 << 10
	cfg.MaxTime = sim.Cycles(60e6) // 60 simulated seconds
	return cfg
}

func baseConfig() Config {
	cfg := testConfig()
	cfg.SMP = false
	return cfg
}

// run spawns the given bodies round-robin over all CPUs and runs to
// completion.
func run(t *testing.T, cfg Config, bodies ...func(p *Proc)) *System {
	t.Helper()
	s := Build(WithConfig(cfg))
	ncpu := s.Eng.NumCPUs()
	for i, b := range bodies {
		s.Spawn("w", i%ncpu, b)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSingleProcessReadWrite(t *testing.T) {
	for _, smp := range []bool{true, false} {
		cfg := testConfig()
		cfg.SMP = smp
		s := Build(WithConfig(cfg))
		var got uint64
		p0 := s.Spawn("w", 0, func(p *Proc) {
			addr := p.sys.Alloc(4096, AllocOptions{Home: HomeAt(0)})
			p.Store(addr, 42)
			p.Store(addr+8, 43)
			got = p.Load(addr) + p.Load(addr+8)
		})
		_ = p0
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if got != 85 {
			t.Fatalf("smp=%v: got %d, want 85", smp, got)
		}
	}
}

func TestRemoteReadMiss(t *testing.T) {
	for _, smp := range []bool{true, false} {
		cfg := testConfig()
		cfg.SMP = smp
		s := Build(WithConfig(cfg))
		var addr uint64
		var got uint64
		ready := false
		// Producer on node 0 (home), consumer on node 1.
		s.Spawn("prod", 0, func(p *Proc) {
			addr = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
			p.Store(addr, 7)
			p.MemBar()
			ready = true
			// Keep polling so we can serve the consumer's request.
			for !s.procs[1].Exited() {
				p.Compute(1000)
			}
		})
		s.Spawn("cons", cfg.CPUsPerNode, func(p *Proc) {
			for !ready {
				p.Compute(1000)
			}
			got = p.Load(addr)
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if got != 7 {
			t.Fatalf("smp=%v: consumer read %d, want 7", smp, got)
		}
		if s.procs[1].stats.ReadMisses() == 0 {
			t.Fatalf("smp=%v: consumer should have taken a remote read miss", smp)
		}
	}
}

func TestInvalidationPropagatesNewValue(t *testing.T) {
	cfg := testConfig()
	s := Build(WithConfig(cfg))
	var addr uint64
	var got1, got2 uint64
	phase := 0
	s.Spawn("writer", 0, func(p *Proc) {
		addr = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
		p.Store(addr, 1)
		p.MemBar()
		phase = 1
		for phase < 2 {
			p.Compute(500)
		}
		p.Store(addr, 2) // must invalidate the reader's copy
		p.MemBar()
		phase = 3
		for phase < 4 {
			p.Compute(500)
		}
	})
	s.Spawn("reader", cfg.CPUsPerNode, func(p *Proc) {
		for phase < 1 {
			p.Compute(500)
		}
		got1 = p.Load(addr)
		phase = 2
		for phase < 3 {
			p.Compute(500)
		}
		got2 = p.Load(addr)
		phase = 4
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got1 != 1 || got2 != 2 {
		t.Fatalf("reads = %d,%d want 1,2", got1, got2)
	}
}

func TestThreeHopDirtyForwarding(t *testing.T) {
	// Home on node 0, writer on node 1, reader on node 2: the read must be
	// forwarded to the owner, and the home must get a sharing writeback.
	cfg := testConfig()
	cfg.Nodes = 4
	cfg.CPUsPerNode = 1
	s := Build(WithConfig(cfg))
	var addr uint64
	var got uint64
	phase := 0
	s.Spawn("home", 0, func(p *Proc) {
		addr = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
		phase = 1
		for phase < 3 {
			p.Compute(500)
		}
		// After the writeback, the home's copy must be valid again.
		if v := p.Load(addr); v != 99 {
			t.Errorf("home read %d after writeback, want 99", v)
		}
	})
	s.Spawn("writer", 1, func(p *Proc) {
		for phase < 1 {
			p.Compute(500)
		}
		p.Store(addr, 99)
		p.MemBar()
		phase = 2
		for phase < 3 {
			p.Compute(500)
		}
	})
	s.Spawn("reader", 2, func(p *Proc) {
		for phase < 2 {
			p.Compute(500)
		}
		got = p.Load(addr)
		phase = 3
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Fatalf("reader got %d, want 99", got)
	}
}

func TestLLSCAtomicIncrement(t *testing.T) {
	for _, smp := range []bool{true, false} {
		for _, model := range []ConsistencyModel{ReleaseConsistent, SequentiallyConsistent} {
			cfg := testConfig()
			cfg.SMP = smp
			cfg.Consistency = model
			const nproc = 8
			const incs = 50
			s := Build(WithConfig(cfg))
			var addr uint64
			bodies := make([]func(*Proc), nproc)
			for i := range bodies {
				bodies[i] = func(p *Proc) {
					if p.ID == 0 {
						addr = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
						p.MemBar()
					}
					p.BarrierWait(0)
					for k := 0; k < incs; k++ {
						for {
							v := p.LoadLocked(addr)
							if p.StoreCond(addr, v+1) {
								break
							}
							p.Compute(50)
						}
						p.MemBar()
						p.Compute(200)
					}
					p.BarrierWait(0)
				}
			}
			ncpu := 0
			s.NewBarrier(0, nproc)
			for i, b := range bodies {
				s.Spawn("inc", i%s.Eng.NumCPUs(), b)
				ncpu++
			}
			if err := s.Run(); err != nil {
				t.Fatalf("smp=%v model=%v: %v", smp, model, err)
			}
			// Verify the final value through any processor.
			final := s.agents[0].data[s.wordOf(addr)]
			want := uint64(nproc * incs)
			// In SMP mode agent 0 may not hold the final copy; find a
			// valid one.
			found := false
			for _, a := range s.agents {
				if a.table[s.lineOf(addr)] != Invalid {
					final = a.data[s.wordOf(addr)]
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("smp=%v model=%v: no valid copy of counter", smp, model)
			}
			if final != want {
				t.Fatalf("smp=%v model=%v: counter=%d want %d", smp, model, final, want)
			}
		}
	}
}

func TestMPLockMutualExclusion(t *testing.T) {
	cfg := testConfig()
	const nproc = 6
	const incs = 40
	s := Build(WithConfig(cfg))
	var addr uint64
	lock := s.NewLock(0)
	bar := s.NewBarrier(0, nproc)
	for i := 0; i < nproc; i++ {
		s.Spawn("lk", i%s.Eng.NumCPUs(), func(p *Proc) {
			if p.ID == 0 {
				addr = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
				p.MemBar()
			}
			p.BarrierWait(bar)
			for k := 0; k < incs; k++ {
				p.LockAcquire(lock)
				v := p.Load(addr)
				p.Compute(100) // widen the race window
				p.Store(addr, v+1)
				p.MemBar()
				p.LockRelease(lock)
			}
			p.BarrierWait(bar)
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

func TestBarrierRendezvous(t *testing.T) {
	cfg := testConfig()
	const nproc = 8
	s := Build(WithConfig(cfg))
	bar := s.NewBarrier(0, nproc)
	arrived := 0
	for i := 0; i < nproc; i++ {
		i := i
		s.Spawn("b", i%s.Eng.NumCPUs(), func(p *Proc) {
			p.Compute(sim.Time(100 * (i + 1)))
			arrived++
			p.BarrierWait(bar)
			if arrived != nproc {
				t.Errorf("proc %d passed barrier with %d arrivals", i, arrived)
			}
			p.BarrierWait(bar) // reusable
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFalseMissOnFlagValue(t *testing.T) {
	cfg := testConfig()
	s := Build(WithConfig(cfg))
	s.Spawn("w", 0, func(p *Proc) {
		addr := s.Alloc(64, AllocOptions{Home: HomeAt(0)})
		p.Store(addr, FlagWord) // application data equal to the flag
		if v := p.Load(addr); v != FlagWord {
			t.Errorf("load = %#x", v)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.procs[0].stats.FalseMisses() != 1 {
		t.Fatalf("false misses = %d, want 1", s.procs[0].stats.FalseMisses())
	}
}

func TestSMPLocalFillAvoidsRemoteMiss(t *testing.T) {
	cfg := testConfig()
	s := Build(WithConfig(cfg))
	var addr uint64
	phase := 0
	// Both processes on node 1; home on node 0.
	s.Spawn("home", 0, func(p *Proc) {
		addr = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
		p.Store(addr, 5)
		p.MemBar()
		phase = 1
		for phase < 3 {
			p.Compute(500)
		}
	})
	c0 := s.Spawn("c0", cfg.CPUsPerNode, func(p *Proc) {
		for phase < 1 {
			p.Compute(500)
		}
		if v := p.Load(addr); v != 5 {
			t.Errorf("c0 read %d", v)
		}
		phase = 2
	})
	c1 := s.Spawn("c1", cfg.CPUsPerNode+1, func(p *Proc) {
		for phase < 2 {
			p.Compute(500)
		}
		if v := p.Load(addr); v != 5 {
			t.Errorf("c1 read %d", v)
		}
		phase = 3
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if c0.stats.ReadMisses() != 1 {
		t.Fatalf("c0 remote misses = %d, want 1", c0.stats.ReadMisses())
	}
	if c1.stats.ReadMisses() != 0 {
		t.Fatalf("c1 remote misses = %d, want 0 (hardware sharing)", c1.stats.ReadMisses())
	}
}

func TestRCNonblockingStoreAndMB(t *testing.T) {
	cfg := testConfig()
	cfg.Consistency = ReleaseConsistent
	s := Build(WithConfig(cfg))
	var addr uint64
	phase := 0
	s.Spawn("a", 0, func(p *Proc) {
		addr = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
		phase = 1
		for phase < 2 {
			p.Compute(500)
		}
	})
	s.Spawn("b", cfg.CPUsPerNode, func(p *Proc) {
		for phase < 1 {
			p.Compute(500)
		}
		t0 := p.Now()
		p.Store(addr, 9) // remote miss, must not stall under RC
		storeTime := p.Now() - t0
		if p.outstanding == 0 {
			t.Error("store completed synchronously; expected non-blocking miss")
		}
		if storeTime > sim.Cycles(5) {
			t.Errorf("RC store took %d cycles", storeTime)
		}
		p.MemBar() // must stall until the miss completes
		if p.outstanding != 0 {
			t.Error("MB returned with outstanding misses")
		}
		if v := p.Load(addr); v != 9 {
			t.Errorf("read back %d", v)
		}
		phase = 2
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSCBlockingStore(t *testing.T) {
	cfg := testConfig()
	cfg.Consistency = SequentiallyConsistent
	s := Build(WithConfig(cfg))
	var addr uint64
	phase := 0
	s.Spawn("a", 0, func(p *Proc) {
		addr = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
		phase = 1
		for phase < 2 {
			p.Compute(500)
		}
	})
	s.Spawn("b", cfg.CPUsPerNode, func(p *Proc) {
		for phase < 1 {
			p.Compute(500)
		}
		p.Store(addr, 9)
		if p.outstanding != 0 {
			t.Error("SC store returned with outstanding miss")
		}
		phase = 2
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestVariableBlockSizeFetchesWholeBlock(t *testing.T) {
	cfg := testConfig()
	s := Build(WithConfig(cfg))
	var addr uint64
	phase := 0
	s.Spawn("a", 0, func(p *Proc) {
		addr = s.Alloc(4*64, AllocOptions{Home: HomeAt(0), BlockLines: 4})
		for i := 0; i < 32; i++ {
			p.Store(addr+uint64(i*8), uint64(i))
		}
		p.MemBar()
		phase = 1
		for phase < 2 {
			p.Compute(500)
		}
	})
	b := s.Spawn("b", cfg.CPUsPerNode, func(p *Proc) {
		for phase < 1 {
			p.Compute(500)
		}
		sum := uint64(0)
		for i := 0; i < 32; i++ {
			sum += p.Load(addr + uint64(i*8))
		}
		if sum != 31*32/2 {
			t.Errorf("sum=%d", sum)
		}
		phase = 2
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if b.stats.ReadMisses() != 1 {
		t.Fatalf("remote misses = %d, want 1 (whole 4-line block as a unit)", b.stats.ReadMisses())
	}
}

func TestRemoteMissLatencyNearPaper(t *testing.T) {
	// §6.1: minimum latency to fetch a 64-byte block from a remote node
	// (two hops) is about 20 microseconds.
	cfg := testConfig()
	s := Build(WithConfig(cfg))
	var addr uint64
	var lat sim.Time
	phase := 0
	s.Spawn("home", 0, func(p *Proc) {
		addr = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
		p.Store(addr, 1)
		p.MemBar()
		phase = 1
		for phase < 2 {
			p.Compute(200)
		}
	})
	s.Spawn("reader", cfg.CPUsPerNode, func(p *Proc) {
		for phase < 1 {
			p.Compute(200)
		}
		t0 := p.Now()
		p.Load(addr)
		lat = p.Now() - t0
		phase = 2
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	us := sim.Microseconds(lat)
	if us < 12 || us > 32 {
		t.Fatalf("2-hop 64B miss latency = %.2f us, want ~20 us", us)
	}
}

func TestBatchValidationAndAccess(t *testing.T) {
	cfg := testConfig()
	s := Build(WithConfig(cfg))
	var src, dst uint64
	phase := 0
	s.Spawn("a", 0, func(p *Proc) {
		src = s.Alloc(1024, AllocOptions{Home: HomeAt(0)})
		dst = s.Alloc(1024, AllocOptions{Home: HomeAt(0)})
		for i := 0; i < 128; i++ {
			p.Store(src+uint64(i*8), uint64(i*3))
		}
		p.MemBar()
		phase = 1
		for phase < 2 {
			p.Compute(500)
		}
	})
	b := s.Spawn("b", cfg.CPUsPerNode, func(p *Proc) {
		for phase < 1 {
			p.Compute(500)
		}
		// Copy src to dst under a batch (like a validated syscall buffer).
		batch := p.BatchStart(
			Range{Addr: src, Bytes: 1024, Write: false},
			Range{Addr: dst, Bytes: 1024, Write: true},
		)
		for i := 0; i < 128; i++ {
			batch.Store(dst+uint64(i*8), batch.Load(src+uint64(i*8)))
		}
		p.BatchEnd(batch)
		for i := 0; i < 128; i++ {
			if v := p.Load(dst + uint64(i*8)); v != uint64(i*3) {
				t.Errorf("dst[%d]=%d", i, v)
				break
			}
		}
		phase = 2
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if b.stats.BatchesIssued() != 1 {
		t.Fatalf("batches = %d", b.stats.BatchesIssued())
	}
	if b.stats.ReadMisses() == 0 || b.stats.WriteMisses() == 0 {
		t.Fatalf("batch should have missed: %d read, %d write", b.stats.ReadMisses(), b.stats.WriteMisses())
	}
}

func TestDeterministicRuns(t *testing.T) {
	runOnce := func() (Stats, sim.Time) {
		cfg := testConfig()
		const nproc = 8
		s := Build(WithConfig(cfg))
		var addr uint64
		bar := s.NewBarrier(0, nproc)
		for i := 0; i < nproc; i++ {
			s.Spawn("d", i%s.Eng.NumCPUs(), func(p *Proc) {
				if p.ID == 0 {
					addr = s.Alloc(4096, AllocOptions{Home: HomeAt(0)})
					p.MemBar()
				}
				p.BarrierWait(bar)
				for k := 0; k < 30; k++ {
					slot := addr + uint64((p.ID*64)%4096)
					p.Store(slot, uint64(k))
					v := p.Load(addr + uint64((k*64)%4096))
					_ = v
					p.Compute(150)
				}
				p.BarrierWait(bar)
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.AggregateStats(), s.Eng.Now()
	}
	s1, t1 := runOnce()
	s2, t2 := runOnce()
	if s1 != s2 || t1 != t2 {
		t.Fatalf("nondeterministic: %+v t=%d vs %+v t=%d", s1, t1, s2, t2)
	}
}

// TestFlagInvariant checks that after a run, every agent copy of every
// invalid line holds the flag pattern (the §2.2 invariant the load check
// depends on), for both protocol modes.
func TestFlagInvariant(t *testing.T) {
	for _, smp := range []bool{true, false} {
		cfg := testConfig()
		cfg.SMP = smp
		const nproc = 8
		s := Build(WithConfig(cfg))
		var addr uint64
		const words = 512
		bar := s.NewBarrier(0, nproc)
		for i := 0; i < nproc; i++ {
			s.Spawn("f", i%s.Eng.NumCPUs(), func(p *Proc) {
				if p.ID == 0 {
					addr = s.Alloc(words*8, AllocOptions{Home: HomeAt(0)})
					p.MemBar()
				}
				p.BarrierWait(bar)
				r := p.Rand()
				for k := 0; k < 200; k++ {
					a := addr + uint64(r.Intn(words))*8
					if r.Intn(2) == 0 {
						p.Store(a, uint64(k))
					} else {
						p.Load(a)
					}
					if k%10 == 0 {
						p.MemBar()
					}
				}
				p.BarrierWait(bar)
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		firstLine := s.lineOf(addr)
		lastLine := s.lineOf(addr + words*8 - 1)
		for _, a := range s.agents {
			for l := firstLine; l <= lastLine; l++ {
				if a.table[l] != Invalid {
					continue
				}
				base := l * s.wordsPerLine
				for w := 0; w < s.wordsPerLine; w++ {
					if a.data[base+w] != FlagWord {
						t.Fatalf("smp=%v: agent %d line %d invalid but word %d = %#x",
							smp, a.agent, l, w, a.data[base+w])
					}
				}
			}
		}
	}
}

// TestCoherenceStress hammers a small region from many processes and
// verifies a per-word sequence invariant: each word only ever increases
// (every writer writes larger values), so any stale read would show up as
// a decrease.
func TestCoherenceStress(t *testing.T) {
	for _, smp := range []bool{true, false} {
		cfg := testConfig()
		cfg.SMP = smp
		const nproc = 8
		const rounds = 120
		s := Build(WithConfig(cfg))
		var addr uint64
		bar := s.NewBarrier(0, nproc)
		lock := s.NewLock(0)
		for i := 0; i < nproc; i++ {
			s.Spawn("s", i%s.Eng.NumCPUs(), func(p *Proc) {
				if p.ID == 0 {
					addr = s.Alloc(4*64, AllocOptions{Home: HomeAt(0)})
					p.MemBar()
				}
				p.BarrierWait(bar)
				prev := make([]uint64, 4)
				for k := 0; k < rounds; k++ {
					slot := addr + uint64((p.ID+k)%4)*64
					p.LockAcquire(lock)
					v := p.Load(slot)
					idx := (int(slot-addr) / 64)
					if v < prev[idx] {
						t.Errorf("smp=%v proc %d: value went backwards %d -> %d", smp, p.ID, prev[idx], v)
					}
					prev[idx] = v + 1
					p.Store(slot, v+1)
					p.MemBar()
					p.LockRelease(lock)
					p.Compute(100)
				}
				p.BarrierWait(bar)
			})
		}
		if err := s.Run(); err != nil {
			t.Fatalf("smp=%v: %v", smp, err)
		}
	}
}

// TestReadOwnWriteForwarding: a load after a non-blocking (RC) store miss
// to the same address must return the stored value even while the miss is
// still in flight.
func TestReadOwnWriteForwarding(t *testing.T) {
	cfg := testConfig()
	cfg.Consistency = ReleaseConsistent
	s := Build(WithConfig(cfg))
	var addr uint64
	phase := 0
	s.Spawn("a", 0, func(p *Proc) {
		addr = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
		phase = 1
		for phase < 2 {
			p.Compute(500)
		}
	})
	s.Spawn("b", cfg.CPUsPerNode, func(p *Proc) {
		for phase < 1 {
			p.Compute(500)
		}
		p.Store(addr, 777) // non-blocking remote miss
		if p.outstanding == 0 {
			t.Error("expected the store to be outstanding")
		}
		if v := p.Load(addr); v != 777 {
			t.Errorf("read-own-write returned %d, want 777", v)
		}
		p.MemBar()
		phase = 2
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocDefaultSpreadsHomes: the zero AllocOptions homes an allocation's
// blocks round-robin over every process, continuing from one allocation to
// the next, for one-line and multi-line blocks alike, so that over N blocks
// each of P processes is home to floor or ceil N/P of them; HomeAt is
// honoured for every block; and a round-robin request before any process
// exists panics by name.
func TestAllocDefaultSpreadsHomes(t *testing.T) {
	s := Build(WithConfig(testConfig()))
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Alloc before any process spawned") {
				t.Errorf("round-robin Alloc with no process: recovered %v", r)
			}
		}()
		s.Alloc(64, AllocOptions{})
	}()
	const procs = 6
	for i := 0; i < procs; i++ {
		s.Spawn("w", i, func(p *Proc) {})
	}
	s.Alloc(64, AllocOptions{Home: HomeAt(4)}) // does not advance the rotation
	s.Alloc(7*64, AllocOptions{})              // 7 blocks of one line
	s.Alloc(9*4*64-8, AllocOptions{BlockLines: 4})
	pinned := s.Alloc(3*2*64, AllocOptions{BlockLines: 2, Home: HomeAt(1)})
	s.Alloc(4*64, AllocOptions{})
	count := map[int]int{}
	spread := 0
	for _, blk := range s.blocks {
		switch {
		case blk.id == 0:
			if blk.home != 4 {
				t.Errorf("HomeAt(4): block homed at process %d", blk.home)
			}
		case blk.firstLine >= s.lineOf(pinned) && blk.firstLine < s.lineOf(pinned)+3*2:
			if blk.home != 1 || blk.lines != 2 {
				t.Errorf("HomeAt(1), two lines a block: block %d has %d lines, homed at process %d", blk.id, blk.lines, blk.home)
			}
		default:
			if want := spread % procs; blk.home != want {
				t.Errorf("round-robin block %d (%d lines) homed at process %d, want %d", spread, blk.lines, blk.home, want)
			}
			count[blk.home]++
			spread++
		}
	}
	if spread != 7+9+4 {
		t.Fatalf("%d round-robin blocks, want 20", spread)
	}
	for h := 0; h < procs; h++ {
		if n := count[h]; n != spread/procs && n != (spread+procs-1)/procs {
			t.Errorf("process %d is home to %d of %d blocks", h, n, spread)
		}
	}
}
