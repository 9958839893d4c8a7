package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim/parallel"
)

// Tests for the per-line arrays sized to the allocated prefix (growLines).

// TestUnallocatedAddressPanics pins the messages for a shared address
// that no Alloc covers: inside SharedBytes it is "line N not allocated"
// whether the line lies inside the arrays' spare capacity or far past it
// (never a bare index-out-of-range), past SharedBytes it is "out of range".
// Every access path fails so, checked or not, before it touches the word:
// one inside the spare capacity reads the same afterwards.
func TestUnallocatedAddressPanics(t *testing.T) {
	const farLine = 3000 // past minGrowLines, inside testConfig's 4096 lines
	addrs := []struct {
		name string
		off  uint64
		want string
	}{
		{"next-line", 64, "core: line 1 not allocated"},
		{"far-line", farLine * 64, fmt.Sprintf("core: line %d not allocated", farLine)},
		{"past-region", 256 << 10, "out of range"},
	}
	ops := []struct {
		name string
		do   func(p *Proc, addr uint64)
	}{
		{"Load", func(p *Proc, addr uint64) { p.Load(addr) }},
		{"Store", func(p *Proc, addr uint64) { p.Store(addr, 1) }},
		{"RawLoad", func(p *Proc, addr uint64) { p.RawLoad(addr) }},
		{"RawStore", func(p *Proc, addr uint64) { p.RawStore(addr, 1) }},
		{"ElidedLoad", func(p *Proc, addr uint64) { p.ElidedLoad(addr) }},
		{"Peek", func(p *Proc, addr uint64) { p.sys.Peek(addr) }},
		{"Batch", func(p *Proc, addr uint64) { p.BatchStart(Range{Addr: addr, Bytes: 8}) }},
	}
	checks := []struct{ checks, flag bool }{{true, true}, {true, false}, {false, false}}
	for _, smp := range []bool{true, false} {
		for _, c := range checks {
			for _, op := range ops {
				if op.name == "Batch" && !c.checks {
					continue // an unchecked batch touches nothing until its accesses
				}
				for _, a := range addrs {
					cfg := testConfig()
					cfg.SMP, cfg.Checks, cfg.FlagCheck = smp, c.checks, c.flag
					s := Build(WithConfig(cfg))
					var mem *agentMem
					w, before := -1, uint64(0)
					s.Spawn("w", 0, func(p *Proc) {
						base := s.Alloc(64, AllocOptions{Home: HomeAt(0)})
						if len(s.lineBlock) >= farLine {
							t.Errorf("arrays cover %d lines, the far line is not past them", len(s.lineBlock))
						}
						addr := base + a.off
						if s.wordOf(addr) < len(p.mem.data) {
							mem, w = p.mem, s.wordOf(addr)
							before = mem.data[w]
						}
						op.do(p, addr)
					})
					err := s.Run()
					name := fmt.Sprintf("smp=%v checks=%v flag=%v %s %s", smp, c.checks, c.flag, op.name, a.name)
					if err == nil || !strings.Contains(err.Error(), a.want) {
						t.Errorf("%s: error %.120q, want it to contain %q", name, fmt.Sprint(err), a.want)
					}
					if w >= 0 && mem.data[w] != before {
						t.Errorf("%s: word %d holds %#x after the panic, %#x before", name, w, mem.data[w], before)
					}
				}
			}
		}
	}
}

// TestRunTimeAllocGrowsUnderLoad has a running process allocate enough to
// reallocate every per-line array while a process on a second node holds
// a Shared copy, one on a third has a release-consistent store miss
// outstanding and one on a fourth holds an LL reservation; afterwards the
// store lands, the SC succeeds and everyone reads back every word. On
// Base-Shasta every private table is still its agent's table after the
// growth.
func TestRunTimeAllocGrowsUnderLoad(t *testing.T) {
	for _, proto := range ProtocolNames() {
		for _, smp := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s-smp=%v", proto, smp), func(t *testing.T) {
				cfg := testConfig()
				cfg.SMP, cfg.Protocol = smp, proto
				s := Build(WithConfig(cfg))
				var a, b, c, d uint64 // one line each, homed at process 0; d is allocated mid-run
				const dBytes = 64 << 10
				phase, arrived, finished := 0, 0, 0
				type word struct{ addr, v uint64 }
				final := func() []word { // d is only known once the run allocated it
					return []word{{a, 11}, {b, 22}, {c, 34}, {d, 44}, {d + dBytes - 8, 55}}
				}
				readBack := func(p *Proc) {
					for arrived < 3 {
						p.Compute(200)
					}
					for _, w := range final() {
						if got := p.Load(w.addr); got != w.v {
							t.Errorf("%s reads %d at %#x, want %d", p, got, w.addr, w.v)
						}
					}
					finished++
				}
				s.Spawn("home", 0, func(p *Proc) {
					p.Store(a, 11)
					p.Store(c, 33)
					p.MemBar()
					phase = 1
					sharer, storer, linker := s.procs[1], s.procs[2], s.procs[3]
					lineA := s.lineOf(a)
					for !(sharer.mem.table[lineA] == Shared && storer.outstanding > 0 && linker.llValid) {
						p.Compute(50)
					}
					before := make([]*uint64, len(s.agents))
					for i, m := range s.agents {
						before[i] = &m.data[0]
					}
					privBefore, linesBefore := &linker.priv[0], len(s.lineBlock)
					d = s.Alloc(dBytes, AllocOptions{Home: HomeAt(0)})
					for i, m := range s.agents {
						if &m.data[0] == before[i] {
							t.Errorf("agent %d memory was not reallocated", i)
						}
					}
					if &linker.priv[0] == privBefore || len(s.lineBlock) <= linesBefore {
						t.Errorf("private table or lineBlock was not reallocated (%d -> %d lines)", linesBefore, len(s.lineBlock))
					}
					if !smp {
						// Base-Shasta runs the SMP paths on this alias.
						for _, q := range s.procs {
							if &q.priv[0] != &q.mem.table[0] {
								t.Errorf("%s: private table is no longer its agent table after the growth", q)
							}
						}
					}
					if storer.outstanding == 0 || !linker.llValid {
						t.Error("the store miss or the LL reservation ended before the allocation")
					}
					p.Store(d, 44)
					p.Store(d+dBytes-8, 55)
					p.MemBar()
					phase = 2
					readBack(p)
					for finished < 4 {
						p.Compute(200)
					}
				})
				await := func(p *Proc, n int) {
					for phase < n {
						p.Compute(200)
					}
				}
				s.Spawn("sharer", cfg.CPUsPerNode, func(p *Proc) {
					await(p, 1)
					if got := p.Load(a); got != 11 {
						t.Errorf("sharer reads %d before the allocation, want 11", got)
					}
					await(p, 2)
					arrived++
					readBack(p)
				})
				s.Spawn("storer", 2*cfg.CPUsPerNode, func(p *Proc) {
					for s.procs[1].mem.table[s.lineOf(a)] != Shared || !s.procs[3].llValid {
						p.Compute(200)
					}
					p.Store(b, 22) // release consistency: returns with the miss outstanding
					await(p, 2)
					p.MemBar()
					arrived++
					readBack(p)
				})
				s.Spawn("linker", 3*cfg.CPUsPerNode, func(p *Proc) {
					await(p, 1)
					if got := p.LoadLocked(c); got != 33 {
						t.Errorf("LL reads %d, want 33", got)
					}
					for phase < 2 {
						p.ChargeTime(CatTask, 50) // no poll between LL and SC
					}
					if !p.StoreCond(c, 34) {
						t.Error("SC failed although nothing wrote the line since the LL")
					}
					arrived++
					readBack(p)
				})
				a = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
				b = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
				c = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
				if err := s.Run(); err != nil { // includes CheckInvariants
					t.Fatal(err)
				}
				for _, w := range final() {
					if got := s.Peek(w.addr); got != w.v {
						t.Errorf("final memory holds %d at %#x, want %d", got, w.addr, w.v)
					}
				}
			})
		}
	}
}

// TestAllocDuringParallelRunPanics: run-time allocation needs the built-in
// driver's single thread; under a parallel engine it must refuse by name.
func TestAllocDuringParallelRunPanics(t *testing.T) {
	s := Build(WithConfig(baseConfig()), WithEngine(parallel.New(2)))
	s.Spawn("w", 0, func(p *Proc) { s.Alloc(64, AllocOptions{Home: HomeAt(0)}) })
	s.Alloc(64, AllocOptions{Home: HomeAt(0)}) // before Run: allowed
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "core: Alloc during a run under WithEngine(parallel)") {
		t.Fatalf("error %v, want the Alloc-under-parallel panic", err)
	}
}

// TestRunTimeSpawn: on the built-in driver a running process may start
// another on a different node, which is a different shard, one wire latency
// ahead; the child sees what the parent stored before. Under a parallel
// engine the spawn refuses by name.
func TestRunTimeSpawn(t *testing.T) {
	run := func(opts ...Option) (uint64, error) {
		s := Build(append([]Option{WithConfig(baseConfig())}, opts...)...)
		var addr, got uint64
		s.Spawn("parent", 0, func(p *Proc) {
			p.Store(addr, 7)
			p.MemBar()
			s.SpawnAt("child", s.Cfg.CPUsPerNode, p.Sim.Now()+s.Cfg.Net.WireLatency, func(c *Proc) { got = c.Load(addr) })
		})
		addr = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
		err := s.Run()
		return got, err
	}
	if got, err := run(); err != nil || got != 7 {
		t.Errorf("built-in driver: child read %d (error %v), want 7", got, err)
	}
	if _, err := run(WithEngine(parallel.New(2))); err == nil || !strings.Contains(err.Error(), "during a parallel run") {
		t.Errorf("parallel engine: error %v, want the spawn-during-a-parallel-run panic", err)
	}
}

// TestBuildAllocatesLittle guards construction against paying for what a
// run may never use, such as arrays sized to SharedBytes or a seeded random
// source nobody draws from. The least of a few builds is taken, so a stray
// allocation of the runtime cannot fail it.
func TestBuildAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := Build()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(s)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("Build allocated %d bytes", least)
	if least > 10<<10 {
		t.Errorf("Build allocated %d bytes, want at most 10 KB", least)
	}
}

// TestRandSeedsUnchanged pins the first draws of Proc.Rand for processes
// 0, 1 and 2 at Seed 1 to those of a source seeded at creation: seeding it
// on the first call must move no draw.
func TestRandSeedsUnchanged(t *testing.T) {
	want := [][3]int64{
		{5577006791947779410, 8674665223082153551, 6129484611666145821},
		{297570054007970896, 4813144583224208039, 84200145313247788},
		{4199210199873096526, 2174794783369892926, 1895724231285789465},
	}
	cfg := testConfig()
	cfg.Seed = 1
	s := Build(WithConfig(cfg))
	got := make([][3]int64, len(want))
	for i := range want {
		s.Spawn("r", i%s.Eng.NumCPUs(), func(p *Proc) {
			r := p.Rand()
			got[p.ID] = [3]int64{r.Int63(), r.Int63(), r.Int63()}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("process %d drew %v, want %v", i, got[i], want[i])
		}
	}
}
