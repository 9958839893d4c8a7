package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// tardisBase returns a Base-Shasta Tardis configuration of n single-CPU
// nodes: every process is its own agent.
func tardisBase(n int) Config {
	cfg := baseConfig()
	cfg.Nodes, cfg.CPUsPerNode, cfg.Protocol = n, 1, "tardis"
	return cfg
}

// computeToTick computes in chunks of one poll interval until the process
// has taken its next poll tick.
func computeToTick(p *Proc) {
	every := p.sys.pollTickEvery
	for n := p.stats.N[CntPolls] / every; p.stats.N[CntPolls]/every == n; {
		p.Compute(p.sys.Cfg.PollInterval)
	}
}

// tickDecisions returns, in order, the poll-tick decisions (drop, busy or
// wrote) the process with the given id emitted into a NewBuffer trace.
func tickDecisions(evs []trace.Event, pid int) []string {
	var out []string
	for _, ev := range evs {
		if ev.Cat == "line" && ev.Ev == "tick" && ev.P == pid {
			out = append(out, ev.S)
		}
	}
	return out
}

// TestTardisTickDropsOldestCopy: a poll tick leaves pts where it was. A tick
// after shared fills skips ("busy"); an idle one drops the leased copy its
// agent installed longest ago, with a runout line event that names the
// tick. A copy re-fetched after its drop goes to the back of the order, so
// it is not the next one dropped, and the re-fetch skips the tick after it.
func TestTardisTickDropsOldestCopy(t *testing.T) {
	tr := trace.NewBuffer()
	s := Build(WithConfig(tardisBase(2)), WithTrace(tr))
	td := s.proto.(*tardis)
	var base uint64
	s.Spawn("home", 0, func(p *Proc) {})
	reader := s.Spawn("reader", 1, func(p *Proc) {
		as := td.astate(p.mem)
		held := func() []int {
			var ids []int
			for i := 0; i < 3; i++ {
				if _, ok := as.leases.get(s.blockOf(s.lineOf(base + uint64(64*i))).id); ok {
					ids = append(ids, i)
				}
			}
			return ids
		}
		for i := 0; i < 3; i++ {
			p.Load(base + uint64(64*i))
		}
		for step, want := range [][]int{{0, 1, 2}, {1, 2}, {0, 1, 2}, {0, 2}, {0}, {}} {
			pts := td.pstate(p).pts
			misses := p.stats.N[CntReadMisses]
			computeToTick(p)
			if got := td.pstate(p).pts; got != pts {
				t.Errorf("tick %d moved pts from %d to %d", step+1, pts, got)
			}
			if got := held(); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("after tick %d the reader holds leases on blocks %v, want %v", step+1, got, want)
			}
			if p.stats.N[CntReadMisses] != misses {
				t.Errorf("tick %d cost a read miss", step+1)
			}
			if step == 1 {
				p.Load(base) // re-fetched: now installed last
			}
		}
	})
	base = s.Alloc(3*64, AllocOptions{Home: HomeAt(0)})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	evs := tr.TakeBuffered()
	if got, want := tickDecisions(evs, reader.ID), "[busy drop busy drop drop drop]"; fmt.Sprint(got) != want {
		t.Errorf("tick decisions %v, want %s", got, want)
	}
	var dropped []string
	for _, ev := range evs {
		if ev.Cat == "line" && ev.Ev == "runout" {
			dropped = append(dropped, fmt.Sprintf("%s %d", ev.S, ev.Blk-s.blockOf(s.lineOf(base)).id))
		}
	}
	if want := "[tick 0 tick 1 tick 2 tick 0]"; fmt.Sprint(dropped) != want {
		t.Errorf("runout events (cause, block) %v, want %s", dropped, want)
	}
}

// TestTardisTickSkipsBusyProcess: a process that reads a block it has not
// read before in every poll period skips every tick and keeps every copy;
// once it stops, its next tick drops the first block it read.
func TestTardisTickSkipsBusyProcess(t *testing.T) {
	const blocks = 12
	tr := trace.NewBuffer()
	s := Build(WithConfig(tardisBase(2)), WithTrace(tr))
	td := s.proto.(*tardis)
	var base uint64
	s.Spawn("home", 0, func(p *Proc) {})
	reader := s.Spawn("reader", 1, func(p *Proc) {
		as := td.astate(p.mem)
		for i := 0; i < blocks; i++ {
			p.Load(base + uint64(64*i))
			computeToTick(p)
		}
		if n := len(as.leases.heap); n != blocks {
			t.Errorf("after %d busy ticks the reader holds %d leases, want all %d", blocks, n, blocks)
		}
		computeToTick(p)
		if _, ok := as.leases.get(s.blockOf(s.lineOf(base)).id); ok || len(as.leases.heap) != blocks-1 {
			t.Errorf("after an idle tick the reader holds %d leases, the first block's among them %v; want %d without it",
				len(as.leases.heap), ok, blocks-1)
		}
	})
	base = s.Alloc(blocks*64, AllocOptions{Home: HomeAt(0)})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSuffix(strings.Repeat("busy ", blocks), " ") + " drop"
	if got := tickDecisions(tr.TakeBuffered(), reader.ID); strings.Join(got, " ") != want {
		t.Errorf("tick decisions %v, want [%s]", got, want)
	}
}

// TestTardisTickSpinnerBehindOlderLeases: a spinner whose agent holds K
// leases it never touches again, all installed before its copy of the flag,
// sees a store to the flag, made as it begins to spin, on its (K+1)-th
// dropping tick: each of the first K drops one of the older copies, the
// next the flag's. Its first tick is busy, from the fills.
func TestTardisTickSpinnerBehindOlderLeases(t *testing.T) {
	const k = 16
	tr := trace.NewBuffer()
	s := Build(WithConfig(tardisBase(3)), WithTrace(tr))
	var flag, old uint64
	var spinning bool
	var before int64 // the spinner's ticks as it began to spin
	s.Spawn("home", 0, func(p *Proc) {})
	spinner := s.Spawn("spinner", 1, func(p *Proc) {
		for i := 0; i < k; i++ {
			p.Load(old + uint64(64*i))
		}
		before, spinning = p.stats.N[CntPolls]/tardisPollPeriod, true
		for p.Load(flag) == 0 {
			p.Compute(320)
		}
	})
	s.Spawn("writer", 2, func(p *Proc) {
		for !spinning {
			p.Compute(1000)
		}
		p.Store(flag, 1)
		p.MemBar()
	})
	old = s.Alloc(k*64, AllocOptions{Home: HomeAt(0)})
	flag = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := "busy" + strings.Repeat(" drop", k+1)
	if got := tickDecisions(tr.TakeBuffered(), spinner.ID); before != 0 || strings.Join(got, " ") != want {
		t.Errorf("the spinner took %d ticks before it spun and decided %v until it saw the store, want 0 and [%s]", before, got, want)
	}
}

// TestTardisTickWriteMissSpinnerSeesFlag: under RC a spin loop that also
// stores to a block another process keeps taking away, so that it takes
// exclusive fills all the time, still sees its flag. A grant raises wpts,
// not pts, so its lease on the flag never expires; at most one tick in a
// row is skipped for an exclusive fill, and the one after drops the flag.
func TestTardisTickWriteMissSpinnerSeesFlag(t *testing.T) {
	cfg := tardisBase(4)
	cfg.Net.WireLatency = 100 // an ownership round trip well inside a spin turn
	cfg.MaxTime = 2_000_000   // a spinner that never drops its copy spins for ever
	tr := trace.NewBuffer()
	s := Build(WithConfig(cfg), WithTrace(tr))
	var flag, hot uint64
	var spinning, done bool
	var fills int64
	s.Spawn("home", 0, func(p *Proc) {})
	spinner := s.Spawn("spinner", 1, func(p *Proc) {
		p.Load(flag)
		spinning = true
		misses := p.stats.N[CntWriteMisses]
		for p.Load(flag) == 0 {
			p.Store(hot, 1)
			p.Compute(320)
		}
		fills = p.stats.N[CntWriteMisses] - misses
		done = true
	})
	s.Spawn("thief", 2, func(p *Proc) {
		for !done {
			p.Store(hot, 2)
			p.Compute(100)
		}
	})
	s.Spawn("writer", 3, func(p *Proc) {
		for !spinning {
			p.Compute(1000)
		}
		computeUntil(p, p.Now()+50_000)
		p.Store(flag, 1)
		p.MemBar()
	})
	flag = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
	hot = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	got := tickDecisions(tr.TakeBuffered(), spinner.ID)
	if fills < int64(len(got)) {
		t.Errorf("the spinner took %d write misses over %d ticks, want at least one a tick period", fills, len(got))
	}
	if !strings.Contains(strings.Join(got, " "), "wrote") || strings.Contains(strings.Join(got, " "), "wrote wrote") {
		t.Errorf("the spinner's tick decisions %v: want exclusive fills to skip ticks, never two in a row", got)
	}
}

// TestTardisTickLLSpinnerIgnoresOlderLeases: a test-and-test-and-set
// spinner LLs a held lock word and then spins on it with plain loads. Its
// agent holds K older leases, all installed before its copy of the word,
// and the word is released as it begins to spin. Whatever K, the spinner
// sees the release on its first dropping tick after it: a dropping tick
// drops the copy of the block the process last LL'd beside the oldest.
func TestTardisTickLLSpinnerIgnoresOlderLeases(t *testing.T) {
	for _, k := range []int{0, 4, 16} {
		tr := trace.NewBuffer()
		s := Build(WithConfig(tardisBase(3)), WithTrace(tr))
		var lock, old uint64
		var held, spinning bool
		var released, seen sim.Time
		s.Spawn("home", 0, func(p *Proc) {})
		spinner := s.Spawn("spinner", 1, func(p *Proc) {
			for i := 0; i < k; i++ {
				p.Load(old + uint64(64*i))
			}
			for !held {
				p.Compute(1000)
			}
			if p.LoadLocked(lock) != 1 {
				t.Errorf("K=%d: the LL read the lock free", k)
			}
			spinning = true
			for p.Load(lock) != 0 {
				p.Compute(320)
			}
			seen = p.Now()
		})
		s.Spawn("holder", 2, func(p *Proc) {
			p.Store(lock, 1)
			p.MemBar()
			held = true
			for !spinning {
				p.Compute(1000)
			}
			p.Store(lock, 0)
			p.MemBar()
			released = p.Now()
		})
		old = s.Alloc(max(k, 1)*64, AllocOptions{Home: HomeAt(0)})
		lock = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
		if err := s.Run(); err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		drops := 0
		for _, ev := range tr.TakeBuffered() {
			if ev.Cat == "line" && ev.Ev == "tick" && ev.P == spinner.ID && ev.S == "drop" && ev.T > released && ev.T < seen {
				drops++
			}
		}
		if drops != 1 {
			t.Errorf("K=%d: the spinner took %d dropping ticks between the release at %d and seeing it at %d, want 1", k, drops, released, seen)
		}
	}
}

// TestTardisTickLLRefillByMate: on SMP-Shasta a fill that replaces a copy a
// node-mate's LL dropped is no evidence for the filler's tick, as the LL's
// own would not be; a fill of a block it never had is.
func TestTardisTickLLRefillByMate(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes, cfg.CPUsPerNode, cfg.Protocol = 2, 2, "tardis"
	s := Build(WithConfig(cfg))
	td := s.proto.(*tardis)
	var x, z uint64
	dropped := false
	s.Spawn("home", 0, func(p *Proc) {})
	s.Spawn("locker", 2, func(p *Proc) {
		p.Load(x)
		td.refreshLL(p, s.lineOf(x)) // what an LL does before it reads
		dropped = true
	})
	s.Spawn("mate", 3, func(p *Proc) {
		for !dropped {
			p.Compute(100)
		}
		ps := td.pstate(p)
		misses := p.stats.N[CntReadMisses]
		p.Load(x)
		if p.stats.N[CntReadMisses] != misses+1 || ps.filled {
			t.Errorf("the mate re-fetched the copy the locker's LL dropped with %d misses, and counted it busy %v; want 1 and false",
				p.stats.N[CntReadMisses]-misses, ps.filled)
		}
		p.Load(z)
		if !ps.filled {
			t.Error("the mate's fill of a new block did not count as busy")
		}
	})
	x = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
	z = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTardisTickLLMatesSeeFlag: on SMP-Shasta two node-mates spin with LLs
// and no SCs, each reading the other's LL'd word and a flag a third process
// sets. Every turn each LL drops its word and a fill replaces it, which
// would look busy to both for ever, with no write to move pts; a fill that
// replaces a copy an LL dropped, whichever process of the agent ran the LL,
// is no evidence, so their ticks drop the flag and both see it.
func TestTardisTickLLMatesSeeFlag(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes, cfg.CPUsPerNode, cfg.Protocol = 3, 2, "tardis"
	cfg.MaxTime = 4_000_000 // mates whose ticks never drop spin for ever
	s := Build(WithConfig(cfg))
	var words [2]uint64
	var flag uint64
	ready := 0
	var stored sim.Time
	var seen [2]sim.Time
	s.Spawn("home", 0, func(p *Proc) {})
	for i := 0; i < 2; i++ {
		s.Spawn(fmt.Sprintf("mate%d", i), 2+i, func(p *Proc) {
			p.Load(flag)
			ready++
			for {
				p.LoadLocked(words[i])
				p.Load(words[1-i])
				if p.Load(flag) != 0 {
					break
				}
				p.Compute(320)
			}
			seen[i] = p.Now()
		})
	}
	s.Spawn("writer", 4, func(p *Proc) {
		for ready < 2 {
			p.Compute(1000)
		}
		computeUntil(p, p.Now()+50_000)
		p.Store(flag, 1)
		p.MemBar()
		stored = p.Now()
	})
	words[0] = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
	words[1] = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
	flag = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, at := range seen {
		if at < stored {
			t.Errorf("mate %d left its loop at %d, before the flag was stored at %d", i, at, stored)
		}
	}
}

// TestTardisStoreTimestamp: under RC a store's grant raises the writer's
// wpts, not its pts, so a leased copy of another block still hits after it;
// a lock release carries max(pts, wpts), and after a MemBar pts has reached
// wpts and the lease, which ended before it, is gone. Under SC the grant
// advances pts and the lease goes at once.
func TestTardisStoreTimestamp(t *testing.T) {
	for _, model := range []ConsistencyModel{ReleaseConsistent, SequentiallyConsistent} {
		cfg := tardisBase(2)
		cfg.Consistency = model
		s := Build(WithConfig(cfg))
		td := s.proto.(*tardis)
		lk := s.NewLock(1)
		var x, y uint64
		s.Spawn("home", 0, func(p *Proc) {})
		s.Spawn("writer", 1, func(p *Proc) {
			as, ps := td.astate(p.mem), td.pstate(p)
			yID := s.blockOf(s.lineOf(y)).id
			p.Load(x) // a lease on x that the store's grant must land after
			p.Load(y)
			lease, _ := as.leases.get(yID)
			p.Store(x, 1)
			p.stallWhile(CatWriteStall, func() bool { return p.outstanding > 0 })
			grant := as.tenure[s.blockOf(s.lineOf(x)).id]
			if grant <= lease.leaseEnd {
				t.Fatalf("%v: the store was granted at %d, inside y's lease to %d", model, grant, lease.leaseEnd)
			}
			_, held := as.leases.get(yID)
			if model == ReleaseConsistent {
				misses := p.stats.N[CntReadMisses]
				p.Load(y)
				if hit := p.stats.N[CntReadMisses] == misses; ps.pts >= grant || ps.wpts != grant || !held || !hit {
					t.Errorf("RC: after the grant at %d pts is %d, wpts %d, y leased %v, y hit %v; want pts below the grant, wpts at it, and y a leased hit",
						grant, ps.pts, ps.wpts, held, hit)
				}
			} else if ps.pts != grant || ps.wpts != 0 || held {
				t.Errorf("SC: after the grant at %d pts is %d, wpts %d, y leased %v; want pts at the grant, no wpts, and y dropped",
					grant, ps.pts, ps.wpts, held)
			}
			p.LockAcquire(lk)
			p.LockRelease(lk)
			if rel := s.locks[lk].relTs; rel != grant {
				t.Errorf("%v: the release carried %d, want the grant %d", model, rel, grant)
			}
			p.MemBar()
			if _, held := as.leases.get(yID); ps.pts != grant || held {
				t.Errorf("%v: after a MemBar pts is %d and y leased %v, want pts %d and y dropped", model, ps.pts, held, grant)
			}
		})
		x = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
		y = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTardisHomeReadAfterWritebackReleases: a litmus test on 5x1 Base-Shasta.
// A takes a lease on x (homed at H) and waits for lock L, which H holds. W
// writes x=1 past A's lease; R's read recalls it, and the writeback puts
// x=1 back in H's master copy. H reads x=1 as a hit on that copy, without a
// miss, and releases L to A. A must then read x=1, as it does under
// dirinval: H's pts must have reached the version it read, or its release
// hands A a timestamp still inside A's lease. Checked at several delays
// before H's read, since poll ticks once moved pts with real time.
func TestTardisHomeReadAfterWritebackReleases(t *testing.T) {
	for _, delay := range []sim.Time{10_000, 50_000, 100_000, 400_000} {
		s := Build(WithConfig(tardisBase(5)))
		lk := s.NewLock(4)
		var x uint64
		var homeRead, acquirerRead uint64
		var homeMisses int64
		recalled := false
		s.Spawn("H", 0, func(p *Proc) {
			p.LockAcquire(lk)
			computeUntil(p, 20_000)
			for !recalled {
				p.Compute(1000)
			}
			computeUntil(p, p.Now()+delay)
			misses := p.stats.N[CntReadMisses]
			homeRead = p.Load(x)
			homeMisses = p.stats.N[CntReadMisses] - misses
			p.LockRelease(lk)
		})
		s.Spawn("A", 1, func(p *Proc) {
			computeUntil(p, 1_000)
			p.Load(x)
			p.LockAcquire(lk)
			acquirerRead = p.Load(x)
			p.LockRelease(lk)
		})
		s.Spawn("W", 2, func(p *Proc) {
			computeUntil(p, 3_000)
			p.Store(x, 1)
			p.MemBar()
		})
		s.Spawn("R", 3, func(p *Proc) {
			computeUntil(p, 10_000)
			p.Load(x)
			recalled = true
		})
		s.Spawn("L", 4, func(p *Proc) {})
		x = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if homeRead != 1 || homeMisses != 0 {
			t.Fatalf("delay %d: H read x=%d with %d misses, want x=1 as a hit on its master copy", delay, homeRead, homeMisses)
		}
		if acquirerRead != 1 {
			t.Errorf("delay %d: H read x=1 and released L; A acquired L and read x=%d", delay, acquirerRead)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTardisLockHomeAcquireObservesRelease: a litmus test on 3x1
// Base-Shasta. H homes lock L and holds leases on 16 blocks and then on x,
// all homed at process 2. W writes x=1 under L and releases it. H then
// acquires the free lock itself, with no message, and reads x: it must see
// x=1, so its acquire must observe the release timestamp as a grant would
// carry it. The 16 older leases keep poll ticks from dropping x first.
func TestTardisLockHomeAcquireObservesRelease(t *testing.T) {
	const older = 16
	s := Build(WithConfig(tardisBase(3)))
	lk := s.NewLock(0)
	var x, old uint64
	var got uint64
	leased, released := false, false
	s.Spawn("H", 0, func(p *Proc) {
		for i := 0; i < older; i++ {
			p.Load(old + uint64(64*i))
		}
		p.Load(x)
		leased = true
		for !released || s.locks[lk].held {
			p.Compute(1000)
		}
		p.LockAcquire(lk)
		got = p.Load(x)
		p.LockRelease(lk)
	})
	s.Spawn("W", 1, func(p *Proc) {
		for !leased {
			p.Compute(1000)
		}
		p.LockAcquire(lk)
		p.Store(x, 1)
		p.LockRelease(lk)
		released = true
	})
	s.Spawn("home", 2, func(p *Proc) {})
	old = s.Alloc(older*64, AllocOptions{Home: HomeAt(2)})
	x = s.Alloc(64, AllocOptions{Home: HomeAt(2)})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("the lock home acquired L after W's release and read x=%d, want 1", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
