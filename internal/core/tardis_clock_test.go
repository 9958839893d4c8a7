package core

import (
	"fmt"
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

// TestTardisTickDropsOldestCopy: a poll tick leaves pts where it was and
// drops the leased copy its agent installed longest ago, with a runout line
// event that names the tick; a copy re-fetched after its drop goes to the
// back of the order, so it is not the next one dropped.
func TestTardisTickDropsOldestCopy(t *testing.T) {
	tr := trace.NewBuffer()
	s := Build(WithConfig(tardisBase(2)), WithTrace(tr))
	td := s.proto.(*tardis)
	var base uint64
	s.Spawn("home", 0, func(p *Proc) {})
	s.Spawn("reader", 1, func(p *Proc) {
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
		for step, want := range [][]int{{1, 2}, {0, 2}, {0}, {}} {
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
			if step == 0 {
				p.Load(base) // re-fetched: now installed last
			}
		}
	})
	base = s.Alloc(3*64, AllocOptions{Home: HomeAt(0)})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var dropped []string
	for _, ev := range tr.TakeBuffered() {
		if ev.Cat == "line" && ev.Ev == "runout" {
			dropped = append(dropped, fmt.Sprintf("%s %d", ev.S, ev.Blk-s.blockOf(s.lineOf(base)).id))
		}
	}
	if want := "[tick 0 tick 1 tick 2 tick 0]"; fmt.Sprint(dropped) != want {
		t.Errorf("runout events (cause, block) %v, want %s", dropped, want)
	}
}

// TestTardisTickSpinnerBehindOlderLeases: a spinner whose agent holds K
// leases it never touches again, all installed before its copy of the flag,
// sees a store to the flag, made as it begins to spin, on its (K+1)-th poll
// tick: each of the first K drops one of the older copies, the next the
// flag's.
func TestTardisTickSpinnerBehindOlderLeases(t *testing.T) {
	const k = 16
	s := Build(WithConfig(tardisBase(3)))
	var flag, old uint64
	var spinning bool
	var before, seen int64 // the spinner's ticks as it began to spin, and as it saw the store
	s.Spawn("home", 0, func(p *Proc) {})
	s.Spawn("spinner", 1, func(p *Proc) {
		for i := 0; i < k; i++ {
			p.Load(old + uint64(64*i))
		}
		before, spinning = p.stats.N[CntPolls]/tardisPollPeriod, true
		for p.Load(flag) == 0 {
			p.Compute(320)
		}
		seen = p.stats.N[CntPolls] / tardisPollPeriod
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
	if before != 0 || seen != k+1 {
		t.Errorf("the spinner took %d ticks before it spun and saw the store on tick %d, want 0 and tick %d", before, seen, k+1)
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
