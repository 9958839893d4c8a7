package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// syncSends runs n processes, one to a CPU in order, each doing body with a
// lock and an n-way barrier homed at process 0, and counts the lock and
// barrier messages sent, by kind, and the barrier-enters sent to the home.
func syncSends(t *testing.T, cfg Config, n int, body func(p *Proc, lock, barrier int)) (sent map[string]int, homeEnters int) {
	t.Helper()
	tr := trace.NewBuffer()
	s := Build(WithConfig(cfg), WithTrace(tr))
	lock, barrier := s.NewLock(0), s.NewBarrier(0, n)
	for i := 0; i < n; i++ {
		s.Spawn(fmt.Sprintf("p%d", i), i, func(p *Proc) { body(p, lock, barrier) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	sent = map[string]int{}
	for _, ev := range tr.TakeBuffered() {
		if ev.Cat != "msg" || ev.Ev != "send" {
			continue
		}
		switch ev.S {
		case "barrier-enter", "barrier-release", "lock-req", "lock-grant", "lock-release":
			sent[ev.S]++
			if ev.S == "barrier-enter" && ev.O == 0 {
				homeEnters++
			}
		}
	}
	return sent, homeEnters
}

// TestBarrierMessagesPerAgent: a barrier episode costs one barrier-enter and
// one barrier-release per agent other than the home's, whatever the number of
// participants. On 4x4 SMP-Shasta, 16 participants send 2·(Nodes−1) barrier
// messages an episode, and the home handles Nodes−1 enters: arrivals combine
// in their node's memory. On 8x1 Base-Shasta every process is its own agent,
// so each of the other seven sends an enter and gets a release, as when the
// home counted every arrival.
func TestBarrierMessagesPerAgent(t *testing.T) {
	const episodes = 5
	for _, c := range []struct {
		name             string
		nodes, cpus      int
		smp              bool
		perEpisode, home int
	}{
		{"4x4 SMP", 4, 4, true, 2 * 3, 3},
		{"8x1 Base", 8, 1, false, 2 * 7, 7},
	} {
		cfg := testConfig()
		cfg.Nodes, cfg.CPUsPerNode, cfg.SMP = c.nodes, c.cpus, c.smp
		n := c.nodes * c.cpus
		sent, homeEnters := syncSends(t, cfg, n, func(p *Proc, _, bar int) {
			for e := 0; e < episodes; e++ {
				// Arrive in a different order every episode.
				p.Compute(sim.Time(200 + 150*((p.ID*7+e*5)%n)))
				p.BarrierWait(bar)
			}
		})
		if got, want := sent["barrier-enter"]+sent["barrier-release"], episodes*c.perEpisode; got != want {
			t.Errorf("%s: %d barrier messages in %d episodes (%v), want %d", c.name, got, episodes, sent, want)
		}
		if want := episodes * c.home; homeEnters != want {
			t.Errorf("%s: the home received %d barrier-enters in %d episodes, want %d", c.name, homeEnters, episodes, want)
		}
	}
}

// TestLockMessagesByAgent: an acquire and release by a process that shares
// the lock's home's agent sends nothing; from another agent it is a request,
// a grant and a release, as before.
func TestLockMessagesByAgent(t *testing.T) {
	for _, c := range []struct {
		name string
		smp  bool
		want int
	}{
		{"SMP node-mate", true, 0},
		{"Base other process", false, 3},
	} {
		cfg := testConfig()
		cfg.SMP = c.smp
		sent, _ := syncSends(t, cfg, 2, func(p *Proc, lk, _ int) {
			if p.ID == 1 {
				p.LockAcquire(lk)
				p.LockRelease(lk)
			}
		})
		if got := sent["lock-req"] + sent["lock-grant"] + sent["lock-release"]; got != c.want {
			t.Errorf("%s of the home: acquire and release sent %v, want %d messages", c.name, sent, c.want)
		}
	}
}

// TestWokenMateExpiresLease: under Tardis-SMP a process woken by a node-mate
// from a barrier, and then from a lock wait, must expire a lease as it
// observes the release timestamp, and that runs on its own coroutine: the
// expiry downgrades the other waiter's private table. Node 0 holds p0 and p1,
// which read block B (homed on node 1) and wait, and p4, which homes the
// lock and the barrier and has exited. Node 1 writes B past node 0's lease
// and arrives, then releases the lock, so p4 wakes node 0's waiters from its
// handler, with no message.
func TestWokenMateExpiresLease(t *testing.T) {
	const step = sim.Time(100_000)
	cfg := testConfig()
	cfg.Protocol = "tardis"
	cfg.Nodes, cfg.CPUsPerNode = 2, 3
	tr := trace.NewBuffer()
	s := Build(WithConfig(cfg), WithTrace(tr))
	bar, lk := s.NewBarrier(4, 4), s.NewLock(4)
	var b uint64
	reader := func(p *Proc) {
		computeUntil(p, step/2)
		p.Load(b)
		p.BarrierWait(bar)
		computeUntil(p, 3*step+step/2)
		p.Load(b)
		p.LockAcquire(lk)
		p.LockRelease(lk)
	}
	bodies := []func(p *Proc){
		reader,
		reader,
		func(p *Proc) {
			p.BarrierWait(bar)
			computeUntil(p, 3*step)
			p.LockAcquire(lk)
			computeUntil(p, 4*step)
			p.Store(b+8, 2)
			p.MemBar()
			computeUntil(p, 4*step+step/2)
			p.LockRelease(lk)
		},
		func(p *Proc) {
			computeUntil(p, step)
			p.Store(b, 1)
			p.MemBar()
			p.BarrierWait(bar)
		},
	}
	for i, cpu := range []int{0, 1, 3, 4} {
		body := bodies[i]
		s.Spawn(fmt.Sprintf("p%d", i), cpu, func(p *Proc) {
			body(p)
			p.BarrierWait(bar)
		})
	}
	s.Spawn("p4", 2, func(p *Proc) {})
	b = s.Alloc(64, AllocOptions{Home: HomeAt(3)})
	blk := s.blockOf(s.lineOf(b))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	type expiry struct{ proc, step int }
	var expired []expiry
	for _, ev := range tr.TakeBuffered() {
		if ev.Cat == "line" && ev.Ev == downgradeSiteNames[Invalid] && ev.Blk == blk.id && s.procs[ev.P].node == 0 {
			expired = append(expired, expiry{ev.P, int(ev.T / step)})
		}
	}
	// Once by a woken reader after the barrier (step 1), once by the one
	// granted the lock (step 4).
	if len(expired) != 2 || expired[0].proc > 1 || expired[0].step != 1 || expired[1].proc > 1 || expired[1].step != 4 {
		t.Errorf("node 0's lease of B expired at %v (process, step), want once by p0 or p1 in step 1 and once in step 4", expired)
	}
	if v, w := s.Peek(b), s.Peek(b+8); v != 1 || w != 2 {
		t.Errorf("B holds %d and %d, want 1 and 2", v, w)
	}
}

// lockTurn is one process's n-th request for a lock, or its n-th hold.
type lockTurn struct{ proc, n int }

// lockOrder runs bodies[i] as process i on CPU i, all sharing one MP lock
// homed at process 0, and reads from the trace the turns in the order they
// asked for the lock and in the order they held it (a release ends a hold).
func lockOrder(t *testing.T, cfg Config, bodies []func(p *Proc, lock int)) (asked, held []lockTurn) {
	t.Helper()
	tr := trace.NewBuffer()
	s := Build(WithConfig(cfg), WithTrace(tr))
	lock := s.NewLock(0)
	for i, body := range bodies {
		s.Spawn(fmt.Sprintf("p%d", i), i, func(p *Proc) { body(p, lock) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	evs := tr.TakeBuffered()
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
	asks, holds := map[int]int{}, map[int]int{}
	for _, ev := range evs {
		if ev.Cat != "sync" {
			continue
		}
		switch ev.Ev {
		case "lock-acquire":
			asked = append(asked, lockTurn{ev.P, asks[ev.P]})
			asks[ev.P]++
		case "lock-release":
			held = append(held, lockTurn{ev.P, holds[ev.P]})
			holds[ev.P]++
		}
	}
	return asked, held
}

// holdAt returns a body that asks for the lock at cycle at and holds it
// until cycle until.
func holdAt(at, until sim.Time) func(p *Proc, lock int) {
	return func(p *Proc, lock int) {
		computeUntil(p, at)
		p.LockAcquire(lock)
		computeUntil(p, until)
		p.LockRelease(lock)
	}
}

// TestLockHandOffPrefersAgent: a release hands an MP lock to a waiter on the
// releaser's agent first, and a waiter elsewhere is passed over by at most as
// many hand-offs in a row as that agent has processes. On 4x4 SMP-Shasta, p5
// asks after p8 but shares p4's node, so it holds the lock before p8; and
// when p4's three node-mates ask after p8 and all four keep asking, p8 is
// passed over by exactly four of their turns. On 8x1 Base-Shasta every agent
// is one process, which cannot be waiting while it releases, so the lock goes
// in the order it was asked for.
func TestLockHandOffPrefersAgent(t *testing.T) {
	idle := func(*Proc, int) {}
	for _, proto := range []string{"dirinval", "tardis"} {
		cfg := testConfig()
		cfg.Protocol = proto
		bodies := make([]func(*Proc, int), 16)
		for i := range bodies {
			bodies[i] = idle
		}
		bodies[4] = holdAt(0, 100_000)
		bodies[8] = holdAt(20_000, 120_000)
		bodies[5] = holdAt(50_000, 140_000)
		_, held := lockOrder(t, cfg, bodies)
		if want := []lockTurn{{4, 0}, {5, 0}, {8, 0}}; fmt.Sprint(held) != fmt.Sprint(want) {
			t.Errorf("%s: node-mate asking later: holders %v, want %v", proto, held, want)
		}

		// p4 holds the lock from the start, p8 asks while it does, and p4's
		// node-mates ask after p8; then all four keep asking.
		churn := func(p *Proc, lock int) {
			for n := 0; n < 8; n++ {
				p.LockAcquire(lock)
				p.Compute(2_000)
				p.LockRelease(lock)
				p.Compute(200)
			}
		}
		bodies[4] = func(p *Proc, lock int) {
			holdAt(0, 100_000)(p, lock)
			churn(p, lock)
		}
		for i := 5; i < 8; i++ {
			bodies[i] = func(p *Proc, lock int) {
				computeUntil(p, 40_000)
				churn(p, lock)
			}
		}
		bodies[8] = holdAt(20_000, 0)
		asked, held := lockOrder(t, cfg, bodies)
		at, turn := slices.Index(asked, lockTurn{8, 0}), slices.Index(held, lockTurn{8, 0})
		if turn < 0 {
			t.Fatalf("%s: p8 never held the lock: holders %v", proto, held)
		}
		passed := 0
		for _, h := range held[:turn] {
			if slices.Index(asked, h) > at {
				passed++
			}
		}
		if bound := cfg.CPUsPerNode; passed != bound {
			t.Errorf("%s: p8 was passed over by %d hand-offs within node 1, want the bound %d: holders %v", proto, passed, bound, held)
		}

		cfg.Nodes, cfg.CPUsPerNode, cfg.SMP = 8, 1, false
		bodies = []func(*Proc, int){idle, holdAt(0, 100_000),
			holdAt(20_000, 0), holdAt(40_000, 0), holdAt(60_000, 0),
			holdAt(10_000, 0), holdAt(50_000, 0), holdAt(30_000, 0)}
		asked, held = lockOrder(t, cfg, bodies)
		if fmt.Sprint(held) != fmt.Sprint(asked) {
			t.Errorf("%s Base-Shasta: holders %v, want the request order %v", proto, held, asked)
		}
	}
}

// TestLockHandOffWithinRemoteNode: on 2x2 SMP-Shasta with the lock homed on
// node 0, node 1's two processes take turns with it, three holds each. The
// first asks the home; then each hand-off between them is a step in their
// node's slot of the lock, with no lock-release or lock-grant, until it has
// been handed on there twice in a row, once per process. Then the lock goes
// through the home once, as a release that carries the waiting node-mate
// and a grant to it. Five passages, four of them local: 1 request, 2 grants
// and 2 releases, the last with no one waiting. Through the home every
// acquire was a request and a grant and every release a release: 18.
func TestLockHandOffWithinRemoteNode(t *testing.T) {
	for _, proto := range []string{"dirinval", "tardis"} {
		cfg := testConfig()
		cfg.Protocol, cfg.Nodes, cfg.CPUsPerNode = proto, 2, 2
		sent, _ := syncSends(t, cfg, 4, func(p *Proc, lk, _ int) {
			if p.ID < 2 {
				return
			}
			p.Compute(sim.Time(100 * (p.ID - 2)))
			for n := 0; n < 3; n++ {
				p.LockAcquire(lk)
				p.Compute(2_000)
				p.LockRelease(lk)
				p.Compute(200)
			}
		})
		want := map[string]int{"lock-req": 1, "lock-grant": 2, "lock-release": 2}
		if fmt.Sprint(sent) != fmt.Sprint(want) {
			t.Errorf("%s: node 1's six holds sent %v, want %v", proto, sent, want)
		}
	}
}

// TestRemoteNodeLockStreakBound: on 4x4 SMP-Shasta with the lock homed at
// p0, the processes of two nodes all keep asking for it. Each node hands it
// on within itself at most four times in a row, once per process, so it
// holds the lock for at most five turns in a row; then the lock leaves for
// the other node. With node 1's and node 2's processes asking, the first two
// runs are five turns each. The lock home's node obeys
// the same bound against node 1: at the bound its agent gives the lock back
// to the home's queue of agents, even when a node-mate asked before node 1's
// waiter did.
func TestRemoteNodeLockStreakBound(t *testing.T) {
	for _, c := range []struct {
		name           string
		procs          int // on CPUs 0 to procs-1
		first, last    int // the processes that ask
		stagger, hold  sim.Time
		turns          int
		runsAtTheBound bool // the first two runs are exactly the bound
	}{
		{"nodes 1 and 2", 16, 4, 11, 100, 2_000, 6, true},
		{"the home's node and node 1", 8, 0, 7, 300, 900, 10, false},
	} {
		for _, proto := range []string{"dirinval", "tardis"} {
			cfg := testConfig()
			cfg.Protocol = proto
			bodies := make([]func(*Proc, int), c.procs)
			for i := range bodies {
				bodies[i] = func(*Proc, int) {}
			}
			for i := c.first; i <= c.last; i++ {
				bodies[i] = func(p *Proc, lock int) {
					p.Compute(c.stagger * sim.Time(p.ID-c.first))
					for n := 0; n < c.turns; n++ {
						p.LockAcquire(lock)
						p.Compute(c.hold)
						p.LockRelease(lock)
						p.Compute(200)
					}
				}
			}
			_, held := lockOrder(t, cfg, bodies)
			var runs []int // turns in a row on one node
			for i, h := range held {
				if i == 0 || h.proc/4 != held[i-1].proc/4 {
					runs = append(runs, 0)
				}
				runs[len(runs)-1]++
			}
			bound := 1 + cfg.CPUsPerNode
			if len(runs) < 4 || slices.Max(runs) > bound || c.runsAtTheBound && (runs[0] != bound || runs[1] != bound) {
				t.Errorf("%s, %s: the lock stayed on one node for %v turns in a row, want at most %d", c.name, proto, runs, bound)
			}
		}
	}
}

// TestTardisMateHandOffObservesRelease: on 3x2 Tardis-SMP, R (node 1)
// leases x, then W (node 2) stores x under the lock, homed on node 0, and
// releases it. R's node-mate A is granted the lock by the home and hands it
// to R in their node's memory: no grant reaches R. R's clock has passed W's
// release as its acquire returns, and it reads W's store. This is the
// remote-node counterpart of TestTardisLockHomeAcquireObservesRelease.
func TestTardisMateHandOffObservesRelease(t *testing.T) {
	const older = 16
	cfg := testConfig()
	cfg.Protocol, cfg.Nodes, cfg.CPUsPerNode = "tardis", 3, 2
	tr := trace.NewBuffer()
	s := Build(WithConfig(cfg), WithTrace(tr))
	td := s.proto.(*tardis)
	lk := s.NewLock(0)
	var x, old uint64
	var got uint64
	var ptsAtAcquire int64
	leased, released, aHolds := false, false, false
	s.Spawn("home", 0, func(p *Proc) {})
	s.Spawn("idle", 1, func(p *Proc) {})
	s.Spawn("A", 2, func(p *Proc) {
		for !released || s.locks[lk].held {
			p.Compute(1000)
		}
		p.LockAcquire(lk)
		aHolds = true
		p.Compute(20_000)
		p.LockRelease(lk)
	})
	r := s.Spawn("R", 3, func(p *Proc) {
		for i := 0; i < older; i++ {
			p.Load(old + uint64(64*i))
		}
		p.Load(x)
		leased = true
		for !aHolds {
			p.Compute(1000)
		}
		p.LockAcquire(lk)
		ptsAtAcquire = td.pstate(p).pts
		got = p.Load(x)
		p.LockRelease(lk)
	})
	s.Spawn("W", 4, func(p *Proc) {
		for !leased {
			p.Compute(1000)
		}
		p.LockAcquire(lk)
		p.Store(x, 1)
		p.LockRelease(lk)
		released = true
	})
	old = s.Alloc(older*64, AllocOptions{Home: HomeAt(0)})
	x = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("R was handed L after W's release and read x=%d, want 1", got)
	}
	if rel := s.locks[lk].relTs; rel == 0 || ptsAtAcquire < rel {
		t.Errorf("R acquired L at pts %d, below W's release at %d", ptsAtAcquire, rel)
	}
	for _, ev := range tr.TakeBuffered() {
		if ev.Cat == "msg" && ev.Ev == "send" && ev.S == "lock-grant" && ev.O == r.ID {
			t.Errorf("the home sent R a grant at t=%d: A did not hand L on in node memory", ev.T)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTardisAcquireAwaitsItsDrops: on 3x2 Tardis-SMP, R's node-mate M
// leases x, takes it into its private table and computes on in application
// code. W (node 2) stores x under the lock and releases it; the home grants
// the lock to R, whose release timestamp expires the node's lease. M still
// holds x, so the drop is a downgrade record M applies at its next poll,
// and until then the node's copy keeps the old data, which an in-line load
// reads without a check. R's acquire waits for the record, so its load of x
// misses and reads W's store. Without the wait it read the old value, and
// Raytrace's work queue handed out bundles twice.
func TestTardisAcquireAwaitsItsDrops(t *testing.T) {
	const older = 32
	cfg := testConfig()
	cfg.Protocol, cfg.Nodes, cfg.CPUsPerNode = "tardis", 3, 2
	tr := trace.NewBuffer()
	s := Build(WithConfig(cfg), WithTrace(tr))
	lk := s.NewLock(0)
	var x, old uint64
	var got uint64
	step, released := 0, false
	s.Spawn("home", 0, func(p *Proc) {})
	s.Spawn("idle", 1, func(p *Proc) {})
	s.Spawn("R", 2, func(p *Proc) {
		for i := 0; i < older; i++ { // leases the tick drops before x's
			p.Load(old + uint64(64*i))
		}
		step = 1
		for !released {
			p.Compute(1000)
		}
		p.LockAcquire(lk)
		got = p.Load(x)
		p.LockRelease(lk)
	})
	s.Spawn("M", 3, func(p *Proc) {
		for step < 1 {
			p.Compute(1000)
		}
		p.Load(x)
		step = 2
		p.Compute(400_000)
	})
	s.Spawn("W", 4, func(p *Proc) {
		for step < 2 {
			p.Compute(1000)
		}
		p.LockAcquire(lk)
		p.Store(x, 1)
		p.LockRelease(lk)
		released = true
	})
	old = s.Alloc(older*64, AllocOptions{Home: HomeAt(0)})
	x = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("R acquired L after W's release and read x=%d, want 1", got)
	}
	opened := false
	for _, ev := range tr.TakeBuffered() {
		if ev.Cat == "line" && ev.Ev == "dg-open" && ev.P == 2 && ev.Blk == s.blockOf(s.lineOf(x)).id {
			opened = true
		}
	}
	if !opened {
		t.Error("R's acquire left no downgrade record of x open: the test no longer reaches the case")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
