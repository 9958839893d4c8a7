package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/memchannel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The differential test of Compute: every program below runs twice, once
// with each back-edge poll an event of its own (System.pollEach, the loop
// lookahead-0 systems keep) and once in closed form, and everything a run
// leaves behind must be the same — per-process clocks, statistics, the values
// every load returned, final memory and the multiset of trace events.

// computeRun is what one run leaves behind.
type computeRun struct {
	Err     string     // the run's error, with nothing else filled in
	Clocks  []sim.Time // each process's clock when its program ended
	Final   []sim.Time // and when the run did, post-exit service included
	Stats   []Stats
	Seen    []uint64 // per process, a checksum of every value it loaded
	Mem     []uint64
	Events  uint64 // trace.MultisetDigest
	CtxSw   int64
	counted sim.SchedCounters
	retx    int64
}

// computeCase is one system to run programs on, one process per CPU.
type computeCase struct {
	name string
	cfg  Config
}

// computeCases are 2x2 SMP-Shasta and 4x1 Base-Shasta under both protocols
// and consistency models, with and without the lossy fault profile (so that
// a retransmit deadline is something a poll finds).
func computeCases(seed int64) []computeCase {
	var cases []computeCase
	for _, smp := range []bool{true, false} {
		for _, proto := range []string{"dirinval", "tardis"} {
			for _, cons := range []ConsistencyModel{ReleaseConsistent, SequentiallyConsistent} {
				for _, lossy := range []bool{false, true} {
					cfg := testConfig()
					cfg.Protocol, cfg.Consistency, cfg.Seed = proto, cons, seed
					// Half as much again as the slowest program's 3.3 M
					// cycles; TestComputeClosedFormMatchesPolling raises
					// it for Tardis at interval 10 000.
					cfg.MaxTime = 5_000_000
					cfg.Nodes, cfg.CPUsPerNode = 2, 2
					name := "2x2 smp"
					if !smp {
						cfg.Nodes, cfg.CPUsPerNode = 4, 1
						cfg.SMP, cfg.DirectDowngrade, cfg.SharedQueues = false, false, false
						name = "4x1 base"
					}
					if lossy {
						cfg.Faults, _ = memchannel.FaultProfile("lossy", seed)
						name += " lossy"
					}
					cases = append(cases, computeCase{fmt.Sprintf("%s %s %v", name, proto, cons), cfg})
				}
			}
		}
	}
	return cases
}

// runComputeProgram runs one seeded random program on c. Every process
// executes its own sequence of Compute(1..5000), loads, stores, MP-lock and
// LL/SC-lock critical sections (the LL/SC lock backs off with Computes under
// a stall override, as a lock acquired inside a stall would, or, in a
// release-consistent program, spins on the lock word between tries, as
// dsmsync.SMLock does), memory barriers, the two Computes that end on the
// edges of the closed form: within the gap to the next poll, and exactly on
// a poll, and ComputeUntil, a compute to an absolute time in chunks of up to
// 800 cycles. Two barriers keep the processes together; a release-consistent
// program meets once more at a sense-reversing barrier in shared memory,
// whose waiters spin on the sense word. A spin races the node-mate's store,
// or the invalidation, that ends it. A release-consistent program's op mix
// widened from 13 kinds to 14 when ComputeUntil joined, which changed every
// such program: its stretch, whose chunk ends fall among the polls at every
// ratio of chunk to poll interval, is held to its loop under each case's
// arrivals, retransmit deadlines and Tardis ticks.
func runComputeProgram(t *testing.T, c computeCase, seed int64, pollEach bool) *computeRun {
	t.Helper()
	md := trace.NewMultisetDigest()
	s := Build(WithConfig(c.cfg), WithTrace(trace.New(0, md)))
	s.pollEach = s.pollEach || pollEach
	const n = 4
	run := &computeRun{Clocks: make([]sim.Time, n), Final: make([]sim.Time, n), Seen: make([]uint64, n)}
	const words, ops = 64, 48
	var data, counters, smLock, smBar, smSense uint64
	var mpLock, bar int
	interval := s.Cfg.PollInterval
	// Under sequential consistency a store asks for its line again once the
	// miss it rode has completed (Proc.storeMiss), and a read the fill
	// replays can take the line back first, every time: a store that readers
	// spin on can ask for ever (7 of the 320 SC pairs did, both ways). So
	// only release-consistent programs spin.
	spins := c.cfg.Consistency == ReleaseConsistent
	// ComputeUntil is op kind 13, in release-consistent programs only for
	// the same reason: in SC programs too it changed every seed's program,
	// and 2 of the 320 SC pairs then ran to MaxTime both ways, each a store
	// that readers of its line kept asking again.
	kinds := 13
	if spins {
		kinds = 14
	}
	for i := 0; i < n; i++ {
		i := i
		s.Spawn(fmt.Sprintf("w%d", i), i, func(p *Proc) {
			r := rand.New(rand.NewSource(seed*1000 + int64(i)))
			load := func(addr uint64) uint64 {
				v := p.Load(addr)
				run.Seen[i] = run.Seen[i]*1099511628211 + v
				return v
			}
			spin := func(addr uint64, v uint64, equal bool) {
				got := p.SpinWhile(addr, 320, v, equal)
				run.Seen[i] = run.Seen[i]*1099511628211 + got
			}
			for op := 0; op < ops; op++ {
				switch {
				case op == ops/4 && spins:
					// As dsmsync.SMBarrier: count in with an LL/SC, the last
					// flips the sense, the others spin until it flips.
					sense := load(smSense)
					p.MemBar()
					for backoff := sim.Time(200); ; backoff = min(2*backoff, 6000) {
						v := p.LoadLocked(smBar)
						if !p.StoreCond(smBar, v+1) {
							p.Poll()
							p.Compute(backoff)
							continue
						}
						if v+1 == n {
							p.Store(smBar, 0)
							p.MemBar()
							p.Store(smSense, 1-sense)
						} else {
							spin(smSense, sense, true)
						}
						p.MemBar()
						break
					}
				case op == ops/2:
					p.BarrierWait(bar)
				}
				switch k := r.Intn(kinds); k {
				case 0, 1, 2, 3:
					p.Compute(sim.Time(1 + r.Intn(5000)))
				case 13:
					p.ComputeUntil(p.Now()+1+sim.Time(r.Intn(20000)), 1+sim.Time(r.Intn(800)))
				case 4:
					if p.pollGap > 0 {
						p.Compute(1 + sim.Time(r.Int63n(int64(p.pollGap))))
					}
				case 5:
					p.Compute(p.pollGap + interval*sim.Time(r.Intn(4)))
				case 6, 7:
					load(data + uint64(r.Intn(words))*8)
				case 8:
					p.Store(data+uint64(r.Intn(words))*8, uint64(i)<<32|uint64(op))
				case 9:
					p.LockAcquire(mpLock)
					v := load(counters)
					p.Compute(sim.Time(r.Intn(300)))
					p.Store(counters, v+1)
					p.LockRelease(mpLock)
				case 10:
					backoff := sim.Time(200)
					for load(smLock) != 0 || p.LoadLocked(smLock) != 0 || !p.StoreCond(smLock, 1) {
						p.Poll()
						p.overridden, p.override = true, CatSyncStall
						p.Compute(backoff)
						p.overridden = false
						if backoff < 6000 {
							backoff *= 2
						}
					}
					p.MemBar()
					p.Store(counters+64, load(counters+64)+1)
					p.MemBar()
					p.Store(smLock, 0)
				case 11:
					p.MemBar()
				case 12:
					if !spins {
						p.MemBar()
						break
					}
					backoff := sim.Time(200)
					for p.LoadLocked(smLock) != 0 || !p.StoreCond(smLock, 1) {
						p.Poll()
						p.Compute(backoff)
						if backoff < 6000 {
							backoff *= 2
						}
						spin(smLock, 0, false)
					}
					p.MemBar()
					p.Store(counters+64, load(counters+64)+1)
					p.MemBar()
					p.Store(smLock, 0)
				}
			}
			p.BarrierWait(bar)
			run.Clocks[i] = p.Now()
		})
	}
	// Four blocks of data homed round-robin, and a line each for the two
	// counters and the LL/SC lock.
	data = s.Alloc(words*8, AllocOptions{BlockLines: 2})
	counters = s.Alloc(128, AllocOptions{Home: HomeAt(1)})
	smLock = s.Alloc(64, AllocOptions{Home: HomeAt(2)})
	smBar = s.Alloc(64, AllocOptions{Home: HomeAt(3)})
	smSense = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
	mpLock, bar = s.NewLock(3), s.NewBarrier(0, n)
	if err := s.Run(); err != nil {
		// A deadlock names every process and its clock. A run that spins to
		// MaxTime stops at whichever yield first passes it.
		run.Err, _, _ = strings.Cut(err.Error(), " at proc")
		return run
	}
	for i, p := range s.procs {
		run.Final[i] = p.Sim.Now()
		run.Stats = append(run.Stats, p.stats)
		run.retx += p.stats.N[CntRetransmits]
	}
	run.Mem, run.Events, run.CtxSw = s.SnapshotShared(), md.Sum64(), s.Eng.ContextSwitches()
	run.counted = s.Eng.SchedCounters()
	return run
}

// TestComputeClosedFormMatchesPolling sweeps PollInterval over {1, 7, 120,
// 10000} and Cost.Poll over {0, 3}: every case meets every pair five times
// in 40 seeds. With interval 1 and a free poll every cycle is a poll
// instant, so every message arrives exactly on one. Every run must also end
// at rest, which Run checks: 39 of the 640 pairs did not while an exited
// process served on only while work was visibly owed to it, all of them
// lossy. In the "2x2 smp lossy dirinval RC" case at seed 35 (interval 1,
// poll cost 3) w1's last retransmit entry stayed live, its ack lost and
// nobody left to retransmit; at seed 31 (interval 1), before waits on the
// queues became flags, a net-ack to the exited w3 stayed queued.
func TestComputeClosedFormMatchesPolling(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 8
	}
	intervals, pollCosts := []sim.Time{1, 7, 120, 10000}, []sim.Time{0, 3}
	var total, ref sim.SchedCounters
	var retx int64
	pairs, failed := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		for ci, c := range computeCases(seed) {
			mix := int(seed) + ci
			c.cfg.PollInterval = intervals[mix%4]
			c.cfg.Cost.Poll = pollCosts[mix/4%2]
			if c.cfg.Protocol == "tardis" && c.cfg.PollInterval == 10000 {
				// Under Tardis a spinner sees a release only once a
				// tick drops its leased copy, every 64 polls: 640 000
				// task cycles here. These programs take up to 5.5 M.
				c.cfg.MaxTime = 10_000_000
			}
			want := runComputeProgram(t, c, seed, true)
			got := runComputeProgram(t, c, seed, false)
			if diff := DiffExported(*want, *got); diff != "" {
				t.Fatalf("%s seed %d interval %d poll cost %d: %s", c.name, seed, c.cfg.PollInterval, c.cfg.Cost.Poll, diff)
			}
			pairs++
			if want.Err != "" {
				failed++
				t.Logf("%s seed %d interval %d poll cost %d, both ways: %.60s", c.name, seed, c.cfg.PollInterval, c.cfg.Cost.Poll, want.Err)
				continue
			}
			ref.Steps += want.counted.Steps
			total.Steps += got.counted.Steps
			total.Parks += got.counted.Parks
			total.EarlyWakes += got.counted.EarlyWakes
			retx += got.retx
			if want.counted.Parks != 0 {
				t.Fatalf("%s seed %d: the polling loop parked %d times", c.name, seed, want.counted.Parks)
			}
		}
	}
	t.Logf("%d pairs of runs, %d of them failed; %d scheduler steps polling, %d in closed form (%d parks, %d woken early), %d retransmissions",
		pairs, failed, ref.Steps, total.Steps, total.Parks, total.EarlyWakes, retx)
	// The programs are hard on the protocol (their stores race), and every
	// one of them must finish: until the home invalidated its own node's
	// copy the way a remote sharer does, one in fifty wedged 2x2 SMP-Shasta
	// under dirinval (DESIGN.md §8 finding 9).
	if failed > 0 {
		t.Errorf("%d of %d pairs of runs failed", failed, pairs)
	}
	// The closed form must have been exercised: parked and woken early by an
	// arrival, with retransmit deadlines among the wake sources.
	if total.Parks == 0 || total.EarlyWakes == 0 || retx == 0 || total.Steps >= ref.Steps {
		t.Errorf("sweep did not exercise the closed form: %d parks, %d early wakes, %d retransmissions, %d steps against %d",
			total.Parks, total.EarlyWakes, retx, total.Steps, ref.Steps)
	}
}

// TestComputeArrivalOnPollInstant slides a remote read request across a
// home that is in the middle of a Compute, one cycle at a time over two
// poll spacings, so that it arrives just before, exactly on and just after
// a poll instant: the poll that serves it, and so the reader's clock, must
// be the one the polling loop gives.
func TestComputeArrivalOnPollInstant(t *testing.T) {
	for _, pollCost := range []sim.Time{0, 3} {
		cfg := baseConfig()
		cfg.Nodes, cfg.CPUsPerNode = 2, 1
		cfg.Cost.Poll = pollCost
		spacing := cfg.PollInterval + pollCost
		onInstant := 0
		for offset := sim.Time(0); offset < 2*spacing; offset++ {
			var clocks [2][2]sim.Time
			for mode, pollEach := range []bool{true, false} {
				tr := trace.NewBuffer()
				s := Build(WithConfig(cfg), WithTrace(tr))
				s.pollEach = pollEach
				var addr uint64
				var first, arrive sim.Time
				s.Spawn("home", 0, func(p *Proc) {
					p.Store(addr, 7)
					first = p.Now() + p.pollGap + pollCost
					p.Compute(20 * cfg.PollInterval)
					clocks[mode][0] = p.Now()
				})
				s.Spawn("reader", 1, func(p *Proc) {
					p.ChargeTime(CatTask, 5*spacing+offset)
					if p.Load(addr) != 7 {
						t.Errorf("offset %d: reader did not see the home's store", offset)
					}
					clocks[mode][1] = p.Now()
				})
				addr = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
				if err := s.Run(); err != nil {
					t.Fatal(err)
				}
				for _, ev := range tr.TakeBuffered() {
					if ev.Cat == "msg" && ev.Ev == "send" && ev.O == 0 {
						arrive = ev.A
						break
					}
				}
				if !pollEach && arrive > first && (arrive-first)%spacing == 0 {
					onInstant++
				}
			}
			if clocks[0] != clocks[1] {
				t.Errorf("poll cost %d offset %d: clocks %v polling, %v in closed form", pollCost, offset, clocks[0], clocks[1])
			}
		}
		if onInstant == 0 {
			t.Errorf("poll cost %d: no request arrived exactly on a poll instant", pollCost)
		}
	}
}

// TestArrivalInTrailingChunkWakesOnce: a home alone on its queues
// (Base-Shasta, 2x1) computes in closed form, and a remote read request
// reaches it after the compute's last poll, in the task chunk that ends the
// compute. No poll of that compute can find the request, so the put's wake
// is clamped to the park's stop: the compute parks once, is not woken
// before its end, and the home serves the request at the first poll of its
// next compute, as the polling loop does. While a put woke a process alone
// on its box at the arrival, the park ended early there and the home went
// back to its stretch.
func TestArrivalInTrailingChunkWakesOnce(t *testing.T) {
	cfg := baseConfig()
	cfg.Nodes, cfg.CPUsPerNode = 2, 1
	cfg.PollInterval = 1000
	const polls = 11
	// The home starts its compute at 7, once its store is done, and a
	// reader that starts its read at 0 has its read-req arrive at 1639.
	const homeStart, reqArrives = 7, 1639
	var clocks [2][2]sim.Time
	var first sim.SchedCounters // up to the first compute's end, in closed form
	for mode, pollEach := range []bool{true, false} {
		tr := trace.NewBuffer()
		s := Build(WithConfig(cfg), WithTrace(tr))
		s.pollEach = pollEach
		var addr uint64
		var last, end sim.Time // the first compute's last poll and end
		s.Spawn("home", 0, func(p *Proc) {
			p.Store(addr, 7)
			x := p.pollGap + (polls-1)*cfg.PollInterval // its last poll's task cycle
			last = p.Now() + x + polls*cfg.Cost.Poll
			p.Compute(x + cfg.PollInterval/2)
			end = p.Now()
			if !pollEach {
				first = s.Eng.SchedCounters()
			}
			p.Compute(polls * cfg.PollInterval)
			clocks[mode][0] = p.Now()
		})
		s.Spawn("reader", 1, func(p *Proc) {
			p.ChargeTime(CatTask, homeStart+(polls-1)*cfg.PollInterval+polls*cfg.Cost.Poll+cfg.PollInterval/4-reqArrives)
			if p.Load(addr) != 7 {
				t.Error("the reader did not see the home's store")
			}
			clocks[mode][1] = p.Now()
		})
		addr = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		var handled sim.Time
		for _, ev := range tr.TakeBuffered() {
			switch {
			case ev.Cat == "msg" && ev.Ev == "send" && ev.O == 0:
				if a := sim.Time(ev.A); a <= last || a >= end {
					t.Fatalf("pollEach=%v: the read-req arrived at %d, not after the last poll at %d and before the end at %d", pollEach, a, last, end)
				}
			case ev.Cat == "msg" && ev.Ev == "handle" && ev.P == 0:
				handled = sim.Time(ev.T)
			}
		}
		if want := end + cfg.PollInterval/2 + cfg.Cost.Poll; handled != want {
			t.Errorf("pollEach=%v: the read-req was handled at %d, want %d, the next compute's first poll", pollEach, handled, want)
		}
	}
	if first.Parks != 1 || first.EarlyWakes != 0 {
		t.Errorf("the first compute parked %d times, %d of them ended early; want once, not early", first.Parks, first.EarlyWakes)
	}
	if clocks[0] != clocks[1] {
		t.Errorf("clocks %v polling, %v in closed form", clocks[0], clocks[1])
	}
}

// TestComputeUntilParksOncePerWake: a home on 2x2 SMP-Shasta computes to
// 50 000 cycles on in 500-cycle chunks beside a node-mate that keeps its
// clock moving, and a remote read request reaches it half-way. In closed
// form ComputeUntil parks three times: to the request's poll, to its last
// chunk and in that chunk. The same chunks as a loop of Computes are a
// stretch each, and park 96 times. The request is served at the same poll,
// and every clock and statistic is the one the polling loop gives.
func TestComputeUntilParksOncePerWake(t *testing.T) {
	const span, gap = 50_000, 500
	type outcome struct {
		handled sim.Time
		clocks  [3]sim.Time
		stats   [3]Stats
	}
	var runs [3]outcome
	var parks [3]int64
	for mode := range runs {
		cfg := testConfig()
		cfg.Nodes, cfg.CPUsPerNode = 2, 2
		tr := trace.NewBuffer()
		s := Build(WithConfig(cfg), WithTrace(tr))
		s.pollEach = mode == 0
		var addr uint64
		var start sim.Time
		home := s.Spawn("home", 0, func(p *Proc) {
			p.Store(addr, 7)
			start = p.Now()
			if mode == 2 {
				for t := start + span; p.Now() < t; {
					p.Compute(min(gap, t-p.Now()))
				}
			} else {
				p.ComputeUntil(start+span, gap)
			}
		})
		s.Spawn("mate", 1, func(p *Proc) {
			for !home.Exited() {
				p.ChargeTime(CatTask, 50)
			}
		})
		s.Spawn("reader", 2, func(p *Proc) {
			p.ChargeTime(CatTask, span/2)
			if p.Load(addr) != 7 {
				t.Error("the reader did not see the home's store")
			}
		})
		addr = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		for _, ev := range tr.TakeBuffered() {
			switch {
			case ev.Cat == "msg" && ev.Ev == "send" && ev.O == 0:
				if a := sim.Time(ev.A); a < start+span/4 || a > start+3*span/4 {
					t.Fatalf("mode %d: the read request arrived at %d, not half-way through [%d, %d]", mode, a, start, start+span)
				}
			case ev.Cat == "msg" && ev.Ev == "handle" && ev.P == 0:
				runs[mode].handled = sim.Time(ev.T)
			}
		}
		for i, p := range s.procs {
			runs[mode].clocks[i], runs[mode].stats[i] = p.Now(), p.stats
		}
		parks[mode] = s.Eng.SchedCounters().Parks
	}
	if runs[0].handled == 0 || runs[1] != runs[0] || runs[2] != runs[0] {
		t.Errorf("request handled at %d polling, %d by ComputeUntil and %d by the loop; clocks %v, %v and %v; stats equal: %v and %v",
			runs[0].handled, runs[1].handled, runs[2].handled, runs[0].clocks, runs[1].clocks, runs[2].clocks,
			runs[1].stats == runs[0].stats, runs[2].stats == runs[0].stats)
	}
	t.Logf("parks: %d polling, %d by ComputeUntil, %d by the loop", parks[0], parks[1], parks[2])
	if parks[0] != 0 || parks[1] > 3 || parks[2] < span/gap/2 {
		t.Errorf("parks: %d polling, %d by ComputeUntil, %d by the loop; want 0, at most 3 and at least %d", parks[0], parks[1], parks[2], span/gap/2)
	}
}

// TestLongComputesAreNotAStall: two processes on one node that each compute
// for three times the watchdog's budget, between two stores, finish. Neither
// can run through (the other could act first), so both park, and the time
// they are parked for is charged work like any other.
func TestLongComputesAreNotAStall(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes, cfg.CPUsPerNode = 1, 2
	cfg.WatchdogCycles = 1_000_000
	cfg.MaxTime = 10 * cfg.WatchdogCycles
	s := Build(WithConfig(cfg))
	var addr uint64
	for i := 0; i < 2; i++ {
		i := i
		s.Spawn("w", i, func(p *Proc) {
			p.Store(addr+uint64(i)*8, 1)
			p.Compute(3 * cfg.WatchdogCycles)
			p.Store(addr+uint64(i)*8, 2)
		})
	}
	addr = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if c := s.Eng.SchedCounters(); c.Parks == 0 {
		t.Errorf("no Compute parked: %+v", c)
	}
	if a, b := s.Peek(addr), s.Peek(addr+8); a != 2 || b != 2 {
		t.Errorf("final values %d and %d, want 2 and 2", a, b)
	}
}

// TestSharedCPUTakesPollsOneByOne: two processes on one CPU compute one
// after the other, a quantum at a time. A process parked in the middle of a
// stretch would go on computing while the quantum gives the CPU to the other,
// so processes that share a CPU keep the polling loop, whatever the engine's
// lookahead; and a request that either takes first from the CPU's shared
// queue is served exactly as before.
func TestSharedCPUTakesPollsOneByOne(t *testing.T) {
	const work = 60_000
	var runs [2][3]sim.Time
	for mode, pollEach := range []bool{true, false} {
		cfg := testConfig()
		cfg.Nodes, cfg.CPUsPerNode = 2, 2
		cfg.Cost.Quantum = 3000
		s := Build(WithConfig(cfg))
		s.pollEach = pollEach
		var addr [2]uint64
		for i := 0; i < 2; i++ {
			i := i
			s.Spawn("sharer", 0, func(p *Proc) {
				p.Store(addr[i], uint64(i+1))
				for done := 0; done < work; done += 10_000 {
					p.Compute(10_000)
				}
				runs[mode][i] = p.Now()
			})
		}
		s.Spawn("reader", 2, func(p *Proc) {
			for i := 0; i < 20; i++ {
				p.Compute(2500)
				p.Load(addr[i%2] + uint64(i/2)*64)
			}
			runs[mode][2] = p.Now()
		})
		addr[0] = s.Alloc(10*64, AllocOptions{Home: HomeAt(0)})
		addr[1] = s.Alloc(10*64, AllocOptions{Home: HomeAt(1)})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if last := max(runs[mode][0], runs[mode][1]); last < 2*work {
			t.Errorf("pollEach=%v: two computes of %d cycles on one CPU were over at t=%d", pollEach, work, last)
		}
		if s.Eng.ContextSwitches() < 2*work/cfg.Cost.Quantum/2 {
			t.Errorf("pollEach=%v: %d context switches", pollEach, s.Eng.ContextSwitches())
		}
	}
	if runs[0] != runs[1] {
		t.Errorf("clocks %v polling, %v with the closed form elsewhere", runs[0], runs[1])
	}
}

// TestTardisLeaseExpiresOnSamePollAcrossParks: under Tardis a write does not
// invalidate leased copies, so a process spinning on one sees the new value
// only once one of its own every-64th-poll ticks has dropped the copy. The
// spinner shares its node with a busy neighbour, so in closed form each of
// its Computes parks; the tick must still fall on the same poll, and the
// new value be seen at the same time, as when every poll is an event.
func TestTardisLeaseExpiresOnSamePollAcrossParks(t *testing.T) {
	type seen struct {
		polls int64
		at    sim.Time
	}
	var runs [2]seen
	for mode, pollEach := range []bool{true, false} {
		cfg := baseConfig()
		cfg.Nodes, cfg.CPUsPerNode, cfg.Protocol = 2, 2, "tardis"
		cfg.MaxTime = 1_000_000 // a spinner whose lease never expires spins for ever
		s := Build(WithConfig(cfg))
		s.pollEach = pollEach
		var addr uint64
		spinning := false
		s.Spawn("writer", 0, func(p *Proc) {
			for !spinning {
				p.Compute(1000)
			}
			p.Store(addr, 1)
			p.MemBar()
		})
		spinner := s.Spawn("spinner", 2, func(p *Proc) {
			if p.Load(addr) != 0 {
				t.Error("spinner read the flag before it was written")
			}
			spinning = true
			for p.Load(addr) == 0 {
				p.Compute(320)
			}
			runs[mode] = seen{p.stats.N[CntPolls], p.Now()}
		})
		s.Spawn("neighbour", 3, func(p *Proc) {
			for !spinner.Exited() {
				p.Compute(50)
			}
		})
		addr = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if parks := s.Eng.SchedCounters().Parks; pollEach != (parks == 0) {
			t.Errorf("pollEach=%v: %d parks", pollEach, parks)
		}
	}
	if runs[0] != runs[1] {
		t.Errorf("new value seen after %d polls at t=%d polling, after %d polls at t=%d in closed form",
			runs[0].polls, runs[0].at, runs[1].polls, runs[1].at)
	}
	// The tick, not the write, decided when: the spinner's first tick is
	// skipped, busy with the fill of its copy, and its second drops it.
	if p := runs[1].polls; p < 2*tardisPollPeriod || p >= 3*tardisPollPeriod {
		t.Errorf("new value seen after %d polls, want within one poll period of the %d-th", p, 2*tardisPollPeriod)
	}
}
