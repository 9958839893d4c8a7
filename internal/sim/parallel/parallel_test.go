package parallel_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/parallel"
)

// mailbox stages cross-shard notifications the way the DSM layer stages
// wire messages: senders append under a lock during the window, the barrier
// hook applies them (single-threaded, all shards parked) in node order. A
// notification staged at send time t carries wake time t+lookahead, so it
// is never due inside the window that staged it.
type mailbox struct {
	mu     sync.Mutex
	staged []note
}

type note struct {
	dst  *sim.Proc
	at   sim.Time
	from int
}

func (mb *mailbox) send(dst *sim.Proc, at sim.Time, from int) {
	mb.mu.Lock()
	mb.staged = append(mb.staged, note{dst, at, from})
	mb.mu.Unlock()
}

func (mb *mailbox) commit() {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for _, n := range mb.staged {
		n.dst.NotifyAt(n.at)
	}
	mb.staged = mb.staged[:0]
}

const lookahead = sim.Time(500)

// pingRing builds one engine running a notification ring across nodes:
// every proc alternates charged work with sending a wake-up to the proc on
// the next node, and records the simulated time of every wake-up it
// receives. parallelWorkers < 0 runs the built-in driver on one shard, in
// strict global order (direct NotifyAt at send time); otherwise per-node
// shards are driven by parallel.New(parallelWorkers), with sends staged and
// committed at window barriers. Both deliver the identical wake time
// t+lookahead.
func pingRing(t *testing.T, nodes, rounds, parallelWorkers int) (times [][]sim.Time, err error) {
	t.Helper()
	cfg := sim.Config{Nodes: nodes, CPUsPerNode: 1, Quantum: 4000, CtxSwitch: 50}
	par := parallelWorkers >= 0
	if par {
		cfg.Lookahead = lookahead
	}
	e := sim.NewEngine(cfg)
	var mb mailbox
	if par {
		e.SetRunner(parallel.New(parallelWorkers))
		e.SetBarrierHook(mb.commit)
	}
	procs := make([]*sim.Proc, nodes)
	times = make([][]sim.Time, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		procs[i] = e.Spawn(fmt.Sprintf("ring%d", i), i, 0, func(p *sim.Proc) {
			next := procs[(i+1)%nodes]
			for r := 0; r < rounds; r++ {
				p.Advance(sim.Time(100 + 37*i))
				if par {
					mb.send(next, p.Now()+lookahead, i)
				} else {
					next.NotifyAt(p.Now() + lookahead)
				}
				p.Wait()
				times[i] = append(times[i], p.Now())
			}
		})
	}
	return times, e.Run()
}

// TestRingMatchesSequential is the sim-level equivalence check: the same
// cross-shard notification pattern must wake every process at the exact
// same simulated times in strict global order and in rounds, for several
// worker counts.
func TestRingMatchesSequential(t *testing.T) {
	const nodes, rounds = 4, 200
	seqTimes, err := pingRing(t, nodes, rounds, -1)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		parTimes, err := pingRing(t, nodes, rounds, workers)
		if err != nil {
			t.Fatalf("parallel(%d): %v", workers, err)
		}
		for i := range seqTimes {
			if len(seqTimes[i]) != rounds || len(parTimes[i]) != rounds {
				t.Fatalf("parallel(%d): proc %d woke %d/%d times (sequential %d)",
					workers, i, len(parTimes[i]), rounds, len(seqTimes[i]))
			}
			for r := range seqTimes[i] {
				if seqTimes[i][r] != parTimes[i][r] {
					t.Fatalf("parallel(%d): proc %d wake %d at t=%d, sequential t=%d",
						workers, i, r, parTimes[i][r], seqTimes[i][r])
				}
			}
		}
	}
}

// TestDeadlockDetected: a proc waiting on a notification that never comes
// must surface the engine's deadlock error through the coordinator, not
// hang the worker pool.
func TestDeadlockDetected(t *testing.T) {
	cfg := sim.Config{Nodes: 2, CPUsPerNode: 1, Lookahead: lookahead}
	e := sim.NewEngine(cfg)
	e.SetRunner(parallel.New(2))
	e.Spawn("worker", 0, 0, func(p *sim.Proc) { p.Advance(1000) })
	e.Spawn("stuck", 1, 0, func(p *sim.Proc) { p.Wait() })
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
	if !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("deadlock error lacks stuck-process detail: %v", err)
	}
}

// TestProcErrorPropagates: Fail inside a shard worker must reach Run's
// caller after the round completes.
func TestProcErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	cfg := sim.Config{Nodes: 2, CPUsPerNode: 1, Lookahead: lookahead}
	e := sim.NewEngine(cfg)
	e.SetRunner(parallel.New(2))
	e.Spawn("ok", 0, 0, func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			p.Advance(100)
		}
	})
	e.Spawn("bad", 1, 0, func(p *sim.Proc) {
		p.Advance(300)
		p.Fail(boom)
	})
	if err := e.Run(); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
}

// TestMaxTimePropagates: the MaxTime safety stop fires inside a window.
func TestMaxTimePropagates(t *testing.T) {
	cfg := sim.Config{Nodes: 2, CPUsPerNode: 1, Lookahead: lookahead, MaxTime: 50_000}
	e := sim.NewEngine(cfg)
	e.SetRunner(parallel.New(2))
	for i := 0; i < 2; i++ {
		e.Spawn("spin", i, 0, func(p *sim.Proc) {
			for {
				p.Advance(100)
			}
		})
	}
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "MaxTime") {
		t.Fatalf("want MaxTime error, got %v", err)
	}
}

// TestGenuineStallConfirmedAtBarrier: a shard livelocked on zero-cost
// iterations trips its watchdog, parks at the window barrier, and the
// coordinator confirms the stall into a StallError — satellite 3's
// "dump only at the barrier" behavior.
func TestGenuineStallConfirmedAtBarrier(t *testing.T) {
	cfg := sim.Config{Nodes: 2, CPUsPerNode: 1, Lookahead: lookahead, WatchdogCycles: 10_000, WatchdogIters: 1 << 12}
	e := sim.NewEngine(cfg)
	e.SetRunner(parallel.New(2))
	e.Spawn("ok", 0, 0, func(p *sim.Proc) {
		for i := 0; i < 1000; i++ {
			p.Advance(100)
		}
	})
	e.Spawn("livelock", 1, 0, func(p *sim.Proc) {
		for {
			p.NotifyAt(p.Now()) // yields forever without charging any work
			p.Wait()
		}
	})
	err := e.Run()
	var se *sim.StallError
	if !errors.As(err, &se) {
		t.Fatalf("want StallError, got %T: %v", err, err)
	}
}

// TestFalseAlarmStallResyncs: a shard whose only process sleeps slightly
// past the watchdog budget has a stale shard-local progress mark and trips
// on every wake-up — but another shard keeps charging work, so globally
// there is no stall. The sequential engine (global progress mark) never
// trips here; the parallel coordinator must reach the same verdict by
// re-checking at the barrier, resyncing the mark, and completing cleanly.
func TestFalseAlarmStallResyncs(t *testing.T) {
	const dogCycles = 10_000
	cfg := sim.Config{Nodes: 2, CPUsPerNode: 1, Lookahead: lookahead, WatchdogCycles: dogCycles}
	e := sim.NewEngine(cfg)
	e.SetRunner(parallel.New(2))
	e.Spawn("busy", 0, 0, func(p *sim.Proc) {
		for i := 0; i < 2000; i++ {
			p.Advance(100) // keeps global progress current through t=200000
		}
	})
	e.Spawn("napper", 1, 0, func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			p.NotifyAt(p.Now() + dogCycles + 2000) // each wake overshoots the shard-local mark
			p.Block()
			p.Advance(1)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("false-alarm stall was not resynced: %v", err)
	}
}

// TestWorkersCapped: more workers than shards must not deadlock the
// round barrier (the pool is clamped to the shard count).
func TestWorkersCapped(t *testing.T) {
	cfg := sim.Config{Nodes: 2, CPUsPerNode: 2, Lookahead: lookahead}
	e := sim.NewEngine(cfg)
	e.SetRunner(parallel.New(16))
	for i := 0; i < 4; i++ {
		e.Spawn("w", i, 0, func(p *sim.Proc) {
			for j := 0; j < 50; j++ {
				p.Advance(10)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Now(); got <= 0 {
		t.Fatalf("Now() = %d after run", got)
	}
}
