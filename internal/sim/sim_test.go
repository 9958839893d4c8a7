package sim

import (
	"strings"
	"testing"
	"time"
)

func TestSingleProcAdvances(t *testing.T) {
	e := NewEngine(Config{Nodes: 1, CPUsPerNode: 1})
	var end Time
	e.Spawn("a", 0, 0, func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Advance(100)
		}
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 1000 {
		t.Fatalf("end time = %d, want 1000", end)
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine(Config{Nodes: 1, CPUsPerNode: 2})
		var trace []string
		mark := func(s string) { trace = append(trace, s) }
		e.Spawn("a", 0, 0, func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Advance(10)
				mark("a")
			}
		})
		e.Spawn("b", 1, 0, func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Advance(15)
				mark("b")
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	t1 := strings.Join(run(), "")
	t2 := strings.Join(run(), "")
	if t1 != t2 {
		t.Fatalf("nondeterministic traces: %q vs %q", t1, t2)
	}
	// a events at t=10,20,30; b at t=15,30,45. The t=30 tie goes to the
	// lower process ID, so 'a' must appear before the second 'b' pair.
	if t1 != "abaabb" && t1 != "abaab"+"b" {
		t.Fatalf("unexpected trace %q", t1)
	}
}

func TestNotifyWakesWaiter(t *testing.T) {
	e := NewEngine(Config{Nodes: 2, CPUsPerNode: 1})
	var got Time
	var waiter *Proc
	delivered := false
	waiter = e.Spawn("waiter", 0, 0, func(p *Proc) {
		for !delivered {
			p.Wait()
		}
		got = p.Now()
	})
	e.Spawn("sender", 1, 0, func(p *Proc) {
		p.Advance(500)
		delivered = true
		waiter.NotifyAt(p.Now() + 1200) // message with 4us latency
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1700 {
		t.Fatalf("waiter woke at %d, want 1700", got)
	}
}

func TestBlockReleasesCPU(t *testing.T) {
	e := NewEngine(Config{Nodes: 1, CPUsPerNode: 1, CtxSwitch: 100})
	var blocker, other *Proc
	var otherRan Time
	done := false
	blocker = e.Spawn("blocker", 0, 0, func(p *Proc) {
		p.Advance(50)
		for !done {
			p.Block()
		}
	})
	other = e.Spawn("other", 0, 0, func(p *Proc) {
		p.Advance(1000)
		otherRan = p.Now()
		done = true
		blocker.NotifyAt(p.Now())
	})
	_ = other
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if otherRan == 0 {
		t.Fatal("other never ran; Block did not release the CPU")
	}
	if blocker.Now() < otherRan {
		t.Fatalf("blocker finished at %d before other at %d", blocker.Now(), otherRan)
	}
}

func TestQuantumPreemption(t *testing.T) {
	// Two processes share one CPU with a quantum; both must make progress.
	e := NewEngine(Config{Nodes: 1, CPUsPerNode: 1, Quantum: 1000, CtxSwitch: 10})
	var aEnd, bEnd Time
	e.Spawn("a", 0, 0, func(p *Proc) {
		for i := 0; i < 50; i++ {
			p.Advance(100)
		}
		aEnd = p.Now()
	})
	e.Spawn("b", 0, 0, func(p *Proc) {
		for i := 0; i < 50; i++ {
			p.Advance(100)
		}
		bEnd = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if aEnd == 0 || bEnd == 0 {
		t.Fatalf("a=%d b=%d: starvation", aEnd, bEnd)
	}
	// Total CPU demand is 10000 cycles plus switches; both should finish
	// near that, not at 5000 (which would mean they ran in parallel).
	if aEnd < 5000+1000 && bEnd < 5000+1000 {
		t.Fatalf("a=%d b=%d: processes overlapped on one CPU", aEnd, bEnd)
	}
	if e.ContextSwitches() == 0 {
		t.Fatal("expected context switches")
	}
}

func TestWaitingProcessPreemptedAtQuantum(t *testing.T) {
	// A process waits for a notification that only arrives after another
	// process on the same CPU runs: the waiter must be switched out.
	e := NewEngine(Config{Nodes: 1, CPUsPerNode: 1, Quantum: 1000, CtxSwitch: 10})
	ready := false
	var waiter *Proc
	waiter = e.Spawn("waiter", 0, 0, func(p *Proc) {
		for !ready {
			p.Wait()
		}
	})
	e.Spawn("producer", 0, 0, func(p *Proc) {
		p.Advance(200)
		ready = true
		waiter.NotifyAt(p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine(Config{Nodes: 1, CPUsPerNode: 2})
	e.Spawn("w", 0, 0, func(p *Proc) {
		p.Wait() // nobody will notify
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
}

func TestGuestPanicPropagates(t *testing.T) {
	e := NewEngine(Config{Nodes: 1, CPUsPerNode: 1})
	e.Spawn("bad", 0, 0, func(p *Proc) {
		p.Advance(10)
		panic("boom")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected panic error, got %v", err)
	}
}

// sleep blocks p for d cycles, releasing its CPU, unless a wake is pending
// earlier.
func sleep(p *Proc, d Time) {
	p.NotifyAt(p.Now() + d)
	p.Block()
}

func TestSleepAdvancesTime(t *testing.T) {
	e := NewEngine(Config{Nodes: 1, CPUsPerNode: 1})
	var end Time
	e.Spawn("s", 0, 0, func(p *Proc) {
		p.Advance(100)
		sleep(p, 5000)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end < 5100 {
		t.Fatalf("end=%d, want >= 5100", end)
	}
}

// TestPriorityProcessRunsOnlyWhenIdle: a low-priority server parked in Serve
// shares the CPU with an application process that notifies it while it still
// has work to do. The server gets the CPU only while the application sleeps
// or after it is done, and the run ends with the server idle.
func TestPriorityProcessRunsOnlyWhenIdle(t *testing.T) {
	e := NewEngine(Config{Nodes: 1, CPUsPerNode: 1, Quantum: 1000, CtxSwitch: 10})
	appBlocked, appDone := false, false
	var srv *Proc
	var turns []bool // per server turn: the application was blocked or done
	e.Spawn("app", 0, 0, func(p *Proc) {
		sleep(p, 100) // the server starts and parks
		for i := 0; i < 5; i++ {
			p.Advance(100)
			srv.NotifyAt(p.Now())
			p.Advance(300)
			appBlocked = true
			sleep(p, 2000)
			appBlocked = false
		}
		p.Advance(100)
		srv.NotifyAt(p.Now())
		appDone = true
	})
	srv = e.Spawn("srv", 0, 1, func(p *Proc) {
		for {
			p.Serve()
			turns = append(turns, appBlocked || appDone)
			p.Advance(50)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !appDone {
		t.Fatal("app never finished")
	}
	if len(turns) != 6 {
		t.Fatalf("server ran %d turns, want 6 (one per notification)", len(turns))
	}
	for i, idle := range turns {
		if !idle {
			t.Errorf("server turn %d ran while the application could run", i)
		}
	}
}

// TestDelayWakeMovesServerOffItsCPU: DelayWake moves the wake of a server
// parked in Serve, which waits off its CPU, as it does a waiting process's:
// beside a busy process and on an idle CPU alike. Dispatch puts a woken
// server on its CPU only when the wake is due, so one on an idle CPU does
// not hold the CPU from its notification on, with a wake that may no longer
// move (it woke at 1 000 while it did).
func TestDelayWakeMovesServerOffItsCPU(t *testing.T) {
	t.Run("off its CPU", func(t *testing.T) {
		e := NewEngine(Config{Nodes: 1, CPUsPerNode: 1, Quantum: 1000, CtxSwitch: 10})
		woke := Time(-1)
		var srv *Proc
		e.Spawn("app", 0, 0, func(p *Proc) {
			sleep(p, 10) // the server starts and parks
			p.Advance(90)
			srv.NotifyAt(p.Now())
			if srv.cpu.current == srv {
				t.Fatal("the server is on its CPU, want it parked off it")
			}
			srv.DelayWake(5000)
			p.Advance(100)
			sleep(p, 10000)
		})
		srv = e.Spawn("srv", 0, 1, func(p *Proc) {
			p.Serve()
			woke = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if woke != 5000 {
			t.Errorf("the server woke at %d, want 5000", woke)
		}
	})
	t.Run("on an idle CPU", func(t *testing.T) {
		e := NewEngine(Config{Nodes: 1, CPUsPerNode: 2, Quantum: 1000, CtxSwitch: 10})
		woke := Time(-1)
		srv := e.Spawn("srv", 0, 1, func(p *Proc) {
			p.Serve()
			woke = p.Now()
		})
		e.Spawn("app", 1, 0, func(p *Proc) {
			p.Advance(100)
			srv.NotifyAt(1000)
			p.NotifyAt(p.Now()) // a step of the engine passes the server's CPU
			p.Wait()
			if srv.cpu.current == srv {
				t.Error("the server is on its CPU before its wake is due")
			}
			srv.DelayWake(5000)
			p.Advance(100)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if woke != 5000 {
			t.Errorf("the server woke at %d, want 5000", woke)
		}
	})
}

// TestWaitAfterBlockKeepsCPU: a process that has blocked and been woken
// waits as any other does, holding its CPU until its quantum goes stale,
// though a CPU-mate becomes ready before its wake. It used to give the CPU
// away at its next Wait to anyone who could run earlier: the mate ran at
// 1 010, mid-quantum.
func TestWaitAfterBlockKeepsCPU(t *testing.T) {
	e := NewEngine(Config{Nodes: 1, CPUsPerNode: 1, Quantum: 2000, CtxSwitch: 10})
	var mateRan, woke Time
	e.Spawn("waiter", 0, 0, func(p *Proc) {
		sleep(p, 100) // the mate is switched in at 10 and blocks
		// Back on the CPU at 100, its switch-in overlapped with its sleep,
		// with its slice to 2 100.
		p.NotifyAt(p.Now() + 5000)
		p.Wait()
		woke = p.Now()
	})
	e.Spawn("mate", 0, 0, func(p *Proc) {
		sleep(p, 1000) // ready at 1 010, before the waiter's wake
		mateRan = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if mateRan != 2110 || woke != 5100 {
		t.Errorf("the mate ran at %d and the waiter woke at %d, want 2110 (the slice end and a switch) and 5100", mateRan, woke)
	}
}

func TestMaxTimeStopsRunaway(t *testing.T) {
	e := NewEngine(Config{Nodes: 1, CPUsPerNode: 1, MaxTime: 100000})
	e.Spawn("spin", 0, 0, func(p *Proc) {
		for {
			p.Advance(1000)
		}
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "MaxTime") {
		t.Fatalf("expected MaxTime error, got %v", err)
	}
}

func TestManyProcsManyCPUs(t *testing.T) {
	e := NewEngine(Config{Nodes: 4, CPUsPerNode: 4, Quantum: 3000, CtxSwitch: 50})
	total := 0
	for i := 0; i < 32; i++ {
		cpu := i % 16
		e.Spawn("w", cpu, 0, func(p *Proc) {
			for j := 0; j < 20; j++ {
				p.Advance(37)
			}
			total++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 32 {
		t.Fatalf("total=%d, want 32", total)
	}
}

func TestMicrosecondsConversion(t *testing.T) {
	if Microseconds(300) != 1 {
		t.Fatalf("Microseconds(300)=%v", Microseconds(300))
	}
	if Cycles(20) != 6000 {
		t.Fatalf("Cycles(20)=%v", Cycles(20))
	}
}

// TestRunPastNotificationDropped: a process that is notified for a time,
// advances past it and then parks has nothing to wake for. It must sleep
// until the next notification, and the same whether it ran straight through
// or a busy neighbour made it yield at every Advance: a notification used
// to be dropped only at a resume, so the straight run woke at once.
func TestRunPastNotificationDropped(t *testing.T) {
	for _, tc := range []struct {
		park string
		want Time
	}{{"Wait", 5000}, {"Block", 5000}, {"Sleep", 1160}} {
		for _, busy := range []bool{false, true} {
			e := NewEngine(Config{Nodes: 1, CPUsPerNode: 3})
			var woke Time
			subject := e.SpawnAt("subject", 0, 0, 10, func(p *Proc) {
				p.Advance(50)
				p.Advance(100) // t=160, past the notification for t=100
				switch tc.park {
				case "Wait":
					p.Wait()
				case "Block":
					p.Block()
				case "Sleep":
					sleep(p, 1000)
				}
				woke = p.Now()
			})
			e.Spawn("notifier", 1, 0, func(p *Proc) {
				subject.NotifyAt(100) // before the subject starts
				p.Advance(5000)
				subject.NotifyAt(p.Now())
			})
			if busy {
				e.Spawn("neighbour", 2, 0, func(p *Proc) {
					for i := 0; i < 300; i++ {
						p.Advance(1)
					}
				})
			}
			if err := e.Run(); err != nil {
				t.Fatalf("%s, busy neighbour %v: %v", tc.park, busy, err)
			}
			if woke != tc.want {
				t.Errorf("%s, busy neighbour %v: woke at t=%d, want %d", tc.park, busy, woke, tc.want)
			}
		}
	}
}

// TestHeldShardLetsOthersPass: a shard whose earliest process is queued
// behind an incumbent that overran its slice cannot take a step before that
// incumbent's clock, however early the queued process's wake is. The driver
// must order the shard by the step it can take, not by its heap root, or it
// would offer the shard the same too-short window for ever.
func TestHeldShardLetsOthersPass(t *testing.T) {
	woke := func(lookahead Time) (sleeperWoke Time) {
		e := NewEngine(Config{Nodes: 2, CPUsPerNode: 1, Quantum: 4000, Lookahead: lookahead, MaxTime: 100_000})
		sleeper := e.Spawn("sleeper", 0, 0, func(p *Proc) {
			p.Block() // gives the CPU to the runner; woken from the other node
			sleeperWoke = p.Now()
		})
		e.Spawn("runner", 0, 0, func(p *Proc) {
			p.Advance(5000) // one step, past the slice end; nobody wants the CPU yet
			p.Advance(100)
		})
		e.SpawnAt("waker", 1, 0, 3700, func(p *Proc) {
			sleeper.NotifyAt(p.Now() + 500) // t=4200, inside the runner's long step
			for i := 0; i < 30; i++ {
				p.Advance(100)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return sleeperWoke
	}
	if global, windows := woke(0), woke(400); windows != global || global < 5000 {
		t.Errorf("sleeper resumed at t=%d in windows, t=%d in strict global order (no earlier than 5000, when the runner can first be switched out)", windows, global)
	}
}

// TestDispatchAtWindowEndKeepsDriverMoving: the last thing a window does may
// be a pass that dispatches a process with a context-switch charge, which
// moves the shard's next step to or past the horizon without any step being
// taken. The driver must order the shards by what they can do after that
// pass, not before it, or it offers node 0 the same window for ever (MaxTime
// and the watchdog count steps, so neither would end such a run).
func TestDispatchAtWindowEndKeepsDriverMoving(t *testing.T) {
	woke := func(lookahead Time) (aWoke Time) {
		e := NewEngine(Config{Nodes: 2, CPUsPerNode: 1, CtxSwitch: 2000, Lookahead: lookahead, MaxTime: 200_000})
		e.Spawn("a", 0, 0, func(p *Proc) {
			p.NotifyAt(5000)
			p.Block()
			aWoke = p.Now()
		})
		e.Spawn("b", 0, 0, func(p *Proc) {
			p.Advance(2000)
			p.NotifyAt(50_000)
			p.Block()
		})
		e.Spawn("c", 1, 0, func(p *Proc) {
			for i := 0; i < 600; i++ {
				p.Advance(100)
			}
		})
		done := make(chan error, 1)
		go func() { done <- e.Run() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("lookahead %d: %v", lookahead, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("lookahead %d: the driver is still running after 20 s", lookahead)
		}
		return aWoke
	}
	if global, windows := woke(0), woke(400); windows != global || global != 6000 {
		t.Errorf("a woke at t=%d in windows, t=%d in strict global order, want 6000 (its switch-in ends then)", windows, global)
	}
}

// TestCrossNodeEffectInsideLookaheadRefused: per-node shards rest on every
// cross-node effect taking at least the lookahead. A layer that signals or
// spawns across nodes any faster (a cluster OS) must be run with lookahead
// 0, where the same program is legal; with a lookahead the run fails at the
// first such effect, naming both processes, instead of drifting from strict
// global order.
func TestCrossNodeEffectInsideLookaheadRefused(t *testing.T) {
	for _, tc := range []struct {
		name   string
		effect func(e *Engine, p, peer *Proc)
		want   string
	}{
		{"NotifyAt", func(e *Engine, p, peer *Proc) { peer.NotifyAt(p.Now() + 399) }, "sender[1] on node 1 notifies peer[0] on node 0 for t=499, less than the lookahead (400)"},
		{"SpawnAt", func(e *Engine, p, peer *Proc) { e.SpawnAt("child", 0, 0, p.Now(), func(*Proc) {}) }, "sender[1] on node 1 spawns child[2] on node 0 for t=100, less than the lookahead (400)"},
	} {
		for _, lookahead := range []Time{0, 400} {
			e := NewEngine(Config{Nodes: 2, CPUsPerNode: 1, Lookahead: lookahead})
			peer := e.Spawn("peer", 0, 0, func(p *Proc) { p.Wait() })
			e.Spawn("sender", 1, 0, func(p *Proc) {
				p.Advance(100)
				tc.effect(e, p, peer)
				peer.NotifyAt(p.Now() + 400) // legal either way; lets peer finish
			})
			err := e.Run()
			switch {
			case lookahead == 0 && err != nil:
				t.Errorf("%s, lookahead 0: %v", tc.name, err)
			case lookahead > 0 && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("%s, lookahead %d: want an error containing %q, got %v", tc.name, lookahead, tc.want, err)
			}
		}
	}
}
