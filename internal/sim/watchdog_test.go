package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestWatchdogNotifyLivelock drives two processes that ping-pong
// notifications forever without ever doing charged work: simulated time
// creeps forward but nothing progresses. The all-blocked deadlock check
// cannot see this; the watchdog must.
func TestWatchdogNotifyLivelock(t *testing.T) {
	e := NewEngine(Config{Nodes: 1, CPUsPerNode: 2, WatchdogCycles: 100000})
	tr := trace.New(64, nil)
	e.SetTracer(tr)
	e.SetDumpHook(func() string { return "hook-state" })
	var a, b *Proc
	a = e.Spawn("ping", 0, 0, func(p *Proc) {
		for {
			b.NotifyAt(p.Now() + 10)
			p.Wait()
		}
	})
	b = e.Spawn("pong", 1, 0, func(p *Proc) {
		for {
			a.NotifyAt(p.Now() + 10)
			p.Wait()
		}
	})
	err := e.Run()
	if err == nil {
		t.Fatal("watchdog did not fire on a notify livelock")
	}
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("want StallError, got %T: %v", err, err)
	}
	if se.At > 10*100000 {
		t.Errorf("watchdog fired late: t=%d for budget %d", se.At, se.Budget)
	}
	if len(se.Procs) != 2 {
		t.Errorf("dump should list both live procs, got %v", se.Procs)
	}
	msg := err.Error()
	for _, want := range []string{"ping", "pong", "hook-state", "cpu0", "trace events"} {
		if !strings.Contains(msg, want) {
			t.Errorf("stall dump missing %q:\n%s", want, msg)
		}
	}
}

// TestMaxTimeSaysWhere: a run in which one process is stuck while another
// keeps working is no stall, so it spins to MaxTime; that error must carry the
// dump hook's protocol state, as a StallError does.
func TestMaxTimeSaysWhere(t *testing.T) {
	e := NewEngine(Config{Nodes: 1, CPUsPerNode: 2, MaxTime: 1_000_000, WatchdogCycles: 100_000})
	e.SetDumpHook(func() string { return "hook-state" })
	e.Spawn("stuck", 0, 0, func(p *Proc) { p.Wait() })
	e.Spawn("busy", 1, 0, func(p *Proc) {
		for {
			p.Advance(1000)
		}
	})
	err := e.Run()
	var over *MaxTimeError
	if !errors.As(err, &over) {
		t.Fatalf("want MaxTimeError, got %T: %v", err, err)
	}
	if over.Proc != "busy" || over.At <= over.MaxTime || over.Extra != "hook-state" {
		t.Errorf("MaxTimeError %+v: want proc busy past %d with the hook's dump", *over, over.MaxTime)
	}
	if msg := err.Error(); !strings.Contains(msg, "exceeded MaxTime 1000000 at proc busy") || !strings.HasSuffix(msg, "\nhook-state") {
		t.Errorf("message does not say where:\n%s", msg)
	}
}

// TestWatchdogZeroTimeLivelock spins a process that never advances its clock
// at all; the iteration bound must catch it even though simulated time is
// frozen.
func TestWatchdogZeroTimeLivelock(t *testing.T) {
	e := NewEngine(Config{Nodes: 1, CPUsPerNode: 1, WatchdogCycles: 1000, WatchdogIters: 5000})
	yieldForever := func(p *Proc) {
		for {
			p.NotifyAt(p.Now())
			p.Wait()
		}
	}
	e.Spawn("spin", 0, 0, yieldForever)
	e.Spawn("other", 0, 0, yieldForever)
	err := e.Run()
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("want StallError, got %v", err)
	}
	if se.Iters < 5000 {
		t.Errorf("expected iteration-bound trigger, got iters=%d", se.Iters)
	}
}

// TestWatchdogQuietWhenProgressing runs a normal workload with a tight
// watchdog and checks it never fires while real work happens, including
// across long Block gaps shorter than the budget.
func TestWatchdogQuietWhenProgressing(t *testing.T) {
	e := NewEngine(Config{Nodes: 1, CPUsPerNode: 2, Quantum: 1000, WatchdogCycles: 50000})
	var worker *Proc
	worker = e.Spawn("worker", 0, 0, func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Advance(400)
		}
	})
	e.Spawn("sleeper", 1, 0, func(p *Proc) {
		for i := 0; i < 3; i++ {
			sleep(p, 10000) // long gaps, but the worker keeps advancing
		}
		_ = worker
	})
	if err := e.Run(); err != nil {
		t.Fatalf("watchdog misfired on a progressing run: %v", err)
	}
}

// TestWatchdogShardTripCheckedAgainstGlobalProgress: on per-node shards the
// watchdog trips on a shard's own progress mark. A node whose only process
// sleeps a little longer than the budget trips at every wake-up, but the
// other node keeps charging work, so there is no stall: the built-in driver
// must check the trip against global progress and carry on, as strict
// global order (one progress mark) does.
func TestWatchdogShardTripCheckedAgainstGlobalProgress(t *testing.T) {
	const budget = 10_000
	for _, lookahead := range []Time{0, 500} {
		e := NewEngine(Config{Nodes: 2, CPUsPerNode: 1, Lookahead: lookahead, WatchdogCycles: budget})
		e.Spawn("busy", 0, 0, func(p *Proc) {
			for i := 0; i < 2000; i++ {
				p.Advance(100) // global progress through t=200000
			}
		})
		e.Spawn("napper", 1, 0, func(p *Proc) {
			for i := 0; i < 10; i++ {
				sleep(p, budget+2000) // every wake is past the node's own mark
				p.Advance(1)
			}
		})
		if err := e.Run(); err != nil {
			t.Errorf("lookahead %d: watchdog misfired while another node was making progress: %v", lookahead, err)
		}
	}
}

// TestWatchdogLivelockSameOnShards: a genuine livelock — one node's work
// ends, the other's process keeps waking without ever charging any — fails
// with the same StallError, dump included, in strict global order and on
// per-node shards. (All but the iteration count, which a shard starts again
// each time its trip turns out to be a false alarm.)
func TestWatchdogLivelockSameOnShards(t *testing.T) {
	stall := func(lookahead Time) *StallError {
		e := NewEngine(Config{Nodes: 2, CPUsPerNode: 1, Lookahead: lookahead, WatchdogCycles: 20_000})
		e.Spawn("worker", 0, 0, func(p *Proc) {
			for i := 0; i < 50; i++ {
				p.Advance(100)
			}
			p.Wait() // parks forever, live for the dump
		})
		e.Spawn("drifter", 1, 0, func(p *Proc) {
			for {
				sleep(p, 1000)
			}
		})
		var se *StallError
		if err := e.Run(); !errors.As(err, &se) {
			t.Fatalf("lookahead %d: want StallError, got %v", lookahead, err)
		}
		return se
	}
	global, sharded := stall(0), stall(500)
	if global.LastProgress != 5000 || global.At != 26_000 {
		t.Errorf("strict global order: stall at t=%d after progress at t=%d, want 26000 and 5000", global.At, global.LastProgress)
	}
	sharded.Iters = global.Iters
	if global.Error() != sharded.Error() {
		t.Errorf("per-node shards report a different stall:\n%v\nstrict global order:\n%v", sharded, global)
	}
}

// TestWatchdogParkedWorkIsProgress: a process that works for three times the
// watchdog's budget is not a stall. It cannot run through (a peer could act
// first), so it parks, and a park is charged work: built from NotifyAt and
// Wait instead, the same program trips the watchdog at the first wake a
// whole budget after anybody last charged anything. The peers are a napper
// that keeps waking without charging while the worker is parked, in the
// worker's shard or in another (the trip must look at the parked worker), or
// a single nap that leaves the worker to wake alone long after (the wake
// must count the work it ends).
func TestWatchdogParkedWorkIsProgress(t *testing.T) {
	const budget = 10_000
	run := func(lookahead Time, peerCPU, naps int, nap Time, work func(p *Proc, c Time)) (*Engine, error) {
		cfg := Config{Nodes: 2, CPUsPerNode: 2, Lookahead: lookahead, WatchdogCycles: budget}
		if lookahead == 0 || peerCPU < 2 {
			// In the worker's shard a hundred naps are also more steps
			// without a charge than this allows, well inside the budget of
			// cycles. (Another shard counts its own, as it always did.)
			cfg.WatchdogIters = 30
		}
		e := NewEngine(cfg)
		e.Spawn("worker", 0, 0, func(p *Proc) {
			p.Advance(1)
			work(p, 3*budget)
			p.Advance(1)
		})
		e.Spawn("napper", peerCPU, 0, func(p *Proc) {
			for i := 0; i < naps; i++ {
				sleep(p, nap)
			}
		})
		return e, e.Run()
	}
	for _, lookahead := range []Time{0, 500} {
		for _, peerCPU := range []int{1, 2} {
			for _, naps := range []int{1, 100} {
				name := fmt.Sprintf("lookahead %d, napper on cpu %d, %d naps", lookahead, peerCPU, naps)
				e, err := run(lookahead, peerCPU, naps, 3*budget/2/Time(naps), func(p *Proc, c Time) {
					for c > 0 {
						c -= p.AdvanceUnlessNotified(c)
					}
				})
				if err != nil {
					t.Errorf("%s: watchdog misfired on parked work: %v", name, err)
				}
				if c := e.SchedCounters(); c.Parks != 1 || c.EarlyWakes != 0 {
					t.Errorf("%s: %d parks, %d early wakes, want 1 and 0", name, c.Parks, c.EarlyWakes)
				}
				if w := e.Procs()[0]; w.Now() != 3*budget+2 {
					t.Errorf("%s: worker finished at t=%d, want %d", name, w.Now(), 3*budget+2)
				}
				_, err = run(lookahead, peerCPU, naps, 3*budget/2/Time(naps), func(p *Proc, c Time) {
					p.NotifyAt(p.Now() + c)
					p.Wait()
				})
				var se *StallError
				if !errors.As(err, &se) {
					t.Errorf("%s: a park built from NotifyAt and Wait should trip the watchdog, got %v", name, err)
				}
			}
		}
	}
}

// TestAdvanceUnlessNotified pins what the primitive returns: the whole
// stretch when nobody notifies, the part before a notification otherwise —
// one that was pending at the call included — and the same whether the
// process parks (a peer could act first) or runs straight through.
func TestAdvanceUnlessNotified(t *testing.T) {
	for _, peer := range []bool{false, true} {
		e := NewEngine(Config{Nodes: 1, CPUsPerNode: 2})
		var got []Time
		w := e.Spawn("worker", 0, 0, func(p *Proc) {
			got = append(got, p.AdvanceUnlessNotified(1000)) // notified for t=400 on the way
			got = append(got, p.AdvanceUnlessNotified(1000)) // nobody notifies
			p.NotifyAt(p.Now() + 250)
			got = append(got, p.AdvanceUnlessNotified(1000)) // pending at the call
			got = append(got, p.AdvanceUnlessNotified(0))
		})
		w.NotifyAt(400)
		if peer {
			e.Spawn("peer", 1, 0, func(p *Proc) {
				for i := 0; i < 30; i++ {
					p.Advance(100)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if want := []Time{400, 1000, 250, 0}; !equalTimes(got, want) || w.Now() != 1650 {
			t.Errorf("peer %v: charged %v, finished at t=%d, want %v and 1650", peer, got, w.Now(), want)
		}
		if c := e.SchedCounters(); peer != (c.Parks > 0) || peer != (c.EarlyWakes > 0) {
			t.Errorf("peer %v: %d parks, %d early wakes", peer, c.Parks, c.EarlyWakes)
		}
	}
}

func equalTimes(a, b []Time) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestExternalProcCannotPark: an external process has no scheduler to park
// with. Outside its body — a stretch it cannot run straight through, or a
// wait from the driving goroutine while the body is parked, as a handler the
// model checker runs would — an attempt to block fails by name. Its body
// may block: Step returns there and the next Step resumes it, a panic in it
// reaches Step's caller, and Stop unwinds it.
func TestExternalProcCannotPark(t *testing.T) {
	recovered := func(f func()) (r any) {
		defer func() { r = recover() }()
		f()
		return nil
	}
	cannotPark := func(name string, f func()) {
		t.Helper()
		if r, _ := recovered(f).(string); !strings.Contains(r, "external process "+name+" attempted to block") {
			t.Errorf("want the external-process panic, got %q", r)
		}
	}
	e := NewEngine(Config{Nodes: 1, CPUsPerNode: 1})
	p := e.ExternalProc("mc0", 0, nil)
	if got := p.AdvanceUnlessNotified(500); got != 500 || p.Now() != 500 {
		t.Errorf("external process charged %d to t=%d, want 500 and 500", got, p.Now())
	}
	cannotPark("mc0", func() { p.AdvanceUnlessNotified(Forever) })

	steps, unwound := 0, false
	q := e.ExternalProc("mc1", 0, func(q *Proc) {
		defer func() { unwound = true }()
		for {
			steps++
			q.Wait()
		}
	})
	q.Step()
	q.Step()
	if steps != 2 {
		t.Errorf("two Steps ran the body's loop %d times", steps)
	}
	cannotPark("mc1", q.Wait)
	q.Stop()
	if !unwound {
		t.Error("Stop did not unwind the parked body")
	}
	boom := e.ExternalProc("mc2", 0, func(*Proc) { panic("boom") })
	if r := recovered(boom.Step); r != "boom" {
		t.Errorf("Step of a panicking body: recovered %v, want boom", r)
	}
}
