package parallel_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/parallel"
	"repro/internal/trace"
)

// serveRig runs one two-node engine, a process to a node, on one of the
// three drivers: the built-in one (workers < 0), or parallel.New(workers).
// Each shard traces into a buffer of its own, merged at every barrier as
// the DSM layer does, so that the exit events can be read after the run.
type serveRig struct {
	e      *sim.Engine
	par    bool
	mb     mailbox
	shards []*trace.Tracer
	events []trace.Event
}

func newServeRig(cfg sim.Config, workers int) *serveRig {
	cfg.Nodes, cfg.CPUsPerNode, cfg.Lookahead = 2, 1, lookahead
	r := &serveRig{e: sim.NewEngine(cfg), par: workers >= 0}
	r.shards = []*trace.Tracer{trace.NewBuffer(), trace.NewBuffer()}
	r.e.SetShardTracers(r.shards)
	if r.par {
		r.e.SetRunner(parallel.New(workers))
		r.e.SetBarrierHook(func() { r.mb.commit(); r.merge() })
	}
	return r
}

// notify wakes dst a lookahead after the sender's clock, staged for the
// barrier under a Runner.
func (r *serveRig) notify(from *sim.Proc, dst *sim.Proc) {
	if r.par {
		r.mb.send(dst, from.Now()+lookahead, from.ID)
	} else {
		dst.NotifyAt(from.Now() + lookahead)
	}
}

func (r *serveRig) merge() {
	for _, tr := range r.shards {
		tr.DrainBuffered(func(ev trace.Event) { r.events = append(r.events, ev) })
	}
}

func (r *serveRig) run() error {
	err := r.e.Run()
	r.merge()
	return err
}

// exits maps each process name to the clock of its sched exit event.
func (r *serveRig) exits(t *testing.T) map[string]sim.Time {
	t.Helper()
	got := map[string]sim.Time{}
	for _, ev := range r.events {
		if ev.Cat == "sched" && ev.Ev == "exit" {
			if _, dup := got[ev.S]; dup {
				t.Errorf("%s exits twice", ev.S)
			}
			got[ev.S] = sim.Time(ev.T)
		}
	}
	return got
}

// forEachDriver runs f on the built-in driver, parallel.New(1) and
// parallel.New(2).
func forEachDriver(t *testing.T, f func(t *testing.T, workers int)) {
	for _, workers := range []int{-1, 1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { f(t, workers) })
	}
}

// TestIdleServerEndsTheRun: a server parked in Serve with no wake pending
// has nothing left to do, so Run returns nil once the other process exits,
// and the server gets its exit event at its own clock.
func TestIdleServerEndsTheRun(t *testing.T) {
	forEachDriver(t, func(t *testing.T, workers int) {
		r := newServeRig(sim.Config{}, workers)
		r.e.Spawn("server", 0, 0, func(p *sim.Proc) {
			p.Advance(10)
			p.Serve()
			t.Error("an idle server was resumed")
		})
		r.e.Spawn("app", 1, 0, func(p *sim.Proc) { p.Advance(1000) })
		if err := r.run(); err != nil {
			t.Fatal(err)
		}
		if got, want := r.exits(t), map[string]sim.Time{"server": 10, "app": 1000}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("exit events at %v, want %v", got, want)
		}
	})
}

// TestServerRunsPendingWakeFirst: a server parked with a wake pending is not
// idle; the run ends only after that wake has run and the server parked
// again with none.
func TestServerRunsPendingWakeFirst(t *testing.T) {
	forEachDriver(t, func(t *testing.T, workers int) {
		r := newServeRig(sim.Config{}, workers)
		woke := sim.Time(-1)
		r.e.Spawn("server", 0, 0, func(p *sim.Proc) {
			p.Advance(10)
			p.NotifyAt(5000)
			p.Serve()
			woke = p.Now()
			p.Serve()
		})
		r.e.Spawn("app", 1, 0, func(p *sim.Proc) { p.Advance(1000) })
		if err := r.run(); err != nil {
			t.Fatal(err)
		}
		if woke != 5000 {
			t.Errorf("the server woke at %d, want 5000", woke)
		}
		if got := r.exits(t)["server"]; got != 5000 {
			t.Errorf("the server exits at %d, want 5000", got)
		}
	})
}

// TestDeadlockBesideIdleServer: a process that waits for ever is still a
// deadlock when the only other process is an idle server, and the error
// names the waiter alone.
func TestDeadlockBesideIdleServer(t *testing.T) {
	forEachDriver(t, func(t *testing.T, workers int) {
		r := newServeRig(sim.Config{}, workers)
		r.e.Spawn("server", 0, 0, func(p *sim.Proc) { p.Serve() })
		r.e.Spawn("app", 1, 0, func(p *sim.Proc) { p.Advance(100); p.Wait() })
		err := r.run()
		if err == nil || !strings.Contains(err.Error(), "sim: deadlock, 1 processes stuck") ||
			!strings.Contains(err.Error(), "app[1]") || strings.Contains(err.Error(), "server") {
			t.Fatalf("got %v, want a deadlock naming app alone", err)
		}
	})
}

// TestIdleServerTripsNoLimit: a server that serves one notification and
// then stays parked for longer than the watchdog's budget, while the other
// process works to just below MaxTime, trips neither.
func TestIdleServerTripsNoLimit(t *testing.T) {
	forEachDriver(t, func(t *testing.T, workers int) {
		r := newServeRig(sim.Config{MaxTime: 3000, WatchdogCycles: 300}, workers)
		served := 0
		server := r.e.Spawn("server", 0, 0, func(p *sim.Proc) {
			for {
				p.Serve()
				served++
			}
		})
		r.e.Spawn("app", 1, 0, func(p *sim.Proc) {
			p.Advance(100)
			r.notify(p, server)
			for p.Now() < 2900 {
				p.Advance(100)
			}
		})
		if err := r.run(); err != nil {
			t.Fatal(err)
		}
		if got, want := r.exits(t), map[string]sim.Time{"server": 100 + lookahead, "app": 2900}; served != 1 || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("served %d, exit events at %v; want 1 and %v", served, got, want)
		}
	})
}
