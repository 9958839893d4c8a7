package sim_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/sim/parallel"
)

// TestNoGoroutineLeak checks that an engine leaves no goroutine behind
// however its run ends, and none at all if it is built and never run: a
// process's coroutine is created at its first resume and unwound by Run's
// drain. The failing scenarios also leave a bystander suspended in mid-body,
// which drain must unwind, and a late starter that (the deadlock apart)
// never gets to run.
func TestNoGoroutineLeak(t *testing.T) {
	var errFail = errors.New("failed on purpose")
	scenarios := []struct {
		name    string
		cfg     sim.Config
		run     bool
		wantErr string // substring of Run's error; empty for success
		body    func(p *sim.Proc)
	}{
		{name: "normal completion", run: true, body: func(p *sim.Proc) { p.Advance(100) }},
		{name: "deadlock", run: true, wantErr: "deadlock", body: func(p *sim.Proc) { p.Wait() }},
		{name: "guest panic", run: true, wantErr: "boom", body: func(p *sim.Proc) { p.Advance(10); panic("boom") }},
		{name: "MaxTime", cfg: sim.Config{MaxTime: 5000}, run: true, wantErr: "MaxTime", body: func(p *sim.Proc) {
			for {
				p.Advance(100)
			}
		}},
		{name: "Proc.Fail", run: true, wantErr: errFail.Error(), body: func(p *sim.Proc) { p.Advance(10); p.Fail(errFail) }},
		{name: "watchdog stall", cfg: sim.Config{WatchdogCycles: 1000, WatchdogIters: 2000}, run: true, wantErr: "stall watchdog", body: func(p *sim.Proc) {
			for {
				p.NotifyAt(p.Now())
				p.Wait()
			}
		}},
		{name: "build without run", body: func(p *sim.Proc) { p.Advance(100) }},
	}
	for _, sc := range scenarios {
		for _, drv := range []struct {
			name      string
			lookahead sim.Time
			runner    sim.Runner
		}{{"one shard", 0, nil}, {"per-node shards", 500, nil}, {"parallel", 500, parallel.New(2)}} {
			t.Run(sc.name+"/"+drv.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				cfg := sc.cfg
				cfg.Nodes, cfg.CPUsPerNode = 2, 2
				cfg.Lookahead = drv.lookahead
				e := sim.NewEngine(cfg)
				e.SetRunner(drv.runner)
				cleaned := false
				if sc.wantErr != "" {
					// Spawned first: of the processes ready at time 0 the
					// lowest ID runs first.
					e.Spawn("bystander", 1, 0, func(p *sim.Proc) {
						defer func() {
							cleaned = true
							p.NotifyAt(p.Now() + 10) // a cleanup that blocks is unwound too
							p.Block()
						}()
						p.Wait()
					})
					e.SpawnAt("late", 2, 0, 1<<40, func(p *sim.Proc) {})
				}
				e.Spawn("subject", 0, 0, sc.body)
				if sc.run {
					err := e.Run()
					if sc.wantErr == "" && err != nil {
						t.Fatal(err)
					}
					if sc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), sc.wantErr)) {
						t.Fatalf("Run: %v, want an error containing %q", err, sc.wantErr)
					}
					if sc.wantErr != "" && !cleaned {
						t.Error("drain did not unwind the suspended bystander")
					}
				}
				// The parallel runner's pool exits on its own after Run returns.
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > base {
					buf := make([]byte, 1<<16)
					t.Errorf("%d goroutines, %d before the engine was built\n%s", n, base, buf[:runtime.Stack(buf, true)])
				}
			})
		}
	}
}
