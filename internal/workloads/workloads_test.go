package workloads

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dsmsync"
	"repro/internal/sim"
)

func system(t *testing.T) *core.System {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.MaxTime = sim.Cycles(10e6) // 10 simulated seconds
	return core.Build(core.WithConfig(cfg))
}

func TestAllAppsRunSingleProcess(t *testing.T) {
	for _, app := range All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			res, err := Run(system(t), app, RunConfig{Procs: 1, Sync: MPSync})
			if err != nil {
				t.Fatal(err)
			}
			if res.Elapsed <= 0 {
				t.Fatal("no elapsed time")
			}
			if res.Stats.Loads() == 0 || res.Stats.Stores() == 0 {
				t.Fatalf("no memory traffic: %+v", res.Stats)
			}
		})
	}
}

func TestAllAppsRunParallelBothSyncStyles(t *testing.T) {
	for _, app := range All() {
		for _, sync := range []SyncStyle{MPSync, SMSync} {
			app, sync := app, sync
			t.Run(app.Name+"-"+sync.String(), func(t *testing.T) {
				res, err := Run(system(t), app, RunConfig{Procs: 8, Sync: sync})
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.ReadMisses() == 0 {
					t.Fatal("parallel run had no remote misses")
				}
				if sync == SMSync && res.Stats.LLs() == 0 {
					t.Fatal("SM sync run executed no LL/SC")
				}
			})
		}
	}
}

func TestSpeedupShape(t *testing.T) {
	// A compute-heavy app (Barnes) must speed up substantially from 1 to 8
	// processes; checking overhead must stay bounded.
	app := Barnes()
	seq, err := Run(system(t), app, RunConfig{Procs: 1, Sync: MPSync, Scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(system(t), app, RunConfig{Procs: 8, Sync: MPSync, Scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(seq.Elapsed) / float64(par.Elapsed)
	if speedup < 1.8 {
		t.Fatalf("8-process speedup = %.2f, want > 1.8", speedup)
	}
}

func TestCheckingOverheadBounded(t *testing.T) {
	// Table 3: average checking overhead about 21.7%, all apps below ~45%.
	for _, app := range All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			cfgOn := core.DefaultConfig()
			cfgOn.MaxTime = sim.Cycles(10e6)
			on, err := Run(core.Build(core.WithConfig(cfgOn)), app, RunConfig{Procs: 1, Sync: MPSync})
			if err != nil {
				t.Fatal(err)
			}
			cfgOff := cfgOn
			cfgOff.Checks = false
			off, err := Run(core.Build(core.WithConfig(cfgOff)), app, RunConfig{Procs: 1, Sync: MPSync})
			if err != nil {
				t.Fatal(err)
			}
			ovh := float64(on.Elapsed-off.Elapsed) / float64(off.Elapsed) * 100
			if ovh <= 0 || ovh > 60 {
				t.Fatalf("checking overhead %.1f%%, want within (0, 60]", ovh)
			}
		})
	}
}

func TestDeterministicWorkload(t *testing.T) {
	run := func() (sim.Time, core.Stats) {
		res, err := Run(system(t), Ocean(), RunConfig{Procs: 8, Sync: MPSync})
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed, res.Stats
	}
	e1, s1 := run()
	e2, s2 := run()
	if e1 != e2 || s1 != s2 {
		t.Fatalf("nondeterministic: %d vs %d", e1, e2)
	}
}

func TestGetByName(t *testing.T) {
	if _, ok := Get("Ocean"); !ok {
		t.Fatal("Ocean not found")
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("bogus app found")
	}
	if len(All()) != 9 {
		t.Fatalf("expected 9 apps, got %d", len(All()))
	}
}

// TestSMSyncFinishes is the liveness gate of the LL/SC path: the nine
// kernels on SM synchronization at scale 4 finish well inside a 40 M-cycle
// MaxTime in every cell of dirinval and Tardis, 8x1 Base-Shasta and 4x4
// SMP-Shasta, the optimized scheme, EmulateLLSC and PrefetchExclusive, and
// the stock SM barrier and one whose sense flip is an LL/SC sequence too
// (llscFlipBarrier): 216 cells. Its spinners read lock and sense words with
// plain loads; under Tardis they see a release only when a poll tick or an
// expiry drops their copy. A cell at MaxTime is a livelock: an SC that
// loses the grant it won, or a lost barrier-count increment, leaves every
// process spinning. A flip cell must also finish within twice its stock
// cell's cycles.
func TestSMSyncFinishes(t *testing.T) {
	const maxTime = 40_000_000
	layouts := []struct {
		name        string
		nodes, cpus int
		variant     core.ProtocolVariant
	}{{"8x1", 8, 1, core.BaseShasta()}, {"4x4", 4, 4, core.SMPShasta()}}
	schemes := []struct {
		name string
		set  func(*core.Config)
	}{
		{"optimized", func(*core.Config) {}},
		{"emulated", func(c *core.Config) { c.EmulateLLSC = true }},
		{"prefetch", func(c *core.Config) { c.PrefetchExclusive = true }},
	}
	barriers := []struct {
		name string
		make func(*core.System, int, core.AllocOptions) dsmsync.Barrier
	}{
		{"stock", newSMBarrier},
		{"llsc-flip", newLLSCFlipBarrier},
	}
	defer func(f func(*core.System, int, core.AllocOptions) dsmsync.Barrier) { newSMBarrier = f }(newSMBarrier)
	for _, proto := range []string{"dirinval", "tardis"} {
		for _, l := range layouts {
			for _, sc := range schemes {
				stock := map[string]sim.Time{}
				for _, bar := range barriers {
					newSMBarrier = bar.make
					for _, app := range All() {
						sys := core.Build(core.WithMaxTime(maxTime), core.WithProcs(l.nodes, l.cpus),
							core.WithVariant(l.variant), core.WithProtocol(proto), core.WithConfigure(sc.set))
						res, err := Run(sys, app, RunConfig{Procs: l.nodes * l.cpus, Scale: 4, Sync: SMSync})
						cell := fmt.Sprintf("%s %s %s %s %s", app.Name, proto, l.name, sc.name, bar.name)
						if err != nil {
							t.Errorf("%s: %v", cell, err)
							continue
						}
						if res.Stats.LLs() == 0 {
							t.Errorf("%s: the run executed no LL/SC", cell)
						}
						t.Logf("%s: %d cycles", cell, res.Elapsed)
						if bar.name == "stock" {
							stock[app.Name] = res.Elapsed
						} else if base := stock[app.Name]; base > 0 && res.Elapsed > 2*base {
							t.Errorf("%s: %d cycles, more than twice the stock barrier's %d", cell, res.Elapsed, base)
						}
					}
				}
			}
		}
	}
}

// llscFlipBarrier is dsmsync.SMBarrier with the last arrival's sense flip
// made an LL/SC sequence, retried with a poll and backoff as the arrival
// loop is.
type llscFlipBarrier struct {
	count, sense uint64
	n            int
}

func newLLSCFlipBarrier(sys *core.System, n int, opts core.AllocOptions) dsmsync.Barrier {
	return &llscFlipBarrier{count: sys.Alloc(8, opts), sense: sys.Alloc(8, opts), n: n}
}

func (b *llscFlipBarrier) Wait(p *core.Proc) {
	sense := p.Load(b.sense)
	p.MemBar()
	llsc := func(addr uint64, next func(uint64) uint64) uint64 {
		backoff := sim.Time(200)
		for {
			v := p.LoadLocked(addr)
			if p.StoreCond(addr, next(v)) {
				return v
			}
			p.Poll()
			p.Compute(backoff)
			if backoff < 6000 {
				backoff *= 2
			}
		}
	}
	if llsc(b.count, func(v uint64) uint64 { return v + 1 })+1 == uint64(b.n) {
		p.Store(b.count, 0)
		p.MemBar()
		llsc(b.sense, func(uint64) uint64 { return 1 - sense })
		p.MemBar()
		return
	}
	for p.Load(b.sense) == sense {
		p.Compute(320)
	}
	p.MemBar()
}
