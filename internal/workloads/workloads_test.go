package workloads

import (
	"testing"

	"repro/internal/core"
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

// TestTardisSMSyncFinishes: the nine kernels with LL/SC locks and barriers
// finish on Tardis at scale 4, on 8x1 Base-Shasta and 4x4 SMP-Shasta, well
// inside MaxTime. Their spinners read lock and sense words with plain loads
// and see a release only when a poll tick or an expiry drops their copy; a
// lease rule that lets a spinner's copy outlive its poll ticks sends a run to
// MaxTime (LL/SC Ocean on 8x1 with leases capped at 128 did).
func TestTardisSMSyncFinishes(t *testing.T) {
	layouts := []struct {
		name        string
		nodes, cpus int
		variant     core.ProtocolVariant
	}{{"8x1", 8, 1, core.BaseShasta()}, {"4x4", 4, 4, core.SMPShasta()}}
	for _, l := range layouts {
		for _, app := range All() {
			sys := core.Build(core.WithMaxTime(400_000_000), core.WithProcs(l.nodes, l.cpus),
				core.WithVariant(l.variant), core.WithProtocol("tardis"))
			res, err := Run(sys, app, RunConfig{Procs: l.nodes * l.cpus, Scale: 4, Sync: SMSync})
			if err != nil {
				t.Errorf("%s %s: %v", l.name, app.Name, err)
				continue
			}
			if res.Stats.LLs() == 0 {
				t.Errorf("%s %s: the run executed no LL/SC", l.name, app.Name)
			}
		}
	}
}
