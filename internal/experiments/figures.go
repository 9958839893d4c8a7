package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// runCapped bounds parallel speedup runs: heavily contended SM-sync runs
// at 16 processors can slow down catastrophically (the paper's Raytrace
// loses 78%); a capped run reports the cap as its elapsed time, making the
// printed speedup a lower bound.
func runCapped(cfg core.Config, app *workloads.App, rc workloads.RunConfig) (sim.Time, bool, error) {
	cfg.MaxTime = sim.Cycles(150e6)
	res, err := workloads.Run(build(cfg), app, rc)
	if err != nil {
		if strings.Contains(err.Error(), "MaxTime") {
			return sim.Cycles(150e6), true, nil
		}
		return 0, false, err
	}
	return res.Elapsed, false, nil
}

// Figure3 reproduces the SPLASH-2 speedup curves: each application from 1
// to 16 processors, once with message-passing synchronization (left graph)
// and once with transparent Alpha LL/SC+MB synchronization (right graph).
// Speedups are relative to the original sequential binary (no checks).
func Figure3() *Table {
	t := &Table{
		Title:   "Figure 3: SPLASH-2 speedups (vs. original sequential run)",
		Columns: []string{"application", "sync", "P=1", "P=2", "P=4", "P=8", "P=16"},
		Notes: []string{
			"paper: most apps scale to 8-12x at 16 processors with MP sync;",
			"with native Alpha sync, Raytrace/Volrend/Ocean slow down 78%/50%/34%",
		},
	}
	counts := []int{1, 2, 4, 8, 16}
	for _, app := range workloads.All() {
		// Sequential baseline: un-instrumented binary.
		cfg := baseConfig()
		cfg.Checks = false
		seq, err := workloads.Run(build(cfg), app, workloads.RunConfig{Procs: 1})
		if err != nil {
			panic(err)
		}
		for _, sync := range []workloads.SyncStyle{workloads.MPSync, workloads.SMSync} {
			row := []string{app.Name, sync.String()}
			for _, p := range counts {
				elapsed, capped, err := runCapped(baseConfig(), app, workloads.RunConfig{Procs: p, Sync: sync})
				if err != nil {
					panic(fmt.Sprintf("figure3 %s %v P=%d: %v", app.Name, sync, p, err))
				}
				v := speedupStr(float64(seq.Elapsed) / float64(elapsed))
				if capped {
					v = "<" + v // run hit the simulation cap; lower bound
				}
				row = append(row, v)
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Figure4 reproduces the consistency-model comparison: 16-processor
// Base-Shasta runs with non-blocking stores (RC) and blocking stores (SC),
// with execution-time breakdowns. The paper's point: the loss from
// sequential consistency is at most ~10% because coherence is fine-grained.
func Figure4() *Table {
	t := &Table{
		Title:   "Figure 4: RC vs SC, 16-processor Base-Shasta runs (normalized to RC=100)",
		Columns: []string{"application", "model", "task", "read", "write", "sync", "mb", "msg", "total"},
		Notes: []string{
			"paper: SC at most ~10% slower than RC across SPLASH-2",
		},
	}
	for _, app := range workloads.All() {
		var rcTotal float64
		for _, model := range []core.ConsistencyModel{core.ReleaseConsistent, core.SequentiallyConsistent} {
			cfg := baseConfig()
			cfg.SMP = false // Base-Shasta, as in the paper's Figure 4
			cfg.Consistency = model
			res, err := workloads.Run(build(cfg), app, workloads.RunConfig{Procs: 16, Sync: workloads.MPSync})
			if err != nil {
				panic(fmt.Sprintf("figure4 %s %v: %v", app.Name, model, err))
			}
			st := res.Stats
			if model == core.ReleaseConsistent {
				rcTotal = float64(st.Busy())
			}
			norm := func(c core.TimeCategory) string {
				return fmt.Sprintf("%.0f", float64(st.Time[c])/rcTotal*100)
			}
			task := float64(st.Time[core.CatTask]+st.Time[core.CatCheck]+st.Time[core.CatPoll]) / rcTotal * 100
			t.Rows = append(t.Rows, []string{
				app.Name, model.String(),
				fmt.Sprintf("%.0f", task),
				norm(core.CatReadStall), norm(core.CatWriteStall),
				norm(core.CatSyncStall), norm(core.CatMBStall), norm(core.CatMessage),
				fmt.Sprintf("%.0f", float64(st.Busy())/rcTotal*100),
			})
		}
	}
	return t
}

// SpeedupSeries returns the Figure 3 series for one application (used by
// the example programs and benchmarks).
func SpeedupSeries(appName string, sync workloads.SyncStyle, counts []int) ([]float64, error) {
	app, ok := workloads.Get(appName)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown app %q", appName)
	}
	cfg := baseConfig()
	cfg.Checks = false
	seq, err := workloads.Run(build(cfg), app, workloads.RunConfig{Procs: 1})
	if err != nil {
		return nil, err
	}
	var out []float64
	for _, p := range counts {
		elapsed, _, err := runCapped(baseConfig(), app, workloads.RunConfig{Procs: p, Sync: sync})
		if err != nil {
			return nil, err
		}
		out = append(out, float64(seq.Elapsed)/float64(elapsed))
	}
	return out, nil
}
