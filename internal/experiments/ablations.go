package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dsmsync"
	"repro/internal/rewriter"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// runApp runs one workload under a config and returns the result.
func runApp(cfg core.Config, appName string, rc workloads.RunConfig) *workloads.Result {
	app, ok := workloads.Get(appName)
	if !ok {
		panic("experiments: unknown app " + appName)
	}
	res, err := workloads.Run(build(cfg), app, rc)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", appName, err))
	}
	return res
}

// AblationFlagCheck compares the flag-technique load check (§2.2) against
// full state-table load checks on a read-heavy kernel.
func AblationFlagCheck() *Table {
	t := &Table{
		Title:   "Ablation: invalid-flag load check (§2.2)",
		Columns: []string{"flag check", "seq elapsed (ms)", "false misses"},
		Notes:   []string{"the flag compare shortens the common load-check path from ~7 to ~3 instructions"},
	}
	for _, on := range []bool{true, false} {
		cfg := baseConfig()
		cfg.FlagCheck = on
		res := runApp(cfg, "Water-Nsq", workloads.RunConfig{Procs: 1})
		t.Rows = append(t.Rows, []string{fmt.Sprint(on), ms(res.Elapsed), fmt.Sprint(res.Stats.FalseMisses())})
	}
	return t
}

// AblationBatching compares batched against per-access checks on a
// batch-friendly kernel (LU-Contiguous).
func AblationBatching() *Table {
	t := &Table{
		Title:   "Ablation: batched miss checks (§2.2)",
		Columns: []string{"run", "elapsed (ms)", "checks", "batched checks"},
	}
	// Batching is a property of the rewritten code; the workloads encode
	// it via BatchStart. Compare LU-Contig (batched) against LU (same
	// computation shape, unbatched accesses).
	for _, name := range []string{"LU-Contig", "LU"} {
		res := runApp(baseConfig(), name, workloads.RunConfig{Procs: 8})
		t.Rows = append(t.Rows, []string{
			name, ms(res.Elapsed),
			fmt.Sprint(res.Stats.LoadChecks() + res.Stats.StoreChecks()),
			fmt.Sprint(res.Stats.BatchChecks()),
		})
	}
	return t
}

// AblationPrefetchExclusive measures §3.1.2/§6.4: the prefetch before
// LL/SC loops helps uncontended lock transfers (one miss instead of two)
// but can hurt by up to ~20% under contention.
func AblationPrefetchExclusive() *Table {
	t := &Table{
		Title:   "Ablation: prefetch-exclusive before LL/SC (§3.1.2)",
		Columns: []string{"scenario", "prefetch off (us)", "prefetch on (us)"},
		Notes:   []string{"paper: 3-7% faster for lock-intensive apps, up to 20% slower under contention"},
	}
	t.Rows = append(t.Rows, []string{
		"uncontended remote acquire",
		usf(lockLatencyWithPrefetch(false, "remote")),
		usf(lockLatencyWithPrefetch(true, "remote")),
	})
	t.Rows = append(t.Rows, []string{
		"contended acquire",
		usf(lockLatencyWithPrefetch(false, "contended")),
		usf(lockLatencyWithPrefetch(true, "contended")),
	})
	return t
}

func lockLatencyWithPrefetch(prefetch bool, scenario string) float64 {
	return lockLatency(true, prefetch, scenario)
}

// AblationLineSize compares 64- and 128-byte coherence lines (§2.1).
func AblationLineSize() *Table {
	t := &Table{
		Title:   "Ablation: line size 64 vs 128 bytes (§2.1)",
		Columns: []string{"line size", "elapsed (ms)", "remote read misses"},
		Notes:   []string{"bigger lines amortize misses on dense data but raise false-sharing risk"},
	}
	for _, ls := range []int{64, 128} {
		cfg := baseConfig()
		cfg.LineSize = ls
		res := runApp(cfg, "Ocean", workloads.RunConfig{Procs: 8})
		t.Rows = append(t.Rows, []string{fmt.Sprint(ls), ms(res.Elapsed), fmt.Sprint(res.Stats.ReadMisses())})
	}
	return t
}

// AblationSMP compares SMP-Shasta against Base-Shasta on the same cluster
// (§2.3: up to 2x from hardware sharing within nodes).
func AblationSMP() *Table {
	t := &Table{
		Title:   "Ablation: SMP-Shasta vs Base-Shasta (§2.3)",
		Columns: []string{"application", "Base (ms)", "SMP (ms)", "speedup", "Base misses", "SMP misses"},
	}
	for _, name := range []string{"Ocean", "Water-Nsq"} {
		cfgB := baseConfig()
		cfgB.SMP = false
		b := runApp(cfgB, name, workloads.RunConfig{Procs: 8})
		cfgS := baseConfig()
		s := runApp(cfgS, name, workloads.RunConfig{Procs: 8})
		t.Rows = append(t.Rows, []string{
			name, ms(b.Elapsed), ms(s.Elapsed),
			fmt.Sprintf("%.2fx", float64(b.Elapsed)/float64(s.Elapsed)),
			fmt.Sprint(b.Stats.ReadMisses() + b.Stats.WriteMisses()),
			fmt.Sprint(s.Stats.ReadMisses() + s.Stats.WriteMisses()),
		})
	}
	return t
}

// AblationSharedQueues shows the §4.3.2 shared message queues: without
// them, requests to descheduled processes wait out full scheduling quanta.
func AblationSharedQueues() *Table {
	t := &Table{
		Title:   "Ablation: shared message queues (§4.3.2), oversubscribed node",
		Columns: []string{"shared queues", "elapsed (ms)"},
		Notes:   []string{"two processes per CPU; without shared queues a request can wait a whole quantum"},
	}
	for _, on := range []bool{true, false} {
		cfg := baseConfig()
		cfg.SharedQueues = on
		cfg.MaxTime = sim.Cycles(3000e6)
		elapsed := oversubscribedRun(cfg)
		t.Rows = append(t.Rows, []string{fmt.Sprint(on), ms(elapsed)})
	}
	return t
}

// oversubscribedRun puts two worker processes on each of two CPUs (on
// different nodes) sharing one counter under an SM lock.
func oversubscribedRun(cfg core.Config) sim.Time {
	s := build(cfg)
	const nproc = 4
	cpus := []int{0, 0, cfg.CPUsPerNode, cfg.CPUsPerNode}
	var lk dsmsync.Lock
	var addr uint64
	bar := dsmsync.NewMPBarrier(s, 0, nproc)
	var procs []*core.Proc
	for i := 0; i < nproc; i++ {
		procs = append(procs, s.Spawn("w", cpus[i], func(p *core.Proc) {
			if p.ID == 0 {
				addr = s.Alloc(64, core.AllocOptions{Home: core.HomeAt(0)})
				lk = dsmsync.NewSMLock(s, core.AllocOptions{Home: core.HomeAt(0)})
				p.MemBar()
			}
			bar.Wait(p)
			for k := 0; k < 15; k++ {
				lk.Acquire(p)
				p.Store(addr, p.Load(addr)+1)
				p.MemBar()
				lk.Release(p)
				p.Compute(4000)
			}
			bar.Wait(p)
		}))
	}
	if err := s.Run(); err != nil {
		panic(err)
	}
	var end sim.Time
	for _, p := range procs {
		if t := p.Stats().Total(); t > end {
			end = t
		}
	}
	return end
}

// AblationEmulatedLLSC compares the optimized LL/SC scheme against the
// conservative lock-flag emulation (§3.1.2 footnote).
func AblationEmulatedLLSC() *Table {
	t := &Table{
		Title:   "Ablation: optimized LL/SC vs lock-flag emulation (§3.1.2)",
		Columns: []string{"scheme", "uncontended remote acquire (us)"},
	}
	for _, emu := range []bool{false, true} {
		cfg := baseConfig()
		cfg.EmulateLLSC = emu
		lat := lockLatencyCfg(cfg, "remote")
		name := "optimized"
		if emu {
			name = "emulated lock-flag"
		}
		t.Rows = append(t.Rows, []string{name, usf(lat)})
	}
	return t
}

// AblationCheckElim measures the CFG-based available-check optimizer on
// the assembly kernels: dynamic checks executed with and without
// elimination, plus the transparency proof that final shared memory is
// byte-identical either way.
func AblationCheckElim() *Table {
	t := &Table{
		Title:   "Ablation: CFG-based load-check elimination",
		Columns: []string{"kernel", "checks (elim off)", "checks (elim on)", "elided", "reduction", "memory identical"},
		Notes: []string{
			"dynamic checks = load + store + batch checks executed across 4 ranks",
			"an elided check runs as a raw load justified by a dominating check of the same line",
		},
	}
	dyn := func(s core.Stats) int64 {
		return s.LoadChecks() + s.StoreChecks() + s.BatchChecks()
	}
	for _, k := range workloads.AsmKernels() {
		off, err := workloads.RunAsm(k, rewriter.Options{Batching: true, Polls: true}, false)
		if err != nil {
			panic(fmt.Sprintf("experiments: %s: %v", k.Name, err))
		}
		// Elim only — DefaultOptions would also hoist, conflating the two
		// optimizers; the hoisting delta has its own table below.
		on, err := workloads.RunAsm(k, rewriter.Options{Batching: true, Polls: true, CheckElim: true}, false)
		if err != nil {
			panic(fmt.Sprintf("experiments: %s: %v", k.Name, err))
		}
		do, dn := dyn(off.Stats), dyn(on.Stats)
		t.Rows = append(t.Rows, []string{
			k.Name, fmt.Sprint(do), fmt.Sprint(dn), fmt.Sprint(on.Stats.ElidedChecks()),
			pct(float64(do-dn) / float64(do) * 100), fmt.Sprint(sameMemory(off.Memory, on.Memory)),
		})
	}
	return t
}

// sameMemory reports whether two final shared-memory images are
// identical — the transparency proof every rewriter ablation owes.
func sameMemory(a, b []uint64) bool {
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

// AblationCheckHoist measures the loop-aware optimizer on top of check
// elimination: dynamic checks with elimination only versus the full
// default pipeline (elimination + loop-invariant check hoisting +
// cross-iteration batch widening + call summaries), the static hoist
// counters, and the byte-identical-memory transparency proof.
func AblationCheckHoist() *Table {
	t := &Table{
		Title:   "Ablation: loop-aware check hoisting (on top of elimination)",
		Columns: []string{"kernel", "checks (hoist off)", "checks (hoist on)", "loop batches", "hoisted static", "widened", "reduction", "memory identical"},
		Notes: []string{
			"dynamic checks = load + store + batch checks executed across 4 ranks",
			"hoist off = batching + polls + elimination; hoist on = default pipeline",
			"hoisted static = per-iteration checks replaced by one preheader BATCHCHK",
		},
	}
	dyn := func(s core.Stats) int64 {
		return s.LoadChecks() + s.StoreChecks() + s.BatchChecks()
	}
	for _, k := range workloads.AsmKernels() {
		off, err := workloads.RunAsm(k, rewriter.Options{Batching: true, Polls: true, CheckElim: true}, false)
		if err != nil {
			panic(fmt.Sprintf("experiments: %s: %v", k.Name, err))
		}
		on, err := workloads.RunAsm(k, rewriter.DefaultOptions(), false)
		if err != nil {
			panic(fmt.Sprintf("experiments: %s: %v", k.Name, err))
		}
		do, dn := dyn(off.Stats), dyn(on.Stats)
		t.Rows = append(t.Rows, []string{
			k.Name, fmt.Sprint(do), fmt.Sprint(dn),
			fmt.Sprint(on.Rewrite.LoopBatches),
			fmt.Sprint(on.Rewrite.HoistedChecks),
			fmt.Sprint(on.Rewrite.WidenedBatches),
			pct(float64(do-dn) / float64(do) * 100), fmt.Sprint(sameMemory(off.Memory, on.Memory)),
		})
	}
	return t
}
