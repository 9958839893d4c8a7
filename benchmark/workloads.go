package main

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/load"
	"repro/internal/memchannel"
	"repro/internal/rewriter"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// caseOut is what one case execution produced.
type caseOut struct {
	cycles  int64 // simulated cycles the case took
	engine  bool  // run by workloads.Run or load.Run on a system this package built
	stats   core.Stats
	net     memchannel.Stats
	ctxsw   int64
	digest  uint64         // FNV-1a of the final shared memory
	rewrite rewriter.Stats // toolchain case: summed over the assembly kernels
	load    *load.Result   // open-loop cases
}

// benchCase is one operation of a workload: construct a system, run a
// program on it, extract the results and verify them.
type benchCase struct {
	name string
	// kernel names the SPLASH kernel whose simulated cycles this case
	// reports as workloads.<kernel>.sim_cycles; empty for the others.
	kernel string
	// sameAs is the index of an earlier case whose final memory this
	// case's must equal (assembly kernels across protocols); -1 for none.
	sameAs int
	run    func(r *recorder, extra ...core.Option) (caseOut, error)
}

// simResult is what a workload's simulated-clock pass adds to the
// reference rep: its own end-to-end and per-layer metrics, and how many
// case executions it made to get them.
type simResult struct {
	e2e, layer map[string]float64
	executions int
}

// workload is a fixed list of cases; one rep executes each of them once.
type workload struct {
	name     string
	usesSeed bool
	cases    []benchCase
	// exact executes whatever the simulated clock needs beyond the
	// reference rep (speed-up baselines, the tenant sweep). Simulated
	// results repeat bit for bit, so this runs once, untimed.
	exact func(r *recorder, ref []caseOut) (simResult, error)
	// parallelPass marks the workload whose traced run also measures the
	// parallel engine (README, rule 4).
	parallelPass bool
}

// The four kernels of the closed batch workloads: they pass at every
// process count and on both protocols (LU and LU-Contig deadlock at 12 and
// 16 processes, see README).
var batchKernels = []string{"Barnes", "Ocean", "Raytrace", "Water-Nsq"}

// maxSimTime is forty times the longest batch case (Barnes, 51 M cycles):
// a case that wedges without deadlocking errs within a minute of host time.
const maxSimTime sim.Time = 2_000_000_000

func newWorkload(name string, seed int64, quick bool) (*workload, error) {
	switch name {
	case "splash-smp":
		return batchWorkload(name, 16, quick,
			core.WithProcs(4, 4), core.WithVariant(core.SMPShasta()), core.WithProtocol("dirinval")), nil
	case "tardis-wide":
		w := batchWorkload(name, 8, quick,
			core.WithProcs(8, 1), core.WithVariant(core.BaseShasta()), core.WithProtocol("tardis"))
		w.parallelPass = true
		return w, nil
	case "oltp-open":
		return oltpWorkload(seed, quick), nil
	case "short-runs":
		return shortRunsWorkload(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

var workloadNames = []string{"splash-smp", "tardis-wide", "oltp-open", "short-runs"}

// kernelCase runs one Go-level SPLASH kernel on a system built from opts.
func kernelCase(name string, app *workloads.App, rc workloads.RunConfig, opts ...core.Option) benchCase {
	return benchCase{name: name, sameAs: -1, run: func(r *recorder, extra ...core.Option) (caseOut, error) {
		r.begin(spBuild, name)
		sys := core.Build(append(append([]core.Option{core.WithMaxTime(maxSimTime)}, opts...), extra...)...)
		r.end()
		r.begin(spRun, name)
		res, err := workloads.Run(sys, app, rc)
		r.end()
		if err != nil {
			return caseOut{}, err
		}
		out, err := extract(r, name, sys)
		out.cycles = int64(res.Elapsed)
		return out, err
	}}
}

// extract reads a finished system's results from outside: memory digest,
// invariants, statistics, network and scheduler counters.
func extract(r *recorder, name string, sys *core.System) (caseOut, error) {
	r.begin(spSnapshot, name)
	digest := digestWords(sys.SnapshotShared())
	r.end()
	r.begin(spInvariants, name)
	err := sys.CheckInvariants()
	r.end()
	return caseOut{
		engine: true, stats: sys.AggregateStats(), net: sys.Net.Stats(),
		ctxsw: sys.Eng.ContextSwitches(), digest: digest,
	}, err
}

// reportedKernel is the metric-name form of one of the four batch
// kernels, and empty for the other five.
func reportedKernel(app string) string {
	for _, k := range batchKernels {
		if k == app {
			return strings.ToLower(k)
		}
	}
	return ""
}

func mustApp(name string) *workloads.App {
	app, ok := workloads.Get(name)
	if !ok {
		panic("benchmark: no kernel " + name)
	}
	return app
}

func uninstrumented(c *core.Config) { c.Checks = false }

// batchWorkload is the closed batch of the four kernels at procs
// processes on the topology and protocol opts select. Its simulated
// speed-up is against the un-instrumented one-process run, as in the
// paper's Figure 3.
func batchWorkload(name string, procs int, quick bool, opts ...core.Option) *workload {
	scale := 4
	if quick {
		scale = 1
	}
	w := &workload{name: name}
	var baselines []benchCase
	for _, k := range batchKernels {
		app := mustApp(k)
		c := kernelCase(fmt.Sprintf("%s/%dp", k, procs), app, workloads.RunConfig{Procs: procs, Scale: scale}, opts...)
		c.kernel = reportedKernel(k)
		w.cases = append(w.cases, c)
		baselines = append(baselines, kernelCase(k+"/seq", app, workloads.RunConfig{Procs: 1, Scale: scale},
			append(append([]core.Option(nil), opts...), core.WithConfigure(uninstrumented))...))
	}
	w.exact = func(r *recorder, ref []caseOut) (simResult, error) {
		var speedups []float64
		for i, b := range baselines {
			seq, err := b.run(r)
			if err != nil {
				return simResult{}, fmt.Errorf("%s: %w", b.name, err)
			}
			speedups = append(speedups, float64(seq.cycles)/float64(ref[i].cycles))
		}
		return simResult{
			e2e:        map[string]float64{"sim_cycles": sumCycles(ref), "sim_speedup": geomean(speedups)},
			layer:      map[string]float64{},
			executions: len(baselines),
		}, nil
	}
	return w
}

func sumCycles(outs []caseOut) float64 {
	var sum int64
	for i := range outs {
		sum += outs[i].cycles
	}
	return float64(sum)
}

// shortRunsWorkload is 36 short system constructions and one toolchain
// pass per rep: the nine kernels at one process without and with checks
// (Table 3), and the nine assembly kernels on both protocols. System
// construction, the rewriter and the assembler dominate; the steady-state
// engine does little.
func shortRunsWorkload() *workload {
	w := &workload{name: "short-runs"}
	apps := workloads.All()
	for _, app := range apps {
		rc := workloads.RunConfig{Procs: 1}
		w.cases = append(w.cases, kernelCase(app.Name+"/off", app, rc, core.WithConfigure(uninstrumented)))
		on := kernelCase(app.Name+"/on", app, rc)
		on.kernel = reportedKernel(app.Name)
		w.cases = append(w.cases, on)
	}
	kernels := workloads.AsmKernels()
	w.cases = append(w.cases, toolchainCase(kernels))
	firstAsm := len(w.cases)
	for _, k := range kernels {
		w.cases = append(w.cases, asmCase(k, "dirinval", -1), asmCase(k, "tardis", len(w.cases)))
	}
	w.exact = func(_ *recorder, ref []caseOut) (simResult, error) {
		var overheads, speedups []float64
		for i := range apps {
			off, on := float64(ref[2*i].cycles), float64(ref[2*i+1].cycles)
			overheads = append(overheads, (on-off)/off)
			speedups = append(speedups, off/on)
		}
		var asmStats core.Stats
		for i := firstAsm; i < len(ref); i++ {
			asmStats.Add(&ref[i].stats)
		}
		rw := ref[firstAsm-1].rewrite
		return simResult{
			e2e: map[string]float64{
				"sim_cycles":     sumCycles(ref),
				"sim_speedup":    geomean(speedups),
				"check_overhead": mean(overheads),
			},
			layer: map[string]float64{
				"rewriter.checks_inserted":   float64(rw.LoadChecks + rw.StoreChecks),
				"rewriter.checks_eliminated": float64(rw.ChecksEliminated),
				"rewriter.hoisted_checks":    float64(rw.HoistedChecks),
				"rewriter.dyn_checks":        float64(asmStats.LoadChecks() + asmStats.StoreChecks()),
				"rewriter.check_cycles_frac": ratio(float64(asmStats.Time[core.CatCheck]), float64(asmStats.Total())),
			},
		}, nil
	}
	return w
}

// toolchainCase assembles and rewrites every assembly kernel stand-alone,
// so the two layers have spans of their own beside the RunAsm spans that
// contain them.
func toolchainCase(kernels []workloads.AsmKernel) benchCase {
	return benchCase{name: "asm/toolchain", sameAs: -1, run: func(r *recorder, _ ...core.Option) (caseOut, error) {
		var out caseOut
		for _, k := range kernels {
			r.begin(spAssemble, k.Name)
			prog, err := isa.Assemble(k.Source)
			r.end()
			if err != nil {
				return out, err
			}
			r.begin(spRewrite, k.Name)
			_, st, err := rewriter.Rewrite(prog, rewriter.DefaultOptions())
			r.end()
			if err != nil {
				return out, err
			}
			out.rewrite.LoadChecks += st.LoadChecks
			out.rewrite.StoreChecks += st.StoreChecks
			out.rewrite.ChecksEliminated += st.ChecksEliminated
			out.rewrite.HoistedChecks += st.HoistedChecks
		}
		return out, nil
	}}
}

// asmCase takes one assembly kernel through assemble, rewrite and
// interpret on the given protocol.
func asmCase(k workloads.AsmKernel, protocol string, sameAs int) benchCase {
	name := "asm/" + k.Name + "/" + protocol
	return benchCase{name: name, sameAs: sameAs, run: func(r *recorder, extra ...core.Option) (caseOut, error) {
		r.begin(spRunAsm, name)
		res, err := workloads.RunAsm(k, rewriter.DefaultOptions(), false,
			append([]core.Option{core.WithProtocol(protocol)}, extra...)...)
		r.end()
		if err != nil {
			return caseOut{}, err
		}
		return caseOut{cycles: int64(res.Stats.Total()), stats: res.Stats, digest: digestWords(res.Memory)}, nil
	}}
}
