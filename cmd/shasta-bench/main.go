// shasta-bench regenerates the tables and figures of the Shasta paper's
// evaluation (§6) on the simulated cluster, and measures the repo's own
// wall-clock performance trajectory (sequential vs parallel engine).
//
// Usage:
//
//	shasta-bench -list
//	shasta-bench -run table1,table2
//	shasta-bench -run all
//	shasta-bench -run loadgen -tenants 8 -lb least   # multi-tenant load table
//	shasta-bench -json BENCH_PR5.json          # engine benchmark suite
//	shasta-bench -json out.json -bench-quick   # CI smoke variant
//	shasta-bench -shootout BENCH_PR6.json      # protocol shootout (dirinval vs tardis)
//	shasta-bench -checks BENCH_PR8.json        # static-overhead shootout (noopt/elim/hoist)
//	shasta-bench -loadgen BENCH_PR10.json      # tenant-count sweep to the saturation knee
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
)

var registry = []struct {
	name string
	desc string
	fn   func() *experiments.Table
}{
	{"table1", "lock acquire latencies (MP vs SM vs SM+prefetch)", experiments.Table1},
	{"mb", "memory barrier costs (§6.2)", experiments.MemoryBarrierCosts},
	{"table2", "system call validation costs", experiments.Table2},
	{"table3", "checking overheads and code growth", experiments.Table3},
	{"rewrite", "executable conversion times (§6.3)", experiments.RewriteTimes},
	{"figure3", "SPLASH-2 speedups, MP vs Alpha sync (slow)", experiments.Figure3},
	{"figure4", "RC vs SC breakdowns at 16 processors (slow)", experiments.Figure4},
	{"table4", "Oracle DSS-1 run times", experiments.Table4},
	{"figure5", "DSS-1 server time breakdowns EX vs EQ", experiments.Figure5},
	{"abl-downgrade", "ablation: direct downgrade (§4.3.4)", experiments.AblationDirectDowngrade},
	{"abl-flag", "ablation: invalid-flag load check", experiments.AblationFlagCheck},
	{"abl-batch", "ablation: batched checks", experiments.AblationBatching},
	{"abl-prefetch", "ablation: prefetch-exclusive", experiments.AblationPrefetchExclusive},
	{"abl-line", "ablation: line size 64 vs 128", experiments.AblationLineSize},
	{"abl-smp", "ablation: SMP-Shasta vs Base-Shasta", experiments.AblationSMP},
	{"abl-queues", "ablation: shared message queues", experiments.AblationSharedQueues},
	{"abl-llsc", "ablation: optimized vs emulated LL/SC", experiments.AblationEmulatedLLSC},
	{"abl-checkelim", "ablation: CFG-based load-check elimination", experiments.AblationCheckElim},
	{"abl-checkhoist", "ablation: loop-aware check hoisting", experiments.AblationCheckHoist},
	{"chaos", "chaos harness: workloads under injected network faults", experiments.ChaosTable},
	{"loadgen", "multi-tenant open-loop load: latency percentiles and SLO attainment", experiments.LoadgenTable},
}

func registryNames() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// writeReport marshals a suite report to path.
func writeReport(report any, path string) error {
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process surface (args, output streams, exit code)
// made explicit so CLI behavior is testable in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shasta-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list available experiments")
	runNames := fs.String("run", "", "comma-separated experiment names, or 'all'")
	traceOut := fs.String("trace", "", "write a structured event trace (JSONL) of every run to this file")
	watchdog := fs.Int64("watchdog-cycles", 0, "stall watchdog budget in cycles (0 = default, negative = off)")
	simFlags := cliflags.RegisterSim(fs)
	loadFlags := cliflags.RegisterLoad(fs)
	jsonOut := fs.String("json", "", "run the engine benchmark suite and write the JSON report to this file")
	benchQuick := fs.Bool("bench-quick", false, "with -json/-shootout/-loadgen: run the cut-down CI smoke suite")
	shootout := fs.String("shootout", "", "run the cross-protocol shootout and write the JSON report to this file")
	checks := fs.String("checks", "", "run the static-overhead shootout and write the JSON report to this file")
	loadgen := fs.String("loadgen", "", "run the multi-tenant load sweep and write the JSON report to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *loadgen != "" {
		cases := bench.DefaultLoadgenCases()
		if *benchQuick {
			cases = bench.QuickLoadgenCases()
		}
		report, err := bench.RunLoadgenSuite(cases, core.ProtocolNames())
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := writeReport(report, *loadgen); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		for _, sw := range report.Sweeps {
			last := sw.Points[len(sw.Points)-1]
			fmt.Fprintf(stdout, "%-10s knee=%d tenants protocol_bound=%v prot_growth=%.2fx db_growth=%.2fx (max point: %d tenants p99=%d)\n",
				sw.Protocol, sw.KneeTenants, sw.ProtocolBound, sw.ProtGrowth, sw.DBGrowth, last.Tenants, last.P99)
		}
		fmt.Fprintf(stdout, "loadgen sweep (engines_agree=%v) → %s\n", report.EnginesAgree, *loadgen)
		return 0
	}

	if *checks != "" {
		report, err := bench.RunCheckSuite(core.ProtocolNames())
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := writeReport(report, *checks); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		for _, c := range report.Cases {
			top := c.Runs[len(c.Runs)-1]
			fmt.Fprintf(stdout, "%-12s mem_equal=%v elim_cut=%.1f%% hoist_cut=%.1f%% loop_batches=%d hoisted=%d widened=%d\n",
				c.Kernel, c.MemEqual, c.ElimReductionPct, c.HoistReductionPct,
				top.LoopBatches, top.HoistedChecks, top.WidenedBatches)
		}
		fmt.Fprintf(stdout, "check-overhead shootout (%s ladder; protocols %s) → %s\n",
			strings.Join(report.Configs, "/"), strings.Join(report.Protocols, ","), *checks)
		return 0
	}

	if *shootout != "" {
		cases := bench.DefaultProtocolCases()
		if *benchQuick {
			cases = bench.QuickProtocolCases()
		}
		report, err := bench.RunProtocolSuite(cases, core.ProtocolNames())
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := writeReport(report, *shootout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		for _, c := range report.Cases {
			fmt.Fprintf(stdout, "%-12s %-14s mem_equal=%v", c.Name, c.Profile, c.MemEqual)
			for _, p := range report.Protocols[1:] {
				fmt.Fprintf(stdout, " sim_speedup[%s]=%.3fx", p, c.SimSpeedup[p])
			}
			fmt.Fprintln(stdout)
		}
		fmt.Fprintf(stdout, "protocol shootout (%s baseline) → %s\n", report.Baseline, *shootout)
		return 0
	}

	if *jsonOut != "" {
		cases := bench.DefaultCases()
		if *benchQuick {
			cases = bench.QuickCases()
		}
		report, err := bench.RunSuite(cases, bench.DefaultWorkers)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := writeReport(report, *jsonOut); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		for _, c := range report.Cases {
			best := 1.0
			for _, r := range c.Runs {
				if r.Speedup > best {
					best = r.Speedup
				}
			}
			fmt.Fprintf(stdout, "%-16s sim=%d cycles invariant=%v best speedup %.2fx\n",
				c.Name, c.SimElapsedCycles, c.SimTimeInvariant && c.StatsInvariant, best)
		}
		fmt.Fprintf(stdout, "best speedup at 4 workers: %.2fx → %s\n", report.BestSpeedup4, *jsonOut)
		return 0
	}

	opts, err := simFlags.Options()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *watchdog != 0 {
		opts = append(opts, core.WithWatchdog(sim.Time(*watchdog)))
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		opts = append(opts, core.WithTrace(trace.New(trace.DefaultRingSize, f)))
	}
	experiments.SetBuildOptions(opts...)
	if loadFlags.Tenants > 0 {
		if _, err := loadFlags.Config(1, 1234, 10); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		experiments.SetLoadgenParams(experiments.LoadgenParams{
			Tenants: loadFlags.Tenants, Arrival: loadFlags.Arrival,
			LB: loadFlags.LB, Admission: loadFlags.Admission,
			SLO: sim.Time(loadFlags.SLO),
		})
	}

	if *list || *runNames == "" {
		fmt.Fprintln(stdout, "experiments:")
		for _, e := range registry {
			fmt.Fprintf(stdout, "  %-14s %s\n", e.name, e.desc)
		}
		return 0
	}
	want := map[string]bool{}
	for _, n := range strings.Split(*runNames, ",") {
		want[strings.TrimSpace(n)] = true
	}
	known := map[string]bool{"all": true}
	for _, e := range registry {
		known[e.name] = true
	}
	for n := range want {
		if !known[n] {
			fmt.Fprintf(stderr, "unknown experiment %q; valid names: all, %s\n",
				n, strings.Join(registryNames(), ", "))
			return 1
		}
	}
	for _, e := range registry {
		if want["all"] || want[e.name] {
			e.fn().Render(stdout)
		}
	}
	return 0
}
