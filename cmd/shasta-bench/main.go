// shasta-bench regenerates the tables and figures of the Shasta paper's
// evaluation (§6) on the simulated cluster, plus the repo's own ablations,
// chaos table and multi-tenant load table.
//
// Usage:
//
//	shasta-bench -list
//	shasta-bench -run table1,table2
//	shasta-bench -run all
//	shasta-bench -run loadgen -tenants 8 -lb least   # multi-tenant load table
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

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
	{"matrix", "nine kernels x MP/SM x 8x1/4x4 at scale 4, Tardis vs dirinval", experiments.Matrix},
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
	if err := fs.Parse(args); err != nil {
		return 2
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
	known := map[string]bool{"all": true}
	for _, e := range registry {
		known[e.name] = true
	}
	// The first unknown name in command-line order is the one reported.
	want := map[string]bool{}
	for _, n := range strings.Split(*runNames, ",") {
		n = strings.TrimSpace(n)
		if !known[n] {
			fmt.Fprintf(stderr, "unknown experiment %q; valid names: all, %s\n",
				n, strings.Join(registryNames(), ", "))
			return 1
		}
		want[n] = true
	}
	for _, e := range registry {
		if want["all"] || want[e.name] {
			e.fn().Render(stdout)
		}
	}
	return 0
}
