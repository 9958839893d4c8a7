// shasta-run executes one SPLASH-2-style workload on the simulated Shasta
// cluster and prints its statistics. With -tenants it instead drives the
// multi-tenant open-loop load generator against the database environment.
//
// Usage:
//
//	shasta-run -app Barnes -procs 8 -sync sm -scale 2
//	shasta-run -tenants 8 -arrival poisson -lb least -admission shed -protocol tardis
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	appName := flag.String("app", "Barnes", "workload (see -listapps)")
	procs := flag.Int("procs", 8, "number of processes (1-16)")
	scale := flag.Int("scale", 1, "problem size multiplier")
	syncStyle := flag.String("sync", "mp", "synchronization: mp (message passing) or sm (Alpha LL/SC)")
	smp := flag.Bool("smp", true, "SMP-Shasta (false = Base-Shasta)")
	sc := flag.Bool("sc", false, "sequential consistency (default: release consistency)")
	traceOut := flag.String("trace", "", "write a structured event trace (JSONL) to this file")
	watchdog := flag.Int64("watchdog-cycles", 0, "stall watchdog budget in cycles (0 = default, negative = off)")
	simFlags := cliflags.RegisterSim(flag.CommandLine)
	loadFlags := cliflags.RegisterLoad(flag.CommandLine)
	horizon := flag.Int64("horizon", 2_000_000, "with -tenants: arrival-generation window in simulated cycles")
	listApps := flag.Bool("listapps", false, "list workloads")
	flag.Parse()

	if *listApps {
		for _, a := range workloads.All() {
			fmt.Println(a.Name)
		}
		return
	}
	if loadFlags.Tenants > 0 {
		runLoadgen(simFlags, loadFlags, sim.Time(*horizon), *traceOut, *watchdog)
		return
	}
	app, ok := workloads.Get(*appName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown app %q\n", *appName)
		os.Exit(1)
	}
	opts := []core.Option{
		core.WithMaxTime(sim.Cycles(900e6)),
		core.WithWatchdog(sim.Time(*watchdog)),
		core.WithConfigure(func(cfg *core.Config) {
			cfg.SMP = *smp
			if *sc {
				cfg.Consistency = core.SequentiallyConsistent
			}
		}),
	}
	simOpts, err := simFlags.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opts = append(opts, simOpts...)
	if *traceOut != "" {
		// The tracer buffers internally; System.Run flushes it on both the
		// success and error paths, so the file is complete even on a stall.
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		opts = append(opts, core.WithTrace(trace.New(trace.DefaultRingSize, f)))
	}
	sync := workloads.MPSync
	if *syncStyle == "sm" {
		sync = workloads.SMSync
	}
	sys := core.Build(opts...)
	res, err := workloads.Run(sys, app, workloads.RunConfig{
		Procs: *procs, Scale: *scale, Sync: sync,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg := sys.Cfg
	st := res.Stats
	fmt.Printf("%s: procs=%d sync=%v smp=%v model=%v protocol=%s\n",
		app.Name, *procs, sync, *smp, cfg.Consistency, cfg.Protocol)
	fmt.Printf("  elapsed             %10.2f ms (simulated)\n", sim.Microseconds(res.Elapsed)/1000)
	fmt.Printf("  loads/stores        %10d / %d\n", st.Loads(), st.Stores())
	fmt.Printf("  remote misses       %10d read, %d write\n", st.ReadMisses(), st.WriteMisses())
	fmt.Printf("  SMP local fills     %10d\n", st.LocalFills())
	fmt.Printf("  messages            %10d sent\n", st.MessagesSent())
	busiest, msgShare, cycleShare := sys.Busiest()
	fmt.Printf("  busiest process: p%d handled %.0f %% of messages, %.0f %% of handler cycles\n", busiest.ID, 100*msgShare, 100*cycleShare)
	var inNode *core.Proc
	var inNodeRatio float64
	var alone []string
	for n := 0; n < cfg.Nodes; n++ {
		p, r := sys.BusiestInNode(n)
		if r > inNodeRatio {
			inNode, inNodeRatio = p, r
		}
		if p != nil && r == 0 && p.Stats().Time[core.CatMessage] > 0 {
			alone = append(alone, fmt.Sprintf("p%d", p.ID))
		}
	}
	if inNode != nil {
		fmt.Printf("  busiest process within its node: p%d spends %.1fx the handler cycles of its node-mates' mean\n", inNode.ID, inNodeRatio)
	}
	if len(alone) > 0 {
		fmt.Printf("  no ratio within the node of %s: its node-mates spent no handler cycles outside a stall\n", strings.Join(alone, ", "))
	}
	fmt.Printf("  invalidations       %10d\n", st.Invalidations())
	fmt.Printf("  downgrades          %10d explicit, %d direct\n", st.DowngradesSent(), st.DowngradesDirect())
	fmt.Printf("  LL/SC               %10d/%d (%d hw, %d failed)\n", st.LLs(), st.SCs(), st.SCHardware(), st.SCFailures())
	fmt.Printf("  locks/barriers      %10d / %d\n", st.LockAcquires(), st.BarrierWaits())
	printScheduler(sys)
	if cfg.Faults.Enabled() {
		net := sys.Net.Stats()
		fmt.Printf("  faults (%s, seed %d): %d dropped, %d duplicated on the wire\n",
			simFlags.FaultProfile, simFlags.FaultSeed, net.Drops, net.Dups)
		fmt.Printf("  reliability         %10d retransmits, %d acks, %d dups suppressed, %d held for reorder\n",
			st.Retransmits(), st.NetAcksSent(), st.DupsSuppressed(), st.HeldArrivals())
	}
	fmt.Println("  time breakdown (all processes):")
	total := st.Total()
	for _, c := range core.Categories() {
		if st.Time[c] == 0 {
			continue
		}
		fmt.Printf("    %-8s %6.1f%%\n", c, float64(st.Time[c])/float64(total)*100)
	}
}

// printScheduler prints the engine's simulated context switches and its own
// work: the steps, each one coroutine round trip, and what they were.
func printScheduler(sys *core.System) {
	sched := sys.Eng.SchedCounters()
	fmt.Printf("  context switches    %10d (simulated)\n", sys.Eng.ContextSwitches())
	fmt.Printf("  scheduler           %10d steps, %d coroutine switches, %d self-picks, %d heap fixes, %d cpu passes, %d windows, %d horizon clamps, %d parks, %d early wakes\n",
		sched.Steps, sched.Switches, sched.SelfPicks, sched.HeapFixes, sched.CPUPasses, sched.Windows, sched.HorizonClamps, sched.Parks, sched.EarlyWakes)
}

// runLoadgen drives the multi-tenant open-loop load generator and prints
// its run and per-tenant metrics.
func runLoadgen(simFlags *cliflags.Sim, loadFlags *cliflags.Load, horizon sim.Time, traceOut string, watchdog int64) {
	lcfg, err := loadFlags.Config(horizon, 1234, 10)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	lcfg.RowCompute = 500
	for i := range lcfg.Tenants {
		lcfg.Tenants[i].DSSFraction = 0.25
		lcfg.Tenants[i].DSSPages = 16
	}
	opts := []core.Option{
		core.WithMaxTime(sim.Cycles(900e6)),
		core.WithWatchdog(sim.Time(watchdog)),
		core.WithConfigure(func(cfg *core.Config) { cfg.SharedBytes = 4 << 20 }),
	}
	simOpts, err := simFlags.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opts = append(opts, simOpts...)
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		opts = append(opts, core.WithTrace(trace.New(trace.DefaultRingSize, f)))
	}
	sys := core.Build(opts...)
	res, err := load.Run(sys, lcfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	m := res.Metrics
	fmt.Printf("loadgen: tenants=%d arrival=%s lb=%s admission=%s protocol=%s workers=%d\n",
		loadFlags.Tenants, loadFlags.Arrival, loadFlags.LB, loadFlags.Admission, sys.Cfg.Protocol, res.Workers)
	fmt.Printf("  offered/admitted/shed %10d / %d / %d\n", m.Offered, m.Admitted, m.Shed)
	fmt.Printf("  latency p50/p95/p99   %10d / %d / %d cycles\n", m.P50, m.P95, m.P99)
	fmt.Printf("  mean latency split    %10d front door, %d dispatch, %d ring wait, %d service cycles\n",
		m.MeanFrontDoor, m.MeanDispatch, m.MeanRingWait, m.MeanService)
	fmt.Printf("  mean service split    %10d db, %d protocol, %d sync cycles\n", m.MeanDB, m.MeanProt, m.MeanSync)
	printScheduler(sys)
	for _, tm := range m.Tenants {
		fmt.Printf("  %-6s offered=%-5d shed=%-4d p99=%-9d slo=%d attained=%.2f\n",
			tm.Name, tm.Offered, tm.Shed, tm.P99, tm.SLOCycles, tm.SLOAttained)
	}
}
