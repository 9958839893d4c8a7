// Cross-engine equivalence harness: runs the same experiment on the
// sequential engine and the parallel (conservative PDES) engine and
// compares everything the two must agree on — the order-blind multiset
// digest of the full event trace, the final shared-memory image, the
// aggregate protocol statistics, the network counters, and the simulated
// completion time. Backs the determinism satellite of the parallel-engine
// work and the CI race job (`go test -race -run CrossEngine`).
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/memchannel"
	"repro/internal/rewriter"
	"repro/internal/sim"
	"repro/internal/sim/parallel"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// EngineRun captures the observables one run produced. Two runs of the
// same experiment on different engines must be identical in every field.
type EngineRun struct {
	TraceDigest uint64 // trace.MultisetDigest over the full JSONL stream
	Snapshot    []uint64
	Stats       core.Stats
	Net         memchannel.Stats
	Elapsed     sim.Time
}

// Diff describes the first observable on which two runs disagree, or ""
// when they match.
func (a *EngineRun) Diff(b *EngineRun) string {
	if a.TraceDigest != b.TraceDigest {
		return fmt.Sprintf("trace digest %#x vs %#x", a.TraceDigest, b.TraceDigest)
	}
	if len(a.Snapshot) != len(b.Snapshot) {
		return fmt.Sprintf("snapshot length %d vs %d", len(a.Snapshot), len(b.Snapshot))
	}
	for i := range a.Snapshot {
		if a.Snapshot[i] != b.Snapshot[i] {
			return fmt.Sprintf("memory word %d: %#x vs %#x", i, a.Snapshot[i], b.Snapshot[i])
		}
	}
	if a.Stats != b.Stats {
		return fmt.Sprintf("stats diverge: %+v vs %+v", a.Stats, b.Stats)
	}
	if a.Net != b.Net {
		return fmt.Sprintf("network stats diverge: %+v vs %+v", a.Net, b.Net)
	}
	if a.Elapsed != b.Elapsed {
		return fmt.Sprintf("elapsed %d vs %d", a.Elapsed, b.Elapsed)
	}
	return ""
}

// EngineOptions returns the core build options selecting an engine:
// workers < 0 picks the built-in driver (one thread, lookahead windows),
// otherwise the conservative PDES coordinator that runs the same shards in
// rounds on a worker pool of that size (0 = one per host core). Shared by the equivalence tests and the command-line
// -engine/-workers flags.
func EngineOptions(workers int) []core.Option {
	if workers < 0 {
		return nil
	}
	return []core.Option{core.WithEngine(parallel.New(workers))}
}

// ParseEngine maps the -engine/-workers flag pair to EngineOptions input:
// "seq" (or "") selects the built-in driver, "parallel" the PDES engine.
func ParseEngine(engine string, workers int) (int, error) {
	switch engine {
	case "", "seq", "sequential":
		return -1, nil
	case "par", "parallel":
		if workers < 0 {
			workers = 0
		}
		return workers, nil
	default:
		return 0, fmt.Errorf("unknown engine %q (want seq or parallel)", engine)
	}
}

// RunWorkloadOnEngine executes one built-in workload with full tracing on
// the selected engine and collects the observables.
func RunWorkloadOnEngine(app string, procs, scale int, cfg core.Config, workers int) (*EngineRun, error) {
	a, ok := workloads.Get(app)
	if !ok {
		return nil, fmt.Errorf("engines: unknown workload %q", app)
	}
	md := &trace.MultisetDigest{}
	tr := trace.New(trace.DefaultRingSize, md)
	opts := append([]core.Option{core.WithConfig(cfg), core.WithTrace(tr)}, EngineOptions(workers)...)
	sys := core.Build(opts...)
	res, err := workloads.Run(sys, a, workloads.RunConfig{Procs: procs, Scale: scale})
	if err != nil {
		return nil, err
	}
	if err := sys.CheckInvariants(); err != nil {
		return nil, err
	}
	return &EngineRun{
		TraceDigest: md.Sum64(),
		Snapshot:    sys.SnapshotShared(),
		Stats:       sys.AggregateStats(),
		Net:         sys.Net.Stats(),
		Elapsed:     res.Elapsed,
	}, nil
}

// RunAsmOnEngine executes one instrumented assembly kernel on the selected
// engine. cfg should start from workloads.AsmConfig so the kernel's heap
// and time budget fit.
func RunAsmOnEngine(k workloads.AsmKernel, cfg core.Config, workers int) (*EngineRun, error) {
	md := &trace.MultisetDigest{}
	tr := trace.New(trace.DefaultRingSize, md)
	opts := append([]core.Option{core.WithConfig(cfg), core.WithTrace(tr)}, EngineOptions(workers)...)
	res, err := workloads.RunAsm(k, rewriter.DefaultOptions(), false, opts...)
	if err != nil {
		return nil, err
	}
	return &EngineRun{
		TraceDigest: md.Sum64(),
		Snapshot:    res.Memory,
		Stats:       res.Stats,
		Elapsed:     0, // RunAsm does not report elapsed; covered by Stats.Time
	}, nil
}
