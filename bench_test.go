// Package repro's root benchmarks regenerate each table and figure of the
// Shasta paper's evaluation as testing.B benchmarks: one bench per table or
// figure, reporting the headline simulated quantities as custom metrics.
//
// Run them all:
//
//	go test -bench=. -benchmem
package repro

import (
	"testing"

	"repro/internal/clusterfs"
	"repro/internal/clusteros"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/oracledb"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// BenchmarkTable1LockLatency regenerates Table 1 (MP vs SM lock acquire
// latencies) once per iteration.
func BenchmarkTable1LockLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Table1()
		if len(tab.Rows) != 3 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkMemoryBarrier regenerates the §6.2 memory-barrier costs.
func BenchmarkMemoryBarrier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.MemoryBarrierCosts()
	}
}

// BenchmarkTable2Syscalls regenerates Table 2 (system call validation).
func BenchmarkTable2Syscalls(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table2()
	}
}

// BenchmarkTable3Overheads regenerates Table 3 (sequential checking
// overheads) for the SPLASH-2 kernels (the Oracle rows run in
// BenchmarkTable4OracleDSS).
func BenchmarkTable3Overheads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, app := range workloads.All() {
			cfg := core.DefaultConfig()
			cfg.MaxTime = sim.Cycles(900e6)
			if _, err := workloads.Run(core.Build(core.WithConfig(cfg)), app, workloads.RunConfig{Procs: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBuild measures system construction alone on the default
// configuration (four SMP nodes, 4 MB shared region): what every short run
// in BenchmarkTable3Overheads pays before it allocates or simulates
// anything. Nothing here may scale with SharedBytes.
func BenchmarkBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		builtSystem = core.Build()
	}
}

var builtSystem *core.System

// BenchmarkFigure3Speedups regenerates one Figure 3 series (Barnes, both
// synchronization styles, 1-16 processors). The full nine-application
// figure is produced by `shasta-bench -run figure3`.
func BenchmarkFigure3Speedups(b *testing.B) {
	counts := []int{1, 2, 4, 8, 16}
	for i := 0; i < b.N; i++ {
		for _, sync := range []workloads.SyncStyle{workloads.MPSync, workloads.SMSync} {
			sp, err := experiments.SpeedupSeries("Barnes", sync, counts)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 && sync == workloads.MPSync {
				b.ReportMetric(sp[len(sp)-1], "speedup@16p")
			}
		}
	}
}

// BenchmarkFigure4Consistency regenerates one Figure 4 comparison (RC vs
// SC at 16 processors, Base-Shasta) for a representative application.
func BenchmarkFigure4Consistency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, model := range []core.ConsistencyModel{core.ReleaseConsistent, core.SequentiallyConsistent} {
			cfg := core.DefaultConfig()
			cfg.SMP = false
			cfg.Consistency = model
			cfg.MaxTime = sim.Cycles(900e6)
			app, _ := workloads.Get("Water-Sp")
			if _, err := workloads.Run(core.Build(core.WithConfig(cfg)), app, workloads.RunConfig{Procs: 16}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable4OracleDSS regenerates one Table 4 cell (Shasta EX, two
// servers) per iteration; `shasta-bench -run table4,figure5` produces the
// full table and the Figure 5 breakdowns.
func BenchmarkTable4OracleDSS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.ProtocolProcs = true
		cfg.MaxTime = sim.Cycles(900e6)
		sys := core.Build(core.WithConfig(cfg))
		osl := clusteros.New(sys, clusterfs.New(cfg.Nodes))
		res, err := oracledb.Run(sys, osl, oracledb.DSS1(2, []int{1, 4}, 0))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(sim.Microseconds(res.Elapsed)/1000, "simulated-ms")
		}
	}
}

// BenchmarkProtocolRemoteMiss measures the simulator's throughput on the
// fundamental operation: a 2-hop 64-byte remote miss.
func BenchmarkProtocolRemoteMiss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.SharedBytes = 256 << 10
		cfg.MaxTime = sim.Cycles(600e6)
		s := core.Build(core.WithConfig(cfg))
		var addr uint64
		ready := false
		s.Spawn("home", 0, func(p *core.Proc) {
			addr = s.Alloc(64<<10, core.AllocOptions{Home: core.HomeAt(0)})
			for k := 0; k < 1024; k++ {
				p.Store(addr+uint64(k*64), uint64(k))
			}
			p.MemBar()
			ready = true
			for !s.Proc(1).Exited() {
				p.Compute(1000)
			}
		})
		s.Spawn("reader", cfg.CPUsPerNode, func(p *core.Proc) {
			for !ready {
				p.Compute(500)
			}
			for k := 0; k < 1024; k++ {
				p.Load(addr + uint64(k*64))
			}
		})
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
