package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// The protocol matrix: the nine kernels at scale 4 on both coherence
// backends, with MP and with SM synchronization, on 8x1 Base-Shasta (8
// processes) and 4x4 SMP-Shasta (16). The SM cells run a second and third
// time with the LL/SC schemes no workload selects, PrefetchExclusive and
// EmulateLLSC. A protocol change reports this table for its parent and for
// itself.

// matrixLayout is one cluster shape of the matrix.
type matrixLayout struct {
	name        string
	nodes, cpus int
	variant     core.ProtocolVariant
}

var matrixLayouts = []matrixLayout{
	{"8x1", 8, 1, core.BaseShasta()},
	{"4x4", 4, 4, core.SMPShasta()},
}

// matrixSync is one synchronization style of the matrix, with the LL/SC
// scheme its SM cells use.
type matrixSync struct {
	name string
	sync workloads.SyncStyle
	set  func(*core.Config)
}

var matrixSyncs = []matrixSync{
	{"MP", workloads.MPSync, func(*core.Config) {}},
	{"SM", workloads.SMSync, func(*core.Config) {}},
	{"SM prefetch", workloads.SMSync, func(c *core.Config) { c.PrefetchExclusive = true }},
	{"SM emulated", workloads.SMSync, func(c *core.Config) { c.EmulateLLSC = true }},
}

// matrixCell runs one kernel on one backend, layout and synchronization
// style, and returns its simulated cycles. The cell's own options come after
// the package-wide ones, whose protocol it overrides.
func matrixCell(protocol string, l matrixLayout, ms matrixSync, app *workloads.App) sim.Time {
	opts := append([]core.Option{core.WithConfig(baseConfig())}, buildOpts...)
	sys := core.Build(append(opts, core.WithProcs(l.nodes, l.cpus), core.WithVariant(l.variant),
		core.WithProtocol(protocol), core.WithConfigure(ms.set))...)
	res, err := workloads.Run(sys, app, workloads.RunConfig{Procs: l.nodes * l.cpus, Scale: 4, Sync: ms.sync})
	if err != nil {
		panic(fmt.Sprintf("matrix %s %s %s %s: %v", app.Name, protocol, l.name, ms.name, err))
	}
	return res.Elapsed
}

// Matrix prints every cell's cycles under Tardis and dirinval and their
// ratio, and after each group of nine kernels the group's geomeans.
func Matrix() *Table {
	t := &Table{
		Title:   "Protocol matrix: cycles at scale 4, Tardis vs dirinval",
		Columns: []string{"layout", "sync", "kernel", "tardis", "dirinval", "tardis/dirinval"},
		Notes:   []string{"8x1 is Base-Shasta at 8 processes, 4x4 SMP-Shasta at 16"},
	}
	for _, l := range matrixLayouts {
		for _, ms := range matrixSyncs {
			var logT, logD float64
			for _, app := range workloads.All() {
				tc, dc := matrixCell("tardis", l, ms, app), matrixCell("dirinval", l, ms, app)
				logT += math.Log(float64(tc))
				logD += math.Log(float64(dc))
				t.Rows = append(t.Rows, []string{l.name, ms.name, app.Name,
					fmt.Sprint(tc), fmt.Sprint(dc), fmt.Sprintf("%.3f", float64(tc)/float64(dc))})
			}
			n := float64(len(workloads.All()))
			t.Rows = append(t.Rows, []string{l.name, ms.name, "geomean",
				fmt.Sprintf("%.0f", math.Exp(logT/n)), fmt.Sprintf("%.0f", math.Exp(logD/n)),
				fmt.Sprintf("%.3f", math.Exp((logT-logD)/n))})
		}
	}
	return t
}
