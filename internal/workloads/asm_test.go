package workloads

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/rewriter"
	"repro/internal/sim"
)

// elimOptions is the pure straight-line optimizer configuration (PR 3
// behavior): batching + polls + available-check elimination, no loop
// hoisting. The hoist tests compare DefaultOptions against it.
func elimOptions() rewriter.Options {
	return rewriter.Options{Batching: true, Polls: true, CheckElim: true}
}

// Golden static instrumentation stats for every assembly kernel under
// DefaultOptions. These pin down the analysis results: a change here means
// the CFG construction, the may-shared analysis, batching, check
// elimination or loop hoisting changed behavior and must be re-audited.
//
// Under DefaultOptions both kernel loops (the hub loop and the strided
// neighbor sweep) become loop-wide batch windows: their six per-iteration
// checks hoist into two preheader guards (one stride-widened), no
// eliminable checks remain, and only the straight-line global-slot
// batches survive as ordinary runs.
var goldenRewriteStats = []struct {
	name                        string
	loadChecks, storeChecks     int
	checksEliminated            int
	batchedRuns, batchedMembers int
	loopBatches, hoistedChecks  int
	widenedBatches              int
	polls                       int
	growthPercent               float64
}{
	{"barnes", 0, 3, 0, 2, 7, 2, 6, 1, 2, 125.0},
	{"fmm", 0, 3, 0, 2, 7, 2, 6, 1, 2, 136.4},
	{"lu", 0, 3, 0, 2, 7, 2, 6, 1, 2, 136.4},
	{"lu-contig", 0, 3, 0, 2, 7, 2, 6, 1, 2, 136.4},
	{"ocean", 0, 3, 0, 2, 7, 2, 6, 1, 2, 136.4},
	{"raytrace", 0, 3, 0, 2, 7, 2, 6, 1, 2, 136.4},
	{"volrend", 0, 3, 0, 2, 7, 2, 6, 1, 2, 125.0},
	{"water-nsq", 0, 3, 0, 2, 7, 2, 6, 1, 3, 159.3},
	{"water-sp", 0, 3, 0, 2, 7, 2, 6, 1, 3, 159.3},
}

func TestAsmKernelGoldenStats(t *testing.T) {
	kernels := AsmKernels()
	if len(kernels) != len(goldenRewriteStats) {
		t.Fatalf("%d kernels, %d golden rows", len(kernels), len(goldenRewriteStats))
	}
	for i, k := range kernels {
		res, err := RunAsm(k, rewriter.DefaultOptions(), true)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		g := goldenRewriteStats[i]
		st := res.Rewrite
		if k.Name != g.name {
			t.Fatalf("kernel order changed: %s vs %s", k.Name, g.name)
		}
		if st.LoadChecks != g.loadChecks || st.StoreChecks != g.storeChecks ||
			st.ChecksEliminated != g.checksEliminated ||
			st.BatchedRuns != g.batchedRuns || st.BatchedMembers != g.batchedMembers ||
			st.LoopBatches != g.loopBatches || st.HoistedChecks != g.hoistedChecks ||
			st.WidenedBatches != g.widenedBatches ||
			st.Polls != g.polls {
			t.Errorf("%s: stats %+v, want %+v", k.Name, st, g)
		}
		if math.Abs(st.GrowthPercent()-g.growthPercent) > 0.05 {
			t.Errorf("%s: growth %.1f%%, want %.1f%%", k.Name, st.GrowthPercent(), g.growthPercent)
		}
		if st.AnalysisFallback {
			t.Errorf("%s: analysis fell back to conservative instrumentation", k.Name)
		}
	}
}

// TestAsmKernelDeterminism runs each kernel twice with the sanitizer on:
// final shared memory and every dynamic check counter must be identical —
// the property the golden dynamic numbers in the ablation rest on.
func TestAsmKernelDeterminism(t *testing.T) {
	for _, k := range AsmKernels() {
		a, err := RunAsm(k, rewriter.DefaultOptions(), true)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		b, err := RunAsm(k, rewriter.DefaultOptions(), true)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if len(a.Memory) != len(b.Memory) {
			t.Fatalf("%s: snapshot sizes differ", k.Name)
		}
		for i := range a.Memory {
			if a.Memory[i] != b.Memory[i] {
				t.Fatalf("%s: shared word %d differs across runs: %#x vs %#x", k.Name, i, a.Memory[i], b.Memory[i])
			}
		}
		type counters struct{ lc, sc, bc, ec int64 }
		ca := counters{a.Stats.LoadChecks(), a.Stats.StoreChecks(), a.Stats.BatchChecks(), a.Stats.ElidedChecks()}
		cb := counters{b.Stats.LoadChecks(), b.Stats.StoreChecks(), b.Stats.BatchChecks(), b.Stats.ElidedChecks()}
		if ca != cb {
			t.Fatalf("%s: check counters differ across runs: %+v vs %+v", k.Name, ca, cb)
		}
	}
}

// TestAsmKernelCheckElimEquivalence pins the straight-line eliminator:
// with elimination on (hoisting off in both arms), every kernel executes
// strictly fewer dynamic checks and produces byte-identical final shared
// memory.
func TestAsmKernelCheckElimEquivalence(t *testing.T) {
	for _, k := range AsmKernels() {
		off, err := RunAsm(k, rewriter.Options{Batching: true, Polls: true}, true)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		on, err := RunAsm(k, elimOptions(), true)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		for i := range off.Memory {
			if off.Memory[i] != on.Memory[i] {
				t.Fatalf("%s: shared word %d differs with elimination: %#x vs %#x",
					k.Name, i, off.Memory[i], on.Memory[i])
			}
		}
		dynOff := off.Stats.LoadChecks() + off.Stats.StoreChecks() + off.Stats.BatchChecks()
		dynOn := on.Stats.LoadChecks() + on.Stats.StoreChecks() + on.Stats.BatchChecks()
		if dynOn >= dynOff {
			t.Errorf("%s: dynamic checks did not drop: %d -> %d", k.Name, dynOff, dynOn)
		}
		if on.Stats.ElidedChecks() == 0 {
			t.Errorf("%s: no elided checks executed", k.Name)
		}
	}
}

// TestAsmKernelCheckHoistEquivalence is the PR 8 acceptance property:
// loop hoisting on top of elimination cuts dynamic checks further —
// ≥15% on the loop-heavy kernels — with byte-identical final shared
// memory on every kernel.
func TestAsmKernelCheckHoistEquivalence(t *testing.T) {
	kernelsOver15 := 0
	for _, k := range AsmKernels() {
		elim, err := RunAsm(k, elimOptions(), true)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		hoist, err := RunAsm(k, rewriter.DefaultOptions(), true)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		for i := range elim.Memory {
			if elim.Memory[i] != hoist.Memory[i] {
				t.Fatalf("%s: shared word %d differs with hoisting: %#x vs %#x",
					k.Name, i, elim.Memory[i], hoist.Memory[i])
			}
		}
		if hoist.Rewrite.HoistedChecks == 0 || hoist.Rewrite.LoopBatches == 0 {
			t.Errorf("%s: no loops hoisted: %+v", k.Name, hoist.Rewrite)
		}
		dynElim := elim.Stats.LoadChecks() + elim.Stats.StoreChecks() + elim.Stats.BatchChecks()
		dynHoist := hoist.Stats.LoadChecks() + hoist.Stats.StoreChecks() + hoist.Stats.BatchChecks()
		if dynHoist >= dynElim {
			t.Errorf("%s: dynamic checks did not drop beyond elimination: %d -> %d", k.Name, dynElim, dynHoist)
		}
		if red := 100 * float64(dynElim-dynHoist) / float64(dynElim); red >= 15 {
			kernelsOver15++
		}
	}
	if kernelsOver15 < 2 {
		t.Errorf("only %d kernels gained >=15%% beyond elimination, want >=2", kernelsOver15)
	}
}

// TestAsmRankExitIndependentOfYields pins when lu-contig's ranks stop
// serving after their programs end. Rank 0 parks in serveAfterExit holding
// a notification for a time it has already run past. While such a
// notification was dropped only at the process's next resume, that park
// returned at once or not depending on whether the process had yielded in
// between: the rank ended at 63687 in strict global order and one
// 6000-cycle back-off later, at 69687, under a driver that lets it run on.
// sim.Proc.Advance drops it now. Ranks 0-2 ended at 63687, 63579 and 64809
// while an exited process woke on a back-off to look for work; they end
// 6000 cycles earlier, when they last park, since an exited process now
// parks until the run is at rest.
func TestAsmRankExitIndependentOfYields(t *testing.T) {
	for _, k := range AsmKernels() {
		if k.Name != "lu-contig" {
			continue
		}
		for _, proto := range core.ProtocolNames() {
			sys, _, err := runAsm(k, rewriter.DefaultOptions(), false, core.WithProtocol(proto))
			if err != nil {
				t.Fatalf("%s/%s: %v", k.Name, proto, err)
			}
			var ended []sim.Time
			for _, p := range sys.Procs() {
				ended = append(ended, p.Sim.Now())
			}
			if want := []sim.Time{57687, 57579, 58809, 60039}; !reflect.DeepEqual(ended, want) {
				t.Errorf("%s/%s: ranks ended at %v, want %v", k.Name, proto, ended, want)
			}
		}
	}
}

// TestAsmKernelCheckHoistBothProtocols: on every kernel, hoisting on vs
// off must produce identical memory images under both coherence protocols,
// and the hoisted code the same image under each protocol as under the
// first.
func TestAsmKernelCheckHoistBothProtocols(t *testing.T) {
	for _, k := range AsmKernels() {
		var ref []uint64
		for _, proto := range core.ProtocolNames() {
			off, err := RunAsm(k, elimOptions(), true, core.WithProtocol(proto))
			if err != nil {
				t.Fatalf("%s/%s: %v", k.Name, proto, err)
			}
			on, err := RunAsm(k, rewriter.DefaultOptions(), true, core.WithProtocol(proto))
			if err != nil {
				t.Fatalf("%s/%s: %v", k.Name, proto, err)
			}
			if !slices.Equal(off.Memory, on.Memory) {
				t.Errorf("%s/%s: shared memory differs with hoisting", k.Name, proto)
			}
			if ref == nil {
				ref = on.Memory
			} else if !slices.Equal(ref, on.Memory) {
				t.Errorf("%s: shared memory under %s differs from %s", k.Name, proto, core.ProtocolNames()[0])
			}
		}
	}
}
