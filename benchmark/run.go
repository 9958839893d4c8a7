package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/sim/parallel"
	"repro/internal/trace"
	"repro/internal/trace/analyze"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// quick shrinks problem sizes and rep counts so the self-tests can run
	// every workload in seconds; its numbers mean nothing.
	quick  bool
	outDir string
}

// report is the outcome of one benchmark run.
type report struct {
	workload          string
	usesSeed          bool
	attempted, failed int
	failures          []string
	e2e, layer        map[string]float64
	reps              int
	phases            map[string]float64 // seconds per phase of the run
	spanFile          string
}

func (r *report) correct() bool { return r.failed == 0 }

// bench is the state of one run.
type bench struct {
	w   *workload
	rec *recorder
	rep report
	// traceSum, when non-nil, makes every case of the next rep run traced
	// and accumulates what the analyzer read from the traces.
	traceSum *traceSummary
	// beforeCase, when non-nil, runs ahead of every case of the next rep.
	beforeCase func()
}

func (b *bench) fail(what string, err error) {
	b.rep.failed++
	b.rep.failures = append(b.rep.failures, fmt.Sprintf("%s: %v", what, err))
}

// runRep executes every case of the workload once. With ref nil it is the
// reference rep and any error ends the run; afterwards a case that errs
// or does not reproduce ref's cycles, statistics and memory is a failed
// operation.
func (b *bench) runRep(id int, ref []caseOut, extra ...core.Option) ([]caseOut, error) {
	r := b.rec
	r.startRep(id)
	r.begin(spRep, b.w.name)
	outs := make([]caseOut, len(b.w.cases))
	for i, c := range b.w.cases {
		if b.beforeCase != nil {
			b.beforeCase()
		}
		r.begin(spCase, c.name)
		var err error
		if b.traceSum != nil {
			outs[i], err = b.runTraced(c, extra)
		} else {
			outs[i], err = c.run(r, extra...)
		}
		r.end()
		b.rep.attempted++
		out := &outs[i]
		switch {
		case err != nil:
		case c.sameAs >= 0 && out.digest != outs[c.sameAs].digest:
			err = fmt.Errorf("final memory differs from %s", b.w.cases[c.sameAs].name)
		case ref != nil && (out.digest != ref[i].digest || out.cycles != ref[i].cycles || out.stats != ref[i].stats):
			err = fmt.Errorf("rep %d does not reproduce the reference rep (cycles %d vs %d, memory %016x vs %016x)",
				id, out.cycles, ref[i].cycles, out.digest, ref[i].digest)
		}
		if err != nil {
			b.fail(c.name, err)
			if ref == nil {
				r.end()
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
		}
	}
	r.end()
	return outs, nil
}

// hostSamples holds one value per timed rep.
type hostSamples struct {
	rep, build, run, asmRun, assemble, rewrite, schedule []float64
	builds                                               int
}

func (h *hostSamples) add(r *recorder) {
	h.rep = append(h.rep, r.seconds(spRep))
	h.build = append(h.build, r.seconds(spBuild))
	h.run = append(h.run, r.seconds(spRun)+r.seconds(spLoadRun))
	h.asmRun = append(h.asmRun, r.seconds(spRunAsm))
	h.assemble = append(h.assemble, r.seconds(spAssemble))
	h.rewrite = append(h.rewrite, r.seconds(spRewrite))
	h.schedule = append(h.schedule, r.seconds(spSchedule))
	h.builds = r.count(spBuild)
}

// Reps per run: at least minReps whatever the time limit says, so that
// fast10 always has a tail to pick from.
const minReps = 10

func run(o options) (*report, error) {
	start := time.Now()
	// Rule 1: one thread of simulation. The sequential engine hands off
	// between goroutines on every simulated context switch, and letting
	// those hand-offs cross host threads costs 25% and triples the noise.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	w, err := newWorkload(o.workload, o.seed, o.quick)
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, rec: newRecorder()}
	b.rep = report{workload: w.name, usesSeed: w.usesSeed, phases: map[string]float64{}}
	phase := func(name string, since time.Time) { b.rep.phases[name] = time.Since(since).Seconds() }

	spin0, scan0 := calibrate()

	// Simulated clock: the reference rep and the workload's extra
	// executions. This also warms the process before anything is timed.
	t := time.Now()
	ref, err := b.runRep(0, nil)
	if err != nil {
		return nil, err
	}
	refSeconds := b.rec.seconds(spRep)
	b.rec.startRep(0)
	simRes, err := w.exact(b.rec, ref)
	if err != nil {
		return nil, fmt.Errorf("%s: simulated-clock pass: %w", w.name, err)
	}
	b.rep.attempted += simRes.executions
	phase("simulated_s", t)

	// Host clock: timed reps until the time limit, keeping room for the
	// traced and parallel passes when they are asked for.
	t = time.Now()
	reserve := memoryRepCost * refSeconds
	if o.trace {
		reserve += tracedRepCost * refSeconds
		if w.parallelPass {
			reserve += parallelReps * refSeconds // two sets of reps at twice the speed
		}
	}
	deadline := start.Add(time.Duration((o.seconds - reserve) * float64(time.Second)))
	var samples hostSamples
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for id := 1; ; id++ {
		if _, err := b.runRep(id, ref); err != nil {
			return nil, err
		}
		samples.add(b.rec)
		// Stop when another rep would not fit, so a run takes the time it
		// was given whatever the rep costs.
		next := time.Now().Add(time.Duration(b.rec.seconds(spRep) * float64(time.Second)))
		if o.quick || !o.quick && id >= minReps && next.After(deadline) {
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	b.rep.reps = len(samples.rep)
	phase("timed_reps_s", t)

	b.rep.e2e, b.rep.layer = simRes.e2e, simRes.layer
	b.hostMetrics(ref, &samples, &ms0, &ms1)

	t = time.Now()
	if b.rep.e2e["host_peak_mb"], err = b.memoryRep(ref); err != nil {
		return nil, err
	}
	phase("memory_rep_s", t)

	if o.trace {
		t = time.Now()
		if err := b.tracedPass(ref, fast10(samples.rep), o); err != nil {
			return nil, err
		}
		phase("traced_pass_s", t)
		if w.parallelPass {
			t = time.Now()
			if err := b.parallelPass(ref, fast10(samples.run), o.quick); err != nil {
				return nil, err
			}
			phase("parallel_pass_s", t)
		}
	}

	spin1, scan1 := calibrate()
	b.rep.layer["host.calib_spin_s"] = max(spin0, spin1)
	b.rep.layer["host.calib_memscan_s"] = max(scan0, scan1)
	return &b.rep, nil
}

// simops is the benchmark's unit of simulated work: the events the
// simulator has to execute one by one.
func simops(s *core.Stats) float64 {
	return float64(s.Loads() + s.Stores() + s.Polls() + s.MessagesHandled() + s.LockAcquires() + s.BarrierWaits())
}

// hostMetrics derives the host-clock metrics from the timed reps, and the
// per-layer simulated counts from the reference rep.
func (b *bench) hostMetrics(ref []caseOut, h *hostSamples, ms0, ms1 *runtime.MemStats) {
	e2e, layer := b.rep.e2e, b.rep.layer
	var all, engine core.Stats // every case; cases run through workloads.Run or load.Run
	var engineCycles, ctxsw float64
	var msgs, bytes, intra float64
	for i := range ref {
		out := &ref[i]
		all.Add(&out.stats)
		if out.engine {
			engine.Add(&out.stats)
			engineCycles += float64(out.cycles)
		}
		ctxsw += float64(out.ctxsw)
		msgs += float64(out.net.Messages)
		bytes += float64(out.net.Bytes)
		intra += float64(out.net.IntraMessages)
		if k := b.w.cases[i].kernel; k != "" {
			layer["workloads."+k+".sim_cycles"] = float64(out.cycles)
		}
	}
	ops := simops(&all)
	repS, runS := fast10(h.rep), fast10(h.run)

	e2e["setup_s"] = fast10(h.build)
	e2e["simops_per_s"] = ops / repS

	total := float64(all.Total())
	misses := float64(all.ReadMisses() + all.WriteMisses())
	syncOps := float64(all.LockAcquires() + all.BarrierWaits())
	for name, v := range map[string]float64{
		"core.read_misses":                 float64(all.ReadMisses()),
		"core.write_misses":                float64(all.WriteMisses()),
		"core.local_fills":                 float64(all.LocalFills()),
		"core.false_misses":                float64(all.FalseMisses()),
		"core.messages_handled":            float64(all.MessagesHandled()),
		"core.invalidations":               float64(all.Invalidations()),
		"core.downgrades":                  float64(all.DowngradesSent() + all.DowngradesDirect()),
		"core.miss_rate":                   ratio(misses, float64(all.Loads()+all.Stores())),
		"core.msgs_per_miss":               ratio(float64(all.MessagesSent()), misses),
		"core.read_stall_per_miss_cycles":  ratio(float64(all.Time[core.CatReadStall]), float64(all.ReadMisses())),
		"core.write_stall_cycles":          float64(all.Time[core.CatWriteStall]),
		"core.sc_failures":                 float64(all.SCFailures()),
		"core.retransmits":                 float64(all.Retransmits()),
		"core.task_frac":                   ratio(float64(all.Time[core.CatTask]), total),
		"core.check_frac":                  ratio(float64(all.Time[core.CatCheck]), total),
		"core.poll_frac":                   ratio(float64(all.Time[core.CatPoll]), total),
		"core.read_frac":                   ratio(float64(all.Time[core.CatReadStall]), total),
		"core.write_frac":                  ratio(float64(all.Time[core.CatWriteStall]), total),
		"core.sync_frac":                   ratio(float64(all.Time[core.CatSyncStall]), total),
		"core.message_frac":                ratio(float64(all.Time[core.CatMessage]), total),
		"core.build_s":                     e2e["setup_s"],
		"core.builds_per_rep":              float64(h.builds),
		"sim.run_s":                        runS,
		"sim.ns_per_simop":                 ratio(runS*1e9, simops(&engine)),
		"sim.ns_per_sim_kcycle":            ratio(runS*1e9, engineCycles/1000),
		"sim.context_switches":             ctxsw,
		"sim.rep_s_median":                 median(h.rep),
		"sim.rep_s_iqr":                    iqr(h.rep),
		"sim.reps":                         float64(len(h.rep)),
		"memchannel.messages":              msgs,
		"memchannel.bytes":                 bytes,
		"memchannel.intra_messages":        intra,
		"memchannel.bytes_per_message":     ratio(bytes, msgs),
		"dsmsync.lock_acquires":            float64(all.LockAcquires()),
		"dsmsync.barrier_waits":            float64(all.BarrierWaits()),
		"dsmsync.sync_stall_per_op_cycles": ratio(float64(all.Time[core.CatSyncStall]), syncOps),
		"rewriter.rewrite_s":               fast10(h.rewrite),
		"isa.assemble_s":                   fast10(h.assemble),
		"isa.asm_run_s":                    fast10(h.asmRun),
		"load.schedule_s":                  fast10(h.schedule),
		"go.mallocs_per_simop":             float64(ms1.Mallocs-ms0.Mallocs) / (ops * float64(len(h.rep))),
		"go.alloc_bytes_per_simop":         float64(ms1.TotalAlloc-ms0.TotalAlloc) / (ops * float64(len(h.rep))),
		"go.gc_cycles_per_rep":             float64(ms1.NumGC-ms0.NumGC) / float64(len(h.rep)),
		"go.gc_pause_ms_per_rep":           float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / float64(len(h.rep)),
	} {
		layer[name] = v
	}
}

func iqr(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return q3 - q1
}

// traceSummary accumulates what the analyzer read from the traces of one
// traced rep, and whether it agrees with the systems' own statistics.
type traceSummary struct {
	buf                  bytes.Buffer
	events               int64
	switches, preempts   int64
	syncMsgs             int64
	handleDelay, handles int64
	mismatches           int
}

// tracedRepCost is how many untraced reps' time the traced pass is
// allowed for when the run's time is divided up.
const tracedRepCost = 3

var syncMsgKinds = []string{"lock-req", "lock-grant", "lock-release", "barrier-enter", "barrier-release"}

// runTraced runs one case with a tracer streaming into memory, then has
// the analyzer read the trace back and compares its totals with the
// statistics the system itself reports.
func (b *bench) runTraced(c benchCase, extra []core.Option) (caseOut, error) {
	ts := b.traceSum
	ts.buf.Reset()
	tr := trace.New(0, &ts.buf)
	out, err := c.run(b.rec, append(append([]core.Option(nil), extra...), core.WithTrace(tr))...)
	if err != nil {
		return out, err
	}
	if err := tr.Flush(); err != nil {
		return out, err
	}
	b.rec.begin(spAnalyze, c.name)
	sum, err := analyze.Read(&ts.buf)
	b.rec.end()
	if err != nil {
		return out, err
	}
	ts.events += sum.Events
	ts.switches += sum.Sched["switch"]
	ts.preempts += sum.Sched["preempt"]
	for _, k := range syncMsgKinds {
		ts.syncMsgs += sum.MsgSends[k]
	}
	for k, n := range sum.MsgHandles {
		ts.handles += n
		ts.handleDelay += sum.MsgHandleDelay[k]
	}
	if sum.Events == 0 {
		return out, nil // the toolchain case builds no system
	}
	mismatches := 0
	for _, cat := range core.Categories() {
		if sum.TimeByCategory[cat.String()] != int64(out.stats.Time[cat]) {
			mismatches++
		}
	}
	for _, cnt := range core.Counters() {
		if sum.Counters[cnt.String()] != out.stats.Get(cnt) {
			mismatches++
		}
	}
	if mismatches > 0 {
		ts.mismatches += mismatches
		return out, fmt.Errorf("trace analyzer disagrees with AggregateStats in %d categories or counters", mismatches)
	}
	return out, nil
}

const tracedRepID = -1

// tracedPass runs one more rep with core.WithTrace on every system and
// the benchmark's spans kept, and writes the spans out.
func (b *bench) tracedPass(ref []caseOut, fastRep float64, o options) error {
	b.traceSum = &traceSummary{}
	b.rec.measureAlloc = true
	_, err := b.runRep(tracedRepID, ref)
	ts := b.traceSum
	b.traceSum, b.rec.measureAlloc = nil, false
	if err != nil {
		return err
	}
	r := b.rec
	all := allStats(ref)
	syncOps := float64(all.LockAcquires() + all.BarrierWaits())
	layer := b.rep.layer
	layer["trace.events"] = float64(ts.events)
	layer["trace.overhead_ratio"] = (r.seconds(spRep) - r.seconds(spAnalyze)) / fastRep
	layer["trace.analyze_s"] = r.seconds(spAnalyze)
	layer["trace.msg_handle_delay_mean_cycles"] = ratio(float64(ts.handleDelay), float64(ts.handles))
	layer["trace.analyzer_match"] = 1
	if ts.mismatches > 0 {
		layer["trace.analyzer_match"] = 0
	}
	layer["sim.sched_switch_events"] = float64(ts.switches)
	layer["sim.sched_preempt_events"] = float64(ts.preempts)
	layer["dsmsync.msgs_per_sync_op"] = ratio(float64(ts.syncMsgs), syncOps)
	layer["core.build_alloc_mb"] = float64(r.buildAlloc) / (1 << 20)

	b.rep.spanFile = filepath.Join(o.outDir, b.w.name+".spans.jsonl")
	return writeSpans(b.rep.spanFile, r.spans)
}

func allStats(outs []caseOut) core.Stats {
	var all core.Stats
	for i := range outs {
		all.Add(&outs[i].stats)
	}
	return all
}

const parallelReps = 5

const parallelRepID = -3 // and below

// parallelPass measures the parallel engine on the rep's cases with one
// worker and with one worker per host CPU, at GOMAXPROCS = host CPUs.
// Rule 4: these are layer metrics only. Even their best-of moves by a
// third between runs on a shared two-CPU host.
func (b *bench) parallelPass(ref []caseOut, seqRun float64, quick bool) error {
	ncpu := runtime.NumCPU()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(ncpu))
	reps := parallelReps
	if quick {
		reps = 1
	}
	failedBefore := b.rep.failed
	measure := func(workers int) (float64, error) {
		var runs []float64
		for i := 0; i < reps; i++ {
			if _, err := b.runRep(parallelRepID-i, ref, core.WithEngine(parallel.New(workers))); err != nil {
				return 0, err
			}
			runs = append(runs, b.rec.seconds(spRun))
		}
		return fast10(runs), nil
	}
	w1, err := measure(1)
	if err != nil {
		return err
	}
	layer := b.rep.layer
	layer["parallel.run_s_w1"] = w1
	layer["parallel.vs_seq"] = ratio(seqRun, w1)
	// A scaling figure from more workers than CPUs would measure the host
	// scheduler; it stays 0, and prints as unresolved.
	if ncpu >= 2 {
		wn, err := measure(ncpu)
		if err != nil {
			return err
		}
		layer["parallel.run_s_wn"] = wn
		layer["parallel.scaling"] = ratio(w1, wn)
	}
	layer["parallel.parity"] = 1
	if b.rep.failed > failedBefore {
		layer["parallel.parity"] = 0
	}
	return nil
}

var calibBuf = make([]uint64, 1<<20) // 8 MB: larger than the L2 cache

var calibSink uint64

// calibrate times two fixed loops, one of pure arithmetic and one that
// scans memory. They do not track the simulator's own noise (README), but
// a run whose figures are both high ran in a slow phase of the host.
func calibrate() (spin, scan float64) {
	t := time.Now()
	x := uint64(1)
	for i := 0; i < 20_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spin = time.Since(t).Seconds()
	t = time.Now()
	for pass := 0; pass < 32; pass++ {
		for i := 0; i < len(calibBuf); i += 8 {
			calibBuf[i] += x
		}
	}
	scan = time.Since(t).Seconds()
	calibSink += x + calibBuf[0]
	return spin, scan
}

// memoryRepCost is how many reps' time the memory rep is allowed for.
const memoryRepCost = 2

const memoryRepID = -2

// memoryRep measures what the workload's largest case needs resident. The
// peak RSS of the timed reps is set by the moment the collector fell
// furthest behind, and moves by a third between runs of the same code. So
// one more rep runs with the collector off; before each case all free
// memory goes back to the system and the kernel's peak-RSS watermark is
// reset. A case's peak is then what was live before it plus everything it
// allocated, which repeats. Where the kernel refuses the reset the result
// is the peak of the whole run.
func (b *bench) memoryRep(ref []caseOut) (float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var peak float64
	first := true
	b.beforeCase = func() {
		if !first {
			peak = max(peak, peakRSSMB())
		}
		first = false
		debug.FreeOSMemory()
		_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // refused: peaks accumulate
	}
	_, err := b.runRep(memoryRepID, ref)
	b.beforeCase = nil
	return max(peak, peakRSSMB()), err
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes is the cumulative bytes allocated on the Go heap.
func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}
