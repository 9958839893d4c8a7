package analyze_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/memchannel"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/analyze"
	"repro/internal/workloads"
)

// runTraced executes the LU kernel on 8 processors (two nodes, so the
// protocol crosses the network) with tracing and returns the emitted JSONL
// alongside the system's own aggregate statistics.
func runTraced(t *testing.T) ([]byte, core.Stats) {
	t.Helper()
	var buf bytes.Buffer
	sys := core.Build(
		core.WithTrace(trace.New(trace.DefaultRingSize, &buf)),
		core.WithMaxTime(sim.Cycles(900e6)),
	)
	app, ok := workloads.Get("LU")
	if !ok {
		t.Fatal("LU workload missing")
	}
	if _, err := workloads.Run(sys, app, workloads.RunConfig{Procs: 8}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sys.AggregateStats()
}

// TestAnalyzerMatchesStats checks the acceptance criterion that the trace
// analyzer reconstructs exactly the same time-category totals and counters
// as core.Stats: the stats/* events are the system's own accounting, so any
// divergence means events were lost or double-counted.
func TestAnalyzerMatchesStats(t *testing.T) {
	raw, agg := runTraced(t)
	sum, err := analyze.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for _, cat := range core.Categories() {
		if got, want := sum.TimeByCategory[cat.String()], int64(agg.Time[cat]); got != want {
			t.Errorf("category %v: analyzer %d, stats %d", cat, got, want)
		}
	}
	for _, c := range core.Counters() {
		if got, want := sum.Counters[c.String()], agg.Get(c); got != want {
			t.Errorf("counter %v: analyzer %d, stats %d", c, got, want)
		}
	}
	if sum.TotalTime() != int64(agg.Total()) {
		t.Errorf("total time: analyzer %d, stats %d", sum.TotalTime(), agg.Total())
	}
	// The protocol ran: messages were sent and their sends were traced.
	if agg.MessagesSent() == 0 || sum.MsgSends["read-req"] == 0 {
		t.Errorf("expected traced read-req sends (stats: %d sent; trace: %v)",
			agg.MessagesSent(), sum.MsgSends)
	}
	var sends int64
	for _, n := range sum.MsgSends {
		sends += n
	}
	if sends != agg.MessagesSent() {
		t.Errorf("msg/send events %d != messages-sent counter %d", sends, agg.MessagesSent())
	}
	// Rendering should not panic and should mention the breakdown.
	if out := sum.Render(); len(out) == 0 {
		t.Error("empty render")
	}
}

// TestGoldenTraceDeterminism checks that two identical runs emit
// byte-identical traces: the simulator is deterministic, so the trace must
// be too — any divergence indicates nondeterminism (map iteration, real
// time, ...) leaking into the simulation or the tracer.
func TestGoldenTraceDeterminism(t *testing.T) {
	a, _ := runTraced(t)
	b, _ := runTraced(t)
	if !bytes.Equal(a, b) {
		la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
		n := len(la)
		if len(lb) < n {
			n = len(lb)
		}
		for i := 0; i < n; i++ {
			if !bytes.Equal(la[i], lb[i]) {
				t.Fatalf("traces diverge at line %d:\n  run1: %s\n  run2: %s", i+1, la[i], lb[i])
			}
		}
		t.Fatalf("trace lengths differ: %d vs %d lines", len(la), len(lb))
	}
}

// TestAnalyzerFaultEvents runs LU under the lossy fault profile and checks
// that the analyzer's fault tallies agree with the network's own counters
// and that per-link stats events reconstruct Network.LinkStats exactly.
func TestAnalyzerFaultEvents(t *testing.T) {
	var buf bytes.Buffer
	fc, err := memchannel.FaultProfile("lossy", 5)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.Build(
		core.WithTrace(trace.New(trace.DefaultRingSize, &buf)),
		core.WithMaxTime(sim.Cycles(900e6)),
		core.WithFaults(fc),
	)
	app, _ := workloads.Get("LU")
	if _, err := workloads.Run(sys, app, workloads.RunConfig{Procs: 8}); err != nil {
		t.Fatal(err)
	}
	sum, err := analyze.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	net := sys.Net.Stats()
	agg := sys.AggregateStats()
	if sum.NetDrops != net.Drops {
		t.Errorf("net/drop events %d != network drop counter %d", sum.NetDrops, net.Drops)
	}
	if sum.NetDups != net.Dups {
		t.Errorf("net/dup events %d != network dup counter %d", sum.NetDups, net.Dups)
	}
	if sum.NetRetx != agg.Retransmits() {
		t.Errorf("net/retx events %d != retransmits counter %d", sum.NetRetx, agg.Retransmits())
	}
	if sum.NetDrops == 0 || sum.NetRetx == 0 {
		t.Fatalf("lossy run produced no drops (%d) or retransmits (%d); faults inactive",
			sum.NetDrops, sum.NetRetx)
	}
	for node, ls := range sys.Net.LinkStats() {
		for name, want := range map[string]int64{
			"sends": ls.Sends, "bytes": ls.Bytes, "drops": ls.Drops, "dups": ls.Dups,
		} {
			if got := sum.LinkStats[node][name]; got != want {
				t.Errorf("link stats node %d %s: analyzer %d, network %d", node, name, got, want)
			}
		}
	}
	if out := sum.Render(); !strings.Contains(out, "faults:") || !strings.Contains(out, "per-link totals") {
		t.Errorf("render missing fault/link sections:\n%s", out)
	}
}

// TestAnalyzerMigratoryEvents: the summary counts the directory's
// migratory-sharing line events by name, ignores every other line event,
// and prints the counts in a line of their own.
func TestAnalyzerMigratoryEvents(t *testing.T) {
	var buf bytes.Buffer
	tr := trace.New(trace.DefaultRingSize, &buf)
	for _, ev := range []string{"migratory", "grant-migratory", "grant-migratory", "declassify", "shareWB"} {
		tr.Emit(trace.Event{Cat: "line", Ev: ev})
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	sum, err := analyze.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(sum.Migratory); got != "map[declassify:1 grant-migratory:2 migratory:1]" {
		t.Errorf("migratory counts %s", got)
	}
	if out := sum.Render(); !strings.Contains(out, "migratory sharing: migratory=1 grant-migratory=2 declassify=1\n") {
		t.Errorf("render missing the migratory-sharing line:\n%s", out)
	}
}

// TestInvalAcksAnswerInvalReqs: Barnes at 16 processes on 4x4 SMP-Shasta
// under dirinval, scale 4, sends 6 350 inval-reqs and as many inval-acks,
// and an ack too many fails the check. Every one of its 1 797 downgrade
// records that a handler left open for node-mates is finished by one of
// them. (6 345 inval-reqs while a handler that sent a downgrade request
// waited for its ack, and its MP lock messages all went to the lock's home
// process: the schedule moved with the ack hop and the lock server. 6 366
// and 1 648 while a remote node-mate's lock hand-off went through the
// lock's home: node-local hand-offs move the schedule again. 1 646 downgrade
// records before any process of a home's node served its requests: a
// node-mate that serves one more often has to downgrade the process that
// holds the line.)
func TestInvalAcksAnswerInvalReqs(t *testing.T) {
	var buf bytes.Buffer
	tr := trace.New(trace.DefaultRingSize, &buf)
	sys := core.Build(core.WithTrace(tr), core.WithMaxTime(sim.Cycles(900e6)), core.WithProcs(4, 4),
		core.WithVariant(core.SMPShasta()), core.WithProtocol("dirinval"))
	if _, err := workloads.Run(sys, workloads.Barnes(), workloads.RunConfig{Procs: 16, Scale: 4}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	sum, err := analyze.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if req, ack := sum.MsgSends["inval-req"], sum.MsgSends["inval-ack"]; req != 6350 || ack != 6350 {
		t.Errorf("%d inval-reqs and %d inval-acks, want 6350 of each", req, ack)
	}
	if err := sum.CheckInvalAcks(); err != nil {
		t.Error(err)
	}
	if sum.DowngradeOpens != 1797 || sum.DowngradeDones != 1797 {
		t.Errorf("%d downgrade records opened and %d done, want 1797 of each", sum.DowngradeOpens, sum.DowngradeDones)
	}
	if err := sum.CheckDowngrades(); err != nil {
		t.Error(err)
	}
	if n := sum.MsgSends["downgrade-ack"]; n != 0 {
		t.Errorf("%d downgrade-acks sent", n)
	}
	sum.MsgSends["inval-ack"]++
	if err := sum.CheckInvalAcks(); err == nil {
		t.Error("an inval-ack with no inval-req passed the check")
	}
}

// TestCheckDowngradesCatchesOpenRecord: the summary counts the core's
// dg-open and dg-done line events in a line of its own, and the check
// fails on a record its node-mates never finished and on a finish with no
// open record of the same block.
func TestCheckDowngradesCatchesOpenRecord(t *testing.T) {
	for _, c := range []struct {
		name   string
		events []trace.Event
		ok     bool
	}{
		{"finished", []trace.Event{{Ev: "dg-open", P: 1, Blk: 3}, {Ev: "dg-open", P: 5, Blk: 3}, {Ev: "dg-done", P: 2, Blk: 3}, {Ev: "dg-done", P: 6, Blk: 3}}, true},
		{"never-finished", []trace.Event{{Ev: "dg-open", P: 1, Blk: 3}, {Ev: "dg-open", P: 1, Blk: 4}, {Ev: "dg-done", P: 2, Blk: 3}}, false},
		{"finished-elsewhere", []trace.Event{{Ev: "dg-open", P: 1, Blk: 3}, {Ev: "dg-done", P: 2, Blk: 4}}, false},
	} {
		var buf bytes.Buffer
		tr := trace.New(trace.DefaultRingSize, &buf)
		for _, ev := range c.events {
			ev.Cat = "line"
			tr.Emit(ev)
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		sum, err := analyze.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := sum.CheckDowngrades(); (err == nil) != c.ok {
			t.Errorf("%s: check returned %v", c.name, err)
		}
		want := fmt.Sprintf("downgrade records: open=%d done=%d\n", sum.DowngradeOpens, sum.DowngradeDones)
		if out := sum.Render(); !strings.Contains(out, want) || sum.DowngradeOpens == 0 {
			t.Errorf("%s: render missing %q:\n%s", c.name, want, out)
		}
	}
}

// TestDowngradeOpenTimeByAgent: a dg-done finishes its agent's open record
// of the block, the one whose opener sent the finisher the block's last
// downgrade-req. Here p1 and p5 open records of block 3 on two agents, and
// p6, p5's target, finishes first: its record was open 30 cycles, p1's 40.
// A record finished by a process no request tied to its opener is counted
// but not timed.
func TestDowngradeOpenTimeByAgent(t *testing.T) {
	var buf bytes.Buffer
	tr := trace.New(trace.DefaultRingSize, &buf)
	for _, ev := range []trace.Event{
		{T: 10, Cat: "msg", Ev: "send", P: 1, O: 2, Blk: 3, S: "downgrade-req"},
		{T: 10, Cat: "line", Ev: "dg-open", P: 1, Blk: 3},
		{T: 20, Cat: "msg", Ev: "send", P: 5, O: 6, Blk: 3, S: "downgrade-req"},
		{T: 20, Cat: "line", Ev: "dg-open", P: 5, Blk: 3},
		{T: 50, Cat: "line", Ev: "dg-done", P: 6, Blk: 3},
		{T: 50, Cat: "line", Ev: "dg-done", P: 2, Blk: 3},
		{T: 60, Cat: "line", Ev: "dg-open", P: 9, Blk: 4},
		{T: 90, Cat: "line", Ev: "dg-done", P: 10, Blk: 4},
	} {
		tr.Emit(ev)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	sum, err := analyze.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sum.CheckDowngrades(); err != nil {
		t.Error(err)
	}
	want := "downgrade records: open=3 done=3\ndowngrade records open: mean=35 max=40 cycles (block 3, agent of p1)\n"
	if out := sum.Render(); !strings.Contains(out, want) {
		t.Errorf("render missing %q:\n%s", want, out)
	}
}

// TestLockMessagesPerAcquire: on 2x2 SMP-Shasta with an MP lock homed on
// node 0, node 1's two processes hold it three times each. Four of the five
// passages are hand-offs in node 1's memory, so the six acquires cost one
// request, two grants and two releases.
func TestLockMessagesPerAcquire(t *testing.T) {
	var buf bytes.Buffer
	tr := trace.New(trace.DefaultRingSize, &buf)
	sys := core.Build(core.WithTrace(tr), core.WithProcs(2, 2), core.WithVariant(core.SMPShasta()))
	lk := sys.NewLock(0)
	for i := 0; i < 4; i++ {
		sys.Spawn(fmt.Sprintf("p%d", i), i, func(p *core.Proc) {
			if p.ID < 2 {
				return
			}
			p.Compute(sim.Time(100 * (p.ID - 2)))
			for n := 0; n < 3; n++ {
				p.LockAcquire(lk)
				p.Compute(2_000)
				p.LockRelease(lk)
				p.Compute(200)
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	sum, err := analyze.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := "\nmp locks: acquires=6 messages=5 per-acquire=0.83\n"; !strings.Contains(sum.Render(), want) {
		t.Errorf("render missing %q:\n%s", want, sum.Render())
	}
	if out := (&analyze.Summary{}).Render(); strings.Contains(out, "mp locks") {
		t.Errorf("an empty summary prints a lock line:\n%s", out)
	}
}

// TestAnalyzerTardisMigratoryEvents: a Tardis home emits the same
// migratory-sharing events as the directory. Water-Nsq on eight Base-Shasta
// processes, whose accumulators are read then written under locks, has
// blocks classified and reads of them granted exclusive (56 and 138 when
// written; before the Tardis home detected migratory blocks, none).
func TestAnalyzerTardisMigratoryEvents(t *testing.T) {
	var buf bytes.Buffer
	tr := trace.New(trace.DefaultRingSize, &buf)
	if err := runKernel("Water-Nsq", 8, core.WithTrace(tr), core.WithProcs(8, 1),
		core.WithVariant(core.BaseShasta()), core.WithProtocol("tardis")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	sum, err := analyze.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Migratory["migratory"] == 0 || sum.Migratory["grant-migratory"] == 0 {
		t.Errorf("migratory counts %v, want classified blocks and reads granted exclusive", sum.Migratory)
	}
	if out := sum.Render(); !strings.Contains(out, "\nmigratory sharing: migratory=") {
		t.Errorf("render missing the migratory-sharing line:\n%s", out)
	}
}

// TestAnalyzerRunOutEvents: the summary counts Tardis's runout line events
// by cause and its tick line events by decision, apart from the migratory
// ones, and prints each kind in a line of its own, every cause and decision
// named; a trace without them prints no such line.
func TestAnalyzerRunOutEvents(t *testing.T) {
	var buf bytes.Buffer
	tr := trace.New(trace.DefaultRingSize, &buf)
	for _, ev := range []trace.Event{
		{Cat: "line", Ev: "tick", S: "drop"},
		{Cat: "line", Ev: "runout", S: "tick"},
		{Cat: "line", Ev: "migratory"},
		{Cat: "line", Ev: "runout", S: "expire"},
		{Cat: "line", Ev: "tick", S: "busy"},
		{Cat: "line", Ev: "shareWB"},
		{Cat: "line", Ev: "tick", S: "busy"},
		{Cat: "line", Ev: "tick", S: "drop"},
		{Cat: "line", Ev: "runout", S: "tick"},
	} {
		tr.Emit(ev)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	sum, err := analyze.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(sum.RunOuts) != "map[expire:1 tick:2]" || fmt.Sprint(sum.Migratory) != "map[migratory:1]" {
		t.Errorf("runout counts %v, migratory counts %v; want map[expire:1 tick:2] and map[migratory:1]", sum.RunOuts, sum.Migratory)
	}
	if fmt.Sprint(sum.Ticks) != "map[busy:2 drop:2]" {
		t.Errorf("tick counts %v, want map[busy:2 drop:2]", sum.Ticks)
	}
	if out := sum.Render(); !strings.Contains(out, "\ntardis leases: runout expire=1 tick=2 ll=0\ntardis ticks: drop=2 busy=2 wrote=0\n") {
		t.Errorf("render missing the lease and tick lines:\n%s", out)
	}
	if out := (&analyze.Summary{}).Render(); strings.Contains(out, "tardis leases") || strings.Contains(out, "tardis ticks") {
		t.Errorf("an empty summary prints a lease or tick line:\n%s", out)
	}
}

var updateGoldens = flag.Bool("update", false, "rewrite testdata/trace_digests.txt and testdata/trace_multiset_digests.txt from this run")

// goldenTraceCases are the runs whose whole JSONL trace (scheduler
// switch/preempt/exit events included) is pinned byte for byte.
var goldenTraceCases = []struct {
	name string
	run  func(tr *trace.Tracer) error
}{
	{"lu-8p-base", func(tr *trace.Tracer) error {
		return runKernel("LU", 8, core.WithTrace(tr), core.WithVariant(core.BaseShasta()))
	}},
	{"ocean-16p-4x4-smp-dirinval", func(tr *trace.Tracer) error {
		return runKernel("Ocean", 16, core.WithTrace(tr), core.WithProcs(4, 4),
			core.WithVariant(core.SMPShasta()), core.WithProtocol("dirinval"))
	}},
	{"barnes-8p-8x1-tardis", func(tr *trace.Tracer) error {
		return runKernel("Barnes", 8, core.WithTrace(tr), core.WithProcs(8, 1),
			core.WithVariant(core.BaseShasta()), core.WithProtocol("tardis"))
	}},
	{"load-4-tenants", func(tr *trace.Tracer) error {
		const horizon = 400_000
		ts := load.DefaultTenants(4, 1, 10)
		for i := range ts {
			// The mix of the oltp-open benchmark workload: the default
			// 16-page DSS scans livelock on one seed in ten.
			ts[i].Arrival, ts[i].DSSFraction = "poisson", 0
		}
		sys := core.Build(core.WithTrace(tr), core.WithMaxTime(4*horizon))
		_, err := load.Run(sys, load.Config{Tenants: ts, Horizon: horizon, Policy: "locality", RowCompute: 500})
		return err
	}},
}

func runKernel(name string, procs int, opts ...core.Option) error {
	app, ok := workloads.Get(name)
	if !ok {
		return fmt.Errorf("%s workload missing", name)
	}
	sys := core.Build(append([]core.Option{core.WithMaxTime(sim.Cycles(900e6))}, opts...)...)
	_, err := workloads.Run(sys, app, workloads.RunConfig{Procs: procs})
	return err
}

// TestGoldenTraceDigest pins every golden run's trace twice.
//
// testdata/trace_multiset_digests.txt holds trace.MultisetDigest of the
// stream: which events a run emits, with which timestamps and payloads, in
// any order. It was recorded on the commit before the built-in driver
// learned lookahead windows, when one shard ran every process in global
// time order, and a scheduler change must not move it. (lu-8p-base and
// barnes-8p-8x1-tardis were recorded again when Alloc began to spread homes
// round-robin by default: LU's matrix and Barnes' bodies and tree were all
// homed at process 0 until then; ocean-16p-4x4-smp-dirinval when forwards
// and invalidations began to go to the process that asked for the block and
// not to its node's first process, the one case here with several processes
// to a node; barnes-8p-8x1-tardis again when Tardis leases began to double
// on renewal, which changes which reads miss and emits lease-grow events,
// again when Tardis poll ticks stopped moving pts and RC store grants began
// to raise a timestamp of their own, which changes which leases run out, and
// again when Tardis leases began to be sized by the version's age, which
// changes which reads miss, and every dropped lease began to emit a runout
// event in place of the lease-grow ones, and again when Tardis poll ticks
// began to drop copies only for a process idle since its previous tick,
// which changes which leases run out, and every tick of an agent that holds
// a lease began to emit a tick event naming its decision; load-4-tenants
// when each node's MP lock messages began to go to a different process of
// the lock home's node, not all to the home, since its tenants' latches are
// MP locks on four 4-CPU nodes, and again when a remote node's processes
// began to hand those latches on to each other in node memory;
// ocean-16p-4x4-smp-dirinval and load-4-tenants again when any process of a
// home's node began to serve the requests for its home records, locks and
// barriers, which moves who handles them and when; all four again when an
// exited process stopped waking on a back-off to look for work and began
// to park on its queues until the run is at rest, which moves only each
// process's sched exit event and the timestamps of its final stats events
// to the clock at which it last parked.)
//
// testdata/trace_digests.txt holds the sha256 of the bytes. Stream order is
// windows in driver order: within a node by time, across nodes as the
// driver ran their windows, each up to a lookahead past the others. That
// order is deterministic run to run, so a change that reorders, drops or
// retimes any event fails here even though it repeats. (load-4-tenants was
// recorded again when an idle worker's spin on its ring began to park until
// a message, a tick or the dispatcher's write could end it, and a put to a
// queue several processes serve began to wake one parked in a stretch of
// polls at its first poll at or after the arrival: its processes yield at
// other instants, so the driver runs its windows in another order, while
// the multiset of events stays what it was. barnes-8p-8x1-tardis was
// recorded again when a put to a queue only one process serves, as every
// queue on Base-Shasta is, began to wake that process, parked in a stretch,
// at its first poll at or after the arrival, no later than the park's
// stop, and not at the arrival: the woken process no longer runs at the
// arrival only to go on to that poll, and the put clamps its sender's
// window at the later instant, so both yield at other instants and the
// driver runs the windows in another order. ocean-16p-4x4-smp-dirinval,
// barnes-8p-8x1-tardis and load-4-tenants were recorded again when each
// action began to be one charge: a send with its shared queue's lock, a
// take from a shared queue with its handler's entry, a lock's or barrier's
// protocol entry with its read of the agent's slot, and the load
// generator's warm-up fills a page in one block store. The same events
// land at the same instants, but processes yield at fewer of them, so the
// driver emits them in another host order. load-4-tenants was recorded
// again when the dispatcher began to compute toward its next arrival with
// ComputeUntil, whose full chunks are one stretch, where a loop of 500-cycle
// Computes parked once a chunk: the same events, yielded at other instants.)
//
// Regenerate with -update only when a change is meant to alter the
// simulated schedule, and look at which of the two files moved.
func TestGoldenTraceDigest(t *testing.T) {
	files := []struct {
		path string
		got  map[string]string
		out  strings.Builder
	}{{path: "testdata/trace_digests.txt"}, {path: "testdata/trace_multiset_digests.txt"}}
	for i := range files {
		files[i].got = map[string]string{}
	}
	for _, c := range goldenTraceCases {
		h, md := sha256.New(), trace.NewMultisetDigest()
		tr := trace.New(trace.DefaultRingSize, io.MultiWriter(h, md))
		if err := c.run(tr); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := tr.Flush(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i, d := range []string{hex.EncodeToString(h.Sum(nil)), fmt.Sprintf("%016x", md.Sum64())} {
			files[i].got[c.name] = d
			fmt.Fprintf(&files[i].out, "%s %s\n", c.name, d)
		}
	}
	for i := range files {
		f := &files[i]
		if *updateGoldens {
			if err := os.WriteFile(f.path, []byte(f.out.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		raw, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		want := strings.Fields(string(raw))
		if len(want) != 2*len(goldenTraceCases) {
			t.Fatalf("%s: %d fields for %d cases", f.path, len(want), len(goldenTraceCases))
		}
		for j := 0; j < len(want); j += 2 {
			if f.got[want[j]] != want[j+1] {
				t.Errorf("%s: %s: got %s, golden %s", f.path, want[j], f.got[want[j]], want[j+1])
			}
		}
	}
}
