package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/kernel_digests.txt from this run")

// TestKernelDigests pins, for the nine kernels on both protocols and both
// agent layouts at 4 processes, the completion time, a digest of
// AggregateStats and a digest of SnapshotShared to the values committed in
// testdata/kernel_digests.txt, and the same for LU and LU-Contig at 12 and
// 16 processes, which deadlocked until PR 19 (ROADMAP item 1a). A change to
// how the system lays out or constructs memory must not move any of them;
// one that moves where blocks are homed moves cycles and statistics of the
// kernels it touches and never a memory digest. Regenerate with -update only
// when a change is meant to alter simulated behaviour.
//
// A directory that grants a read of a migratory block exclusive moved four
// rows, all Base-Shasta dirinval; the 4-process SMP rows run on one node,
// one agent, and never classify a block. Raytrace, Water-Nsq and Water-Sp
// at 4 processes take 0.93x, 0.86x and 0.97x the cycles: their
// lock-protected read-modify-writes (work-queue word, accumulators, box
// counters) cost one miss, not a read and an upgrade. LU-Contig at 12 takes
// 1.01x: the blocks neighbouring ranks both write classify, and each of the
// reads then granted one exclusive was by a rank that gave it up unwritten,
// which declassified it.
//
// Tardis leases that double on renewal moved eight Tardis rows, and no
// memory digest: those where a block's lease runs out and the same version
// is read again, which on one node (the 4-process SMP rows) never happens.
// Raytrace and Volrend at 4 Base processes take 0.73x and 0.78x the cycles,
// their read-only scene and volume no longer re-fetched after every
// synchronization; Barnes 0.99x. FMM takes 1.02x, Water-Nsq 1.001x and LU at
// 16 processes 1.004x (SMP and Base): a block whose lease grew while it was
// read pushes the next write's timestamp, and so the acquirers', further.
//
// A Tardis home that grants a read of a migratory block exclusive moved four
// Tardis Base-Shasta rows, and no memory digest; the 4-process SMP rows run
// on one agent, and LU's and LU-Contig's SMP rows at 12 and 16 do not move.
// Water-Nsq and Water-Sp at 4 processes take 0.92x and 0.96x the cycles:
// their lock-protected accumulators and box counters cost one miss per
// hand-off, not a recall and a read-exclusive. Raytrace takes 1.001x: its
// work-queue word is granted on 19 reads, which take the write's timestamp
// jump one access early and expire the grantee's leases sooner (402 -> 367
// renewals). LU-Contig at 12 takes 1.015x: of the 7 reads granted exclusive,
// all 7 were by a rank that gave the block up unwritten and declassified it.
//
// Tardis leases sized by the version's age, in place of renewal doubling,
// moved six Tardis rows, and no memory digest. Raytrace at 4 Base processes
// takes 0.93x the cycles: its scene is leased long from the first read, not
// after a run-out per doubling (expiries 133 -> 20). Barnes takes 0.997x and
// LU at 12 Base processes 0.9993x, for the same reason. LU's SMP row at 12
// keeps its cycles; one expiry, and with it 4 direct downgrades, is gone.
// FMM takes 1.004x and Water-Nsq 1.056x: a block leased long while it was
// only read pushes the next write's grant, and the releases after it, further
// ahead, so more of the acquirers' leases expire (FMM 49 -> 83, Water-Nsq
// 72 -> 88); Water-Nsq's home also declassifies 18 blocks, not 7, for 25 more
// read misses and 19 more write misses.
//
// Tardis poll ticks that drop copies only for a process idle since its
// previous tick moved fifteen Tardis rows, and no memory digest; the
// 4-process SMP rows run on one agent, which holds no lease. At 4 Base
// processes Raytrace takes 0.89x the cycles (read misses 448 -> 328),
// Water-Nsq 0.96x (306 -> 281), FMM 0.988x, Barnes 0.997x and LU 0.996x:
// busy processes no longer lose read-only copies to the tick (Barnes' 1 249
// ticks are all skipped). LU at 12 and 16 Base processes takes 0.976x and
// 0.998x, for the same reason (141 -> 132 and 181 -> 180). Volrend takes
// 1.002x: one read miss fewer, but its processes reach the work-queue locks
// in another order and wait for them 50 640 -> 90 020 cycles. LU's SMP rows
// at 12 and 16 take 1.0005x and 1.007x, and LU-Contig's at 12 1.002x, with
// fewer read misses: copies the ticks dropped during computation now expire
// at barrier releases (LU at 16: 0 -> 12 expiries), on the way out of the
// barrier; LU-Contig's at 16 takes 0.9994x. LU-Contig's Base rows at 4, 12
// and 16 keep their cycles and misses: fewer ticks drop a copy an open batch
// covers, so fewer flag fills are deferred (36 -> 24, 194 -> 132, 75 -> 0).
//
// An SMP downgrade that completes at the last node-mate to apply it, with
// no downgrade ack back to a handler waiting for it, moved the eight SMP
// rows at 12 and 16 processes, and no memory digest; Base-Shasta and the
// 4-process rows (one node, no remote request) have no explicit downgrade.
// LU on dirinval keeps its cycles at 12 and 16: only its messages fall,
// 208 -> 196 and 308 -> 292, by the 12 and 16 acks. LU on Tardis takes
// 0.974x and 0.976x the cycles, LU-Contig on dirinval 0.933x and 0.877x,
// and on Tardis 0.888x and 0.904x: the handler that sends a downgrade no
// longer stalls, and the requester waits for no ack hop (LU-Contig on
// dirinval at 16: 434 -> 403 messages, though 67 -> 103 downgrades are
// explicit, since a node-mate the handler no longer waits for is more
// often back in application code). These kernels take no MP lock.
//
// A home's requests and its barrier's arrivals served by whichever process
// of its node looks first (the agent's queue) moved the same eight rows, and
// no memory digest. LU takes 0.988x and 0.947x the cycles on dirinval and
// 0.985x and 0.940x on Tardis, LU-Contig 0.982x and 0.964x, and 0.981x and
// 0.921x: a request no longer waits for its home process to poll while a
// node-mate idles at the barrier.
func TestKernelDigests(t *testing.T) {
	const path = "testdata/kernel_digests.txt"
	type layout struct {
		name    string
		variant core.ProtocolVariant
	}
	layouts := []layout{{"smp", core.SMPShasta()}, {"base", core.BaseShasta()}}
	var out strings.Builder
	digest := func(app *App, proto string, v layout, procs int, suffix string) {
		sys := core.Build(core.WithMaxTime(sim.Cycles(900e6)),
			core.WithVariant(v.variant), core.WithProtocol(proto))
		res, err := Run(sys, app, RunConfig{Procs: procs})
		if err != nil {
			t.Fatalf("%s %s %s %d procs: %v", app.Name, proto, v.name, procs, err)
		}
		stats := sha256.Sum256([]byte(fmt.Sprintf("%v", sys.AggregateStats())))
		mem := sha256.New()
		var word [8]byte
		for _, w := range sys.SnapshotShared() {
			binary.LittleEndian.PutUint64(word[:], w)
			mem.Write(word[:])
		}
		fmt.Fprintf(&out, "%s-%s-%s%s %d %x %x\n", app.Name, proto, v.name, suffix,
			res.Elapsed, stats[:8], mem.Sum(nil)[:8])
	}
	for _, app := range All() {
		for _, proto := range core.ProtocolNames() {
			for _, v := range layouts {
				digest(app, proto, v, 4, "")
			}
		}
	}
	for _, app := range []*App{LU(), LUContig()} {
		for _, proto := range core.ProtocolNames() {
			for _, v := range layouts {
				for _, procs := range []int{12, 16} {
					digest(app, proto, v, procs, fmt.Sprintf("-%dp", procs))
				}
			}
		}
	}
	if *updateGoldens {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines for %d cases", path, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("got  %s (case cycles stats mem)\nwant %s", got[i], want[i])
		}
	}
}

// TestKernelRunAllocationBounded guards short runs against paying for the
// whole shared region again: Barnes at one process allocates 48 KB of
// shared memory, and building the default 4-node system, running it and
// tearing it down must allocate no more than a small multiple of
// agents x that (2.5x when written; 100x when every agent's image was
// sized to SharedBytes).
func TestKernelRunAllocationBounded(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys := core.Build()
	if _, err := Run(sys, Barnes(), RunConfig{Procs: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	agents, shared := sys.Cfg.Nodes, len(sys.SnapshotShared())*8
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*agents*shared); got > limit {
		t.Errorf("run allocated %d bytes for %d shared bytes on %d agents, want at most %d", got, shared, agents, limit)
	}
}

// TestLookaheadWindowsSaveSteps pins the two things that keep a process
// running where strict global order switched at nearly every Advance.
// Lookahead windows: on eight single-CPU nodes each node runs a wire latency
// past the others before it yields (Barnes at scale 4 under Tardis, with
// every array homed at process 0 as it then was: 517 242 scheduler steps in
// global order, 99 073 in windows). And Compute in closed form: on four
// 4-CPU nodes, where a node's processes hem each other in and windows alone
// left Barnes at 455 131 steps and Raytrace at 140 572, a stretch of polls
// that find nothing is one step, not one per poll. It must not cost the
// eight single-CPU nodes anything, whose shards hold one process each.
// Cycles and Barnes' step caps are those of round-robin homes (the Alloc
// default since PR 21): the processes that sat stalled behind process 0 now
// run, so Barnes finishes in 0.65x and 0.47x the cycles and takes 118 198
// and 312 822 steps for them, where it took 99 073 and 216 203. The two SMP
// rows are also those of forwards and invalidations sent to the process that
// asked for the block, not to the first process of its node (PR 22): 0.93x
// and 0.91x the cycles again, for 313 940 steps in Barnes. And those of MP
// barriers and locks whose node-mates synchronize through node memory: 0.99x
// the cycles in Barnes, for 315 435 steps, and 1.15x in Raytrace, whose one
// lock is handed on in a different order. And those of an MP lock handed on
// first to a waiter on the releaser's node, for at most as many hand-offs in
// a row as the node has processes: 0.61x the cycles in Raytrace, whose
// work-queue word then stays in one node's memory, for 35 817 steps, and
// 0.999x in Barnes, for 315 755 steps. And those of a directory that grants
// a read of a migratory block exclusive: 0.92x the cycles in Barnes, whose
// lock-protected cell updates read then write the cell, for 293 475 steps,
// and 0.77x in Raytrace, whose work-queue word moves the same way, for
// 34 318 steps. The Tardis row is also that of leases that double on
// renewal: 0.988x the cycles, as blocks read again after a synchronization
// without having changed are no longer re-fetched; and that of a Tardis home
// that grants a read of a migratory block exclusive: 0.96x the cycles, as
// Barnes' lock-protected cell updates cost one miss, not two. And that of
// Tardis clocks kept in step with the data: 0.94x the cycles, as a poll tick
// drops one copy instead of moving pts past every lease, and a store's grant
// under RC no longer moves the writer's pts past the leases it reads under.
// And that of Tardis leases sized by the version's age in place of renewal
// doubling: 1.002x the cycles, as the bodies' and cells' leases now run long
// from the first read and the writes after them land further ahead. And
// that of Tardis poll ticks that drop copies only for a process idle since
// its previous tick: 0.995x the cycles, as 5 134 of Barnes' 5 138 ticks are
// skipped and read misses fall 27 252 -> 26 932. The two SMP rows are also
// those of a directory whose write grant leaves after the home has
// invalidated its own node's copy, so the writer waits for no ack from the
// home: 0.978x the cycles in Barnes and 1.002x in Raytrace, which sends
// two messages fewer and waits 0.4 % longer for its work-queue lock. And
// those of an SMP downgrade that completes at the last node-mate to apply
// it, with no downgrade ack back to a handler waiting for it, and of each
// node's MP lock messages going to a different process of the lock home's
// node: 0.992x the cycles in Barnes and 0.967x in Raytrace. And those of a
// remote node's processes that queue for an MP lock in their node's slot
// and hand it on in node memory, with no message through the home: 0.982x
// the cycles in Barnes and 0.866x in Raytrace. And those of a home's
// requests, lock and barrier messages served by whichever process of its
// node looks first (the agent's queue): 0.956x the cycles in Barnes, for
// 302 721 steps, and 0.972x in Raytrace.
func TestLookaheadWindowsSaveSteps(t *testing.T) {
	for _, c := range []struct {
		app      *App
		opts     []core.Option
		procs    int
		elapsed  sim.Time
		maxSteps int64
	}{
		{Barnes(), []core.Option{core.WithProcs(8, 1), core.WithVariant(core.BaseShasta()), core.WithProtocol("tardis")},
			8, 29985734, 118198 * 101 / 100},
		{Barnes(), []core.Option{core.WithProcs(4, 4), core.WithVariant(core.SMPShasta())}, 16, 12862107, 313940 * 101 / 100},
		{Raytrace(), []core.Option{core.WithProcs(4, 4), core.WithVariant(core.SMPShasta())}, 16, 2081869, 140572 / 3},
	} {
		sys := core.Build(append(c.opts, core.WithMaxTime(sim.Cycles(900e6)))...)
		res, err := Run(sys, c.app, RunConfig{Procs: c.procs, Scale: 4})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s at %d procs", c.app.Name, c.procs)
		if res.Elapsed != c.elapsed {
			t.Errorf("%s: elapsed %d cycles, want %d", name, res.Elapsed, c.elapsed)
		}
		n := sys.Eng.SchedCounters()
		if n.Steps > c.maxSteps || n.Steps != n.Switches+n.SelfPicks {
			t.Errorf("%s: %d scheduler steps (%d switches + %d self-picks), want at most %d", name, n.Steps, n.Switches, n.SelfPicks, c.maxSteps)
		}
		if n.Windows == 0 || n.HorizonClamps == 0 {
			t.Errorf("%s: %d windows, %d horizon clamps for %d steps", name, n.Windows, n.HorizonClamps, n.Steps)
		}
		if n.Parks == 0 || n.EarlyWakes == 0 || n.EarlyWakes > n.Parks || n.Parks > n.Steps {
			t.Errorf("%s: %d parks, %d early wakes for %d steps", name, n.Parks, n.EarlyWakes, n.Steps)
		}
	}
}

// TestNoHomeHotSpot: with sixteen processes on four 4-CPU nodes no process
// does more than a quarter of the system's message handling, on either
// protocol. While every block of Barnes' bodies and tree and of Water-Nsq's
// molecules was homed at process 0, that process spent 77 % and 53 % of all
// handler cycles (92 % and 65 % under Tardis) and everyone else waited for it.
// LU's p0, the home of its barrier, spent 44 % (60 % under Tardis) while
// every arrival and release was a message to or from it; Volrend's spent
// 48 % while its four work counters were all homed there and its four locks
// on its node.
func TestNoHomeHotSpot(t *testing.T) {
	for _, app := range []*App{Barnes(), WaterNsq(), LU(), Volrend()} {
		for _, proto := range core.ProtocolNames() {
			sys := core.Build(core.WithMaxTime(sim.Cycles(900e6)), core.WithProcs(4, 4),
				core.WithVariant(core.SMPShasta()), core.WithProtocol(proto))
			if _, err := Run(sys, app, RunConfig{Procs: 16, Scale: 4}); err != nil {
				t.Fatalf("%s %s: %v", app.Name, proto, err)
			}
			if p, msgs, cycles := sys.Busiest(); cycles > 0.25 {
				t.Errorf("%s %s: p%d handled %.0f %% of messages and spent %.0f %% of handler cycles, want at most 25 %%",
					app.Name, proto, p.ID, 100*msgs, 100*cycles)
			}
		}
	}
}

// TestNoNodeLeaderHotSpot: with four processes to a node, none spends more
// than 1.5x the handler cycles of its node-mates' mean. While every forward,
// recall and invalidation for a node's copy went to the node's first process,
// which then had to downgrade the node-mate that held the line, that process
// spent 4.3x (Barnes) and 7x (Volrend) its mates' mean on dirinval. Each of
// Volrend's four work-queue locks is used by one rank per node; while every
// lock message went to the lock's home process (0, 4, 8 or 12), that process
// handled the requests and releases of three ranks on other nodes, 1.80x to
// 1.88x its mates' mean on dirinval and up to 1.72x on Tardis (1.42x there
// only while every process's handler cycles included its waits for
// node-mates' downgrade acks), and was held to 2x. Each node's lock
// messages then went to a different process of the home's node (1.21x at
// most). Now they go to the home's node, whose processes serve them as each
// looks first (1.3x at most, Volrend on Tardis), and no process is exempt.
func TestNoNodeLeaderHotSpot(t *testing.T) {
	for _, app := range []*App{Barnes(), Volrend()} {
		for _, proto := range core.ProtocolNames() {
			sys := core.Build(core.WithMaxTime(sim.Cycles(900e6)), core.WithProcs(4, 4),
				core.WithVariant(core.SMPShasta()), core.WithProtocol(proto))
			if _, err := Run(sys, app, RunConfig{Procs: 16, Scale: 4}); err != nil {
				t.Fatalf("%s %s: %v", app.Name, proto, err)
			}
			for node := 0; node < sys.Cfg.Nodes; node++ {
				if p, ratio := sys.BusiestInNode(node); ratio > 1.5 {
					t.Errorf("%s %s: p%d spends %.1fx the handler cycles of its node-mates' mean, want at most 1.5x",
						app.Name, proto, p.ID, ratio)
				}
			}
		}
	}
}
