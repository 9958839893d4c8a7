package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestSCFailKeepsHomeMasterCopy: an SC upgrade refused while the process
// that asked was descheduled keeps the home's master copy, on both
// backends. Four nodes of two CPUs; the word is homed at process 0, and r,
// on the home's node, shares its CPU with mate, so the quantum takes the
// CPU from r for a whole slice. Any process of the home's node serves the
// home's requests, r too while it stalls, so r must be off its CPU before
// either request below is there to serve. r issues its SC upgrade just
// before the end of one of its slices, and intra-node messages are slowed
// so that its upgrade reaches the home's queue well after w's write:
//
//  1. the home's node serves w's write first: it makes w the owner, and
//     r's pending upgrade absorbs the invalidation of the home's node;
//  2. it refuses r's SC upgrade, its node no longer being a sharer;
//  3. a read from a third node is forwarded to w, and w's share-wb puts
//     the written value in the home's memory: the master copy is valid
//     again, and the home's node shares it.
//
// r handles the refusal only then. If that flag-fills the home's copy,
// which is the master copy now, the directory names a copy that holds the
// flag, and a reader on a fourth node gets the flag for data. Under Tardis
// the home defers w's write behind r's pending upgrade (serveMaster's
// deferIfPending), so the upgrade is granted and no refusal comes; that
// cell checks the same end state.
func TestSCFailKeepsHomeMasterCopy(t *testing.T) {
	// The third node's first read, at readAt, makes the home's copy a
	// shared master copy, from which r's LL fills. r's slices on its shared
	// CPU end near 20 000, 75 000 and 130 000: its SC upgrade leaves at
	// scAt, and it is off its CPU from about 75 000 to 110 000, before w's
	// write, which leaves at writeAt, reaches the home's node a wire
	// latency later, and before its own upgrade, which takes the slowed
	// intra-node latency. The third node reads again once w's grant has
	// invalidated its copy, at scAt+8*wire, and the fourth node reads at
	// lateAt, after r has handled the refusal.
	const readAt, llAt, writeAt, scAt, lateAt, end = 10_000, 60_000, 74_300, 74_500, 150_000, 200_000
	const want = 5
	for _, proto := range ProtocolNames() {
		t.Run(proto, func(t *testing.T) {
			cfg := testConfig()
			cfg.Nodes, cfg.CPUsPerNode = 4, 2
			cfg.Cost.Quantum = 20_000
			cfg.Net.IntraNodeLatency = 10 * sim.CyclesPerMicrosecond
			cfg.Protocol = proto
			tr := trace.NewBuffer()
			s := Build(WithConfig(cfg), WithTrace(tr))
			wire := s.Cfg.Net.WireLatency
			// Compute(c) charges its polls on top of c, and on a shared CPU
			// the clock runs on while the process is descheduled: positions
			// are taken by the clock, in small steps.
			until := func(p *Proc, at sim.Time) {
				for p.Now() < at {
					p.Compute(50)
				}
			}
			var addr uint64
			scOK := true
			var got uint64
			s.Spawn("home", 0, func(p *Proc) { until(p, end) })
			s.Spawn("r", 1, func(p *Proc) {
				until(p, llAt)
				v := p.LoadLocked(addr)
				until(p, scAt)
				scOK = p.StoreCond(addr, v+1)
				until(p, end)
			})
			s.Spawn("w", 2, func(p *Proc) {
				until(p, writeAt)
				p.Store(addr, want)
				p.MemBar()
				until(p, end)
			})
			s.Spawn("reader", 4, func(p *Proc) {
				until(p, readAt)
				p.Load(addr)
				until(p, scAt+8*wire)
				p.Load(addr)
				until(p, end)
			})
			s.Spawn("late", 6, func(p *Proc) {
				until(p, lateAt)
				got = p.Load(addr)
			})
			s.Spawn("mate", 1, func(p *Proc) { until(p, end) })
			addr = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			// That the race ran under dirinval: r's refusal was handled
			// after the share-wb landed at the home's node.
			var shareWB, refused sim.Time
			for _, ev := range tr.TakeBuffered() {
				switch {
				case ev.Cat == "msg" && ev.Ev == "handle" && ev.S == "share-wb" && s.Proc(ev.P).Node() == 0:
					shareWB = ev.T
				case ev.Cat == "line" && ev.Ev == "finish:scfail" && ev.P == 1:
					refused = ev.T
				}
			}
			if proto == "dirinval" && (scOK || refused == 0 || shareWB == 0 || refused < shareWB) {
				t.Fatalf("the race did not run: SC ok %v, refusal handled at %d, share-wb at the home at %d", scOK, refused, shareWB)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Error(err)
			}
			if got != want {
				t.Errorf("a reader on a fourth node read %#x, want %d", got, want)
			}
		})
	}
}
