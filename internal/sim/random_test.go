package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/parallel"
)

const randomLookahead = sim.Time(400)

// driver is one way of running a random program: the built-in driver on one
// shard in strict global order (lookahead 0), the built-in driver on
// per-node shards in lookahead windows, or a parallel runner's rounds over
// the same shards.
type driver struct {
	name      string
	lookahead sim.Time
	workers   int // parallel.New(workers) when positive
}

var (
	oneShard   = driver{name: "one shard"}
	nodeShards = driver{name: "per-node shards", lookahead: randomLookahead}
	allDrivers = []driver{oneShard, nodeShards,
		{"parallel(1)", randomLookahead, 1}, {"parallel(2)", randomLookahead, 2},
		{"parallel(3)", randomLookahead, 3}, {"parallel(4)", randomLookahead, 4}}
)

// shape says what a random program may contain.
type shape struct {
	shared  bool // several processes per CPU, with random priorities
	quantum bool // the configuration may have a quantum and a switch cost
	release bool // processes park with Block and Sleep as well as Wait
	spawns  bool // process 0 starts children on the next node in mid-run
}

var (
	// anything is every kind of operation at once, for the per-step oracle.
	anything = shape{shared: true, quantum: true, release: true, spawns: true}
	// sharedCPUs and ownCPUs are the two kinds of program whose processes do
	// the same at the same simulated times under every driver. A process's
	// preemption points must not depend on how often it yields, and two
	// rules of the CPU model make them: a quantum that has run out takes
	// effect at the holder's next yield, wherever a window happens to end,
	// and a process that gave up its CPU (Block, Sleep) is displaced and
	// re-dispatched by whichever step first notices. So processes either
	// share CPUs without quantum or release, or have a CPU each. (The DSM
	// layer is in the same position: it runs dedicated protocol processes
	// and the cluster OS, which share CPUs, in strict global order.)
	sharedCPUs = shape{shared: true, spawns: true}
	ownCPUs    = shape{quantum: true, release: true}
)

// mail is one message to a process, due at a given time. Like the DSM
// layer's queues, a mailbox is the state behind a notification: NotifyAt
// keeps only the earliest pending wake and one wake consumes it, so a
// receiver never relies on the notification alone. It reads what is due and
// re-arms from the earliest mail still to come every time it parks. That
// makes its trajectory independent of when, in wall-clock order, a driver
// delivers what another shard sent.
type mail struct {
	at        sim.Time
	from, seq int
}

// randomRun is what one run of a random program leaves behind.
type randomRun struct {
	eng    *sim.Engine
	oracle *sim.Oracle
	err    error
	// times[id] is process id's clock after each of its operations, got[id]
	// the mail it consumed, in order.
	times [][]sim.Time
	got   [][]mail
}

// randomProgram runs one seeded random program under the differential
// oracle. Every process executes a random sequence of Advance, bounded
// Wait, Block and AdvanceUnlessNotified, Sleep, zero-length waits and sends. A send
// puts mail in the receiver's box and notifies it, at once within a node,
// one lookahead or more into the future across nodes. Under a parallel
// runner cross-node sends are staged to the window barrier, and there are no
// spawns: children start one lookahead ahead on the next node.
//
// Every fourth process is a loner: nobody sends to it, and only loners
// call Sleep, which overwrites a pending notification rather than merging
// with it.
func randomProgram(t *testing.T, seed int64, drv driver, sh shape) *randomRun {
	r := rand.New(rand.NewSource(seed))
	nodes, perNode := 1+r.Intn(4), 1+r.Intn(4)
	cfg := sim.Config{Nodes: nodes, CPUsPerNode: perNode, Lookahead: drv.lookahead}
	if r.Intn(3) > 0 && sh.quantum {
		cfg.Quantum = sim.Time(50 + r.Intn(400))
		cfg.CtxSwitch = sim.Time(r.Intn(30))
	}
	e := sim.NewEngine(cfg)
	var mu sync.Mutex
	var staged []func()
	if drv.workers > 0 {
		sh.spawns = false
		e.SetRunner(parallel.New(drv.workers))
		e.SetBarrierHook(func() {
			for _, f := range staged {
				f()
			}
			staged = staged[:0]
		})
	}
	run := &randomRun{eng: e, oracle: sim.NewOracle(t, e)}

	ncpu := nodes * perNode
	nprocs := ncpu
	if sh.shared {
		nprocs += r.Intn(2*ncpu + 1)
	}
	const maxChildren = 256
	run.times = make([][]sim.Time, nprocs+maxChildren)
	run.got = make([][]mail, nprocs+maxChildren)
	procs := make([]*sim.Proc, nprocs)
	boxes := make([][]mail, nprocs) // sorted by (at, from, seq)
	var targets []int               // the processes that receive mail
	for i := 0; i < nprocs; i++ {
		if i%4 != 3 {
			targets = append(targets, i)
		}
	}
	deliver := func(dst int, m mail) {
		box := boxes[dst]
		i := sort.Search(len(box), func(i int) bool {
			b := box[i]
			return b.at > m.at || b.at == m.at && (b.from > m.from || b.from == m.from && b.seq > m.seq)
		})
		box = append(box, mail{})
		copy(box[i+1:], box[i:])
		box[i] = m
		boxes[dst] = box
		procs[dst].NotifyAt(m.at)
	}
	// body is the program of one process; self is its index in procs, -1
	// for a child (children send but have no mailbox).
	var body func(seed int64, ops, self int) func(p *sim.Proc)
	body = func(seed int64, ops, self int) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			r := rand.New(rand.NewSource(seed))
			sent := 0
			read := func() {
				if self < 0 {
					return
				}
				n := 0
				for n < len(boxes[self]) && boxes[self][n].at <= p.Now() {
					n++
				}
				run.got[p.ID] = append(run.got[p.ID], boxes[self][:n]...)
				boxes[self] = boxes[self][n:]
			}
			run.oracle.Check(p)
			for i := 0; i < ops; i++ {
				switch op := r.Intn(10); op {
				case 0, 1, 2, 3:
					p.Advance(sim.Time(r.Intn(300)))
				case 4, 5:
					// A bounded wait: the process arms its own time-out,
					// or the next mail if that is due earlier.
					read()
					d := sim.Time(1 + r.Intn(2000))
					wake := p.Now() + d
					if self >= 0 && len(boxes[self]) > 0 && boxes[self][0].at < wake {
						wake = boxes[self][0].at
					}
					p.NotifyAt(wake)
					switch {
					case op == 4 && d%2 == 0:
						// The same wait as private work: whether it parks or
						// runs straight through is the driver's business, and
						// the clocks are those of the Wait it replaces.
						p.AdvanceUnlessNotified(d)
					case op == 4 || !sh.release:
						p.Wait()
					default:
						p.Block()
					}
					read()
				case 6:
					if d := sim.Time(r.Intn(1500)); sh.release && self >= 0 && self%4 == 3 {
						p.NotifyAt(p.Now() + d)
						p.Block()
					}
				case 7:
					// A yield that charges nothing: the process resumes
					// at its own clock, its pending wake consumed.
					p.NotifyAt(p.Now())
					p.Wait()
				case 8:
					dst := targets[r.Intn(len(targets))]
					m := mail{at: p.Now() + sim.Time(r.Intn(1000)), from: p.ID, seq: sent}
					sent++
					switch {
					case procs[dst].Node() == p.Node():
						deliver(dst, m)
					case drv.workers > 0:
						m.at += randomLookahead
						mu.Lock()
						staged = append(staged, func() { deliver(dst, m) })
						mu.Unlock()
					default:
						m.at += randomLookahead
						deliver(dst, m)
					}
				case 9:
					if sh.spawns && self == 0 && r.Intn(4) == 0 && len(e.Procs()) < nprocs+maxChildren {
						cpu := (p.CPUIndex() + perNode) % ncpu
						e.SpawnAt("child", cpu, r.Intn(2), p.Now()+randomLookahead, body(r.Int63(), 1+r.Intn(20), -1))
					}
				}
				run.oracle.Check(p)
				run.times[p.ID] = append(run.times[p.ID], p.Now())
			}
		}
	}
	for i := range procs {
		cpu, priority := i, 0
		if sh.shared {
			cpu, priority = r.Intn(ncpu), r.Intn(2)
		}
		procs[i] = e.SpawnAt(fmt.Sprintf("p%d", i), cpu, priority, sim.Time(r.Intn(200)), body(r.Int63(), 20+r.Intn(150), i))
	}
	run.err = e.Run()
	return run
}

// immediateProgram runs one seeded random program of the kind only strict
// global order (one shard, lookahead 0) runs exactly, under the differential
// oracle: what a cluster OS does. Any process notifies any other, on any
// node, for any time from its own clock on, with no mailbox behind the
// notification; any process Sleeps, overwriting a wake a peer has set; and
// any process, children included, spawns onto any CPU at its own clock.
func immediateProgram(t *testing.T, seed int64) *randomRun {
	r := rand.New(rand.NewSource(seed))
	nodes, perNode := 1+r.Intn(4), 1+r.Intn(4)
	cfg := sim.Config{Nodes: nodes, CPUsPerNode: perNode}
	if r.Intn(3) > 0 {
		cfg.Quantum = sim.Time(50 + r.Intn(400))
		cfg.CtxSwitch = sim.Time(r.Intn(30))
	}
	e := sim.NewEngine(cfg)
	run := &randomRun{eng: e, oracle: sim.NewOracle(t, e)}

	ncpu := nodes * perNode
	nprocs := ncpu + r.Intn(2*ncpu+1)
	procs := make([]*sim.Proc, 0, nprocs)
	var body func(seed int64, ops int) func(p *sim.Proc)
	body = func(seed int64, ops int) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			r := rand.New(rand.NewSource(seed))
			run.oracle.Check(p)
			for i := 0; i < ops; i++ {
				switch op := r.Intn(10); op {
				case 0, 1, 2, 3:
					p.Advance(sim.Time(r.Intn(300)))
				case 4, 5:
					// A bounded wait: the process arms its own time-out,
					// which a peer's notification may undercut.
					p.NotifyAt(p.Now() + sim.Time(1+r.Intn(2000)))
					if op == 4 {
						p.Wait()
					} else {
						p.Block()
					}
				case 6:
					p.NotifyAt(p.Now() + sim.Time(r.Intn(1500)))
					p.Block()
				case 7:
					// A yield that charges nothing: the process resumes
					// at its own clock, its pending wake consumed.
					p.NotifyAt(p.Now())
					p.Wait()
				case 8:
					procs[r.Intn(nprocs)].NotifyAt(p.Now() + sim.Time(r.Intn(1000)))
				case 9:
					if r.Intn(4) == 0 {
						e.SpawnAt("child", r.Intn(ncpu), r.Intn(2), p.Now(), body(r.Int63(), 1+r.Intn(20)))
					}
				}
				run.oracle.Check(p)
			}
		}
	}
	for i := 0; i < nprocs; i++ {
		procs = append(procs, e.SpawnAt(fmt.Sprintf("p%d", i), r.Intn(ncpu), r.Intn(2), sim.Time(r.Intn(200)), body(r.Int63(), 20+r.Intn(150))))
	}
	run.err = e.Run()
	return run
}

// TestHeapMatchesLinearScheduler is the differential oracle over seeded
// random programs: at every step the heap scheduler must resume the process
// the linear scheduler would, with the same window, and leave every CPU's
// current/sliceEnd/freeAt/queue and every process's clock and state the
// same. Every driver runs the programs whose cross-node effects take a
// lookahead; one shard in strict global order also runs the ones whose
// effects are immediate. Run it under -race: the parallel runner steps
// shards concurrently.
func TestHeapMatchesLinearScheduler(t *testing.T) {
	var steps, stale, offRoot int64
	immediate := driver{name: "one shard, immediate effects"}
	for _, drv := range append([]driver{immediate}, allDrivers...) {
		for seed := int64(1); seed <= 40; seed++ {
			var run *randomRun
			if drv == immediate {
				run = immediateProgram(t, seed)
			} else {
				run = randomProgram(t, seed, drv, anything)
			}
			if run.err != nil {
				t.Fatalf("seed %d %s: %v", seed, drv.name, run.err)
			}
			if t.Failed() {
				t.Fatalf("seed %d %s diverged", seed, drv.name)
			}
			o := run.oracle
			if c := run.eng.SchedCounters(); c.Steps != o.Steps.Load() || c.Switches != c.Steps-c.SelfPicks ||
				c.HeapFixes == 0 || c.CPUPasses == 0 || c.Windows == 0 {
				t.Fatalf("seed %d %s: counters %+v, oracle checked %d steps", seed, drv.name, c, o.Steps.Load())
			}
			steps += o.Steps.Load()
			stale += o.StalePreempts.Load()
			offRoot += o.OffRoot.Load()
		}
	}
	t.Logf("%d steps checked; preemptIfStale fired in %d; %d resumed a process that was not the heap root", steps, stale, offRoot)
	// The two cases the heap alone does not cover must have occurred.
	if stale == 0 || offRoot == 0 {
		t.Errorf("random programs never exercised a stale preemption (%d) or an off-root pick (%d)", stale, offRoot)
	}
}

// TestDriversAgree runs each random program in strict global order and in
// lookahead windows and compares what every process did: its clock after
// each operation and the mail it read. The parallel runner's rounds must
// agree as well (it runs the same programs without the mid-run spawns,
// which it refuses, so those are compared with a spawn-free reference).
func TestDriversAgree(t *testing.T) {
	var ref, win sim.SchedCounters
	for seed := int64(1); seed <= 40; seed++ {
		for _, sh := range []shape{sharedCPUs, {shared: true}, ownCPUs} {
			want := randomProgram(t, seed, oneShard, sh)
			if want.err != nil {
				t.Fatalf("seed %d %+v %s: %v", seed, sh, oneShard.name, want.err)
			}
			for _, drv := range allDrivers[1:] {
				if sh.spawns && drv.workers > 0 {
					continue
				}
				got := randomProgram(t, seed, drv, sh)
				if got.err != nil {
					t.Fatalf("seed %d %+v %s: %v", seed, sh, drv.name, got.err)
				}
				if len(got.eng.Procs()) != len(want.eng.Procs()) {
					t.Fatalf("seed %d %+v: %d processes under %s, %d under %s", seed, sh,
						len(got.eng.Procs()), drv.name, len(want.eng.Procs()), oneShard.name)
				}
				for id := range want.times {
					if !reflect.DeepEqual(got.times[id], want.times[id]) {
						t.Fatalf("seed %d %+v: process %d under %s\n clocks %v\nunder %s\n clocks %v", seed, sh, id, drv.name, got.times[id], oneShard.name, want.times[id])
					}
					if !reflect.DeepEqual(got.got[id], want.got[id]) {
						t.Fatalf("seed %d %+v: process %d under %s\n read %v\nunder %s\n read %v", seed, sh, id, drv.name, got.got[id], oneShard.name, want.got[id])
					}
				}
				if got.eng.ContextSwitches() != want.eng.ContextSwitches() {
					t.Fatalf("seed %d %+v: %d context switches under %s, %d under %s", seed, sh,
						got.eng.ContextSwitches(), drv.name, want.eng.ContextSwitches(), oneShard.name)
				}
				if drv == nodeShards {
					c, w := want.eng.SchedCounters(), got.eng.SchedCounters()
					ref.Steps, win.Steps = ref.Steps+c.Steps, win.Steps+w.Steps
					win.Windows, win.HorizonClamps = win.Windows+w.Windows, win.HorizonClamps+w.HorizonClamps
				}
			}
		}
	}
	t.Logf("%d steps in global order; %d steps in %d windows, %d of them clamped", ref.Steps, win.Steps, win.Windows, win.HorizonClamps)
	// A window lets a process run on where global order would have switched.
	if win.HorizonClamps == 0 || win.Steps >= ref.Steps {
		t.Errorf("lookahead windows saved no steps (%d against %d) or no send ever clamped a horizon (%d)", win.Steps, ref.Steps, win.HorizonClamps)
	}
}
