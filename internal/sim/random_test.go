package sim_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/parallel"
)

// randomProgram runs one seeded random program under the differential
// oracle. Every process executes a random sequence of Advance, Wait, Block,
// Sleep, YieldCPU and NotifyAt, with random priorities, several processes
// per CPU and — on the sequential engine — SpawnAt in mid-run. workers < 0
// selects the sequential engine; otherwise the engine is sharded per node
// and cross-node notifications are staged to the window barrier, one
// lookahead or more into the future.
func randomProgram(t *testing.T, seed int64, workers int) (*sim.Engine, *sim.Oracle, error) {
	const lookahead = sim.Time(400)
	r := rand.New(rand.NewSource(seed))
	nodes, perNode := 1+r.Intn(4), 1+r.Intn(4)
	cfg := sim.Config{Nodes: nodes, CPUsPerNode: perNode}
	if r.Intn(3) > 0 {
		cfg.Quantum = sim.Time(50 + r.Intn(400))
		cfg.CtxSwitch = sim.Time(r.Intn(30))
	}
	e := sim.NewEngine(cfg)
	par := workers >= 0
	var mu sync.Mutex
	var staged []func()
	if par {
		e.ShardPerNode()
		e.SetRunner(parallel.New(workers))
		e.SetLookahead(lookahead)
		e.SetBarrierHook(func() {
			for _, f := range staged {
				f()
			}
			staged = staged[:0]
		})
	}
	oracle := sim.NewOracle(t, e)

	ncpu := nodes * perNode
	nprocs := ncpu + r.Intn(2*ncpu+1)
	procs := make([]*sim.Proc, 0, nprocs)
	var body func(seed int64, ops int) func(p *sim.Proc)
	body = func(seed int64, ops int) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			r := rand.New(rand.NewSource(seed))
			oracle.Check(p)
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
					p.Sleep(sim.Time(r.Intn(1500)))
				case 7:
					p.YieldCPU()
				case 8:
					dst := procs[r.Intn(nprocs)]
					at := p.Now() + sim.Time(r.Intn(1000))
					if !par || dst.Node() == p.Node() {
						dst.NotifyAt(at)
					} else {
						mu.Lock()
						staged = append(staged, func() { dst.NotifyAt(at + lookahead) })
						mu.Unlock()
					}
				case 9:
					if !par && r.Intn(4) == 0 {
						e.SpawnAt("child", r.Intn(ncpu), r.Intn(2), p.Now(), body(r.Int63(), 1+r.Intn(20)))
					}
				}
				oracle.Check(p)
			}
		}
	}
	for i := 0; i < nprocs; i++ {
		procs = append(procs, e.SpawnAt(fmt.Sprintf("p%d", i), r.Intn(ncpu), r.Intn(2), sim.Time(r.Intn(200)), body(r.Int63(), 20+r.Intn(150))))
	}
	return e, oracle, e.Run()
}

// TestHeapMatchesLinearScheduler is the differential oracle over seeded
// random programs: at every step the heap scheduler must resume the process
// the linear scheduler would, with the same window, and leave every CPU's
// current/sliceEnd/freeAt/queue and every process's clock and state the
// same. Run it under -race: the parallel runner steps shards concurrently.
func TestHeapMatchesLinearScheduler(t *testing.T) {
	var steps, stale, offRoot int64
	for _, workers := range []int{-1, 1, 2, 3, 4} {
		for seed := int64(1); seed <= 40; seed++ {
			e, o, err := randomProgram(t, seed, workers)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if t.Failed() {
				t.Fatalf("seed %d workers %d diverged", seed, workers)
			}
			if c := e.SchedCounters(); c.Steps != o.Steps.Load() || c.Switches != c.Steps-c.SelfPicks ||
				c.HeapFixes == 0 || c.CPUPasses == 0 {
				t.Fatalf("seed %d workers %d: counters %+v, oracle checked %d steps", seed, workers, c, o.Steps.Load())
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
