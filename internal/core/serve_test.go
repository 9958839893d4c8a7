package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestBlockedBesideProtocolProcessWakesOnTime: a process that blocks in the
// OS on a CPU it shares with a protocol process resumes at its wake. On two
// 1-CPU nodes with ProtocolProcs, the process on CPU 0 computes and sleeps,
// twice. The protocol process runs once, during the first sleep, to park off
// its CPU, which costs that sleep its context switches; from then on it
// takes the CPU only for a put to a queue it serves, so the second sleep
// ends on time. (While protocol processes polled every 100 µs holding their
// CPU, the second sleep ended 40 000 cycles late.)
func TestBlockedBesideProtocolProcessWakesOnTime(t *testing.T) {
	const sleep = 5000
	cfg := testConfig()
	cfg.Nodes, cfg.CPUsPerNode = 2, 1
	cfg.ProtocolProcs = true
	s := Build(WithConfig(cfg))
	var start, end [2]sim.Time
	s.Spawn("app", 0, func(p *Proc) {
		for i := range start {
			p.Compute(1000)
			start[i] = p.Now()
			p.Sim.NotifyAt(p.Now() + sleep)
			p.Sim.Block()
			end[i] = p.Now()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	t.Logf("sleeps %d -> %d and %d -> %d", start[0], end[0], start[1], end[1])
	if got := end[1] - start[1]; got != sleep {
		t.Errorf("the second sleep ran %d -> %d, %d cycles, want %d", start[1], end[1], got, sleep)
	}
}

// TestExitedProcessSparedOffItsCPU: a put to an agent's queue wakes an
// exited process parked off a CPU that an application process is busy on,
// and the node-mate that takes the message first spares it the wake, so it
// never takes the CPU from the application. On two 2-CPU nodes, e0 exits at
// once on CPU 0, where app charges application time past its quantum, and
// e1 exits at once on the idle CPU 1; r, on node 1, reads four blocks homed
// on node 0, and e1 serves each read-req. (While the take spared only a
// process parked in Wait, each wake the quantum's end let e0 take the CPU,
// and e0 found nothing.)
func TestExitedProcessSparedOffItsCPU(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes, cfg.CPUsPerNode = 2, 2
	tr := trace.NewBuffer()
	s := Build(WithConfig(cfg), WithTrace(tr))
	var addrs [4]uint64
	e0 := s.Spawn("e0", 0, func(*Proc) {})
	s.Spawn("e1", 1, func(*Proc) {})
	s.Spawn("app", 0, func(p *Proc) {
		for p.Now() < 4*cfg.Cost.Quantum {
			p.ChargeTime(CatTask, 30_000)
		}
	})
	s.Spawn("r", 2, func(p *Proc) {
		for i, a := range addrs {
			computeUntil(p, sim.Time(i+1)*cfg.Cost.Quantum/2)
			p.Load(a)
		}
	})
	for i := range addrs {
		addrs[i] = s.Alloc(64, AllocOptions{Home: HomeAt(1)})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	served, switches := map[string]int{}, 0
	for _, ev := range tr.TakeBuffered() {
		switch {
		case ev.Cat == "msg" && ev.Ev == "handle" && ev.S == "read-req":
			served[s.Proc(ev.P).Name]++
		case ev.Cat == "sched" && ev.Ev == "switch" && ev.P == e0.ID:
			switches++
		}
	}
	if served["e1"] != len(addrs) {
		t.Errorf("read-reqs served by %v, want all %d by e1", served, len(addrs))
	}
	if switches != 0 {
		t.Errorf("e0 was switched in %d times after its exit, want 0", switches)
	}
}
