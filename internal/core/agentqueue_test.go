package core

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// The agent's queue. On 4x4, p0 homes a block and an MP barrier and runs
// application code without polling until aqBusy, while its three node-mates
// wait at the barrier. p4, on node 1, reads the block at aqRead.
const aqRead, aqBusy = 20_000, 200_000

// agentQueueRun runs the scenario and returns the system, the time p4's
// read completed, and the trace.
func agentQueueRun(t *testing.T, cfg Config) (*System, sim.Time, []trace.Event) {
	t.Helper()
	tr := trace.NewBuffer()
	s := Build(WithConfig(cfg), WithTrace(tr))
	bar := s.NewBarrier(0, 5)
	var addr uint64
	var filled sim.Time
	for i := 0; i < 5; i++ {
		i := i
		s.Spawn(fmt.Sprintf("p%d", i), i, func(p *Proc) {
			switch i {
			case 0:
				p.ChargeTime(CatTask, aqBusy)
			case 4:
				computeUntil(p, aqRead)
				p.Load(addr)
				filled = p.Now()
			}
			p.BarrierWait(bar)
		})
	}
	addr = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s, filled, tr.TakeBuffered()
}

// TestAgentQueueServesHomeRequestsOnTheNode: a request for state in a
// home's agent memory goes to the agent's queue, which whichever process of
// the home's node looks first serves. An idle node-mate of p0 serves p4's
// read, and p4's miss completes, long before p0 polls again. Every request
// for the home's state in the run (the read and the barrier arrivals) is
// served on the home's node.
func TestAgentQueueServesHomeRequestsOnTheNode(t *testing.T) {
	for _, proto := range ProtocolNames() {
		t.Run(proto, func(t *testing.T) {
			cfg := testConfig()
			cfg.Protocol = proto
			s, filled, evs := agentQueueRun(t, cfg)
			if filled == 0 || filled >= aqBusy {
				t.Errorf("p4's read of p0's block completed at %d, want before p0 polls again at %d", filled, aqBusy)
			}
			served := 0
			for _, ev := range evs {
				if ev.Cat != "msg" || ev.Ev != "handle" {
					continue
				}
				switch ev.S {
				case "read-req":
					served++
					if ev.P == 0 || ev.T >= aqBusy {
						t.Errorf("the read-req was served by p%d at %d, want an idle node-mate of p0 before %d", ev.P, ev.T, aqBusy)
					}
					fallthrough
				case "barrier-enter":
					if n := s.Proc(ev.P).Node(); n != 0 {
						t.Errorf("%s for p0's state served by p%d on node %d", ev.S, ev.P, n)
					}
				}
			}
			if served != 1 {
				t.Errorf("%d read-reqs served, want 1", served)
			}
		})
	}
}

// TestAgentQueueAckRetiresRetransmit: under the reliability sublayer, the
// ack of a request a node-mate of its addressee served retires the sender's
// retransmit entry, so a fault-free run retransmits nothing. (While entries
// were keyed by the destination process, p4's read and barrier arrival were
// sent again every timeout until p0 itself handled a copy.)
func TestAgentQueueAckRetiresRetransmit(t *testing.T) {
	cfg := testConfig()
	cfg.ReliableDelivery = true
	s, _, _ := agentQueueRun(t, cfg)
	if st := s.AggregateStats(); st.Retransmits() != 0 {
		t.Errorf("%d retransmissions in a run without faults, want 0", st.Retransmits())
	}
}

// TestExitedProcessServesMessageOnTheWire: a process that has exited keeps
// serving while a message an application process sent it before exiting is
// on its way. On two 1-CPU nodes p0 exits at once and parks on its queues;
// p1 sends it a user message and exits at sentAt, so that every application
// process has exited while the message is on the wire. The put wakes p0,
// which serves it, and Run requires the run to end with it served.
func TestExitedProcessServesMessageOnTheWire(t *testing.T) {
	const sentAt = 16_760
	cfg := testConfig()
	cfg.Nodes, cfg.CPUsPerNode = 2, 1
	s := Build(WithConfig(cfg))
	handled := 0
	s.SetUserHandler(func(*Proc, int, int, any) { handled++ })
	s.Spawn("p0", 0, func(*Proc) {})
	s.Spawn("p1", 1, func(p *Proc) {
		p.ChargeTime(CatTask, sentAt-cfg.Cost.MsgSend-cfg.Cost.QueueLock)
		p.SendUser(0, 1, nil)
		if p.Now() != sentAt {
			t.Errorf("p1 sent at %d, want %d", p.Now(), sentAt)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if handled != 1 {
		t.Errorf("the exited p0 handled %d user messages, want 1", handled)
	}
}

// Who a put to an agent's queue wakes. On 4x4, p0 homes block A and p3, on
// node 1, block B; p4, on node 2, reads A at wkRead, so that its read-req
// reaches node 0's queue while p0's node-mates p1 and p2 each do one of
// three things there: compute (parked on its queues in a stretch, quietly),
// stall on a miss of its own (a read of B, which p3 serves only when it
// polls at wkBusy), or charge application time outside any compute, as p0
// and p3 do until wkBusy. A fourth role, wkComputeLate, computes too, but
// starts its second stretch at wkLate, while the read-req is on the wire:
// p4 sends it at 20 970 and it arrives at 22 250. Every one of them is busy until then. The stalled process
// goes on the lower CPU: of two processes woken at one instant, the lower
// CPU's runs first.
const wkRead, wkLate, wkBusy = 20_000, 21_000, 200_000

type wkRole int

const (
	wkCompute wkRole = iota
	wkMiss
	wkCharge
	wkComputeLate
)

// putWakeRun runs the scenario with p1 and p2 in the given roles and returns
// the read-req's handle event and the engine's scheduler counters.
func putWakeRun(t *testing.T, proto string, p1, p2 wkRole) (trace.Event, sim.SchedCounters) {
	t.Helper()
	cfg := testConfig()
	cfg.Protocol = proto
	tr := trace.NewBuffer()
	s := Build(WithConfig(cfg), WithTrace(tr))
	var a, b uint64
	role := func(r wkRole) func(p *Proc) {
		switch r {
		case wkCompute:
			return func(p *Proc) { p.Compute(wkBusy) }
		case wkMiss:
			return func(p *Proc) { p.Load(b) }
		case wkComputeLate:
			return func(p *Proc) {
				computeUntil(p, wkLate)
				p.Compute(wkBusy)
			}
		}
		return func(p *Proc) { p.ChargeTime(CatTask, wkBusy) }
	}
	s.Spawn("p0", 0, role(wkCharge))
	s.Spawn("p1", 1, role(p1))
	s.Spawn("p2", 2, role(p2))
	s.Spawn("p3", 4, role(wkCharge))
	s.Spawn("p4", 8, func(p *Proc) {
		computeUntil(p, wkRead)
		p.Load(a)
	})
	a = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
	b = s.Alloc(64, AllocOptions{Home: HomeAt(3)})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var read []trace.Event
	for _, ev := range tr.TakeBuffered() {
		if ev.Cat == "msg" && ev.Ev == "handle" && ev.S == "read-req" && ev.O == 4 {
			read = append(read, ev)
		}
	}
	if len(read) != 1 {
		t.Fatalf("p4's read-req handled %d times, want once", len(read))
	}
	return read[0], s.Eng.SchedCounters()
}

// TestPutWakesTheProcessesWaitingOnTheQueue: the put of p4's read-req to
// node 0's queue notifies the processes of the node that wait on it, parked
// in a compute or stalled on a miss; once one of them takes the message, the
// other's wake is spared. One charging application time is not waiting:
// woken or not, it takes nothing before it next polls, and a wake that lands
// inside its charge is dropped (sim.Proc.Advance), so only the cost of the
// notification, not its effect, would show.
//   - p1 charges, p2 computes: p2 alone waits, so the put wakes it early
//     from its park and it serves the read at its next poll.
//   - p1 stalls, p2 computes: the put wakes p1 from its stall at the
//     arrival, and it serves the read there. That spares p2's wake: its park
//     runs to its end, and no park anywhere ends early.
//   - p1 computes, p2 stalls: the put wakes p1 at its first poll at or
//     after the arrival, not at the arrival, and p2 from its stall at the
//     arrival, where p2 serves the read and spares p1's wake. While the put
//     woke p1 at the arrival, p1 ran first, as the lower CPU, and was
//     already on its way to that poll, which found nothing: one park ended
//     early.
func TestPutWakesTheProcessesWaitingOnTheQueue(t *testing.T) {
	for _, proto := range ProtocolNames() {
		t.Run(proto, func(t *testing.T) {
			cfg := testConfig()
			poll := cfg.PollInterval + cfg.Cost.Poll + cfg.Cost.QueueLock
			ev, sc := putWakeRun(t, proto, wkCharge, wkCompute)
			if ev.P != 2 || ev.A <= 0 || ev.A > int64(poll) || ev.T >= wkBusy {
				t.Errorf("p1 charging: the read-req was handled by p%d at %d, %d cycles after its arrival, want by p2 at its first poll, within %d cycles", ev.P, ev.T, ev.A, poll)
			}
			if sc.EarlyWakes != 1 {
				t.Errorf("p1 charging: %d parks ended early, want 1: the put wakes p2", sc.EarlyWakes)
			}
			ev, sc = putWakeRun(t, proto, wkMiss, wkCompute)
			if ev.P != 1 || ev.A != int64(cfg.Cost.QueueLock) {
				t.Errorf("p1 stalled on a miss: the read-req was handled by p%d at %d, %d cycles after its arrival, want by p1 at its arrival (%d cycles of queue lock)", ev.P, ev.T, ev.A, cfg.Cost.QueueLock)
			}
			if sc.EarlyWakes != 0 {
				t.Errorf("p1 stalled on a miss: %d parks ended early, want none: p1 took the read, which spares p2's wake", sc.EarlyWakes)
			}
			ev, sc = putWakeRun(t, proto, wkCompute, wkMiss)
			if ev.P != 2 || ev.T != 22_360 || ev.A != int64(cfg.Cost.QueueLock) {
				t.Errorf("p2 stalled on a miss: the read-req was handled by p%d at %d, %d cycles after its arrival, want by p2 at 22360, its arrival (%d cycles of queue lock)", ev.P, ev.T, ev.A, cfg.Cost.QueueLock)
			}
			if sc.EarlyWakes != 0 {
				t.Errorf("p2 stalled on a miss: %d parks ended early, want none: p2 took the read, which spares p1's wake", sc.EarlyWakes)
			}
		})
	}
}

// TestSparedStretchWakesOnce: p1 plans its second stretch at wkLate with
// p4's read-req already queued, so the stretch's park stops at p1's first
// poll after the arrival. p2, stalled, takes the read at its arrival and
// spares p1, whose wake and stop move to the stretch's next event, the
// compute's end: p1 parks once per compute, two parks in the run. While the
// spare left the stop where it was, p1 woke there for the message p2 had
// taken, planned again and parked on: three parks. On dirinval, where a
// stretch has no backend tick to stop at.
func TestSparedStretchWakesOnce(t *testing.T) {
	cfg := testConfig()
	ev, sc := putWakeRun(t, "dirinval", wkComputeLate, wkMiss)
	if ev.P != 2 || ev.A != int64(cfg.Cost.QueueLock) {
		t.Errorf("the read-req was handled by p%d at %d, %d cycles after its arrival, want by p2 at its arrival (%d cycles of queue lock)", ev.P, ev.T, ev.A, cfg.Cost.QueueLock)
	}
	if sc.Parks != 2 || sc.EarlyWakes != 0 {
		t.Errorf("%d parks, %d of them ended early, want 2 and none: one per compute of p1's", sc.Parks, sc.EarlyWakes)
	}
}
