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
// on its way. On two 1-CPU nodes p0 exits at once and serves after its exit,
// waking 6 000, 12 000, 24 000, ... cycles apart; p1 sends it a user message
// and exits at sentAt. p1's exit is visible on node 0 a wire latency later,
// 80 cycles before the message arrives, and p0's backoff wakes it at 18 000,
// between the two: it must sleep on and serve the message.
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
	if handled != 1 || !s.fullyQuiescent() {
		t.Errorf("the exited p0 handled %d user messages, want 1; fully quiescent %v", handled, s.fullyQuiescent())
	}
}
