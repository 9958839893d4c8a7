package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestSendToSelf: what a process sends itself never touches the wire. p0
// homes a block that p1 has read, then stores to it. p0's own request is
// handled as an arrival: one MsgHandle, counted as handled. The grant is
// applied in place: no MsgHandle, not counted. A user message to itself
// runs the handler at one MsgHandle.
func TestSendToSelf(t *testing.T) {
	const step = sim.Time(100_000)
	for _, proto := range ProtocolNames() {
		cfg := testConfig()
		cfg.Nodes, cfg.CPUsPerNode = 2, 1
		cfg.Protocol = proto
		tr := trace.NewBuffer()
		s := Build(WithConfig(cfg), WithTrace(tr))
		var user []string
		s.SetUserHandler(func(target *Proc, from, tag int, payload any) {
			user = append(user, fmt.Sprintf("p%d<-p%d %d %v", target.ID, from, tag, payload))
		})
		var addr uint64
		s.Spawn("p0", 0, func(p *Proc) {
			computeUntil(p, step)
			p.Store(addr, 5)
			p.MemBar()
			p.SendUser(0, 7, "hi")
		})
		s.Spawn("p1", 1, func(p *Proc) {
			p.Load(addr)
			computeUntil(p, 2*step)
		})
		addr = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
		if err := s.Run(); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}

		// dirinval upgrades p0's shared copy and invalidates p1's; Tardis
		// fetches exclusive and leaves p1's lease to run out.
		req, grant := "upgrade-req", "upgrade-ack"
		want := []string{"read-req<-p1", "upgrade-req<-p0", "inval-ack<-p1", "user<-p0"}
		if proto == "tardis" {
			req, grant = "read-excl-req", "read-excl-reply"
			want = []string{"read-req<-p1", "read-excl-req<-p0", "user<-p0"}
		}
		var handled []string
		for _, ev := range tr.TakeBuffered() {
			if ev.Cat != "msg" || ev.P != 0 {
				continue
			}
			switch {
			case ev.Ev == "handle":
				handled = append(handled, fmt.Sprintf("%s<-p%d", ev.S, ev.O))
			case ev.Ev == "send" && (ev.S == req || ev.S == grant || ev.S == "user"):
				t.Errorf("%s: p0 sent %s to p%d over the wire", proto, ev.S, ev.O)
			}
		}
		if !reflect.DeepEqual(handled, want) {
			t.Errorf("%s: p0 handled %v, want %v (its %s and no %s)", proto, handled, want, req, grant)
		}
		if n := s.procs[0].stats.MessagesHandled(); n != int64(len(want)) {
			t.Errorf("%s: p0 counted %d messages handled, want %d", proto, n, len(want))
		}
		if w := []string{"p0<-p0 7 hi"}; !reflect.DeepEqual(user, w) {
			t.Errorf("%s: user handler ran %v, want %v", proto, user, w)
		}
		if v := s.Peek(addr); v != 5 {
			t.Errorf("%s: the word holds %d, want 5", proto, v)
		}
	}
}

// TestNodeMatesSendOneStepEach: a send is one charge, its queue lock's
// included, so two ready node-mates that each send while the other runs
// hand the node back and forth once per send, not once per cost term. On
// 2x2, p0 and p1 each send 50 user messages to p2 on the other node,
// which handles them all once it is done with a stretch longer than theirs.
func TestNodeMatesSendOneStepEach(t *testing.T) {
	const sends = 50
	cfg := testConfig()
	cfg.Nodes, cfg.CPUsPerNode = 2, 2
	s := Build(WithConfig(cfg))
	if !s.Cfg.SharedQueues {
		t.Fatal("the configuration shares no queues")
	}
	handled := 0
	s.SetUserHandler(func(*Proc, int, int, any) { handled++ })
	for cpu := 0; cpu < 2; cpu++ {
		s.Spawn("sender", cpu, func(p *Proc) {
			for i := 0; i < sends; i++ {
				p.SendUser(2, i, nil)
			}
		})
	}
	s.Spawn("receiver", 2, func(p *Proc) { p.ChargeTime(CatTask, 1_000_000) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if handled != 2*sends {
		t.Fatalf("the receiver handled %d messages, want %d", handled, 2*sends)
	}
	// Besides the sends, a few steps start the processes and end the run.
	c := s.Eng.SchedCounters()
	t.Logf("%d sends: %d steps", 2*sends, c.Steps)
	if most := int64(2*sends + 6); c.Steps > most {
		t.Errorf("%d sends took %d scheduler steps, want at most %d", 2*sends, c.Steps, most)
	}
}
