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
