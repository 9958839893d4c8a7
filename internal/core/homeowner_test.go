package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// The home's one owner switch (home.go, handleHome), cell by cell: a read or
// a read-exclusive served from the master copy, by the home agent's own
// copy, or by a forward to a remote owner. The fourth owner, the
// requester's own agent, cannot hold the block while that agent has a
// request for it in flight, and panics. Three Base-Shasta processes: p0 is
// the block's home, p1 sets the block up at turn 1, p2 (or p1 alone, for
// the home-agent cells) makes the request under test at turn 2.
const hoStep = 100_000

// homeOwnerRun runs the setup and the request and returns the owner the
// home record named just before the request, every message the home sent
// from the request's turn on, as "kind->pN", and the acks the grant that
// finished the request's miss owed it (-1 if no grant finished it).
func homeOwnerRun(t *testing.T, proto string, setup, request func(p *Proc)) (owner int, sends []string, acks int) {
	t.Helper()
	cfg := baseConfig()
	cfg.Nodes = 3
	cfg.Protocol = proto
	tr := trace.NewBuffer()
	s := Build(WithConfig(cfg), WithTrace(tr))
	bodies := [3]func(p *Proc){1: setup}
	if setup == nil {
		bodies[1] = request
	} else {
		bodies[2] = request
	}
	for i, body := range bodies {
		s.Spawn(fmt.Sprintf("p%d", i), i, func(p *Proc) {
			if body != nil {
				turn := sim.Time(2)
				if i == 1 && setup != nil {
					turn = 1
				}
				computeUntil(p, turn*hoStep)
				if turn == 2 {
					owner = s.homes[0].owner
				}
				body(p)
			}
			computeUntil(p, 4*hoStep)
		})
	}
	addr := s.Alloc(64, AllocOptions{BlockLines: 1, Home: HomeAt(0)})
	if addr != SharedBase {
		t.Fatalf("first allocation at %#x, want %#x", addr, uint64(SharedBase))
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	requester := 2
	if setup == nil {
		requester = 1
	}
	acks = -1
	for _, ev := range tr.TakeBuffered() {
		if ev.Cat == "msg" && ev.Ev == "send" && ev.P == 0 && ev.T >= 2*hoStep {
			sends = append(sends, fmt.Sprintf("%s->p%d", ev.S, ev.O))
		}
		if ev.Cat == "line" && ev.P == requester && strings.HasPrefix(ev.Ev, "finish:grant-") {
			fmt.Sscanf(ev.Ev[strings.LastIndex(ev.Ev, "-acks")+len("-acks"):], "%d", &acks)
		}
	}
	return owner, sends, acks
}

// TestHomeOwnerCases drives each reachable cell of the owner switch on both
// backends and checks what the home sends for the request. From the master
// copy dirinval invalidates the other sharers before a write (p1 remotely;
// the home's own copy in place, before the grant, which owes p2 p1's ack
// alone) and Tardis disturbs nobody.
func TestHomeOwnerCases(t *testing.T) {
	read := func(p *Proc) { p.Load(SharedBase) }
	write := func(p *Proc) { p.Store(SharedBase, 1); p.MemBar() }
	cases := []struct {
		name           string
		setup, request func(p *Proc)
		owner          int
		want           map[string][]string // by protocol
		acks           int                 // owed by dirinval's grant; Tardis collects none
	}{
		{"read/master", read, read, -1, map[string][]string{
			"dirinval": {"read-reply->p2"},
			"tardis":   {"read-reply->p2"},
		}, 0},
		{"read-exclusive/master", read, write, -1, map[string][]string{
			"dirinval": {"inval-req->p1", "read-excl-reply->p2"},
			"tardis":   {"read-excl-reply->p2"},
		}, 1},
		{"read/home-agent", nil, read, 0, map[string][]string{
			"dirinval": {"read-reply->p1"},
			"tardis":   {"read-reply->p1"},
		}, 0},
		{"read-exclusive/home-agent", nil, write, 0, map[string][]string{
			"dirinval": {"read-excl-reply->p1"},
			"tardis":   {"read-excl-reply->p1"},
		}, 0},
		{"read/remote-owner", write, read, 1, map[string][]string{
			"dirinval": {"fwd-read->p1"},
			"tardis":   {"fwd-read->p1"},
		}, 0},
		{"read-exclusive/remote-owner", write, write, 1, map[string][]string{
			"dirinval": {"fwd-read-excl->p1"},
			"tardis":   {"fwd-read-excl->p1"},
		}, 0},
	}
	for _, tc := range cases {
		for _, proto := range ProtocolNames() {
			t.Run(proto+"/"+tc.name, func(t *testing.T) {
				owner, got, acks := homeOwnerRun(t, proto, tc.setup, tc.request)
				if owner != tc.owner {
					t.Errorf("the home named owner %d at the request, want %d", owner, tc.owner)
				}
				if !reflect.DeepEqual(got, tc.want[proto]) {
					t.Errorf("the home sent %v, want %v", got, tc.want[proto])
				}
				want := 0
				if proto == "dirinval" {
					want = tc.acks
				}
				if acks != want {
					t.Errorf("the grant owed %d acks, want %d", acks, want)
				}
			})
		}
	}
}

// TestTardisTransferAdoptsYieldStamp: a yield can raise the grant the home
// fixed when it forwarded a write. O (p1) owns x, homed at p0, and stores to
// it again as a hit after observing ts 1000, as an acquire would; W's (p2)
// write is then forwarded to O at a grant just past O's own, and O's yield
// stamps it past the hit. The home must adopt that stamp with the ownership
// transfer, or its wts trails the version W holds and a later grant could
// be serialized before W's stores.
func TestTardisTransferAdoptsYieldStamp(t *testing.T) {
	cfg := baseConfig()
	cfg.Nodes = 3
	cfg.Protocol = "tardis"
	s := Build(WithConfig(cfg))
	td := s.proto.(*tardis)
	const x = SharedBase
	bodies := [3]func(p *Proc){
		1: func(p *Proc) {
			computeUntil(p, hoStep)
			p.Store(x, 1)
			p.MemBar()
			td.observeTs(p, 1000)
			p.Store(x, 2)
		},
		2: func(p *Proc) {
			computeUntil(p, 2*hoStep)
			p.Store(x, 3)
			p.MemBar()
		},
	}
	for i, body := range bodies {
		s.Spawn(fmt.Sprintf("p%d", i), i, func(p *Proc) {
			if body != nil {
				body(p)
			}
			computeUntil(p, 4*hoStep)
		})
	}
	s.Alloc(64, AllocOptions{BlockLines: 1, Home: HomeAt(0)})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	blk := s.blockOf(s.lineOf(x)).id
	tenure, e := td.astate(s.agents[2]).tenure[blk], td.entries[blk]
	if tenure <= 1000 {
		t.Errorf("W's grant at ts %d, not above O's store hit at ts 1000", tenure)
	}
	if e.wts != tenure || e.rts < e.wts {
		t.Errorf("the home has wts %d, rts %d after the transfer; want wts %d, the yield's stamp, and rts >= wts", e.wts, e.rts, tenure)
	}
	if v := s.Peek(x); v != 3 {
		t.Errorf("x = %d, want 3", v)
	}
}
