package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// The directory's requester record. Two nodes of two CPUs: p0 (the block's
// home) and p1 on node 0, p2 and p3 on node 1. p2 is spawned first, so it is
// the process every message for node 1's copy went to while such messages
// went to a node's first process; in these scenarios it is p3 that holds the
// copy. Each process acts at rqStep times its turn and computes, polling, to
// rqEnd.
const (
	rqStep = 100_000
	rqEnd  = 8 * rqStep
	rqAddr = SharedBase // the one block, homed at p0
)

// requesterRun runs the four bodies and returns the system with every
// message sent for a node's copy of a block, as "kind->pN". seam, if not
// nil, runs on the home process at half a step past turn 2.
func requesterRun(t *testing.T, proto string, seam func(s *System, blk *blockInfo), bodies [4]func(p *Proc)) (*System, []string, error) {
	t.Helper()
	cfg := testConfig()
	cfg.Nodes, cfg.CPUsPerNode = 2, 2
	cfg.Protocol = proto
	tr := trace.NewBuffer()
	s := Build(WithConfig(cfg), WithTrace(tr))
	for i := 0; i < 4; i++ {
		i := i
		s.Spawn(fmt.Sprintf("p%d", i), i, func(p *Proc) {
			if i == 0 && seam != nil {
				computeUntil(p, 2*rqStep+rqStep/2)
				seam(s, s.blockOf(s.lineOf(rqAddr)))
			}
			if bodies[i] != nil {
				bodies[i](p)
			}
			computeUntil(p, rqEnd)
		})
	}
	if a := s.Alloc(64, AllocOptions{BlockLines: 1, Home: HomeAt(0)}); a != rqAddr {
		t.Fatalf("first allocation at %#x, want %#x", a, uint64(rqAddr))
	}
	err := s.Run()
	var sends []string
	for _, ev := range tr.TakeBuffered() {
		if ev.Cat == "msg" && ev.Ev == "send" {
			switch ev.S {
			case "fwd-read", "fwd-read-excl", "inval-req":
				sends = append(sends, fmt.Sprintf("%s->p%d", ev.S, ev.O))
			}
		}
	}
	return s, sends, err
}

// atTurn makes a body that does op at the given turn.
func atTurn(turn int, op func(p *Proc)) func(p *Proc) {
	return func(p *Proc) {
		computeUntil(p, sim.Time(turn)*rqStep)
		op(p)
	}
}

// downgrades counts what p did to its node-mates' private tables.
func downgrades(p *Proc) int64 {
	return p.stats.DowngradesSent() + p.stats.DowngradesDirect()
}

// TestForwardGoesToHolder: p3 takes the block exclusive, p1 reads it. The
// forward goes to p3, which holds the line in its own table and downgrades
// nobody; p2 never hears of it.
func TestForwardGoesToHolder(t *testing.T) {
	for _, proto := range ProtocolNames() {
		var got uint64
		s, sends, err := requesterRun(t, proto, nil, [4]func(p *Proc){
			1: atTurn(3, func(p *Proc) { got = p.Load(rqAddr) }),
			3: atTurn(1, func(p *Proc) { p.Store(rqAddr, 7); p.MemBar() }),
		})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if want := []string{"fwd-read->p3"}; !reflect.DeepEqual(sends, want) {
			t.Errorf("%s: node-addressed sends %v, want %v", proto, sends, want)
		}
		if n := s.procs[2].stats.MessagesHandled(); n != 0 {
			t.Errorf("%s: p2, which never touched the block, handled %d messages", proto, n)
		}
		if n := downgrades(s.procs[2]) + downgrades(s.procs[3]); n != 0 {
			t.Errorf("%s: %d downgrades on node 1, want none: the forward reached the holder", proto, n)
		}
		if got != 7 {
			t.Errorf("%s: p1 read %d, want 7", proto, got)
		}
	}
}

// TestInvalGoesToSharer: only p3 read the block; p1's write invalidates node
// 1's copy through p3 alone. Tardis invalidates nobody, so it sends nothing
// (the lease runs out on whichever process of node 1 ticks past it).
func TestInvalGoesToSharer(t *testing.T) {
	for _, proto := range ProtocolNames() {
		s, sends, err := requesterRun(t, proto, nil, [4]func(p *Proc){
			1: atTurn(3, func(p *Proc) { p.Store(rqAddr, 9); p.MemBar() }),
			3: atTurn(1, func(p *Proc) { p.Load(rqAddr) }),
		})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if v := s.Peek(rqAddr); v != 9 {
			t.Errorf("%s: the word holds %d, want 9", proto, v)
		}
		if proto != "dirinval" {
			if sends != nil {
				t.Errorf("%s: node-addressed sends %v, want none", proto, sends)
			}
			continue
		}
		if want := []string{"inval-req->p3"}; !reflect.DeepEqual(sends, want) {
			t.Errorf("%s: node-addressed sends %v, want %v", proto, sends, want)
		}
		if n := s.procs[3].stats.Invalidations(); n != 1 {
			t.Errorf("%s: p3 counted %d invalidations, want 1", proto, n)
		}
		if n := s.procs[2].stats.MessagesHandled(); n != 0 {
			t.Errorf("%s: p2, which never touched the block, handled %d messages", proto, n)
		}
		if n := downgrades(s.procs[2]) + downgrades(s.procs[3]); n != 0 {
			t.Errorf("%s: %d downgrades on node 1, want none", proto, n)
		}
	}
}

// TestRequesterRecordFollowsLastAsker: p2 reads the block, then p3 writes
// it, so both asked the home and p3 asked last. p1's write is forwarded to
// p3, and p3 downgrades p2's shared entry.
func TestRequesterRecordFollowsLastAsker(t *testing.T) {
	for _, proto := range ProtocolNames() {
		s, sends, err := requesterRun(t, proto, nil, [4]func(p *Proc){
			1: atTurn(4, func(p *Proc) { p.Store(rqAddr, 9); p.MemBar() }),
			2: atTurn(1, func(p *Proc) { p.Load(rqAddr) }),
			3: atTurn(2, func(p *Proc) { p.Store(rqAddr+8, 8); p.MemBar() }),
		})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if want := []string{"fwd-read-excl->p3"}; !reflect.DeepEqual(sends, want) {
			t.Errorf("%s: node-addressed sends %v, want %v", proto, sends, want)
		}
		if d2, d3 := downgrades(s.procs[2]), downgrades(s.procs[3]); d2 != 0 || d3 != 1 {
			t.Errorf("%s: p2 downgraded %d and p3 %d node-mates, want 0 and 1 (p3 the earlier asker p2)", proto, d2, d3)
		}
		if v, w := s.Peek(rqAddr), s.Peek(rqAddr+8); v != 9 || w != 8 {
			t.Errorf("%s: the words hold %d and %d, want 9 and 8", proto, v, w)
		}
	}
}

// TestNoRequesterRecordPanics: a node that owns a block although the home
// served no request from it cannot happen; with the record wiped behind the
// home's back, the forward panics naming block and node and sends nothing.
func TestNoRequesterRecordPanics(t *testing.T) {
	for _, proto := range ProtocolNames() {
		wipe := func(s *System, blk *blockInfo) { s.requester[blk.id*s.Cfg.Nodes+1] = 0 }
		_, sends, err := requesterRun(t, proto, wipe, [4]func(p *Proc){
			1: atTurn(3, func(p *Proc) { p.Load(rqAddr) }),
			3: atTurn(1, func(p *Proc) { p.Store(rqAddr, 7); p.MemBar() }),
		})
		if want := "block 0: the home served no request from node 1"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %.200q, want it to contain %q", proto, fmt.Sprint(err), want)
		}
		if len(sends) != 0 {
			t.Errorf("%s: sent %v with no record to go by", proto, sends)
		}
	}
}
