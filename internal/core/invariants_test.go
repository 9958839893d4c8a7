package core

import (
	"errors"
	"testing"
)

// world is one state of a three-agent system as the invariant catalogue sees
// it, in one of its two worlds: e is nil for the live system.
type world struct {
	s    *System
	e    *Explorer
	line int
	blk  *blockInfo
}

// liveWorld runs three nodes of one CPU, Base-Shasta, in which process 1
// reads a line homed at process 0: at the end of the run the line is shared
// by agents 0 and 1 and invalid at agent 2, and nothing is in flight.
func liveWorld(t *testing.T, proto string) world {
	cfg := baseConfig()
	cfg.Nodes, cfg.CPUsPerNode = 3, 1
	cfg.Protocol = proto
	s := Build(WithConfig(cfg))
	var addr uint64
	for cpu := 0; cpu < cfg.Nodes; cpu++ {
		reads := cpu == 1
		s.Spawn("w", cpu, func(p *Proc) {
			if reads {
				p.Load(addr)
			}
		})
	}
	addr = s.Alloc(cfg.LineSize, AllocOptions{Home: HomeAt(0)})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	line := s.lineOf(addr)
	return world{s: s, line: line, blk: s.blockOf(line)}
}

// explorerWorld is the same state in the explorer: process 1 reads word 0,
// homed at process 0, and the request and its reply are delivered.
func explorerWorld(t *testing.T, proto string) world {
	e := NewExplorer(ExpConfig{
		Programs: [][]ExpOp{nil, {{Kind: ExpRead, Word: 0}}, nil},
		Homes:    []int{0},
		Protocol: proto,
	})
	t.Cleanup(e.Close)
	for _, a := range []string{"p1", "d1>0#0", "d0>1#0"} {
		act, err := ParseExpAction(a)
		if err != nil {
			t.Fatal(err)
		}
		e.Apply(act)
	}
	return world{s: e.sys, e: e, line: 0, blk: e.sys.blocks[0]}
}

// check runs the catalogue the way the world does.
func (w world) check() error {
	if w.e == nil {
		return w.s.CheckInvariants()
	}
	if v := w.e.Check(); v != nil {
		return v
	}
	return nil
}

// TestCheckInvariantsNamesTheViolation is the failure side of the invariant
// catalogue, in both of its worlds: System.CheckInvariants on a live system,
// Explorer.Check on the same state in the explorer. Each row breaks one
// thing by hand, on a system of its own, and names the invariant both must
// report; there is a row for every clause. explorerOnly rows break what only
// the explorer can see (a message in flight, a lease's version), or what
// makes a live system not quiescent, so that the full half does not run.
func TestCheckInvariantsNamesTheViolation(t *testing.T) {
	rows := []struct {
		name, protocol string // protocol "" runs the row on both backends
		explorerOnly   bool
		corrupt        func(w world)
		want           string // the InvariantError's Invariant; "" for nil
	}{
		{name: "untouched", corrupt: func(world) {}},

		{name: "two exclusive copies", want: "swmr", corrupt: func(w world) {
			// Both sharers, so that no shared copy is left for dirinval's own
			// half of single-writer to find.
			w.s.agents[0].table[w.line] = Exclusive
			w.s.agents[1].table[w.line] = Exclusive
		}},
		{name: "shared beside exclusive", protocol: "dirinval", want: "swmr", corrupt: func(w world) {
			w.s.agents[0].table[w.line] = Exclusive
		}},
		{name: "exclusive at an agent the home does not name", protocol: "tardis", want: "swmr", corrupt: func(w world) {
			w.s.agents[1].table[w.line] = Exclusive
		}},

		{name: "MSHR count off", want: "bounded", corrupt: func(w world) {
			w.s.procs[2].outstanding = 1
		}},
		{name: "more deferred requests than processes", want: "bounded", corrupt: func(w world) {
			p := w.s.procs[2]
			for i := 0; i <= len(w.s.procs); i++ {
				p.deferredReqs = append(p.deferredReqs, msg{kind: msgInvalReq, block: w.blk.id})
			}
		}},
		{name: "home queue longer than the process count", want: "bounded", corrupt: func(w world) {
			h := &w.s.homes[w.blk.id]
			for i := 0; i <= len(w.s.procs); i++ {
				h.queue = append(h.queue, msg{kind: msgReadReq, block: w.blk.id})
			}
		}},
		{name: "link longer than its bound", explorerOnly: true, want: "bounded", corrupt: func(w world) {
			k := [2]int{1, 0}
			for i := 0; i <= 4*len(w.s.blocks)*len(w.s.procs)+4; i++ {
				w.e.chans[k] = append(w.e.chans[k], msg{kind: msgReadReq, block: w.blk.id, from: 1, reqProc: 1})
			}
		}},

		{name: "busy with nothing in flight", explorerOnly: true, want: "dir-agreement", corrupt: func(w world) {
			w.s.homes[w.blk.id].busy = true
		}},
		{name: "sharer bit for an invalid copy", protocol: "dirinval", want: "dir-agreement", corrupt: func(w world) {
			w.s.proto.(*dirInval).sharers[w.blk.id] |= 1 << 2
		}},
		{name: "shared copy outside the sharer set", protocol: "dirinval", want: "dir-agreement", corrupt: func(w world) {
			w.s.proto.(*dirInval).sharers[w.blk.id] &^= 1 << 1
		}},
		{name: "owner holds no copy", protocol: "dirinval", want: "dir-agreement", corrupt: func(w world) {
			w.s.proto.(*dirInval).sharers[w.blk.id] = 0
			w.s.homes[w.blk.id].owner = 2
			w.s.agents[0].table[w.line] = Invalid
			w.s.agents[1].table[w.line] = Invalid
		}},
		{name: "stale copy beside an owner", protocol: "dirinval", want: "dir-agreement", corrupt: func(w world) {
			// The owner's copy is gone too, so that swmr's no-shared-beside-
			// exclusive does not find the stale one first.
			w.s.proto.(*dirInval).sharers[w.blk.id] = 0
			w.s.homes[w.blk.id].owner = 1
			w.s.agents[1].table[w.line] = Invalid
		}},
		{name: "wts past rts", protocol: "tardis", want: "dir-agreement", corrupt: func(w world) {
			e := &w.s.proto.(*tardis).entries[w.blk.id]
			e.wts = e.rts + 1
		}},
		{name: "owner holds no copy", protocol: "tardis", want: "dir-agreement", corrupt: func(w world) {
			w.s.homes[w.blk.id].owner = 2
			w.s.agents[0].table[w.line] = Invalid
		}},
		{name: "home master copy invalid", protocol: "tardis", want: "dir-agreement", corrupt: func(w world) {
			w.s.agents[0].table[w.line] = Invalid
		}},
		{name: "home copy beside an owner", protocol: "tardis", want: "dir-agreement", corrupt: func(w world) {
			w.s.homes[w.blk.id].owner = 1
			w.s.agents[1].table[w.line] = Exclusive
		}},
		{name: "shared copy with no lease", protocol: "tardis", want: "dir-agreement", corrupt: func(w world) {
			w.s.proto.(*tardis).astate(w.s.agents[1]).leases.del(w.blk.id)
		}},
		{name: "lease past the home's rts", protocol: "tardis", want: "dir-agreement", corrupt: func(w world) {
			tr := w.s.proto.(*tardis)
			leases := &tr.astate(w.s.agents[1]).leases
			l, _ := leases.get(w.blk.id)
			l.leaseEnd = tr.entries[w.blk.id].rts + 1
			leases.set(w.blk.id, l, len(w.s.blocks))
		}},

		{name: "two valid copies disagree", protocol: "dirinval", want: "data-value", corrupt: func(w world) {
			w.s.agents[1].data[w.line*w.s.wordsPerLine] = 5
		}},
		{name: "leased copy not at its version", protocol: "tardis", explorerOnly: true, want: "data-value", corrupt: func(w world) {
			w.s.agents[1].data[w.line*w.s.wordsPerLine] = 5
		}},
		{name: "invalid copy not flag-filled", want: "flag-fill", corrupt: func(w world) {
			w.s.agents[2].data[w.line*w.s.wordsPerLine] = 0
		}},

		{name: "forward to an agent with no copy", explorerOnly: true, want: "fwd-owner", corrupt: func(w world) {
			k := [2]int{0, 2}
			w.e.chans[k] = append(w.e.chans[k], msg{kind: msgFwdRead, block: w.blk.id, from: 0, reqProc: 1})
		}},
	}
	worlds := []struct {
		name string
		make func(*testing.T, string) world
	}{{"live", liveWorld}, {"explorer", explorerWorld}}
	for _, row := range rows {
		for _, proto := range ProtocolNames() {
			if row.protocol != "" && row.protocol != proto {
				continue
			}
			t.Run(proto+"/"+row.name, func(t *testing.T) {
				for _, world := range worlds {
					if row.explorerOnly && world.name == "live" {
						continue
					}
					t.Run(world.name, func(t *testing.T) {
						w := world.make(t, proto)
						row.corrupt(w)
						err := w.check()
						var ie *InvariantError
						switch {
						case row.want == "" && err != nil:
							t.Fatalf("clean system: %v", err)
						case row.want != "" && (!errors.As(err, &ie) || ie.Invariant != row.want):
							t.Fatalf("got %v, want a violation of %s", err, row.want)
						}
					})
				}
			})
		}
	}
}
