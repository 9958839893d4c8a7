package core

import (
	"errors"
	"testing"
)

// TestCheckInvariantsNamesTheViolation is the failure side of
// System.CheckInvariants. Three nodes of one CPU; process 1 reads a line
// homed at process 0, so at the end of the run the line is shared by agents
// 0 and 1 and invalid at agent 2, nothing is in flight, and the untouched
// system checks clean. Each row then breaks one thing by hand, on a system
// of its own, and names the invariant the checker must report: the two the
// core checks for every backend (checkHomesLight), and what each backend
// adds.
func TestCheckInvariantsNamesTheViolation(t *testing.T) {
	type world struct {
		s    *System
		line int
		blk  *blockInfo
	}
	rows := []struct {
		name, protocol string // protocol "" runs the row on both backends
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
		{name: "home queue longer than the process count", want: "bounded", corrupt: func(w world) {
			h := &w.s.homes[w.blk.id]
			for i := 0; i <= len(w.s.procs); i++ {
				h.queue = append(h.queue, msg{kind: msgReadReq, block: w.blk.id})
			}
		}},
		{name: "shared beside exclusive", protocol: "dirinval", want: "swmr", corrupt: func(w world) {
			w.s.agents[0].table[w.line] = Exclusive
		}},
		{name: "sharer bit for an invalid copy", protocol: "dirinval", want: "dir-agreement", corrupt: func(w world) {
			w.s.proto.(*dirInval).dirs[w.blk.id].sharers |= 1 << 2
		}},
		{name: "wts past rts", protocol: "tardis", want: "ts-agreement", corrupt: func(w world) {
			e := &w.s.proto.(*tardis).entries[w.blk.id]
			e.wts = e.rts + 1
		}},
	}
	for _, row := range rows {
		for _, proto := range ProtocolNames() {
			if row.protocol != "" && row.protocol != proto {
				continue
			}
			t.Run(proto+"/"+row.name, func(t *testing.T) {
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
				row.corrupt(world{s, line, s.blockOf(line)})
				err := s.CheckInvariants()
				var ie *InvariantError
				switch {
				case row.want == "" && err != nil:
					t.Fatalf("clean system: %v", err)
				case row.want != "" && (!errors.As(err, &ie) || ie.Invariant != row.want):
					t.Fatalf("got %v, want a violation of %s", err, row.want)
				}
			})
		}
	}
}
