package core

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// The home-local downgrade window (DESIGN.md §8 finding 8). A block is
// exclusive at its home agent, in the private table of a process co-resident
// with the home process and busy in application code, so a request that
// reaches the home-agent cell of the home's owner switch (System.handleHome,
// one for both backends) makes the home downgrade its own agent with an
// explicit downgrade message and stall for the ack, servicing messages
// meanwhile. A second request for the block that is handled inside that
// window must find the home record busy and queue behind the first.
//
// The same window opened the other way, by a forward to an owner on a node
// of its own (remote), is the home record's everyday use: the second request
// must queue at the home until the owner's writeback or ownership transfer
// ends the window, and be served then.
//
// One agent has at most one request per block outstanding (the transition
// lock), so two requests need two remote agents: three nodes of two CPUs,
// and a fourth for the remote owner.
// The owner makes the window wide and its position certain by running a
// stretch of code without a back-edge poll: the first request is issued at
// hdIssueAt and reaches the home some 9 000 cycles later, the owner answers
// the downgrade request only at hdIssueAt + hdDeaf.
const (
	hdIssueAt = 300_000 // the first remote access is issued
	hdDeaf    = 100_000 // the owner does not poll for this long from hdIssueAt
	hdSecond  = 25_000  // the second remote access follows the first by this
	hdSlice   = 20_000  // keepsBothSharers: the home's time slice ends this long after hdIssueAt
)

// homeDowngradeRun is one scenario: home on CPU 0, owner on CPU 1 (same
// node) or, remote, alone on node 3, one requester on each of nodes 1 and 2.
// helper adds a second process on the home's CPU and ends the home's time
// slice inside the window, between the two requests, so that the helper
// takes the second one from the CPU's shared request queue. With a remote
// owner the home process never stalls, and mid is the block's home record as
// it finds it between two polls in the middle of the owner's deaf stretch,
// after the second request has arrived. restore has the owner take a store
// grant on a second block (other) before the window, which raises its store
// timestamp, and store into the block again the moment its deaf stretch
// ends: a store hit inside the home's downgrade stall, at storeTs.
type homeDowngradeRun struct {
	write, helper, remote, restore bool

	s           *System
	addr, other uint64
	got         [2]uint64
	mid         homeEntry
	storeTs     int64
}

func (r *homeDowngradeRun) build(protocol string) {
	cfg := testConfig()
	cfg.Nodes, cfg.CPUsPerNode = 3, 2
	ownerCPU := 1
	if r.remote {
		cfg.Nodes, ownerCPU = 4, 3*cfg.CPUsPerNode
	}
	cfg.Protocol = protocol
	if r.helper {
		cfg.Cost.Quantum = hdIssueAt + hdSlice
	}
	s := Build(WithConfig(cfg))
	r.s = s
	until := computeUntil
	const end = 3 * hdIssueAt
	s.Spawn("home", 0, func(p *Proc) {
		if r.remote {
			until(p, hdIssueAt+hdDeaf/2)
			r.mid = s.homes[s.blockOf(s.lineOf(r.addr)).id]
		}
		until(p, end)
	})
	s.Spawn("owner", ownerCPU, func(p *Proc) {
		until(p, hdIssueAt/2)
		p.Store(r.addr, 7) // local fill: exclusive in this private table only
		if r.restore {
			p.Store(r.other, 1)
		}
		until(p, hdIssueAt)
		p.ChargeTime(CatTask, hdDeaf)
		if r.restore {
			p.Store(r.addr, 8)
			r.storeTs = s.proto.(*tardis).pstate(p).storeTs()
		}
		until(p, end)
	})
	for i := 0; i < 2; i++ {
		i := i
		s.Spawn(fmt.Sprintf("req%d", i), (i+1)*cfg.CPUsPerNode, func(p *Proc) {
			until(p, hdIssueAt+sim.Time(i)*hdSecond)
			if r.write {
				p.Store(r.addr+8*uint64(i+1), uint64(10+i))
				p.MemBar()
			}
			r.got[i] = p.Load(r.addr)
		})
	}
	if r.helper {
		s.Spawn("helper", 0, func(p *Proc) { until(p, end) })
	}
	r.addr = s.Alloc(64, AllocOptions{BlockLines: 1, Home: HomeAt(0)})
	if r.restore {
		r.other = s.Alloc(64, AllocOptions{BlockLines: 1, Home: HomeAt(2)})
	}
}

// homeDowngradeCases runs body for both backends, for a read and for a
// read-exclusive, in the cell of System.handleHome's owner switch where the
// owner is the home agent or, remote, another agent.
func homeDowngradeCases(t *testing.T, helper, remote bool, body func(t *testing.T, r *homeDowngradeRun)) {
	for _, proto := range []string{"dirinval", "tardis"} {
		for _, write := range []bool{false, true} {
			name := proto + "/read"
			if write {
				name = proto + "/read-exclusive"
			}
			if remote {
				name += "/forwarded"
			}
			t.Run(name, func(t *testing.T) {
				r := &homeDowngradeRun{write: write, helper: helper, remote: remote}
				r.build(proto)
				body(t, r)
			})
		}
	}
}

// TestHomeDowngradeReentrancy is the old wedge: the home process popped the
// second request inside its own stall for its node-mates' downgrade acks,
// reached the same branch, and waited for ever for the transition lock its
// outer frame held. No handler stalls now, and the second request queues
// behind the busy record. Its forwarded rows are the window that never
// wedged, through the same record.
func TestHomeDowngradeReentrancy(t *testing.T) {
	for _, remote := range []bool{false, true} {
		homeDowngradeCases(t, false, remote, func(t *testing.T, r *homeDowngradeRun) {
			s := r.s
			if err := s.Run(); err != nil {
				t.Fatalf("second request inside the home's busy window wedged the run:\n%v", err)
			}
			if remote {
				if !r.mid.busy || len(r.mid.queue) != 1 || r.mid.owner != 3 {
					t.Fatalf("home record inside the window %+v, want busy for owner 3 with one request queued", r.mid)
				}
			} else if s.procs[0].stats.DowngradesSent() == 0 {
				t.Fatal("the home never sent an explicit downgrade: the window was not exercised")
			}
			if r.got != [2]uint64{7, 7} {
				t.Fatalf("requesters read %v, want [7 7]", r.got)
			}
			if r.write {
				for i := 0; i < 2; i++ {
					if v := s.Peek(r.addr + 8*uint64(i+1)); v != uint64(10+i) {
						t.Fatalf("requester %d's store was lost: word holds %d", i, v)
					}
				}
			}
		})
	}
}

// TestHomeDowngradeKeepsBothSharers is the silent variant: a second process
// on the home's CPU pops the second request from the CPU's shared queue,
// waits for the transition lock, and then carries on in the branch it chose
// from the directory state of before the wait. On dirinval it overwrote the
// sharer set, dropping the first requester (whose copy no write would then
// invalidate); a second read-exclusive was granted a second owner.
func TestHomeDowngradeKeepsBothSharers(t *testing.T) {
	homeDowngradeCases(t, true, false, func(t *testing.T, r *homeDowngradeRun) {
		s := r.s
		// Run ends with CheckInvariants: directory and state tables must
		// agree copy for copy.
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if helper := s.procs[4]; helper.stats.MessagesHandled() == 0 {
			t.Fatal("the helper handled no message: the second request did not reach another process")
		}
		if r.got != [2]uint64{7, 7} {
			t.Fatalf("requesters read %v, want [7 7]", r.got)
		}
		if d, ok := s.proto.(*dirInval); ok && !r.write {
			blk := s.blockOf(s.lineOf(r.addr))
			if h := s.homes[blk.id]; h.owner != -1 || h.busy || d.sharers[blk.id] != 0b111 {
				t.Fatalf("sharer set %b, home record %+v, want the master copy shared by agents 0, 1 and 2", d.sharers[blk.id], h)
			}
		}
	})
}

// TestHomeOwnedGrantTakesDirtyAfterDowngrade: a process on the home's node
// still holds the block exclusive in its private table when a read-exclusive
// reaches the home, and stores into it inside the home's downgrade stall.
// The version that leaves the home agent includes that store, so the grant
// must land above the store's timestamp, and the agent's dirty record of it
// must go with the version. Taken before the downgrade, the record missed
// the store: the grant landed at its timestamp and the record outlived the
// departure.
func TestHomeOwnedGrantTakesDirtyAfterDowngrade(t *testing.T) {
	r := &homeDowngradeRun{write: true, restore: true}
	r.build("tardis")
	s := r.s
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.procs[0].stats.DowngradesSent() == 0 {
		t.Fatal("the home never sent an explicit downgrade: the window was not exercised")
	}
	if r.storeTs == 0 {
		t.Fatal("the owner's store timestamp never rose: its store grant on the second block did not land")
	}
	tr := s.proto.(*tardis)
	blk := s.blockOf(s.lineOf(r.addr))
	// req0, alone on node 1, asked first: the home agent's version went to it.
	if grant := tr.astate(s.agents[1]).tenure[blk.id]; grant <= r.storeTs {
		t.Errorf("grant at ts %d, not above the store inside the stall at storeTs %d", grant, r.storeTs)
	}
	if d, ok := tr.astate(s.agents[0]).dirty[blk.id]; ok {
		t.Errorf("the home agent's dirty record (%d) survived the departure of its version", d)
	}
}
