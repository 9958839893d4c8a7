package core

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// The home-local downgrade window (DESIGN.md §8 finding 8). A block is
// exclusive at its home agent, in the private table of a process co-resident
// with the home process and busy in application code, so a request that
// reaches handleHome makes the home downgrade its own agent with an explicit
// downgrade message and stall for the ack, servicing messages meanwhile. A
// second request for the block that is handled inside that window must find
// the directory entry busy and queue behind the first.
//
// One agent has at most one request per block outstanding (the transition
// lock), so two requests need two remote agents: three nodes of two CPUs.
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

// homeDowngradeSystem builds the scenario: home on CPU 0, owner on CPU 1
// (same node), one requester on each of nodes 1 and 2. helper adds a second
// process on the home's CPU and ends the home's time slice inside the
// window, between the two requests, so that the helper takes the second one
// from the CPU's shared request queue.
func homeDowngradeSystem(protocol string, write, helper bool) (s *System, addr uint64, got *[2]uint64) {
	cfg := testConfig()
	cfg.Nodes, cfg.CPUsPerNode = 3, 2
	cfg.Protocol = protocol
	if helper {
		cfg.Cost.Quantum = hdIssueAt + hdSlice
	}
	s = Build(WithConfig(cfg))
	got = new([2]uint64)
	until := computeUntil
	const end = 3 * hdIssueAt
	s.Spawn("home", 0, func(p *Proc) { until(p, end) })
	s.Spawn("owner", 1, func(p *Proc) {
		until(p, hdIssueAt/2)
		p.Store(addr, 7) // local fill: exclusive in this private table only
		until(p, hdIssueAt)
		p.ChargeTime(CatTask, hdDeaf)
		until(p, end)
	})
	for i := 0; i < 2; i++ {
		i := i
		s.Spawn(fmt.Sprintf("req%d", i), (i+1)*cfg.CPUsPerNode, func(p *Proc) {
			until(p, hdIssueAt+sim.Time(i)*hdSecond)
			if write {
				p.Store(addr+8*uint64(i+1), uint64(10+i))
				p.MemBar()
			}
			got[i] = p.Load(addr)
		})
	}
	if helper {
		s.Spawn("helper", 0, func(p *Proc) { until(p, end) })
	}
	addr = s.Alloc(64, AllocOptions{BlockLines: 1, Home: HomeAt(0)})
	return s, addr, got
}

// homeDowngradeCases runs body for both backends and both branches of
// handleHome's "the owner is the home agent".
func homeDowngradeCases(t *testing.T, helper bool, body func(t *testing.T, s *System, addr uint64, got *[2]uint64, write bool)) {
	for _, proto := range []string{"dirinval", "tardis"} {
		for _, write := range []bool{false, true} {
			name := proto + "/read"
			if write {
				name = proto + "/read-exclusive"
			}
			t.Run(name, func(t *testing.T) {
				s, addr, got := homeDowngradeSystem(proto, write, helper)
				body(t, s, addr, got, write)
			})
		}
	}
}

// TestHomeDowngradeReentrancy is the wedge: the home process pops the second
// request inside its own waitDowngrades stall, reaches the same branch, and
// waits for ever for the transition lock its outer frame holds.
func TestHomeDowngradeReentrancy(t *testing.T) {
	homeDowngradeCases(t, false, func(t *testing.T, s *System, addr uint64, got *[2]uint64, write bool) {
		if err := s.Run(); err != nil {
			t.Fatalf("second request inside the home's downgrade window wedged the run:\n%v", err)
		}
		if s.procs[0].stats.DowngradesSent() == 0 {
			t.Fatal("the home never sent an explicit downgrade: the window was not exercised")
		}
		if *got != [2]uint64{7, 7} {
			t.Fatalf("requesters read %v, want [7 7]", *got)
		}
		if write {
			for i := 0; i < 2; i++ {
				if v := s.Peek(addr + 8*uint64(i+1)); v != uint64(10+i) {
					t.Fatalf("requester %d's store was lost: word holds %d", i, v)
				}
			}
		}
	})
}

// TestHomeDowngradeKeepsBothSharers is the silent variant: a second process
// on the home's CPU pops the second request from the CPU's shared queue,
// waits for the transition lock, and then carries on in the branch it chose
// from the directory state of before the wait. On dirinval it overwrote the
// sharer set, dropping the first requester (whose copy no write would then
// invalidate); a second read-exclusive was granted a second owner.
func TestHomeDowngradeKeepsBothSharers(t *testing.T) {
	homeDowngradeCases(t, true, func(t *testing.T, s *System, addr uint64, got *[2]uint64, write bool) {
		// Run ends with CheckInvariants: directory and state tables must
		// agree copy for copy.
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if helper := s.procs[4]; helper.stats.MessagesHandled() == 0 {
			t.Fatal("the helper handled no message: the second request did not reach another process")
		}
		if *got != [2]uint64{7, 7} {
			t.Fatalf("requesters read %v, want [7 7]", *got)
		}
		if d, ok := s.proto.(*dirInval); ok && !write {
			blk := s.blockOf(s.lineOf(addr))
			if dir := d.dirs[blk.id]; dir.state != dirShared || dir.sharers != 0b111 {
				t.Fatalf("directory entry %v sharers %03b, want shared by agents 0, 1 and 2", dir.state, dir.sharers)
			}
		}
	})
}
