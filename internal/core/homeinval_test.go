package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// The home-node invalidation wedge (DESIGN.md §8 finding 9). Two nodes of two
// CPUs; a line homed on node 1 and shared by both nodes; p on node 0 and q
// on the home's node SC-upgrade it at the same moment. Five messages:
//
//  1. p's SC-upgrade reaches the home first;
//  2. q's is behind it in the home's queue, and q holds its agent's
//     transition lock for as long as that miss is outstanding;
//  3. the home grants p with one ack owed, for its own node's copy, and
//     goes to invalidate that copy — under the transition lock, as it used
//     to, it waits for q, servicing messages;
//  4. among them q's upgrade, which fails (the line is p's now); q re-issues
//     as a read and takes the lock again while the home is busy with the
//     next message in its queue;
//  5. the home forwards the read to p, where it is deferred behind p's fill,
//     which waits for the ack the home never gets to send.
//
// The home is deaf (no poll) from hiIssueAt for hiDeaf cycles, so that when
// it next looks its queue holds p's upgrade, q's, and behind them a few
// stores by a bystander on node 0 to other lines homed there: the messages
// that keep the home from seeing the lock free. The bystander then takes and
// releases a message-passing lock homed there until the others are done:
// work the watchdog sees and scheduler steps, so a wedged run is a starved
// miss and not a deadlock of everybody.
const (
	hiIssueAt = 200_000
	hiDeaf    = 40_000
	hiStores  = 4
)

func homeInvalSystem(broken bool) (s *System, addr uint64) {
	cfg := testConfig()
	cfg.Nodes, cfg.CPUsPerNode = 2, 2
	s = Build(WithConfig(cfg))
	s.brokenHomeInval = broken
	wire := s.Cfg.Net.WireLatency
	done, lock := 0, s.NewLock(2)
	// A contender takes a shared copy of the line, then increments it with
	// LL/SC from issueAt until an SC succeeds.
	contender := func(issueAt sim.Time) func(p *Proc) {
		return func(p *Proc) {
			p.Load(addr)
			computeUntil(p, issueAt)
			for !p.StoreCond(addr, p.LoadLocked(addr)+1) {
			}
			p.MemBar()
			done++
		}
	}
	s.Spawn("p", 0, contender(hiIssueAt))
	s.Spawn("bystander", 1, func(p *Proc) {
		computeUntil(p, hiIssueAt+2*wire)
		for i := uint64(1); i <= hiStores; i++ {
			p.Store(addr+i*64, i)
		}
		for done < 3 {
			p.LockAcquire(lock)
			p.Compute(1000)
			p.LockRelease(lock)
		}
	})
	s.Spawn("home", 2, func(p *Proc) {
		computeUntil(p, hiIssueAt)
		p.ChargeTime(CatTask, hiDeaf)
		computeUntil(p, 2*hiIssueAt)
		done++
	})
	// q's upgrade is issued while p's is on the wire and arrives after it.
	s.Spawn("q", 3, contender(hiIssueAt+wire))
	addr = s.Alloc((1+hiStores)*64, AllocOptions{Home: HomeAt(2)})
	return s, addr
}

// computeUntil computes up to simulated time t.
func computeUntil(p *Proc, t sim.Time) {
	if now := p.Now(); now < t {
		p.Compute(t - now)
	}
}

// TestHomeInvalidatesItsNodeLikeARemoteSharer: the run finishes and both
// increments land. That it was the interleaving above that ran is the next
// test's business: the same run with the old home-local invalidation wedges.
func TestHomeInvalidatesItsNodeLikeARemoteSharer(t *testing.T) {
	s, addr := homeInvalSystem(false)
	if err := s.Run(); err != nil {
		t.Fatalf("SC-upgrades from the home's node and a remote node wedged the run:\n%v", err)
	}
	if v := s.Peek(addr); v != 2 {
		t.Fatalf("the line holds %d after two LL/SC increments", v)
	}
	if n := s.procs[3].stats.N[CntSCFailures]; n == 0 {
		t.Error("q's SC never failed: its upgrade did not queue behind p's at the home")
	}
	if n := s.procs[2].stats.N[CntInvalidations]; n != 0 {
		t.Errorf("the home counted %d invalidation messages for invalidating its own node's copy", n)
	}
}

// TestStarvedMissFailsWithinWatchdogBudget: with the home taking the
// transition lock again the scenario wedges, and because the bystander keeps
// computing it is neither a deadlock nor a stall of everybody; it used to run
// to MaxTime. The starve probe ends it one watchdog budget after the wedged
// miss was issued, naming the process, its block and its MSHR.
func TestStarvedMissFailsWithinWatchdogBudget(t *testing.T) {
	s, addr := homeInvalSystem(true)
	err := s.Run()
	var se *sim.StallError
	if !errors.As(err, &se) {
		t.Fatalf("want a StallError, got %T: %v", err, err)
	}
	if se.Starved == "" || se.At >= 16_000_000 || se.At < s.Cfg.WatchdogCycles {
		t.Errorf("starved %q at t=%d, want a starved miss between the %d-cycle budget and 16M cycles", se.Starved, se.At, s.Cfg.WatchdogCycles)
	}
	for _, want := range []string{"has had a miss on block", "excl=", "reply=", "acks=", "protocol state:", "live processes:"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not contain %q:\n%v", want, err)
		}
	}
	blk := s.blockOf(s.lineOf(addr)).id
	if !strings.Contains(se.Starved, fmt.Sprintf("block %d ", blk)) {
		t.Errorf("starved miss %q is not on block %d", se.Starved, blk)
	}
	// Message 5: the home forwarded q's read to p's node and waits for the
	// writeback, and the dump says so.
	if want := fmt.Sprintf("block %d: busy owner=0 pending=0 queued=0", blk); !strings.Contains(err.Error(), want) {
		t.Errorf("error does not name the busy home, %q:\n%v", want, err)
	}

	// Nothing about the probe is simulated: the fixed protocol runs the
	// scenario to the same clocks with and without it.
	var clocks [2][]sim.Time
	for i, probe := range []bool{true, false} {
		s, _ := homeInvalSystem(false)
		if !probe {
			s.Eng.SetStarveProbe(nil)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		for _, p := range s.procs {
			clocks[i] = append(clocks[i], p.Sim.Now())
		}
	}
	for i := range clocks[0] {
		if clocks[0][i] != clocks[1][i] {
			t.Errorf("process %d ended at t=%d with the probe, t=%d without", i, clocks[0][i], clocks[1][i])
		}
	}
}
