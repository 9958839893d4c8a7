package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// The home-node invalidation wedge (DESIGN.md §8 finding 9). Two nodes of two
// CPUs; a line homed on node 1 and shared by both nodes; p on node 0 and q
// on the home's node SC-upgrade it at the same moment. Five messages, when
// the home waits for its node's miss before it invalidates its own copy, as
// it did under the transition lock:
//
//  1. p's SC-upgrade reaches the home first;
//  2. q's is behind it in the home's queue, and q holds its agent's
//     transition lock for as long as that miss is outstanding;
//  3. the home, about to invalidate its own node's copy for p, waits for q
//     — under the transition lock, servicing messages; in the broken
//     variant (brokenHomeInval), by deferring p's upgrade behind q's miss;
//  4. q's upgrade: under the lock it failed (the line was p's by then) and
//     q re-issued as a read; in the broken variant it is deferred behind
//     q's own miss;
//  5. under the lock, the home forwarded the read to p, where it was
//     deferred behind p's miss, which waited for the grant the home never
//     got to send; in the broken variant neither miss is ever answered.
//
// The fixed home invalidates its own copy without waiting (invalidateAgent).
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

// TestStarvedMissFailsWithinWatchdogBudget: with the home waiting for its
// node's miss before it invalidates its own copy, as it once did under the
// transition lock, the scenario wedges (a handler never waits, so the home
// defers the write behind the miss), and because the bystander keeps
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
	// Messages 3 and 4: the home deferred p's upgrade behind q's miss, and
	// then q's own behind it. The dump names q's miss on the block and both
	// requests deferred behind it, p's first.
	want := fmt.Sprintf("q[3]@n1c3 in-protocol outstanding=1 mshr=[%d(excl=true,reply=false,acks=0/0)] deferred[%d]=sc-upgrade-req:p0 deferred[%d]=sc-upgrade-req:p3", blk, blk, blk)
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error does not name the home's requests deferred behind q's miss, %q:\n%v", want, err)
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

// TestHomeGrantCarriesItsOwnInvalidation: on Base-Shasta p0 (the block's
// home), p1 and p2 share a block, and p2 writes it. The home invalidates p1
// by message and its own copy in place before it grants, so it sends
// exactly one inval-req and one grant owing one ack, and no inval-ack of
// its own. p2's miss finishes after it has handled those two messages, the
// grant and p1's ack.
func TestHomeGrantCarriesItsOwnInvalidation(t *testing.T) {
	cfg := baseConfig()
	cfg.Nodes = 3
	tr := trace.NewBuffer()
	s := Build(WithConfig(cfg), WithTrace(tr))
	for i := 0; i < 3; i++ {
		s.Spawn(fmt.Sprintf("p%d", i), i, func(p *Proc) {
			p.Load(SharedBase)
			if i == 2 {
				computeUntil(p, hoStep)
				p.Store(SharedBase, 1)
				p.MemBar()
			}
			computeUntil(p, 2*hoStep)
		})
	}
	s.Alloc(64, AllocOptions{BlockLines: 1, Home: HomeAt(0)})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var sends, handled []string
	finish := ""
	for _, ev := range tr.TakeBuffered() {
		switch {
		case ev.T < hoStep || finish != "":
		case ev.Cat == "msg" && ev.Ev == "send" && ev.P == 0:
			sends = append(sends, fmt.Sprintf("%s->p%d", ev.S, ev.O))
		case ev.Cat == "msg" && ev.Ev == "handle" && ev.P == 2:
			handled = append(handled, fmt.Sprintf("%s<-p%d", ev.S, ev.O))
		case ev.Cat == "line" && ev.P == 2 && strings.HasPrefix(ev.Ev, "finish:"):
			finish = ev.Ev
		}
	}
	if want := []string{"inval-req->p1", "upgrade-ack->p2"}; !reflect.DeepEqual(sends, want) {
		t.Errorf("the home sent %v for the write, want %v", sends, want)
	}
	if want := []string{"upgrade-ack<-p0", "inval-ack<-p1"}; !reflect.DeepEqual(handled, want) {
		t.Errorf("the writer handled %v before its miss finished, want %v", handled, want)
	}
	if !strings.HasPrefix(finish, "finish:grant-exclusive-") || !strings.HasSuffix(finish, "-acks1") {
		t.Errorf("the writer's miss finished as %q, want an exclusive grant owing one ack", finish)
	}
	if v := s.Peek(SharedBase); v != 1 {
		t.Errorf("the block holds %d after the write of 1", v)
	}
}

// TestHomeGrantWaitsForItsMatesDowngrade: on SMP-Shasta, two nodes of two
// CPUs, p0's node-mate p1 writes a block homed at p0 and computes, and p2
// on node 1 reads it: p1's private table keeps a shared copy while it is in
// application code. p3, p2's node-mate, writes the block, so invalidating
// the home's copy takes an explicit downgrade of p1. The home does not wait
// for it: the grant to p3 leaves from p1, after p1 has applied the
// downgrade, no downgrade ack exists, the run finishes, and the invariants
// hold.
func TestHomeGrantWaitsForItsMatesDowngrade(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes, cfg.CPUsPerNode = 2, 2
	tr := trace.NewBuffer()
	s := Build(WithConfig(cfg), WithTrace(tr))
	for i := 0; i < 4; i++ {
		s.Spawn(fmt.Sprintf("p%d", i), i, func(p *Proc) {
			switch i {
			case 1:
				p.Store(SharedBase, 2)
			case 2:
				computeUntil(p, hoStep/2)
				p.Load(SharedBase)
			case 3:
				computeUntil(p, hoStep)
				p.Store(SharedBase, 1)
				p.MemBar()
			}
			computeUntil(p, 2*hoStep)
		})
	}
	s.Alloc(64, AllocOptions{BlockLines: 1, Home: HomeAt(0)})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var dgReq, dgApplied, grant sim.Time = -1, -1, -1
	for _, ev := range tr.TakeBuffered() {
		switch {
		case ev.Cat != "msg" || ev.T < hoStep:
		case ev.S == "downgrade-ack":
			t.Fatalf("p%d %ss a downgrade-ack at t=%d", ev.P, ev.Ev, ev.T)
		case ev.Ev == "send" && ev.P == 0 && ev.O == 1 && ev.S == "downgrade-req":
			dgReq = ev.T
		case ev.Ev == "handle" && ev.P == 1 && ev.O == 0 && ev.S == "downgrade-req":
			dgApplied = ev.T
		case ev.Ev == "send" && ev.O == 3 && ev.S == "upgrade-ack":
			if ev.P != 1 {
				t.Fatalf("p%d sent the grant, want p1, the last downgrader", ev.P)
			}
			grant = ev.T
		}
	}
	if dgReq < 0 || dgApplied < 0 || grant < 0 {
		t.Fatalf("downgrade-req sent at %d, applied at %d, grant sent at %d: want all three", dgReq, dgApplied, grant)
	}
	if !(dgReq < dgApplied && dgApplied < grant) {
		t.Errorf("downgrade-req sent at t=%d, applied at t=%d, grant sent at t=%d: the grant must leave after the downgrade", dgReq, dgApplied, grant)
	}
	if v := s.Peek(SharedBase); v != 1 {
		t.Errorf("the block holds %d after the write of 1", v)
	}
}
