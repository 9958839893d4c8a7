package core

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// migStep is one access of a migratory-sharing script: role (0 is the
// block's home process, 1 to 3 are processes on three other agents) reads or
// writes the block, alone, in a window of its own.
type migStep struct {
	role  int
	write bool
}

// migSeen is what one step's window shows: the reply the role's miss got
// ("" for none), the messages the role sent, the line events the home
// emitted about migratory sharing, and the check cycles the access cost.
// Under Tardis also the block's timestamps: lease, the latest end of a
// lease on it before the access, the home's or any agent's; wts, its write
// timestamp before the access; and pts, the role's after it.
type migSeen struct {
	reply           string
	sent            int
	events          []string
	check           sim.Time
	lease, wts, pts int64
}

// migScript runs the steps on one block homed at process 0, four processes
// on four agents, and returns what each step's window shows.
func migScript(t *testing.T, cfg Config, steps []migStep) []migSeen {
	t.Helper()
	const window = sim.Time(100_000)
	tr := trace.NewBuffer()
	s := Build(WithConfig(cfg), WithTrace(tr))
	var blk uint64
	seen := make([]migSeen, len(steps))
	for role := 0; role < 4; role++ {
		s.Spawn(fmt.Sprintf("r%d", role), role*cfg.CPUsPerNode, func(p *Proc) {
			for i, st := range steps {
				if st.role != role {
					continue
				}
				computeUntil(p, sim.Time(i+1)*window)
				td, _ := s.proto.(*tardis)
				if td != nil {
					id := s.blockOf(s.lineOf(blk)).id
					seen[i].wts, seen[i].lease = td.entries[id].wts, td.entries[id].rts
					for _, am := range s.agents {
						if l, ok := td.astate(am).leases.get(id); ok {
							seen[i].lease = max(seen[i].lease, l.leaseEnd)
						}
					}
				}
				before := p.Stats().Time[CatCheck]
				if st.write {
					p.Store(blk, uint64(100+i))
				} else {
					p.Load(blk)
				}
				seen[i].check = p.Stats().Time[CatCheck] - before
				if td != nil {
					seen[i].pts = td.pstate(p).pts
				}
				p.MemBar()
			}
		})
	}
	blk = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	last := -1
	for i, st := range steps {
		if st.write {
			last = i
		}
	}
	if last >= 0 {
		if got, want := s.Peek(blk), uint64(100+last); got != want {
			t.Fatalf("the block holds %d, want %d", got, want)
		}
	}
	for _, ev := range tr.TakeBuffered() {
		i := int(ev.T/window) - 1
		if i < 0 || i >= len(steps) {
			continue
		}
		role := steps[i].role
		switch {
		case ev.Cat == "msg" && ev.Ev == "send" && ev.P == role:
			seen[i].sent++
		case ev.Cat == "line" && (ev.Ev == "migratory" || ev.Ev == "grant-migratory" || ev.Ev == "declassify"):
			seen[i].events = append(seen[i].events, ev.Ev)
		}
		if ev.Cat == "msg" && ev.Ev == "send" && ev.O == role {
			switch ev.S {
			case "read-reply", "read-excl-reply", "upgrade-ack":
				seen[i].reply = ev.S
			}
		}
	}
	return seen
}

// TestMigratoryGrant: the home grants a read of a block that moves
// read-then-write from agent to agent exclusive, so the write after it
// sends nothing and costs one protocol entry, the exclusive-clean to dirty
// step. A write (dirinval's upgrade, Tardis's read-exclusive) after reads by
// a third agent, or by the block's own last writer, does not classify; a
// grantee that gives the block up unwritten makes it ordinary for good. On
// 4x4 SMP-Shasta the agents are nodes, on 8x1 Base-Shasta processes; the
// rule is the same, on both backends. Under Tardis the read's grant is a
// write grant: it lands after every lease on the block, and the grantee's
// pts reaches it.
func TestMigratoryGrant(t *testing.T) {
	const home, a, b, c = 0, 1, 2, 3
	r := func(role int) migStep { return migStep{role: role} }
	w := func(role int) migStep { return migStep{role: role, write: true} }
	for _, layout := range []struct {
		name        string
		nodes, cpus int
		smp         bool
	}{{"4x4 SMP", 4, 4, true}, {"8x1 Base", 8, 1, false}} {
		for _, proto := range ProtocolNames() {
			name := layout.name + " " + proto
			cfg := testConfig()
			cfg.Nodes, cfg.CPUsPerNode, cfg.SMP, cfg.Protocol = layout.nodes, layout.cpus, layout.smp, proto
			cost := cfg.Cost

			// A writes, B reads then writes: the block is migratory, and C's
			// read is granted exclusive from B. C's first store sends nothing
			// and costs one protocol entry beside its check; its second, the
			// check alone.
			seen := migScript(t, cfg, []migStep{w(a), r(b), w(b), r(c), w(c), w(c)})
			if got := seen[2].events; fmt.Sprint(got) != "[migratory]" {
				t.Errorf("%s: B's write after A's write: home events %v, want [migratory]", name, got)
			}
			if got := seen[3]; got.reply != "read-excl-reply" || fmt.Sprint(got.events) != "[grant-migratory]" {
				t.Errorf("%s: C's read of a migratory block got %q (home events %v), want read-excl-reply [grant-migratory]",
					name, got.reply, got.events)
			}
			for i, want := range []sim.Time{cost.FullCheck + cost.ProtocolEntry, cost.FullCheck} {
				if got := seen[4+i]; got.sent != 0 || got.check != want {
					t.Errorf("%s: C's store %d after its grant sent %d messages and cost %d check cycles, want 0 and %d",
						name, i+1, got.sent, got.check, want)
				}
			}
			// The grant's timestamp is the block's wts once C holds it.
			if grant := seen[4].wts; proto == "tardis" && (grant <= seen[3].lease || seen[3].pts < grant) {
				t.Errorf("%s: C's read granted at wts %d after leases ending at %d, C's pts %d; want a grant after the leases and pts at it",
					name, grant, seen[3].lease, seen[3].pts)
			}

			// B's write follows C's read beside its own: not migratory, so
			// A's read after it is served shared. Nor is a write by the last
			// writer itself after the home read its copy back.
			for _, sc := range []struct {
				name  string
				steps []migStep
			}{
				{"a write after a third agent's read", []migStep{w(a), r(b), r(c), w(b), r(a)}},
				{"the last writer's own write", []migStep{w(a), r(home), w(a), r(c)}},
			} {
				seen := migScript(t, cfg, sc.steps)
				end := seen[len(seen)-1]
				for _, s := range seen {
					if len(s.events) > 0 {
						t.Errorf("%s: %s: home events %v, want none", name, sc.name, s.events)
					}
				}
				if end.reply != "read-reply" {
					t.Errorf("%s: %s: the read after it got %q, want read-reply", name, sc.name, end.reply)
				}
			}

			// C is granted the block on a read and gives it up unwritten when A
			// reads it: the home declassifies it. A was still granted it
			// exclusive; once B reads it shared, B's write after B's read, which
			// classified the block before, no longer does, and C's read is
			// served shared.
			seen = migScript(t, cfg, []migStep{w(a), r(b), w(b), r(c), r(a), r(b), w(b), r(c)})
			if got := seen[4]; got.reply != "read-excl-reply" || fmt.Sprint(got.events) != "[grant-migratory declassify]" {
				t.Errorf("%s: A's read from an unwritten grantee got %q (home events %v), want read-excl-reply [grant-migratory declassify]",
					name, got.reply, got.events)
			}
			if got := seen[6].events; len(got) > 0 {
				t.Errorf("%s: B's write to a declassified block: home events %v, want none", name, got)
			}
			if got := seen[7].reply; got != "read-reply" {
				t.Errorf("%s: C's read of a declassified block got %q, want read-reply", name, got)
			}
		}
	}
}
