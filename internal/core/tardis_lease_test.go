package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sim"
)

// TestLeaseIndexMatchesMap drives the index and the map it replaced with the
// same random sets, deletes and expiries: the same records, the same
// minimum, the same expired set and the same install order, after every
// operation.
func TestLeaseIndexMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const blocks = 97
	var x leaseIndex
	ref := map[int]tardisLease{}
	var order []int // the blocks with a record, installed longest ago first
	unorder := func(id int) {
		for i, o := range order {
			if o == id {
				order = append(order[:i], order[i+1:]...)
				return
			}
		}
	}
	for op := 0; op < 20_000; op++ {
		id := r.Intn(blocks)
		switch r.Intn(4) {
		case 0, 1:
			l := tardisLease{dataWts: r.Int63n(50), leaseEnd: r.Int63n(200)}
			x.set(id, l, id+1+r.Intn(blocks-id)) // the block count grows as blocks are allocated
			ref[id] = l
			unorder(id)
			order = append(order, id)
		case 2:
			x.del(id)
			delete(ref, id)
			unorder(id)
		case 3:
			pts := r.Int63n(200)
			var want []int
			for id, l := range ref {
				if l.leaseEnd < pts {
					want = append(want, id)
				}
			}
			got := x.endedBefore(pts, nil)
			sort.Ints(want)
			sort.Ints(got)
			if len(got) != len(want) {
				t.Fatalf("op %d: leases ended before %d: %v, want %v", op, pts, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("op %d: leases ended before %d: %v, want %v", op, pts, got, want)
				}
				x.del(got[i])
				delete(ref, got[i])
				unorder(got[i])
			}
		}
		if len(x.heap) != len(ref) {
			t.Fatalf("op %d: %d records, want %d", op, len(x.heap), len(ref))
		}
		want, has := ref[id]
		if l, ok := x.get(id); ok != has || l != want {
			t.Fatalf("op %d: block %d holds %v (%v), want %v (%v)", op, id, l, ok, want, has)
		}
		oldest, any := int64(0), false
		for _, l := range ref {
			if !any || l.leaseEnd < oldest {
				oldest, any = l.leaseEnd, true
			}
		}
		if end, ok := x.minEnd(); ok != any || end != oldest {
			t.Fatalf("op %d: earliest lease end %d (%v), want %d (%v)", op, end, ok, oldest, any)
		}
		var walked []int
		for b := x.first; b != 0; b = x.newer[b-1] {
			walked = append(walked, int(b-1))
		}
		first, ok := x.oldest()
		if fmt.Sprint(walked) != fmt.Sprint(order) || ok != (len(order) > 0) || ok && first != order[0] {
			t.Fatalf("op %d: install order %v, oldest %d (%v), want %v", op, walked, first, ok, order)
		}
	}
}

// TestTardisLeaseRule: extendLease leases a read for tardisLeaseAge times
// the version's age at the reader's pts, clamped to [tardisLeaseLen,
// tardisLeaseMax], gives an SC-marked block tardisLeaseLen, and never
// shortens rts.
func TestTardisLeaseRule(t *testing.T) {
	for _, c := range []struct {
		name          string
		wts, rts, pts int64
		sc            bool
		want          int64 // rts after the read
	}{
		{"a new version", 10, 10, 10, false, 10 + tardisLeaseLen},
		{"a reader behind the version", 10, 10, 5, false, 5 + tardisLeaseLen},
		{"an age under the base", 10, 10, 11, false, 11 + tardisLeaseLen},
		{"an age between the ends", 10, 10, 30, false, 30 + tardisLeaseAge*20},
		{"an age past the cap", 10, 10, 1000, false, 1000 + tardisLeaseMax},
		{"an SC-marked block", 10, 10, 1000, true, 1000 + tardisLeaseLen},
		{"a longer lease outstanding", 10, 5000, 1000, false, 5000},
	} {
		e := tardisEntry{wts: c.wts, rts: c.rts, sc: c.sc}
		if end := extendLease(&e, c.pts); end != c.want || e.rts != c.want {
			t.Errorf("%s: a read at pts %d of version %d leased to %d (rts %d), want %d", c.name, c.pts, c.wts, end, e.rts, c.want)
		}
	}
}

// leaseLayouts are the two agent layouts the lease tests run on: on 4x4
// SMP-Shasta the agents are nodes, on 8x1 Base-Shasta processes.
var leaseLayouts = []struct {
	name        string
	nodes, cpus int
	smp         bool
}{{"4x4 SMP", 4, 4, true}, {"8x1 Base", 8, 1, false}}

// leaseStep is one access of a lease script: a read, a store, or an LL/SC
// pair, by the process of one role; a read first observes the block's wts
// plus ahead, as an acquire would, so the version is that old to it.
type leaseStep struct {
	role  int
	op    string // "read", "write" or "llsc"
	ahead int64
}

// leaseSeen is what one step of a lease script shows: the block's home
// entry just after the access, and the length of the lease a read was
// granted (its lease end less the reader's pts at the miss).
type leaseSeen struct {
	after   tardisEntry
	granted int64
}

// leaseScript runs steps on one Tardis block homed at process 0, with three
// processes on three agents. Each access has a window of its own, and a
// process computes through the windows between its accesses: tens of poll
// ticks, so every lease its agent holds is gone before its next access.
func leaseScript(t *testing.T, cfg Config, steps []leaseStep) []leaseSeen {
	t.Helper()
	const window = sim.Time(100_000)
	cfg.Protocol = "tardis"
	s := Build(WithConfig(cfg))
	td := s.proto.(*tardis)
	var addr uint64
	var id int
	seen := make([]leaseSeen, len(steps))
	for role := 0; role < 3; role++ {
		s.Spawn(fmt.Sprintf("r%d", role), role*cfg.CPUsPerNode, func(p *Proc) {
			for i, st := range steps {
				if st.role != role {
					continue
				}
				computeUntil(p, sim.Time(i+1)*window)
				switch st.op {
				case "read":
					td.observeTs(p, td.entries[id].wts+st.ahead)
					pts := td.pstate(p).pts
					p.Load(addr)
					if l, ok := td.astate(p.mem).leases.get(id); ok {
						seen[i].granted = l.leaseEnd - pts
					}
				case "write":
					p.Store(addr, uint64(100+i))
				case "llsc":
					if v := p.LoadLocked(addr); !p.StoreCond(addr, v+1) {
						t.Errorf("step %d: the SC failed", i+1)
					}
				}
				p.MemBar()
				seen[i].after = td.entries[id]
			}
		})
	}
	addr = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
	id = s.blockOf(s.lineOf(addr)).id
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return seen
}

// TestTardisLeaseSizedByAge: on both layouts a read is leased by the age
// of the version it reads, from the base lease for a new version up to the
// cap; a block the home served an SC upgrade for is leased for the base
// length however old its version, through a recall of its owner and after
// a plain write grant, which keeps the mark.
func TestTardisLeaseSizedByAge(t *testing.T) {
	const home, reader, locker = 0, 1, 2
	steps := []leaseStep{
		{reader, "read", 0},
		{reader, "read", 100},
		{reader, "read", 1000},
		{locker, "llsc", 0},
		{reader, "read", 1000}, // recalls the locker's version
		{home, "write", 0},
		{reader, "read", 1000},
	}
	want := []struct {
		granted int64
		sc      bool
	}{
		{tardisLeaseLen, false},
		{tardisLeaseAge * 100, false},
		{tardisLeaseMax, false},
		{0, true},
		{tardisLeaseLen, true},
		{0, true},
		{tardisLeaseLen, true},
	}
	for _, layout := range leaseLayouts {
		cfg := testConfig()
		cfg.Nodes, cfg.CPUsPerNode, cfg.SMP = layout.nodes, layout.cpus, layout.smp
		seen := leaseScript(t, cfg, steps)
		for i, w := range want {
			if got := seen[i]; got.granted != w.granted || got.after.sc != w.sc {
				t.Errorf("%s: step %d (%s by role %d): granted %d, SC mark %v; want %d and %v",
					layout.name, i+1, steps[i].op, steps[i].role, got.granted, got.after.sc, w.granted, w.sc)
			}
		}
		// Each write grant lands after the longest lease before it.
		for _, i := range []int{3, 5} {
			if g, before := seen[i].after.wts, seen[i-1].after.rts; g <= before {
				t.Errorf("%s: step %d granted at %d, not after the lease end %d", layout.name, i+1, g, before)
			}
		}
	}
}

// TestSpinSeesStoreUnderAgeLease: a process spins with plain loads on a
// flag whose version is a thousand ticks older than its pts, so every
// re-read after a poll tick leases the flag for the cap. A process on a
// third agent stores to the flag early, or late at every 250th cycle of
// its compute across more than two poll periods, the spinner's cycle of a
// dropping tick and a skipped one. The flag is the spinner's agent's only
// leased copy, so each dropping tick drops it; the re-fetch that follows is
// a fill, which skips the next tick. So a store that lands just after a
// re-fetch is seen two poll periods, a turn of the spin loop and a recall
// later, however long the lease.
func TestSpinSeesStoreUnderAgeLease(t *testing.T) {
	const spinnerPts = 1000
	storeTimes := []sim.Time{20_000}
	for at := sim.Time(400_000); at < 422_000; at += 250 {
		storeTimes = append(storeTimes, at)
	}
	for _, layout := range leaseLayouts {
		for _, storeAt := range storeTimes {
			cfg := testConfig()
			cfg.Nodes, cfg.CPUsPerNode, cfg.SMP, cfg.Protocol = layout.nodes, layout.cpus, layout.smp, "tardis"
			cfg.MaxTime = 4_000_000 // a spinner whose lease never runs out spins for ever
			s := Build(WithConfig(cfg))
			td := s.proto.(*tardis)
			var flag uint64
			var lease int64
			var stored, seen sim.Time
			s.Spawn("home", 0, func(p *Proc) {})
			s.Spawn("spinner", cfg.CPUsPerNode, func(p *Proc) {
				td.observeTs(p, spinnerPts) // as an acquire would
				for p.Load(flag) == 0 {
					p.Compute(320)
				}
				seen = p.Now()
			})
			s.Spawn("writer", 2*cfg.CPUsPerNode, func(p *Proc) {
				computeUntil(p, storeAt)
				lease = td.entries[s.blockOf(s.lineOf(flag)).id].rts - spinnerPts
				p.Store(flag, 1)
				p.MemBar()
				stored = p.Now()
			})
			flag = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
			if err := s.Run(); err != nil {
				t.Fatalf("%s, store at %d: %v", layout.name, storeAt, err)
			}
			if lease != tardisLeaseMax {
				t.Errorf("%s, store at %d: the flag was leased for %d, want the cap %d", layout.name, storeAt, lease, tardisLeaseMax)
			}
			// Two poll periods, a turn of the spin loop, and a recall: three
			// messages, each sent, carried with at most a line of data and
			// handled.
			hop := cfg.Cost.MsgSend + cfg.Net.WireLatency + cfg.Cost.MsgHandle +
				sim.Time(float64(cfg.LineSize+16)*cfg.Net.CyclesPerByte)
			bound := 2*tardisPollPeriod*(cfg.PollInterval+cfg.Cost.Poll) + 320 + 3*hop
			if seen-stored > bound {
				t.Errorf("%s, store at %d under a lease of %d: stored at %d, seen at %d; want within %d cycles",
					layout.name, storeAt, lease, stored, seen, bound)
			}
		}
	}
}
