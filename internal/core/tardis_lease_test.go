package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestLeaseIndexMatchesMap drives the index and the map it replaced with the
// same random sets, deletes and expiries: the same records, the same
// minimum, the same expired set, the same version each block's last
// expired lease held, and the same install order, after every operation.
func TestLeaseIndexMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const blocks = 97
	var x leaseIndex
	ref := map[int]tardisLease{}
	ran := map[int]int64{}
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
				x.runOut(got[i])
				ran[got[i]] = ref[got[i]].dataWts
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
		wantRan, expired := ran[id]
		if !expired {
			wantRan = -1
		}
		if got := x.ranOut(id); got != wantRan {
			t.Fatalf("op %d: block %d's last expired lease held version %d, want %d", op, id, got, wantRan)
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

// leaseLayouts are the two agent layouts the renewal tests run on: on 4x4
// SMP-Shasta the agents are nodes, on 8x1 Base-Shasta processes.
var leaseLayouts = []struct {
	name        string
	nodes, cpus int
	smp         bool
}{{"4x4 SMP", 4, 4, true}, {"8x1 Base", 8, 1, false}}

// leaseSeen is what one step of a lease script shows: the block's home
// entry just before and just after the access, the length of the lease a
// read was granted (its lease end less the reader's pts at the miss; 0 when
// it holds none), and the lease-grow events the home emitted.
type leaseSeen struct {
	before, after tardisEntry
	granted       int64
	grows         int
}

// leaseScript runs migStep accesses on one Tardis block homed at process 0,
// with three processes on three agents. Each access has a window of its
// own, and a process computes through the windows between its accesses:
// tens of poll ticks, so every lease its agent holds runs out before its
// next access.
func leaseScript(t *testing.T, cfg Config, steps []migStep) []leaseSeen {
	t.Helper()
	const window = sim.Time(100_000)
	cfg.Protocol = "tardis"
	tr := trace.NewBuffer()
	s := Build(WithConfig(cfg), WithTrace(tr))
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
				seen[i].before = td.entries[id]
				pts := td.pstate(p).pts
				if st.write {
					p.Store(addr, uint64(100+i))
				} else {
					p.Load(addr)
				}
				p.MemBar()
				seen[i].after = td.entries[id]
				if l, ok := td.astate(p.mem).leases.get(id); ok && !st.write {
					seen[i].granted = l.leaseEnd - pts
				}
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
	for _, ev := range tr.TakeBuffered() {
		if i := int(ev.T/window) - 1; ev.Cat == "line" && ev.Ev == "lease-grow" && i >= 0 && i < len(steps) {
			seen[i].grows++
		}
	}
	return seen
}

// TestTardisLeaseGrowsOnRenewal: a read of the version its agent's lease
// ran out on doubles the block's lease, from tardisLeaseLen up to
// tardisLeaseMax; a read of a version that changed since does not; a write
// grant resets it, and is serialized after the grown lease.
func TestTardisLeaseGrowsOnRenewal(t *testing.T) {
	const home, reader, writer = 0, 1, 2
	r := func(role int) migStep { return migStep{role: role} }
	var steps []migStep
	for i := 0; i < 10; i++ {
		steps = append(steps, r(reader))
	}
	steps = append(steps, migStep{role: writer, write: true}, r(home), r(reader), r(reader))
	for _, layout := range leaseLayouts {
		cfg := testConfig()
		cfg.Nodes, cfg.CPUsPerNode, cfg.SMP = layout.nodes, layout.cpus, layout.smp
		seen := leaseScript(t, cfg, steps)

		// The first read renews nothing; each later one finds the version its
		// lease ran out on and doubles the lease, until the cap.
		want := int64(0)
		for i := 0; i < 10; i++ {
			grows := 0
			if i > 0 && want < tardisLeaseMax {
				want, grows = min(2*max(want, tardisLeaseLen), tardisLeaseMax), 1
			}
			got := seen[i]
			if got.after.lease != want || got.grows != grows || got.granted != max(want, tardisLeaseLen) {
				t.Errorf("%s: read %d: lease %d (%d lease-grow events), granted %d; want %d (%d), granted %d",
					layout.name, i+1, got.after.lease, got.grows, got.granted, want, grows, max(want, tardisLeaseLen))
			}
		}

		// The write resets the lease and lands after the grown one.
		if w := seen[10]; w.before.lease != tardisLeaseMax || w.after.lease != 0 || w.after.wts <= w.before.rts {
			t.Errorf("%s: write: lease %d -> %d, wts %d after rts %d; want %d -> 0 and wts > rts",
				layout.name, w.before.lease, w.after.lease, w.after.wts, w.before.rts, tardisLeaseMax)
		}

		// The home's read recalls the written version. The reader's next read
		// is of a version other than the one its lease ran out on, and does not
		// grow the lease; the read after it renews the new version.
		for i, want := range []int64{0, 0, 2 * tardisLeaseLen} {
			got := seen[11+i]
			grows := 0
			if want > 0 {
				grows = 1
			}
			if got.after.lease != want || got.grows != grows {
				t.Errorf("%s: step %d after the write: lease %d (%d lease-grow events), want %d (%d)",
					layout.name, 12+i, got.after.lease, got.grows, want, grows)
			}
		}
	}
}

// TestSpinSeesStoreUnderGrownLease: a process spins with plain loads on a
// flag. Every poll tick drops its copy and its next load renews the same
// version, so by the late store the flag's lease has grown to the cap. A
// process on a third agent stores to the flag early or late; the spinner
// sees the store within a poll period and a miss of it either way, because
// each poll tick drops the copy its agent installed longest ago, the flag's
// (its only one), however long the lease.
func TestSpinSeesStoreUnderGrownLease(t *testing.T) {
	for _, layout := range leaseLayouts {
		for _, storeAt := range []sim.Time{20_000, 400_000} {
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
				for p.Load(flag) == 0 {
					p.Compute(320)
				}
				seen = p.Now()
			})
			s.Spawn("writer", 2*cfg.CPUsPerNode, func(p *Proc) {
				computeUntil(p, storeAt)
				lease = td.entries[s.blockOf(s.lineOf(flag)).id].lease
				p.Store(flag, 1)
				p.MemBar()
				stored = p.Now()
			})
			flag = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
			if err := s.Run(); err != nil {
				t.Fatalf("%s, store at %d: %v", layout.name, storeAt, err)
			}
			if storeAt > 100_000 && lease != tardisLeaseMax {
				t.Errorf("%s: the flag's lease was %d at the late store, want the cap %d", layout.name, lease, tardisLeaseMax)
			}
			// A poll period, a turn of the spin loop, and a recall's three hops
			// with room for the handlers.
			bound := tardisPollPeriod*(cfg.PollInterval+cfg.Cost.Poll) + 320 + 4*cfg.Net.WireLatency
			if seen-stored > bound {
				t.Errorf("%s, store at %d under a lease of %d: stored at %d, seen at %d; want within %d cycles",
					layout.name, storeAt, lease, stored, seen, bound)
			}
		}
	}
}
