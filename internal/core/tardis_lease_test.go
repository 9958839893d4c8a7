package core

import (
	"math/rand"
	"sort"
	"testing"
)

// TestLeaseIndexMatchesMap drives the index and the map it replaced with the
// same random sets, deletes and expiries: the same records, the same
// minimum and the same expired set after every operation.
func TestLeaseIndexMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const blocks = 97
	var x leaseIndex
	ref := map[int]tardisLease{}
	for op := 0; op < 20_000; op++ {
		id := r.Intn(blocks)
		switch r.Intn(4) {
		case 0, 1:
			l := tardisLease{dataWts: r.Int63n(50), leaseEnd: r.Int63n(200)}
			x.set(id, l, id+1+r.Intn(blocks-id)) // the block count grows as blocks are allocated
			ref[id] = l
		case 2:
			x.del(id)
			delete(ref, id)
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
	}
}
