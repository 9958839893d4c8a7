package core

// leaseIndex holds one agent's lease records in flat arrays indexed by
// block id, with a min-heap on leaseEnd over the blocks that have one, so
// that what expire costs is proportional to the leases that ended, not to
// the leases held, and the records' install order, so that pollTick finds
// the copy installed longest ago in O(1).
type leaseIndex struct {
	rec  []tardisLease
	pos  []int32 // by block id: position in heap + 1, 0 when there is no record
	heap []int32 // block ids; rec[heap[i]].leaseEnd is no less than its parent's
	// The install order is a FIFO linked through the block-indexed older
	// and newer (block id + 1 of the neighbour, 0 for none), from first,
	// installed longest ago, to last.
	older, newer []int32
	first, last  int32
	// llDropped marks, by block id, a copy an LL dropped that no fill has
	// replaced yet; the fill that does is no evidence for pollTick.
	llDropped []bool
}

func (x *leaseIndex) get(id int) (tardisLease, bool) {
	if id >= len(x.pos) || x.pos[id] == 0 {
		return tardisLease{}, false
	}
	return x.rec[id], true
}

// set records (or replaces) the block's lease. blocks is the number of
// blocks allocated so far; the arrays grow to it.
func (x *leaseIndex) set(id int, l tardisLease, blocks int) {
	if id >= len(x.pos) {
		x.grow(max(blocks, 2*len(x.pos)))
	}
	x.rec[id] = l
	if x.pos[id] == 0 {
		x.heap = append(x.heap, int32(id)) // bounded by the block count, reaches steady-state capacity
		x.pos[id] = int32(len(x.heap))
	} else {
		x.unlink(id)
	}
	x.fix(int(x.pos[id]) - 1)
	x.push(id)
}

// push appends the block to the install order.
func (x *leaseIndex) push(id int) {
	x.older[id], x.newer[id] = x.last, 0
	if x.last == 0 {
		x.first = int32(id + 1)
	} else {
		x.newer[x.last-1] = int32(id + 1)
	}
	x.last = int32(id + 1)
}

// unlink takes the block out of the install order.
func (x *leaseIndex) unlink(id int) {
	o, n := x.older[id], x.newer[id]
	if o == 0 {
		x.first = n
	} else {
		x.newer[o-1] = n
	}
	if n == 0 {
		x.last = o
	} else {
		x.older[n-1] = o
	}
}

// oldest returns the block whose record was installed longest ago, or
// false when there is none.
func (x *leaseIndex) oldest() (int, bool) {
	return int(x.first) - 1, x.first != 0
}

// grow runs once per doubling of the block count.
func (x *leaseIndex) grow(n int) {
	x.rec = grown(x.rec, n, tardisLease{})
	x.pos = grown(x.pos, n, 0)
	x.older = grown(x.older, n, 0)
	x.newer = grown(x.newer, n, 0)
	x.llDropped = grown(x.llDropped, n, false)
}

// takeLLDrop reports whether an LL dropped the block's copy since its last
// fill, and clears the mark.
func (x *leaseIndex) takeLLDrop(id int) bool {
	if id >= len(x.llDropped) || !x.llDropped[id] {
		return false
	}
	x.llDropped[id] = false
	return true
}

func (x *leaseIndex) del(id int) {
	if id >= len(x.pos) || x.pos[id] == 0 {
		return
	}
	x.unlink(id)
	i, last := int(x.pos[id])-1, len(x.heap)-1
	x.pos[id] = 0
	moved := x.heap[last]
	x.heap = x.heap[:last]
	if i < last {
		x.heap[i] = moved
		x.pos[moved] = int32(i + 1)
		x.fix(i)
	}
}

// minEnd returns the earliest lease end held, or false when there is none.
func (x *leaseIndex) minEnd() (int64, bool) {
	if len(x.heap) == 0 {
		return 0, false
	}
	return x.rec[x.heap[0]].leaseEnd, true
}

// endedBefore appends to ids the blocks whose lease ended before pts, in
// heap order: it walks only the part of the heap that did.
func (x *leaseIndex) endedBefore(pts int64, ids []int) []int {
	return x.collect(0, pts, ids)
}

func (x *leaseIndex) collect(i int, pts int64, ids []int) []int {
	if i >= len(x.heap) || x.rec[x.heap[i]].leaseEnd >= pts {
		return ids
	}
	ids = append(ids, int(x.heap[i]))
	ids = x.collect(2*i+1, pts, ids)
	return x.collect(2*i+2, pts, ids)
}

// fix restores the heap order around position i after its key changed.
func (x *leaseIndex) fix(i int) {
	for i > 0 && x.end(i) < x.end((i-1)/2) {
		x.swap(i, (i-1)/2)
		i = (i - 1) / 2
	}
	for {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(x.heap); c++ {
			if x.end(c) < x.end(least) {
				least = c
			}
		}
		if least == i {
			return
		}
		x.swap(i, least)
		i = least
	}
}

func (x *leaseIndex) end(i int) int64 { return x.rec[x.heap[i]].leaseEnd }

func (x *leaseIndex) swap(a, b int) {
	x.heap[a], x.heap[b] = x.heap[b], x.heap[a]
	x.pos[x.heap[a]], x.pos[x.heap[b]] = int32(a+1), int32(b+1)
}
