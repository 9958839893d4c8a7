package core

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// This file implements batched miss checks (§2.2) and their §4.1 semantics:
// a batch validates the state of several ranges of lines at once, after
// which the enclosed loads and stores run without further checking. The
// same mechanism validates system call arguments (§4.1): a system call is
// logically a batch of loads and stores to the ranges its arguments
// reference.
//
// The batch miss handler cannot guarantee lines stay in the right state
// once all replies return: an invalidation can arrive mid-batch. Loads
// still return correct values (under the Alpha model) as long as the old
// contents remain in memory, so flag fills for invalidated lines are
// deferred until after the batch. Stores to lines that lost exclusivity
// are reissued at the next protocol entry.

// Range describes one span of shared memory touched by a batch.
type Range struct {
	Addr  uint64
	Bytes int
	Write bool
}

// Batch is an open batched-check window. A process has at most one open,
// so each process keeps one Batch (Proc.batch) and every BatchStart reuses
// its maps and slices.
type Batch struct {
	p      *Proc
	lines  map[int]bool // lines covered by the batch
	stores []pendingStore
	// needs lists the blocks BatchStart fetches, and seen maps a block id
	// to its index in needs.
	needs []batchNeed
	seen  map[int]int
}

type batchNeed struct {
	blk   *blockInfo
	write bool
}

func (b *Batch) covers(blk *blockInfo) bool {
	for l := blk.firstLine; l < blk.firstLine+blk.lines; l++ {
		if b.lines[l] {
			return true
		}
	}
	return false
}

// Covers reports whether addr falls on a line this batch pinned. With
// checks disabled no lines are tracked and every address counts as
// covered (there is nothing to validate against).
func (b *Batch) Covers(addr uint64) bool {
	if !b.p.sys.Cfg.Checks {
		return true
	}
	return b.lines[b.p.sys.lineOf(addr)]
}

// BatchStart validates all ranges — fetching shared or exclusive copies as
// needed, with all requests outstanding in parallel — and opens a batch
// window. The in-line cost is one check per line instead of one per access.
// Each block goes through fetch, whose waits are read stalls; then it
// waits once for its own misses, a write stall if a range writes.
//
// BatchStart stalls. While it does, handlers on this process and its
// node-mates read b.lines (fillAgentInvalid, Batch.covers), and only this
// call writes b.lines, b.needs and b.seen. Reusing them across the stalls
// is safe because only the process's own body opens a batch, and it is
// inside this call: the next BatchStart that clears them cannot begin
// before BatchEnd has closed this one.
func (p *Proc) BatchStart(ranges ...Range) *Batch {
	s := p.sys
	if p.curBatch != nil {
		panic("core: nested batch")
	}
	b := &p.batch
	if b.lines == nil {
		b.p, b.lines, b.seen = p, map[int]bool{}, map[int]int{}
	}
	clear(b.lines)
	clear(b.seen)
	b.stores, b.needs = b.stores[:0], b.needs[:0]
	if !s.Cfg.Checks {
		p.curBatch = b
		return b
	}
	p.stats.N[CntBatchesIssued]++
	if t := s.tr(p); t != nil {
		t.Emit(trace.Event{T: p.Sim.Now(), Cat: "batch", Ev: "start", P: p.ID, A: int64(len(ranges))})
	}
	p.enterProtocol()
	defer p.exitProtocol()
	// The batch window opens before the fetches are issued: an invalidation
	// serviced while we stall for one range must defer its flag fill if it
	// hits another range already fetched (§4.1), which fillAgentInvalid only
	// does for lines covered by curBatch.
	p.curBatch = b

	for _, r := range ranges {
		if r.Bytes <= 0 {
			continue
		}
		first := s.lineOf(r.Addr)
		last := s.lineOf(r.Addr + uint64(r.Bytes) - 1)
		for l := first; l <= last; l++ {
			b.lines[l] = true
			p.stats.N[CntBatchChecks]++
			blk := s.blockOf(l)
			if i, ok := b.seen[blk.id]; ok {
				b.needs[i].write = b.needs[i].write || r.Write
			} else {
				b.seen[blk.id] = len(b.needs)
				b.needs = append(b.needs, batchNeed{blk, r.Write})
			}
		}
		p.charge(CatCheck, s.Cfg.Cost.FullCheck)
	}
	// Issue all misses in parallel, then wait for the whole set.
	for _, n := range b.needs {
		p.fetch(n.blk, n.blk.firstLine, n.write, nil, CatReadStall)
	}
	cat := CatReadStall
	for _, n := range b.needs {
		if n.write {
			cat = CatWriteStall
			break
		}
	}
	p.stallWhile(cat, func() bool {
		for _, n := range b.needs {
			if p.mshr[n.blk.id] != nil {
				return true
			}
		}
		return false
	})
	p.curBatch = b
	return b
}

// Load performs an unchecked load inside the batch window.
func (b *Batch) Load(addr uint64) uint64 {
	p := b.p
	w := p.sys.allocWord(addr)
	p.stats.N[CntLoads]++
	p.charge(CatTask, 1)
	return p.mem.data[w]
}

// Store performs an unchecked store inside the batch window, recording it
// for possible reissue (§4.1).
func (b *Batch) Store(addr uint64, v uint64) { b.StoreBlock(addr, []uint64{v}) }

// StoreBlock stores vals to the consecutive words from addr inside the
// batch window: len(vals) unchecked stores of a cycle each, charged as one
// stretch. Their words, and what they do to node-mates (stored), land
// together at its end: the process makes no other access between them, so
// that is a legal execution under release and sequential consistency
// alike. Each store is recorded for possible reissue, as Store's is.
func (b *Batch) StoreBlock(addr uint64, vals []uint64) {
	if len(vals) == 0 {
		return
	}
	p, s := b.p, b.p.sys
	first, last := s.lineOf(addr), s.lineOf(addr+uint64(8*len(vals)-8))
	p.stats.N[CntStores] += int64(len(vals))
	p.charge(CatTask, sim.Time(len(vals)))
	copy(p.mem.data[s.wordOf(addr):], vals)
	for l := first; l <= last; l++ {
		p.stored(l)
	}
	if s.Cfg.Checks {
		for i, v := range vals {
			b.stores = append(b.stores, pendingStore{addr + uint64(8*i), v})
		}
	}
}

// End closes the batch: deferred invalidations take effect, and stores to
// lines that were lost during the batch are reissued through the normal
// protocol (§4.1).
func (p *Proc) BatchEnd(b *Batch) {
	if p.curBatch != b {
		panic(fmt.Sprintf("core: BatchEnd of non-current batch on %s", p))
	}
	p.curBatch = nil
	if !p.sys.Cfg.Checks {
		return
	}
	p.enterProtocol()
	// Filtered in place: nothing else reads b.stores once the batch closed.
	reissue := b.stores[:0]
	for _, st := range b.stores {
		line := p.sys.lineOf(st.addr)
		if p.priv[line] != Exclusive {
			reissue = append(reissue, st)
		}
	}
	p.exitProtocol() // applies deferred flag fills
	for _, st := range reissue {
		p.stats.N[CntBatchStoreReissues]++
		p.storeMiss(st.addr, st.val, p.sys.lineOf(st.addr))
	}
	if t := p.sys.tr(p); t != nil {
		t.Emit(trace.Event{T: p.Sim.Now(), Cat: "batch", Ev: "end", P: p.ID, A: int64(len(reissue))})
	}
}
