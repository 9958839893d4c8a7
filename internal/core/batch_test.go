package core

import (
	"testing"

	"repro/internal/sim"
)

// blockWords is the length of the block store the tests below make: two
// lines of eight words.
const blockWords = 16

// blockStoreAt is the instant the block store starts; it ends blockWords
// cycles later.
const blockStoreAt = sim.Time(4_000)

// blockStoreRun runs a writer and a node-mate on a 1x2 SMP node. The
// writer batches the block's words, waits for blockStoreAt and stores
// 100+i to word i in one block store. The writer has the lower ID, so at
// the store's end it acts before the mate. mate runs beside it with the
// block's address.
func blockStoreRun(t *testing.T, pollEach bool, mate func(p *Proc, addr uint64)) (*System, *Proc, uint64) {
	t.Helper()
	cfg := testConfig()
	cfg.Nodes, cfg.CPUsPerNode = 1, 2
	s := Build(WithConfig(cfg))
	s.pollEach = pollEach
	var addr uint64
	vals := make([]uint64, blockWords)
	for i := range vals {
		vals[i] = uint64(100 + i)
	}
	writer := s.Spawn("writer", 0, func(p *Proc) {
		b := p.BatchStart(Range{Addr: addr, Bytes: 8 * blockWords, Write: true})
		p.ChargeTime(CatTask, blockStoreAt-p.Now())
		b.StoreBlock(addr, vals)
		if end := blockStoreAt + blockWords; p.Now() != end {
			t.Errorf("the block store ended at %d, want %d", p.Now(), end)
		}
		p.BatchEnd(b)
	})
	s.Spawn("mate", 1, func(p *Proc) { mate(p, addr) })
	addr = s.Alloc(8*blockWords, AllocOptions{})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s, writer, addr
}

// loadAtInstant loads the word at addr with its read at instant at: a
// checked load reads once its check is charged.
func loadAtInstant(t *testing.T, p *Proc, addr uint64, at sim.Time) uint64 {
	t.Helper()
	p.ChargeTime(CatTask, at-p.sys.Cfg.Cost.LoadCheck-p.Now())
	v := p.Load(addr)
	if p.Now() != at {
		t.Fatalf("the load read at %d, want %d", p.Now(), at)
	}
	return v
}

// TestBlockStoreLandsAtItsEnd: a block store's words land together at the
// end of its stretch. A node-mate's load of any word of it reads the old
// value at every instant before the end, the first word's included, which
// a store of its own would have written a cycle in, and the new one from
// the end on.
func TestBlockStoreLandsAtItsEnd(t *testing.T) {
	end := blockStoreAt + blockWords
	for _, word := range []int{0, blockWords - 1} {
		for _, at := range []sim.Time{blockStoreAt + 1, blockStoreAt + 2, end - 1, end, end + 1} {
			var got uint64
			s, writer, _ := blockStoreRun(t, false, func(p *Proc, addr uint64) {
				got = loadAtInstant(t, p, addr+uint64(8*word), at)
			})
			want := uint64(0)
			if at >= end {
				want = uint64(100 + word)
			}
			if got != want {
				t.Errorf("word %d read at %d (the store runs [%d, %d)): got %d, want %d", word, at, blockStoreAt, end, got, want)
			}
			if n := writer.stats.N[CntStores]; n != blockWords {
				t.Errorf("the writer counted %d stores, want %d", n, blockWords)
			}
			if n := s.procs[1].stats.N[CntStores]; n != 0 {
				t.Errorf("the mate counted %d stores, want 0", n)
			}
		}
	}
}

// TestBlockStoreClearsMatesReservation: a node-mate's load-locked on a line
// of the block holds its reservation to the last instant before the store's
// end and loses it at the end.
func TestBlockStoreClearsMatesReservation(t *testing.T) {
	end := blockStoreAt + blockWords
	var before, after bool
	blockStoreRun(t, false, func(p *Proc, addr uint64) {
		p.LoadLocked(addr + 8*(blockWords-1))
		p.ChargeTime(CatTask, end-1-p.Now())
		before = p.llValid
		p.ChargeTime(CatTask, 1)
		after = p.llValid
	})
	if !before || after {
		t.Errorf("the mate's reservation held %v at %d and %v at %d, want true then false", before, end-1, after, end)
	}
}

// TestBlockStoreEndsSpin: a node-mate spinning on a word of the block ends
// at its first load at or after the store's end, in closed form as in the
// loop of Loads and Computes, with the spin slid one cycle at a time so that
// each of two of its load instants crosses the end; a load at the end
// itself reads the new value.
func TestBlockStoreEndsSpin(t *testing.T) {
	type spin struct {
		got   uint64
		ended sim.Time
		// In closed form: the spin's first two load instants at or after
		// the end.
		loads [2]sim.Time
	}
	run := func(start sim.Time, pollEach bool) spin {
		var r spin
		s, _, _ := blockStoreRun(t, pollEach, func(p *Proc, addr uint64) {
			p.ChargeTime(CatTask, start)
			w := addr + 8*(blockWords-1)
			r.got = p.SpinWhile(w, 320, p.Load(w), true)
			r.ended = p.Now()
		})
		if !pollEach {
			mate := s.procs[1]
			j := mate.firstLoad(blockStoreAt + blockWords)
			r.loads = [2]sim.Time{mate.loadAt(j), mate.loadAt(j + 1)}
		}
		return r
	}
	const start = 1_000
	end := blockStoreAt + blockWords
	// Moving the spin's start moves its loads cycle for cycle.
	at0 := run(start, false)
	for _, load := range at0.loads {
		for d := sim.Time(-2); d <= 2; d++ {
			shifted := start + end + d - load
			got, want := run(shifted, false), run(shifted, true)
			if got.got != 99+blockWords || got.ended != got.loads[0] {
				t.Errorf("a load at end%+d: the spin read %d at %d, want %d at %d", d, got.got, got.ended, 99+blockWords, got.loads[0])
			}
			if d == 0 && got.ended != end {
				t.Errorf("a load at the end: the spin ended at %d, want %d", got.ended, end)
			}
			if got.got != want.got || got.ended != want.ended {
				t.Errorf("a load at end%+d: the spin read %d at %d in closed form, %d at %d polling", d, got.got, got.ended, want.got, want.ended)
			}
		}
	}
}

// TestBlockStoreReissuesLostLines: stores to a line the batch lost
// exclusivity of are reissued at BatchEnd, a block store's word by word.
// On 2x1, the writer homes the block; a remote read of its first line is
// served at the writer's poll inside the batch, before the block store, so
// that line is shared by then and the second line still exclusive.
func TestBlockStoreReissuesLostLines(t *testing.T) {
	for _, proto := range ProtocolNames() {
		cfg := testConfig()
		cfg.Nodes, cfg.CPUsPerNode = 2, 1
		cfg.Protocol = proto
		s := Build(WithConfig(cfg))
		var addr uint64
		vals := make([]uint64, blockWords)
		for i := range vals {
			vals[i] = uint64(100 + i)
		}
		lost := 0
		writer := s.Spawn("writer", 0, func(p *Proc) {
			b := p.BatchStart(Range{Addr: addr, Bytes: 8 * blockWords, Write: true})
			p.ChargeTime(CatTask, 20_000)
			p.Poll()
			b.StoreBlock(addr, vals)
			for i := range vals {
				if p.priv[s.lineOf(addr+uint64(8*i))] != Exclusive {
					lost++
				}
			}
			p.BatchEnd(b)
		})
		s.Spawn("remote", 1, func(p *Proc) { p.Load(addr) })
		addr = s.Alloc(8*blockWords, AllocOptions{Home: HomeAt(writer.ID)})
		if err := s.Run(); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if lost == 0 {
			t.Fatalf("%s: no line of the block lost exclusivity in the batch", proto)
		}
		if n := writer.stats.N[CntBatchStoreReissues]; n != int64(lost) {
			t.Errorf("%s: %d stores reissued, want %d, one per word on a line that lost exclusivity", proto, n, lost)
		}
		for i, v := range vals {
			if got := s.Peek(addr + uint64(8*i)); got != v {
				t.Errorf("%s: word %d holds %d, want %d", proto, i, got, v)
			}
		}
	}
}
