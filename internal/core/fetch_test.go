package core

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestAccessWaitsForNodeMatesMiss: every access that waits for its block
// goes through Proc.fetch, which waits out a node-mate's miss on the block
// rather than issue one of its own. Two nodes of two CPUs: the block is
// homed on node 1, mate stores to it from node 0, and while that write
// miss is in flight p, mate's node-mate, accesses the block. p must send
// nothing, fill from the node's copy once mate's fill lands, and charge its
// wait as its access does: a read stall for Load and LoadLocked, a write
// stall for Store, and a read stall for BatchStart, write range or not (the
// batch waits for node-mates in its issue loop, and only for its own misses
// as a write stall).
func TestAccessWaitsForNodeMatesMiss(t *testing.T) {
	const storeAt, accessAt, end = 10_000, 10_200, 100_000
	accesses := []struct {
		name string
		cat  TimeCategory
		do   func(p *Proc, addr uint64)
	}{
		{"Load", CatReadStall, func(p *Proc, addr uint64) { p.Load(addr) }},
		{"LoadLocked", CatReadStall, func(p *Proc, addr uint64) { p.LoadLocked(addr) }},
		{"Store", CatWriteStall, func(p *Proc, addr uint64) { p.Store(addr, 2) }},
		{"BatchStart-read", CatReadStall, func(p *Proc, addr uint64) {
			p.BatchEnd(p.BatchStart(Range{Addr: addr, Bytes: 8}))
		}},
		{"BatchStart-write", CatReadStall, func(p *Proc, addr uint64) {
			p.BatchEnd(p.BatchStart(Range{Addr: addr, Bytes: 8, Write: true}))
		}},
	}
	for _, proto := range ProtocolNames() {
		for _, cons := range []ConsistencyModel{ReleaseConsistent, SequentiallyConsistent} {
			for _, acc := range accesses {
				t.Run(fmt.Sprintf("%s/%v/%s", proto, cons, acc.name), func(t *testing.T) {
					cfg := testConfig()
					cfg.Nodes, cfg.CPUsPerNode = 2, 2
					cfg.Protocol, cfg.Consistency = proto, cons
					s := Build(WithConfig(cfg))
					var addr uint64
					var mate *Proc
					other := CatWriteStall
					if acc.cat == CatWriteStall {
						other = CatReadStall
					}
					var misses int64
					var waited, otherWait sim.Time
					mateInFlight := false
					s.Spawn("home", 2, func(p *Proc) { computeUntil(p, end) })
					s.Spawn("mate", 0, func(p *Proc) {
						mate = p
						computeUntil(p, storeAt)
						p.Store(addr, 1)
						computeUntil(p, end)
					})
					s.Spawn("p", 1, func(p *Proc) {
						computeUntil(p, accessAt)
						blk := s.blockOf(s.lineOf(addr))
						mateInFlight = mate.mshr[blk.id] != nil && p.mem.table[blk.firstLine] == Pending
						before := p.stats
						acc.do(p, addr)
						misses = p.stats.N[CntReadMisses] + p.stats.N[CntWriteMisses] - before.N[CntReadMisses] - before.N[CntWriteMisses]
						waited = p.stats.Time[acc.cat] - before.Time[acc.cat]
						otherWait = p.stats.Time[other] - before.Time[other]
						computeUntil(p, end)
					})
					addr = s.Alloc(64, AllocOptions{Home: HomeAt(0)})
					if err := s.Run(); err != nil {
						t.Fatal(err)
					}
					if !mateInFlight {
						t.Fatal("mate's write miss was not in flight when p accessed the block")
					}
					if misses != 0 {
						t.Errorf("p issued %d misses of its own, want none", misses)
					}
					if waited <= 0 {
						t.Errorf("p charged no %v while it waited for mate's miss", acc.cat)
					}
					if otherWait != 0 {
						t.Errorf("p charged %d cycles of %v, want none", otherWait, other)
					}
				})
			}
		}
	}
}
