package core

// Recycle audit: a debug checker for the buffer-pool lifecycle contract
// (pool.go). Installed via SetDebugBufRecycle, AuditRecycle runs at the
// moment a msg.data buffer is pushed back on a free list and scans every
// place a live message can wait — delivery queues, home-side protocol
// queues, deferred requests, retransmit entries, resequencer holds, and
// (under the parallel engine) the staged cross-node puts — for an alias
// of the recycled buffer whose payload could still be read. The chaos
// alias tests drive workloads under drop/dup/delay faults with this
// audit armed, on both protocols and both engines.

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// AuditRecycle reports an error if recycling buffer b would let a live
// message observe reused storage. Legitimate aliases — duplicate
// deliveries the handlers re-ack without reading, and staged retransmit
// copies whose entry has already retired (the resequencer will dup-mark
// them at commit) — are skipped.
func AuditRecycle(s *System, p *Proc, b []uint64) error {
	if len(b) == 0 {
		return nil
	}
	aliases := func(d []uint64) bool { return len(d) > 0 && &d[0] == &b[0] }
	var err error
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf("core: recycle audit (proc %d): "+format, append([]any{p.ID}, args...)...)
		}
	}
	checkBox := func(where string, box *queueBox) {
		if box == nil {
			return
		}
		box.q.Each(func(m msg, _ sim.Time) {
			if aliases(m.data) && !m.dup {
				fail("buffer aliases queued non-duplicate %s in %s (block %d, from %d)",
					m.kind, where, m.block, m.from)
			}
		})
	}
	for ai, mem := range s.agents {
		for _, r := range mem.dgs {
			for _, dm := range append([]msg{r.m}, r.deferred...) {
				if aliases(dm.data) {
					fail("buffer aliases %s held by agent %d's downgrade record of block %d", dm.kind, ai, r.block)
				}
			}
		}
		for _, free := range mem.bufFree {
			for _, fb := range free {
				if aliases(fb) {
					fail("buffer is already in agent %d's free list (double recycle)", ai)
				}
			}
		}
	}
	for _, q := range s.procs {
		checkBox(fmt.Sprintf("proc %d replyQ", q.ID), q.replyQ)
		checkBox(fmt.Sprintf("proc %d reqQ", q.ID), q.reqQ)
		for _, dm := range q.deferredReqs {
			if aliases(dm.data) {
				fail("buffer aliases deferred %s at proc %d (block %d)", dm.kind, q.ID, dm.block)
			}
		}
		for _, e := range q.retx {
			if aliases(e.m.data) {
				fail("buffer aliases retransmit-pending %s at proc %d (block %d, seq %d)",
					e.m.kind, q.ID, e.m.block, e.m.seq)
			}
		}
	}
	for i, c := range s.cpus {
		checkBox(fmt.Sprintf("cpu %d shared reqQ", i), c.reqQ)
	}
	for a, mem := range s.agents {
		checkBox(fmt.Sprintf("agent %d reqQ", a), mem.reqQ)
	}
	for i := range s.homes {
		for _, qm := range s.homes[i].queue {
			if aliases(qm.data) {
				fail("buffer aliases %s queued at the home of block %d", qm.kind, i)
			}
		}
	}
	for link, r := range s.reseq {
		if len(r.held) == 0 {
			continue
		}
		seqs := make([]int64, 0, len(r.held))
		for seq := range r.held {
			seqs = append(seqs, seq)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, seq := range seqs {
			if h := r.held[seq]; aliases(h.m.data) {
				fail("buffer aliases held arrival on link %d (seq %d, %s)", link, seq, h.m.kind)
			}
		}
	}
	if s.par != nil {
		for node := range s.par.staged {
			for _, sp := range s.par.staged[node] {
				if !aliases(sp.m.data) {
					continue
				}
				if sp.m.seq != 0 {
					// A staged sequenced copy whose retransmit entry has
					// already retired is a late duplicate: the receiving
					// resequencer dup-marks it at commit and its payload
					// is never read.
					if _, live := s.procs[sp.m.from].retxBySeq[retxKey{sp.dst.node, sp.m.seq}]; !live {
						continue
					}
				}
				fail("buffer aliases staged %s from node %d (block %d, seq %d)",
					sp.m.kind, node, sp.m.block, sp.m.seq)
			}
		}
	}
	return err
}
