package core

import (
	"fmt"
	"strings"

	"repro/internal/memchannel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the reliability sublayer that sits between the coherence
// protocol and the (possibly faulty) network. Shasta's prototype assumed
// Memory Channel's reliable, ordered delivery (§3.3); on a commodity
// interconnect the protocol must carry its own sequencing, duplicate
// suppression, and ack/retransmit machinery. The sublayer is active only
// when Config.ReliableDelivery is set (it is forced on whenever fault
// injection is enabled), so fault-free runs keep their exact historical
// timing and traces.
//
// Scope: inter-node messages only. Intra-node traffic rides the coherent
// shared-memory segment and cannot be lost; local fast paths (home == self)
// never reach the network at all.

// NodeUnreachableError reports that a process exhausted its retransmit
// budget for a peer: the message was offered RetxMaxRetries+1 times without
// an acknowledgment. It aborts the run through the sim engine the same way
// StallError does, carrying enough protocol state to diagnose the failure.
type NodeUnreachableError struct {
	Proc     int    // sending process ID
	ProcName string // sending process name
	Peer     int    // unresponsive destination process ID
	PeerName string
	PeerNode int      // node hosting the peer
	Kind     string   // kind of the undeliverable message
	Block    int      // block it concerned (-1 for sync/user messages)
	Attempts int      // total transmissions, including the original send
	At       sim.Time // simulated time the budget was exhausted
	// RetryHistory records the simulated send time of every attempt,
	// starting with the original transmission.
	RetryHistory []sim.Time
	// MSHRs describes the sender's outstanding misses at failure time.
	MSHRs []string
	// Dump is the full protocol-state dump (same format as StallError).
	Dump string
}

func (e *NodeUnreachableError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: node unreachable: %s[%d] got no ack from %s[%d] (node %d) for %s",
		e.ProcName, e.Proc, e.PeerName, e.Peer, e.PeerNode, e.Kind)
	if e.Block >= 0 {
		fmt.Fprintf(&b, " block %d", e.Block)
	}
	fmt.Fprintf(&b, " after %d attempts at t=%d\n  retry history:", e.Attempts, e.At)
	for _, at := range e.RetryHistory {
		fmt.Fprintf(&b, " %d", at)
	}
	if len(e.MSHRs) > 0 {
		fmt.Fprintf(&b, "\n  outstanding misses: %s", strings.Join(e.MSHRs, ", "))
	}
	if e.Dump != "" {
		b.WriteString("\n")
		b.WriteString(e.Dump)
	}
	return b.String()
}

// The sublayer's retransmit schedule. RetxTimeout is the initial timeout in
// cycles (≈ 83 µs, several round trips plus handler time); it doubles with
// each retry. RetxMaxRetries bounds retransmissions per message: 8 retries
// exhaust after ~12.8M cycles, under the default 15M-cycle watchdog
// budget, so an unreachable node reports as such, not as a stall.
const (
	RetxTimeout    sim.Time = 25_000
	RetxMaxRetries          = 8
)

// retxEntry tracks one unacknowledged sequenced message at its sender.
type retxEntry struct {
	dst      *Proc
	m        msg
	attempts int
	deadline sim.Time
	history  []sim.Time
	acked    bool
}

// retxKey identifies an entry by destination node and sequence number,
// which numbers the link (assignSeq): the ack comes from whichever process
// of that node handled the message, which for a request in its agent's
// queue need not be the one it was sent to.
type retxKey struct {
	node int
	seq  int64
}

// linkReseq is the receiver-node resequencing state for one directed
// link (source node -> this node). The coherence protocol relies on the
// network's FIFO point-to-point delivery (as Shasta relied on Memory
// Channel's, §3.3): a reply and a later invalidation on the same link
// must be observed in send order even when different processes on each
// node send and service them. Faults reorder the wire, so arrivals are
// released to the destination queues strictly in sequence order — a
// message that overtakes a predecessor waits in `held` until the gap
// fills, and the released arrival times are clamped to be nondecreasing.
type linkReseq struct {
	contig int64 // all seqs <= contig have been released to their queues
	held   map[int64]heldArrival
	lastAt sim.Time // release time of the most recent in-order message
}

// heldArrival is a wire arrival waiting for its predecessors.
type heldArrival struct {
	dst    *Proc
	m      msg
	box    *queueBox
	arrive sim.Time
}

// reliable reports whether the sublayer sequences traffic to dst.
func (p *Proc) reliable(dst *Proc) bool {
	return p.sys.Cfg.ReliableDelivery && p.node != dst.node
}

// assignSeq allocates the next sequence number on the link from p's node
// to dst's node. Numbering is per link, not per process pair, because the
// FIFO property being restored is the link's.
func (p *Proc) assignSeq(dst *Proc) int64 {
	s := p.sys
	i := p.node*s.Cfg.Nodes + dst.node
	s.linkSeq[i]++
	return s.linkSeq[i]
}

// reseqEnqueue routes one surviving wire copy of a sequenced message
// through the destination node's resequencer: in-order messages (and any
// buffered successors they release) are enqueued, duplicates of already
// released seqs are enqueued with the dup flag so the handler re-acks and
// suppresses them, and out-of-order fresh arrivals are buffered. Copies
// of a still-buffered seq are dropped outright: the original will be
// released (and acked) once, and later retransmissions re-ack normally.
func (s *System) reseqEnqueue(srcNode int, dst *Proc, m msg, box *queueBox, arrive sim.Time) {
	link := srcNode*s.Cfg.Nodes + dst.node
	r := s.reseq[link]
	// Sequenced traffic orders by (link, seq), not by transmission time:
	// the resequencer's job is to restore the link's FIFO order, and a
	// retransmission's send time can be arbitrarily far past the send
	// times of successors it was reordered around. At = 0 sorts sequenced
	// releases ahead of unsequenced traffic with an equal arrival time.
	// The key doubles the seq and gives duplicates the odd slot so that a
	// duplicate of seq S can never be dispatched before the released
	// original of S: the dup's ack would retire the sender's retransmit
	// entry and recycle the data buffer the still-queued original shares
	// (see pool.go). Relative order among originals is unchanged.
	ord := func(seq int64, dup bool) memchannel.Ord {
		key := seq * 2
		if dup {
			key++
		}
		return memchannel.Ord{Sender: link, Seq: key}
	}
	switch {
	case m.seq <= r.contig:
		m.dup = true
		// Clamp behind the newest in-order release: a badly delayed or
		// retransmitted copy must not overtake the original it duplicates
		// (which was released at, or clamped up to, lastAt), nor any
		// earlier release still waiting in the queue.
		if arrive < r.lastAt {
			arrive = r.lastAt
		}
		m.arrive = arrive
		box.put(m, arrive, ord(m.seq, true))
	case m.seq == r.contig+1:
		r.contig++
		if arrive < r.lastAt {
			arrive = r.lastAt
		}
		r.lastAt = arrive
		m.arrive = arrive
		box.put(m, arrive, ord(m.seq, false))
		for {
			h, ok := r.held[r.contig+1]
			if !ok {
				break
			}
			delete(r.held, r.contig+1)
			r.contig++
			if h.arrive < r.lastAt {
				h.arrive = r.lastAt
			}
			r.lastAt = h.arrive
			h.m.arrive = h.arrive
			h.box.put(h.m, h.arrive, ord(h.m.seq, false))
		}
	default:
		if _, dup := r.held[m.seq]; dup {
			return
		}
		if r.held == nil {
			r.held = make(map[int64]heldArrival)
		}
		r.held[m.seq] = heldArrival{dst: dst, m: m, box: box, arrive: arrive}
		dst.stats.N[CntHeldArrivals]++
	}
}

// sendNetAck acknowledges receipt of sequenced message m to its sender.
// Acks are themselves unsequenced (an ack of an ack would never converge);
// a lost ack simply lets the sender retransmit, and the duplicate filter
// absorbs the retry.
func (p *Proc) sendNetAck(m *msg, cat TimeCategory) {
	p.stats.N[CntNetAcksSent]++
	p.send(p.sys.procs[m.from], &msg{
		kind: msgNetAck, block: m.block, from: p.ID, reqProc: m.from, ack: m.seq,
	}, cat)
}

// handleNetAck retires the acknowledged retransmit entry. Duplicate and
// late acks (entry already retired) are ignored.
func (p *Proc) handleNetAck(m *msg) {
	key := retxKey{p.sys.procs[m.from].node, m.ack}
	if e, ok := p.retxBySeq[key]; ok {
		e.acked = true
		delete(p.retxBySeq, key)
		if e.m.data != nil {
			// Retiring the entry releases the retained data buffer back to
			// the sender's pool: the receiver dispatched (and copied out)
			// the original before acking, and any copies still in flight
			// are duplicates, whose data is never read (see reseqEnqueue).
			// Detach before putBuf so the recycle audit (AuditRecycle)
			// never sees the retiring entry itself as an alias.
			b := e.m.data
			e.m.data = nil
			p.sys.putBuf(p, b)
		}
	}
}

// trackRetx registers a freshly sent sequenced message for retransmission.
func (p *Proc) trackRetx(dst *Proc, m msg) {
	e := &retxEntry{
		dst:      dst,
		m:        m,
		attempts: 1,
		deadline: p.Sim.Now() + RetxTimeout,
		history:  []sim.Time{p.Sim.Now()},
	}
	if p.retxBySeq == nil {
		p.retxBySeq = make(map[retxKey]*retxEntry)
	}
	p.retxBySeq[retxKey{dst.node, m.seq}] = e
	p.retx = append(p.retx, e)
}

// nextRetxDeadline returns the earliest pending retransmit deadline so
// stalled senders wake up in time to retry.
func (p *Proc) nextRetxDeadline() (sim.Time, bool) {
	best := sim.Forever
	ok := false
	for _, e := range p.retx {
		if !e.acked && e.deadline < best {
			best, ok = e.deadline, true
		}
	}
	return best, ok
}

// pumpReliability retransmits every entry whose deadline has passed,
// doubling the timeout per attempt; an entry that exhausts the retry
// budget aborts the run with NodeUnreachableError. It reports whether any
// retransmission was sent. Called from serviceReady so every message
// service point (polls, stalls, protocol processes, post-exit service
// loops) also drives retransmission.
func (p *Proc) pumpReliability(cat TimeCategory) bool {
	if len(p.retx) == 0 {
		return false
	}
	now := p.Sim.Now()
	sent := false
	acked := 0
	for _, e := range p.retx {
		if e.acked {
			acked++
			continue
		}
		if now < e.deadline {
			continue
		}
		if e.attempts > RetxMaxRetries {
			p.failUnreachable(e)
		}
		// Exponential backoff: timeout doubles with each retry.
		rto := RetxTimeout << uint(e.attempts)
		e.attempts++
		e.history = append(e.history, now)
		e.deadline = now + rto
		p.stats.N[CntRetransmits]++
		if t := p.sys.tr(p); t != nil {
			t.Emit(trace.Event{
				T: now, Cat: "net", Ev: "retx",
				P: p.ID, O: e.dst.ID, Blk: e.m.block, S: e.m.kind.String(),
				A: int64(e.attempts),
			})
		}
		p.sys.sendWire(p, e.dst, &e.m, cat)
		sent = true
	}
	if acked > 16 && acked > len(p.retx)/2 {
		live := p.retx[:0]
		for _, e := range p.retx {
			if !e.acked {
				live = append(live, e)
			}
		}
		p.retx = live
	}
	return sent
}

// failUnreachable aborts the simulation with a structured error for the
// exhausted entry. It does not return.
func (p *Proc) failUnreachable(e *retxEntry) {
	var mshrs []string
	for _, blk := range p.mshrBlocks() {
		mshrs = append(mshrs, fmt.Sprintf("block %d (%v)", blk, p.mshr[blk]))
	}
	blk := e.m.block
	switch e.m.kind {
	case msgLockReq, msgLockGrant, msgLockRelease, msgBarrierEnter, msgBarrierRelease, msgUser:
		blk = -1
	}
	p.Sim.Fail(&NodeUnreachableError{
		Proc:         p.ID,
		ProcName:     p.Name,
		Peer:         e.dst.ID,
		PeerName:     e.dst.Name,
		PeerNode:     e.dst.node,
		Kind:         e.m.kind.String(),
		Block:        blk,
		Attempts:     e.attempts,
		At:           p.Sim.Now(),
		RetryHistory: append([]sim.Time(nil), e.history...),
		MSHRs:        mshrs,
		Dump:         p.sys.dumpProtocolState(),
	})
}
