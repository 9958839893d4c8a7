package core

// Host-side free-list pools for the two per-event heap allocations the
// hot path used to make: the msg.data buffer composed for every
// data-carrying protocol message, and the mshrEntry tracking every
// outstanding miss. Pooling is transparent to the simulation — buffers
// are recycled only at points where the protocol has finished with them,
// and the pools are plain LIFO free lists touched in simulated-event
// order, so reuse never depends on host scheduling and results stay
// byte-identical with pooling on or off (pool_chaos_test.go runs both).
//
// Buffer lifecycle. A buffer is taken from the composing proc's agent
// pool (blockData / downgradeAgent), travels inside exactly one message,
// and is returned at the single point that message's data is consumed:
//
//   - unsequenced messages (the fault-free hot path) are delivered as
//     exactly one copy; the receiving handler copies the payload into
//     its agent memory (handleReply / handleWriteback) and recycles the
//     buffer into ITS agent's pool;
//   - sequenced messages (ReliableDelivery) are also referenced by the
//     sender's retransmit entry, and faults can put duplicate copies in
//     flight. Such messages are marked msg.retained at send; receivers
//     never recycle them. The SENDER recycles the buffer when the
//     delivery ack retires the retransmit entry (handleNetAck) — by
//     which point the one non-duplicate copy has been dispatched (the
//     ack is generated after dispatch) and every other copy is
//     dup-marked and will never have its payload read.
//
// Shard safety under the parallel engine: each pool belongs to one
// agentMem and is only touched by procs of that agent, which all live on
// one scheduling shard. Buffers migrate between pools (taken on the
// sender's shard, returned on the consumer's) but each individual
// push/pop happens on the owning shard.
//
// So the pools balance only where data flows both ways. Where it flows one
// way — a home serving reads of a block another agent keeps writing, an
// owner forwarding to a reader — every buffer is taken from the sender's
// pool and returned to the receiver's: the sender misses on every message
// and the receiver's free list grows by one each time. Those buffers are
// the heap objects the 2-hop and 3-hop allocation tests allow
// (alloc_test.go). One pool per System would close it, but the parallel
// engine runs shards concurrently, so it waits for that engine to go.
//
// The model-checking explorer captures whole msg values and replays
// them in every interleaving, so the explorer forces pooling off.

// getBuf returns a zero-length-free buffer of exactly n words from the
// agent's pool, or a fresh allocation when the pool is empty or pooling
// is off.
func (s *System) getBuf(mem *agentMem, n int) []uint64 {
	if s.pooling {
		if free := mem.bufFree[n]; len(free) > 0 {
			b := free[len(free)-1]
			free[len(free)-1] = nil
			mem.bufFree[n] = free[:len(free)-1]
			if debugBufTake != nil {
				debugBufTake(s, b)
			}
			return b
		}
	}
	// Pool miss or pooling off: on a one-way flow, every send (see above).
	b := make([]uint64, n)
	if debugBufTake != nil {
		debugBufTake(s, b)
	}
	return b
}

// putBuf returns a consumed msg.data buffer to the agent's pool. Callers
// must guarantee no live message, queue entry, or retransmit record still
// references b (see the lifecycle notes above; the chaos alias test
// audits this via debugBufRecycle).
func (s *System) putBuf(p *Proc, b []uint64) {
	if !s.pooling || b == nil {
		return
	}
	if debugBufRecycle != nil {
		debugBufRecycle(s, p, b)
	}
	mem := p.mem
	// On a one-way flow the receiver's list grows without bound (see above).
	mem.bufFree[len(b)] = append(mem.bufFree[len(b)], b)
}

// recycleMsgData recycles a received message's data buffer after its
// payload has been copied out, unless the buffer is still owned by the
// sender's retransmit entry.
func (s *System) recycleMsgData(p *Proc, m *msg) {
	if m.data == nil || m.retained {
		return
	}
	s.putBuf(p, m.data)
	m.data = nil
}

// debugBufRecycle, when set (tests only), observes every buffer recycle
// before the buffer re-enters a free list. The chaos alias test uses it
// to assert the buffer is not referenced by any still-queued or
// retransmit-pending message.
var debugBufRecycle func(s *System, p *Proc, b []uint64)

// SetDebugBufRecycle installs a hook observing every msg.data buffer
// recycle (tests only; nil to remove).
func SetDebugBufRecycle(fn func(s *System, p *Proc, b []uint64)) { debugBufRecycle = fn }

// debugBufTake observes every buffer getBuf hands out (pool hit or fresh
// allocation); the chaos alias tests use it to reconstruct a buffer's
// take/recycle history when an audit fails.
var debugBufTake func(s *System, b []uint64)

// SetDebugBufTake installs a hook observing every getBuf (tests only;
// nil to remove).
func SetDebugBufTake(fn func(s *System, b []uint64)) { debugBufTake = fn }

// allocMSHR takes an mshrEntry from the proc's free list (or allocates
// one) and resets every field. The stores slice keeps its capacity.
func (p *Proc) allocMSHR() *mshrEntry {
	if n := len(p.mshrFree); n > 0 && p.sys.pooling {
		m := p.mshrFree[n-1]
		p.mshrFree[n-1] = nil
		p.mshrFree = p.mshrFree[:n-1]
		*m = mshrEntry{stores: m.stores[:0]}
		return m
	}
	return &mshrEntry{} // once per outstanding miss a process first has, or pooling off
}

// freeMSHR returns a completed miss entry to the proc's free list. The
// caller must have removed it from p.mshr and must not touch it again.
func (p *Proc) freeMSHR(m *mshrEntry) {
	if !p.sys.pooling {
		return
	}
	// An entry is freed by the process that took it, so the list stays at
	// the most misses the process has had outstanding at once.
	p.mshrFree = append(p.mshrFree, m)
}
