package core

import (
	"fmt"

	"repro/internal/sim"
)

// LineState is the state of one coherence line in a state table (§2.1):
// invalid, shared (this agent and possibly others hold valid copies), or
// exclusive (only this agent holds a valid copy and may write it).
// Pending marks a line with an outstanding miss; the in-line check always
// enters protocol code for pending lines.
type LineState uint8

const (
	// Invalid: the data is not valid on this agent; its copy is filled
	// with the flag value.
	Invalid LineState = iota
	// Shared: valid here, other agents may also hold copies; writable
	// only after an upgrade.
	Shared
	// Exclusive: valid here and nowhere else; freely writable.
	Exclusive
	// Pending: a miss is outstanding for this line.
	Pending
)

func (s LineState) String() string {
	switch s {
	case Invalid:
		return "invalid"
	case Shared:
		return "shared"
	case Exclusive:
		return "exclusive"
	case Pending:
		return "pending"
	}
	return "bad-state"
}

// FlagWord is the "flag" bit pattern stored into every word of an
// invalidated line (§2.2). A load that does not see this value is
// guaranteed to have read valid data, so the in-line load check can skip
// the state-table lookup. Application data that happens to equal the flag
// causes a (counted, harmless) false miss.
const FlagWord uint64 = 0x8badf00d8badf00d

// blockInfo describes one variable-granularity coherence block (§2.1):
// a range of lines fetched and kept coherent as a unit. Its home-side
// state is indexed by block ID: the owner, busy window and queue in
// System.homes (home.go), what the protocol backend adds to them (sharer
// set, timestamps) in the backend (see Protocol.initBlock).
type blockInfo struct {
	id        int
	home      int // home process ID
	homeAgent int // the home process's agent
	firstLine int
	lines     int
}

// msgKind enumerates protocol and synchronization message types.
type msgKind uint8

const (
	msgInvalid msgKind = iota

	// Requests, serviced at the home (or forwarded owner).
	msgReadReq     // fetch a shared copy
	msgReadExclReq // fetch an exclusive copy
	msgUpgradeReq  // shared -> exclusive, no data needed
	msgSCUpgradeReq
	msgFwdRead     // home -> owner: send shared copy to requester
	msgFwdReadExcl // home -> owner: yield exclusive copy to requester
	msgInvalReq    // invalidate your copy, ack the requester

	// Replies and acks, handled only by the requesting process.
	msgReadReply     // data, grants shared
	msgReadExclReply // data, grants exclusive; carries inval count
	msgUpgradeAck    // grants exclusive without data; carries inval count
	msgSCFail        // store-conditional upgrade refused (§3.1.2)
	msgInvalAck

	// Home bookkeeping.
	msgShareWB       // owner -> home: data written back, now shared
	msgOwnerTransfer // owner -> home: ownership moved to requester

	// Intra-node private-state-table downgrade (§2.3).
	msgDowngradeReq

	// Message-passing synchronization (§6.2 "MP" locks and barriers).
	msgLockReq
	msgLockGrant
	msgLockRelease
	msgBarrierEnter
	msgBarrierRelease

	// User-defined messages (cluster OS layer: fork, kill, signals...).
	msgUser

	// Reliability sublayer: delivery acknowledgment for a sequenced
	// message (only sent when ReliableDelivery is on).
	msgNetAck
)

var msgKindNames = [...]string{
	msgInvalid:        "invalid",
	msgReadReq:        "read-req",
	msgReadExclReq:    "read-excl-req",
	msgUpgradeReq:     "upgrade-req",
	msgSCUpgradeReq:   "sc-upgrade-req",
	msgFwdRead:        "fwd-read",
	msgFwdReadExcl:    "fwd-read-excl",
	msgInvalReq:       "inval-req",
	msgReadReply:      "read-reply",
	msgReadExclReply:  "read-excl-reply",
	msgUpgradeAck:     "upgrade-ack",
	msgSCFail:         "sc-fail",
	msgInvalAck:       "inval-ack",
	msgShareWB:        "share-wb",
	msgOwnerTransfer:  "owner-transfer",
	msgDowngradeReq:   "downgrade-req",
	msgLockReq:        "lock-req",
	msgLockGrant:      "lock-grant",
	msgLockRelease:    "lock-release",
	msgBarrierEnter:   "barrier-enter",
	msgBarrierRelease: "barrier-release",
	msgUser:           "user",
	msgNetAck:         "net-ack",
}

// isReply reports whether a message of kind k travels in its receiver's
// reply queue, which is served ahead of requests: answers the receiver waits
// on, and the downgrade request a stalled node-mate must see. Sent by a
// process to itself, such a message is applied in place (Proc.send).
func (k msgKind) isReply() bool {
	switch k {
	case msgReadReply, msgReadExclReply, msgUpgradeAck, msgSCFail, msgInvalAck,
		msgDowngradeReq, msgLockGrant, msgBarrierRelease, msgNetAck:
		return true
	}
	return false
}

// toAgent reports whether a request of kind k is for state its receiver's
// agent keeps in its memory: the home record of a block, an MP lock or an MP
// barrier. With shared queues it travels in the agent's queue, which any
// process of the agent serves (System.requestBox).
func (k msgKind) toAgent() bool {
	switch k {
	case msgReadReq, msgReadExclReq, msgUpgradeReq, msgSCUpgradeReq, msgShareWB, msgOwnerTransfer,
		msgLockReq, msgLockRelease, msgBarrierEnter:
		return true
	}
	return false
}

func (k msgKind) String() string {
	if int(k) < len(msgKindNames) {
		return msgKindNames[k]
	}
	return fmt.Sprintf("msgKind(%d)", int(k))
}

// msg is one protocol message. Requests carry the requesting process so
// replies and invalidation acks can be routed to it.
type msg struct {
	kind    msgKind
	block   int
	from    int      // sending process
	reqProc int      // requesting process (destination of acks/replies)
	invals  int      // acks the requester must collect (replies)
	data    []uint64 // block contents, nil if the message carries none
	downTo  LineState
	id      int // user message tag / sync object index
	payload any // user message body
	arrive  int64
	// Timestamp fields (tardis backend; also piggybacked on lock grants
	// and barrier releases for release-consistency ordering); wire sizes
	// do not count them.
	ts  int64 // requests: requester's pts; replies: the copy's wts
	rts int64 // replies: lease end; SC requests: the LL copy's data wts
	// Reliability sublayer (ReliableDelivery only; zero otherwise).
	seq int64 // per-link (node pair) sequence number, 1-based
	ack int64 // msgNetAck: the sequence number being acknowledged
	dup bool  // set by the link resequencer on duplicate deliveries
	// unwritten marks an owner's reply to a forward, and its writeback or
	// ownership transfer, when it gives up a block it was granted on a read
	// and never stored to (serveForward); the home declassifies the block.
	unwritten bool
	// retained marks a message whose data buffer is still referenced by
	// the sender's retransmit entry (set when a sequence number is
	// assigned). Receivers must not recycle a retained buffer into their
	// free list; the sender recycles it when the delivery ack retires the
	// retransmit entry (see handleNetAck). Host-side only: never encoded,
	// never charged on the wire.
	retained bool
}

// headerBytes is the wire size of a message without data payload.
const headerBytes = 16

func (m msg) wireSize(lineBytes int) int {
	if m.data != nil {
		return headerBytes + len(m.data)*8
	}
	return headerBytes
}

// mshrEntry tracks one outstanding miss (one per block, per process).
type mshrEntry struct {
	block      int
	wantExcl   bool
	haveReply  bool
	acksWanted int
	acksGot    int
	scFailed   bool
	grant      LineState // state granted by the reply
	// invalAfterFill records an invalidation that arrived while this
	// (read) miss was pending but belongs to a newer epoch than the
	// in-flight fill: the installed copy must be dropped immediately
	// after the fill completes (see handleInval / finishMiss).
	invalAfterFill bool
	// scMode marks a store-conditional upgrade; finishMiss latches its
	// outcome into Proc.scMissFailed, because the entry itself returns to
	// the MSHR free list the moment the miss completes (see pool.go) and
	// must not be read afterwards.
	scMode bool
	stores []pendingStore
	issued sim.Time // when; the watchdog asks how long ago (starvedMiss)
}

// pendingStore is a store buffered behind a non-blocking (RC) store miss;
// it is performed by the protocol when the exclusive reply arrives.
type pendingStore struct {
	addr uint64
	val  uint64
}

func (m *mshrEntry) complete() bool {
	return m.haveReply && m.acksGot >= m.acksWanted
}

// agentMem is one agent's copy of the shared region plus its node-level
// state table. In SMP-Shasta there is one agentMem per node; in
// Base-Shasta, one per process, whose private table is this table.
type agentMem struct {
	agent int
	data  []uint64
	table []LineState
	// busy serializes agent-level transitions per block: a local miss (from
	// its request to its fill) or a downgrade (its record, dgs) holds it.
	busy map[int]*Proc
	dgs  []dgRecord // open downgrade records, at most one per block
	// protoData holds the coherence backend's per-agent state (tardis:
	// lease records and tenure timestamps). On the agent — not in a
	// backend-global map — for the same shard-locality reason as
	// Proc.protoData.
	protoData any
	// unwritten records, by block ID, whether the agent was granted the
	// block exclusive on a read and has not stored to it since ("granted
	// unwritten"; see migEntry).
	unwritten []bool
	// reqQ, with shared queues, carries the requests for state in this
	// memory (msgKind.toAgent); any process of the agent serves them.
	reqQ *queueBox
	// bufFree is the agent-local free list of msg.data buffers, keyed by
	// word count (block sizes vary per allocation). Buffers are taken by
	// the procs of this agent when composing data-carrying messages and
	// returned by whichever agent's proc consumes them, so under the
	// parallel engine each list is only ever touched by its own shard.
	// See pool.go for the lifecycle and determinism argument.
	bufFree map[int][][]uint64
}

// newAgent appends an agent whose per-line arrays cover the current
// allocated prefix (see growLines), and its slot to every MP lock.
func (s *System) newAgent() *agentMem {
	m := &agentMem{
		agent:   len(s.agents),
		busy:    make(map[int]*Proc),
		bufFree: make(map[int][][]uint64),
	}
	if s.Cfg.SharedQueues {
		m.reqQ = newQueueBox()
	}
	s.sizeAgent(m, len(s.lineBlock))
	s.agents = append(s.agents, m)
	for _, lk := range s.locks {
		lk.slots = append(lk.slots, lockSlot{})
	}
	return m
}

// isUnwritten reports whether the agent holds block id granted unwritten.
func (m *agentMem) isUnwritten(id int) bool {
	return id < len(m.unwritten) && m.unwritten[id]
}

// takeUnwritten clears the agent's granted-unwritten record of block id
// and reports whether there was one.
func (m *agentMem) takeUnwritten(id int) bool {
	if !m.isUnwritten(id) {
		return false
	}
	m.unwritten[id] = false
	return true
}

// noteUnwritten records that the agent was granted block id on a read.
// blocks is the number of blocks allocated so far: the record grows to it
// on the agent's first grant and once per doubling of the block count.
func (m *agentMem) noteUnwritten(id, blocks int) {
	if id >= len(m.unwritten) {
		m.unwritten = grown(m.unwritten, max(id+1, blocks, 2*len(m.unwritten)), false)
	}
	m.unwritten[id] = true
}

// minGrowLines is the smallest non-empty size of the per-line arrays: the
// locks, barriers and first small arrays of a run fit without regrowing.
const minGrowLines = 256

// growLines is the only place that sizes the per-line arrays —
// System.lineBlock and requester, each agent's data and table, and each
// process's private table, re-aliased to its agent's new table in
// Base-Shasta. They cover a prefix of the shared region that always
// includes every allocated line, and Alloc calls this before it moves
// the bump cursor, so they stay flat arrays indexed by line or word
// with nothing between an access and mem.data[word]. Growth is geometric
// and, as the whole region used to be, new lines are unallocated, Invalid
// and flag-filled everywhere.
//
// A process may Alloc while others are suspended in the middle of an
// operation (built-in driver only; Alloc refuses under a parallel engine).
// That is safe because growth replaces the arrays' backing stores and
// nothing holds a slice of one across a yield: every use is an index
// expression or an immediate copy through p.mem, p.priv or the System,
// re-read after each stall. Keep it that way.
func (s *System) growLines(lines int) {
	if lines <= len(s.lineBlock) {
		return
	}
	n := min(max(lines, 2*len(s.lineBlock), minGrowLines), s.numLines)
	s.lineBlock = grown(s.lineBlock, n, -1)
	if s.Cfg.SMP {
		s.requester = grown(s.requester, n*s.Cfg.Nodes, 0)
	}
	for _, m := range s.agents {
		s.sizeAgent(m, n)
	}
	for _, p := range s.procs {
		s.sizePriv(p)
	}
}

func (s *System) sizeAgent(m *agentMem, lines int) {
	m.data = grown(m.data, lines*s.wordsPerLine, FlagWord)
	m.table = grown(m.table, lines, Invalid)
}

// sizePriv sizes p's private state table to the agent table: its own
// array in SMP-Shasta, the agent table itself in Base-Shasta. Base-Shasta
// runs the SMP code with one process per agent, and this alias is what
// makes that exact: writing the agent table writes the private entry, and
// a private entry that misses has nothing newer behind it.
func (s *System) sizePriv(p *Proc) {
	if s.Cfg.SMP {
		p.priv = grown(p.priv, len(p.mem.table), Invalid)
	} else {
		p.priv = p.mem.table
	}
}

// grown returns a copy of a extended to n elements, the new ones set to fill.
func grown[T any](a []T, n int, fill T) []T {
	out := make([]T, n)
	for i := copy(out, a); i < n; i++ {
		out[i] = fill
	}
	return out
}
