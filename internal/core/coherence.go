package core

// The coherence-protocol backend interface. The core keeps everything a
// protocol does NOT define — processes, agent memories and state tables,
// the MSHR/miss machinery, intra-node downgrades, the one sender
// (Proc.send), the reliability sublayer, both PDES engines — and the
// home every home-based protocol shares (home.go): the per-block record of
// owner, busy window and queued requests, the one switch on the owner that
// serves a request (the master copy, the home agent's own copy, or a
// forward to a remote owner), the owner's downgrade, reply and writeback,
// and every handler a coherence message reaches: the reply's and the
// invalidation ack's at the requester, the invalidation's at a sharer and
// the writeback's at the home. An owner of -1 means the home's master copy
// is valid under every backend. It delegates the protocol proper to a
// Protocol implementation: what request a miss issues and what it, a grant
// and an owner's reply are stamped with, how the master copy serves a
// request, what a fill and a writeback mean beyond the data and the owner
// they install, what per-block home state exists beyond that record, and
// the clauses of the invariant catalogue (invariants.go) that read that
// state.
//
// Two backends are registered:
//
//   - "dirinval" (dirinval.go): the paper's directory-based invalidation
//     protocol (§2.1) — sharer bitmasks, invalidation multicast with acks
//     collected at the requester.
//   - "tardis" (tardis.go): timestamp-ordered coherence after Yu &
//     Devadas, "Tardis: Time Traveling Coherence Algorithm for
//     Distributed Shared Memory" — lease-based reads and per-block
//     write timestamps, no invalidations and no sharer multicast.
//
// A backend must uphold the contract spelled out in DESIGN.md §6.10:
// SWMR over agent state tables, data-value correctness of every copy it
// lets a read observe, deterministic handler execution (no wall-clock,
// no map-iteration order), and termination of the miss state machine.

import (
	"fmt"
	"strings"
)

// Protocol is one pluggable coherence backend. Implementations live in
// this package; they are selected by name via Config.Protocol (or the
// WithProtocol build option) and constructed per System. All methods are
// unexported: the backend surface is an internal contract, while the
// selection surface (WithProtocol, ProtocolNames) is public API. The core
// handles every coherence message; no method takes a *msg, and serveMaster
// is the one that composes messages.
type Protocol interface {
	// initBlock creates the backend's per-block home state for a freshly
	// allocated block (called from Alloc, after the block is appended to
	// s.blocks and its record, owned by the home agent, to s.homes).
	initBlock(blk *blockInfo)

	// missKind selects the request kind issueMiss sends for a miss.
	missKind(p *Proc, blk *blockInfo, wantExcl, scMode bool) msgKind
	// stamp returns the timestamps (ts, rts) of a message of kind the core
	// composes, given those it starts from: a miss request before it is sent
	// (from zero), and an owner's reply to a forward (msgReadReply to a
	// forwarded read, msgReadExclReply to a forwarded read-exclusive, from
	// the forward's) once the owner's copy is downgraded. The owner's
	// message to the home carries the reply's stamps.
	stamp(p *Proc, blk *blockInfo, kind msgKind, ts, rts int64) (int64, int64)
	// noteRequest runs at the home for each request it admits, of the
	// requester's kind and from agent reqAgent, before the core's owner
	// switch and before any deferral: it is where a backend keeps the
	// evidence its migratory predicate reads (migEntry) and classifies.
	noteRequest(p *Proc, blk *blockInfo, reqAgent int, kind msgKind)
	// serveMaster serves a request while the home's master copy is valid
	// (owner -1), as kind: msgReadReq, msgReadExclReq, msgUpgradeReq or
	// msgSCUpgradeReq, after the core's conversions. m is the request as
	// it arrived, for its stamps and for a deferral. A grant names the
	// requester's agent owner and calls noteGrant.
	serveMaster(p *Proc, blk *blockInfo, req *Proc, kind msgKind, m msg)
	// grantOwned stamps a grant of a block another agent owns, for request
	// m, exclusive or not: atHome, the home agent's, once its copy is
	// downgraded and before the core installs the new owner; otherwise a
	// remote owner's, on the forward, before it is sent. It returns the
	// ts and rts of the reply or the forward.
	grantOwned(p *Proc, blk *blockInfo, m msg, excl, atHome bool) (ts, rts int64)
	// noteFill runs at the requester for each reply to its miss m, once the
	// core has recorded the grant in the MSHR and installed the data, with
	// the reply's ts and rts. It returns the timestamp the process observes
	// (observeTs) once the miss is complete, after finishMiss.
	noteFill(p *Proc, m *mshrEntry, ts, rts int64) int64
	// noteWriteback runs at the home for the owner's writeback or ownership
	// transfer m, once the core has installed the data and the owner it
	// leaves, and before the busy window closes.
	noteWriteback(p *Proc, blk *blockInfo, m msg)

	// refreshLL runs at the top of LoadLocked, before the line-state
	// checks: a backend whose read copies can go stale (leases) drops
	// them here so the LL observes current data.
	refreshLL(p *Proc, line int)
	// noteStoreHit runs after every store that completes against an
	// exclusive copy (Proc.performStore), once the core has charged the
	// first store after a migratory grant. A backend that must reconstruct write
	// timestamps when a version later leaves its owner records the
	// writer's logical time here, at no simulated cost.
	noteStoreHit(p *Proc, line int)
	// pollTick runs on every System.pollTickEvery-th in-line message poll
	// of a process, a period the backend's constructor sets (0: never); it is
	// for time-based bookkeeping (Tardis drops a leased copy). The polls in
	// between do nothing of the backend's, which is what lets Compute skip
	// them.
	pollTick(p *Proc)
	// syncTs returns the timestamp a synchronization release should
	// carry, and observeTs applies a timestamp received with a
	// synchronization acquire (lock grants, barrier releases), or a
	// process's own syncTs at a MemBar. A backend without logical time
	// returns 0 and ignores observes.
	syncTs(p *Proc) int64
	observeTs(p *Proc, ts int64)

	// The backend's clauses of the invariant catalogue (invariants.go),
	// for both of its worlds: e is the explorer, or nil for the live system.
	//
	// checkExclusive is the backend's half of swmr, for a line exclusive
	// at agent excl and at no other.
	checkExclusive(s *System, line, excl int) *InvariantError
	// checkAgreement is dir-agreement: the backend's home state against
	// the agent state tables, tolerating only transients the explorer
	// shows in flight.
	checkAgreement(s *System, e *Explorer) *InvariantError
	// expectedValue is the value agent a's valid copy of word must hold,
	// given the word's current value cur; false when this world cannot say.
	expectedValue(s *System, e *Explorer, a int, blk *blockInfo, word int, cur uint64) (uint64, bool)

	// Model-checker surface (explore.go / explore_state.go): canonical
	// encodings of the backend's per-block and per-process state.
	// encodeBlock writes only the home state the backend keeps beyond the
	// home record, which Explorer.encodeHome writes around it; an encoding
	// must be injective and permute agents as perm does.
	encodeBlock(e *Explorer, b *strings.Builder, blk *blockInfo, perm []int)
	encodeProcExtra(e *Explorer, b *strings.Builder, p *Proc, perm []int)
	// noteGhostStore observes each performed store (explorer only), with
	// the performing process; backends that validate stale copies keep
	// per-word version history here.
	noteGhostStore(e *Explorer, pid, word int, val uint64)
}

// ProtocolNames returns the backend names, sorted.
func ProtocolNames() []string { return []string{"dirinval", "tardis"} }

// newProtocol constructs the backend s.Cfg.Protocol names, bound to s;
// newSystem calls it once, before any process or block exists.
func newProtocol(s *System) Protocol {
	switch s.Cfg.Protocol {
	case "dirinval":
		return &dirInval{s: s}
	case "tardis":
		return newTardis(s)
	}
	panic(fmt.Sprintf("core: unknown protocol %q (have %v)", s.Cfg.Protocol, ProtocolNames()))
}
