package core

// The coherence-protocol backend interface. The core keeps everything a
// protocol does NOT define — processes, agent memories and state tables,
// the MSHR/miss machinery, intra-node downgrades, the reliability
// sublayer, both PDES engines — and the home-side skeleton every
// home-based protocol shares (home.go): the per-block record of owner,
// busy window and queued requests, the forward to the owner and its way
// back, the reply's entry into the MSHR. It delegates the protocol proper
// to a Protocol implementation: what request a miss issues, how every
// coherence message is handled and what a grant means, what per-block
// home state exists beyond that record, and how that state is inspected
// by the runtime invariant checker and the model-checking explorer.
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
	"sort"
	"strings"
)

// Protocol is one pluggable coherence backend. Implementations live in
// this package; they are selected by name via Config.Protocol (or the
// WithProtocol build option) and constructed per System. All methods are
// unexported: the backend surface is an internal contract, while the
// selection surface (WithProtocol, ProtocolNames) is public API.
type Protocol interface {
	// attach binds the backend to its system; called once from newSystem
	// before any process or block exists.
	attach(s *System)
	// initBlock creates the backend's per-block home state for a freshly
	// allocated block (called from Alloc, after the block is appended to
	// s.blocks and its record, owned by the home agent, to s.homes).
	initBlock(blk *blockInfo)

	// missKind selects the request kind issueMissKind sends for a miss.
	missKind(p *Proc, blk *blockInfo, wantExcl, scMode bool) msgKind
	// stampRequest lets the backend add fields (timestamps) to an
	// outgoing miss request before it is delivered.
	stampRequest(p *Proc, blk *blockInfo, m *msg)
	// handle services one coherence message (any of the request, reply,
	// forward, invalidation, or home-bookkeeping kinds). Non-coherence
	// traffic (locks, barriers, downgrades, user messages, net acks)
	// never reaches the backend. The message is borrowed for the duration
	// of the call: an implementation that must keep it (home queues,
	// deferred requests) appends a copy, never the pointer. Hot callers
	// devirtualize through protoHandle so the argument does not escape.
	handle(p *Proc, m *msg)

	// refreshLL runs at the top of LoadLocked, before the line-state
	// checks: a backend whose read copies can go stale (leases) drops
	// them here so the LL observes current data.
	refreshLL(p *Proc, line int)
	// noteStoreHit runs after every store that completes against an
	// exclusive copy without entering the protocol (the in-line hit
	// path). It costs nothing in simulated time; a backend that must
	// reconstruct write timestamps when a version later leaves its
	// owner records the writer's logical time here.
	noteStoreHit(p *Proc, line int)
	// pollTick runs on every System.pollTickEvery-th in-line message poll
	// of a process, a period the backend sets in attach (0: never); it is
	// for time-based bookkeeping (lease self-expiry). The polls in between
	// do nothing of the backend's, which is what lets Compute skip them.
	pollTick(p *Proc)
	// scFailRetains reports whether a failed SC upgrade leaves the
	// requester's copy valid. dirinval always drops it (the copy was
	// invalidated by the concurrent writer). Tardis retains the home
	// agent's copy while the home entry names it master (owner == -1):
	// poisoning it would destroy the only current copy in the system,
	// and the home would then serve flag-pattern garbage as data.
	scFailRetains(p *Proc, blk *blockInfo) bool
	// syncTs returns the timestamp a synchronization release should
	// carry, and observeTs applies a timestamp received with a
	// synchronization acquire (lock grants, barrier releases). A
	// backend without logical time returns 0 and ignores observes.
	syncTs(p *Proc) int64
	observeTs(p *Proc, ts int64)

	// checkLight verifies what the backend adds to the core's always-true
	// invariants (checkHomesLight); safe at any quiesce point.
	checkLight(s *System) error
	// checkQuiescent verifies exact home-state/state-table/data
	// agreement when the system is fully quiescent.
	checkQuiescent(s *System) error
	// snapshotSource returns the agent index whose copy of the line is
	// authoritative for host-side reads (Peek, SnapshotShared).
	snapshotSource(line int) int

	// Model-checker surface (explore.go / explore_state.go): canonical
	// encodings of the backend's per-block, per-process, and per-message
	// state, plus the backend's invariant catalogue.
	encodeBlock(e *Explorer, b *strings.Builder, blk *blockInfo, perm []int)
	encodeProcExtra(e *Explorer, b *strings.Builder, p *Proc, perm []int)
	encodeMsgExtra(m msg) string
	expCheck(e *Explorer) *ExpViolation
	// expCheckRead runs the eager data-value check when an explorer read
	// completes with value v (never called for forwarded own-stores).
	expCheckRead(e *Explorer, ep *expProc, op ExpOp, v uint64)
	// noteGhostStore observes each performed store (explorer only), with
	// the performing process; backends that validate stale copies keep
	// per-word version history here.
	noteGhostStore(e *Explorer, pid, word int, val uint64)
}

// protocolFactories is the backend registry; registerProtocol is called
// from init functions of the backend files.
var protocolFactories = map[string]func() Protocol{}

func registerProtocol(name string, f func() Protocol) {
	if _, dup := protocolFactories[name]; dup {
		panic(fmt.Sprintf("core: duplicate protocol %q", name))
	}
	protocolFactories[name] = f
}

// ProtocolNames returns the registered backend names, sorted.
func ProtocolNames() []string {
	names := make([]string, 0, len(protocolFactories))
	for n := range protocolFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// newProtocol constructs the named backend.
func newProtocol(name string) Protocol {
	f := protocolFactories[name]
	if f == nil {
		panic(fmt.Sprintf("core: unknown protocol %q (have %v)", name, ProtocolNames()))
	}
	return f()
}
