package core

// The Tardis timestamp-coherence backend, after Yu & Devadas, "Tardis:
// Time Traveling Coherence Algorithm for Distributed Shared Memory"
// (PACT'15), adapted to Shasta's home-based block protocol. Instead of
// tracking sharers and multicasting invalidations, every block carries a
// write timestamp (wts, the logical time of its current version) and a
// read timestamp (rts, the end of the latest read lease); every process
// carries a program timestamp (pts). A read obtains the current version
// together with a lease [wts, rts]; the copy may silently go stale when
// a later write is granted, but the staleness is bounded in *logical*
// time: a write is serialized at max(wts, rts, writer pts)+1, after
// every outstanding lease, so reading a leased copy is always a correct
// read of some legal serialization point. No invalidation or sharer
// multicast ever happens — writes are a home round-trip regardless of
// how many readers cached the block.
//
// Mapping onto the Shasta machinery:
//
//   - The home keeps {wts, rts} beside the core's home record (home.go),
//     whose owner is an agent index or -1 ("home master copy valid"), and
//     whose one owner switch (System.handleHome) serves every request, as
//     it does dirinval's. What Tardis adds there is three hooks: the
//     migratory evidence (noteRequest), serving the master copy
//     (serveMaster: leases, write grants after every lease, the SC
//     currency check) and the timestamps of a grant of an owned block
//     (grantOwned). A remote read RECALLS ownership (FwdRead demotes the
//     owner to a leaseholder and writes back), which keeps the LL/SC and
//     upgrade paths sound without owner-side timestamp bookkeeping. What
//     the owner adds is stamp's: the departing version's timestamp, and the
//     demoted owner's lease or the yielding owner's lease drop.
//   - The home detects migratory blocks, with the core's record (migEntry):
//     a read-exclusive from the one agent served a read since the last
//     writer's grant classifies a block, and a read of a migratory block is
//     then a write grant — from a remote owner a 3-hop transfer, not a
//     recall — so the store after it is a hit.
//   - Leaseholders drop their own copies: eagerly whenever pts advances
//     past a lease (expire), on every LoadLocked (refreshLL, so the SC
//     currency check can succeed), and on every tardisPollPeriod-th inline
//     poll of a process idle since its previous one, the copy installed
//     longest ago and the copy of the block the process last LL'd (pollTick,
//     so spin-waits on a leased copy stay live; a process still taking fills
//     is working through data, not spinning, and keeps its copies). Logical
//     time moves only with the data: a tick drops copies and leaves pts
//     alone.
//   - A lease is sized by the age of the version it leases, after the
//     lease prediction Yu & Devadas sketch: a read at pts P of a version
//     written at W is leased for tardisLeaseAge*(P-W), clamped to
//     [tardisLeaseLen, tardisLeaseMax]. A version that has stayed current
//     a long time is likely to stay current, so read-mostly data outlives
//     synchronization, while a new version gets the base lease. A block the
//     home has seen an SC upgrade for (a lock or sense word) always gets
//     the base lease: a long one would push every SC grant past it, and
//     the release would carry that jump on. Correctness never depends on
//     the length, since every write still lands after rts.
//   - Under RC a store's grant raises the writer's wpts, not its pts (see
//     tardisProcState.wpts): its later loads may still hit leases that
//     end before the store, as RC lets a load pass an earlier store.
//   - Synchronization carries timestamps: lock grants and barrier
//     releases piggyback the releasers' max(pts, wpts) (msg.ts), and
//     observeTs advances the acquirer past them — release consistency in
//     logical time, which is what makes lock/barrier programs read their
//     predecessors' writes. A MemBar observes the process's own.
//   - The home agent's copies are always master copies (current by
//     construction) and never carry lease records, so they are exempt
//     from expiry and the home can always serve reads from memory. Its
//     processes read them without a miss, so a writeback that installs a
//     version there advances their pts to it.
//
// Shard locality (parallel PDES): per-process state lives on
// Proc.protoData, per-agent state on agentMem.protoData, and the home
// entries are touched only by home-side handlers — the same discipline
// as dirinval, so both engines run Tardis unchanged.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/trace"
)

// tardisLeaseLen is the shortest read lease in logical time: the lease of
// a new version, and of every read of an SC-marked block. A lease of any
// uniform length mostly ends at the next synchronization — a write grant
// lands after every outstanding lease and lock grants and barrier
// releases carry its timestamp to every acquirer — so lengthening this
// constant saves few re-fetches; sizing a lease by its version's age does.
const tardisLeaseLen = 8

// tardisLeaseAge is how many times the version's age at the read a lease
// lasts (see extendLease).
const tardisLeaseAge = 4

// tardisLeaseMax caps a lease. Every write grant lands after the longest
// lease outstanding, so a longer cap pushes the write timestamps of blocks
// that do change, after a quiet spell, further ahead.
const tardisLeaseMax = 1024

// tardisPollPeriod is how many inline polls of a process apart its poll
// ticks fall (pollTick): it bounds how long a spin-wait can observe a stale
// leased copy, even if the process never misses or synchronizes, however
// long the lease. Runtime liveness only — the model checker never polls.
const tardisPollPeriod = 64

// tardisEntry is what Tardis adds to the block's homeEntry, whose owner is
// -1 while the home master copy is valid.
type tardisEntry struct {
	wts int64 // write ts of the current version
	rts int64 // end of the latest read lease
	// sc marks a block the home has served an SC upgrade for: its reads get
	// the base lease. Write grants keep it.
	sc bool
}

// tardisLease is one agent's record of a leased read copy.
type tardisLease struct {
	dataWts  int64 // wts of the version the copy holds
	leaseEnd int64 // the copy may be read at timestamps <= leaseEnd
}

// tardisProcState lives on Proc.protoData.
type tardisProcState struct {
	pts int64 // program timestamp
	// wpts is, under RC, the timestamp of the process's latest store grant.
	// A store's grant orders the process's later stores and releases after
	// it, not its loads: RC lets a load pass an earlier store (TSO's
	// relaxation), so the grant leaves pts, and the leases it would expire,
	// alone until a MemBar, or a barrier that carries it back, observes it.
	// Zero under SC, where a grant advances pts.
	wpts int64
	// expiring is expire's list of ended leases, kept for its capacity. It
	// is nil while an expire holds it: the drops stall, and an expire
	// nested in one of them gets a list of its own.
	expiring []int
	// pollTick's evidence since the process's previous tick: filled, a
	// shared fill that did not replace a copy an LL dropped; wrote, an
	// exclusive fill; wroteSkip, the previous tick was skipped for one. ll
	// is the block the process last LL'd, plus one (0: none). The explorer
	// never polls, so none of them is part of its state.
	filled, wrote, wroteSkip bool
	ll                       int
}

// tardisAgentState lives on agentMem.protoData.
type tardisAgentState struct {
	// leases records, per block, the lease under which this agent's
	// Shared copy was obtained. Master copies at the home have no record.
	leases leaseIndex
	// tenure records, per block, the grant timestamp of this agent's
	// current (or most recent) exclusive tenure; all stores the agent
	// performs while owning the block belong to that version. Used by
	// the explorer's version history and the SC stamp.
	tenure map[int]int64
	// dirty records, per owned block, the highest storeTs any local
	// process had when it last stored into the block through the in-line
	// hit path (noteStoreHit). The owner's stores never enter protocol code,
	// so this is how their serialization point survives until the
	// version leaves the agent: a recall, a yield, or a home serve
	// stamps the departing version with max(grant, dirty) — a write that
	// program-order-followed a high-timestamped read is never handed out
	// below that read. Cleared when the stamp is taken.
	dirty map[int]int64
}

// tardisVersion is one entry of the explorer's per-word history.
type tardisVersion struct {
	ts  int64
	val uint64
}

type tardis struct {
	s       *System
	entries []tardisEntry
	// hist is the explorer-only per-word version history: the last store
	// of every write tenure, keyed by the tenure's grant timestamp. A
	// leased copy is valid iff it holds the latest version at or before
	// its dataWts.
	hist map[int][]tardisVersion
}

// newTardis makes the Tardis backend of s and sets the system's poll-tick
// period.
func newTardis(s *System) *tardis {
	s.pollTickEvery = tardisPollPeriod
	return &tardis{s: s, hist: make(map[int][]tardisVersion)}
}

func (t *tardis) initBlock(blk *blockInfo) {
	if blk.id != len(t.entries) {
		panic(fmt.Sprintf("core: tardis initBlock out of order (block %d, have %d)", blk.id, len(t.entries)))
	}
	t.entries = append(t.entries, tardisEntry{})
}

func (t *tardis) pstate(p *Proc) *tardisProcState {
	st, ok := p.protoData.(*tardisProcState)
	if !ok {
		st = &tardisProcState{}
		p.protoData = st
	}
	return st
}

func (t *tardis) astate(mem *agentMem) *tardisAgentState {
	st, ok := mem.protoData.(*tardisAgentState)
	if !ok {
		st = &tardisAgentState{
			tenure: make(map[int]int64),
			dirty:  make(map[int]int64),
		}
		mem.protoData = st
	}
	return st
}

// grantTs is the serialization timestamp of a write grant: after the
// current version and every outstanding lease, and after the writer.
func grantTs(e *tardisEntry, reqPts int64) int64 {
	g := e.wts
	if e.rts > g {
		g = e.rts
	}
	if reqPts > g {
		g = reqPts
	}
	return g + 1
}

// storeTs is the timestamp the process's stores and releases are ordered
// after: its pts, or its latest store grant's if that is later.
func (ps *tardisProcState) storeTs() int64 { return max(ps.pts, ps.wpts) }

// noteStoreHit records the writer's store timestamp on every in-line
// exclusive store hit (see tardisAgentState.dirty). Simulated cost: none —
// this models state the real inline sequence already touches (the line it
// writes), not extra work.
func (t *tardis) noteStoreHit(p *Proc, line int) {
	blk := t.s.blockOf(line)
	as := t.astate(p.mem)
	if ts := t.pstate(p).storeTs(); ts > as.dirty[blk.id] {
		as.dirty[blk.id] = ts
	}
}

// takeDirty consumes the agent's dirty stamp for the block: the highest
// pts any of its processes had when storing into it. Called exactly
// when the version leaves the agent, which is also when the record
// stops mattering.
func (t *tardis) takeDirty(mem *agentMem, blkID int) int64 {
	as := t.astate(mem)
	d, ok := as.dirty[blkID]
	if ok {
		delete(as.dirty, blkID)
	}
	return d
}

// missKind: Tardis has no upgrades — a writing sharer's copy may be
// stale, so every exclusive miss is a full fetch. SC upgrades keep their
// own kind so the home can apply the currency check and fail them
// without livelock.
func (t *tardis) missKind(p *Proc, blk *blockInfo, wantExcl, scMode bool) msgKind {
	switch {
	case scMode:
		return msgSCUpgradeReq
	case wantExcl:
		return msgReadExclReq
	default:
		return msgReadReq
	}
}

// stamp: a read request carries the requester's pts, a write request its
// storeTs; an SC upgrade additionally carries, as rts, the wts of the copy
// the LL read, which the home compares against the current version. An
// owner's reply to a forward carries a version leaving its owning agent, so
// it is stamped with the dirty record (see tardisAgentState.dirty): the
// owner's stores were inline hits that never advanced the home's wts.
func (t *tardis) stamp(p *Proc, blk *blockInfo, kind msgKind, ts, rts int64) (int64, int64) {
	as := t.astate(p.mem)
	switch kind {
	case msgReadReply:
		// A recall: keep the lease end past the stamp. The demoted owner
		// keeps its copy under the same lease the requester gets: it holds
		// the version it just wrote back.
		ts = max(ts, t.takeDirty(p.mem, blk.id))
		rts = max(rts, ts+tardisLeaseLen)
		as.leases.set(blk.id, tardisLease{dataWts: ts, leaseEnd: rts}, len(t.s.blocks))
		return ts, rts
	case msgReadExclReply:
		// A yield: the owner's copy is gone, and the new grant serializes
		// after every store the yielding agent's processes performed.
		as.leases.del(blk.id)
		return max(ts, t.takeDirty(p.mem, blk.id)+1), rts
	case msgReadReq:
		return t.pstate(p).pts, rts
	case msgSCUpgradeReq:
		if l, ok := as.leases.get(blk.id); ok {
			rts = l.dataWts
		} else if p.agent == blk.homeAgent {
			// Master copy: current by construction.
			rts = t.entries[blk.id].wts
		} else {
			rts = -1 // no identifiable read copy; the SC will fail
		}
	}
	return t.pstate(p).storeTs(), rts
}

// extendLease bumps rts for a read at the requester's pts and returns
// the lease end. The lease lasts tardisLeaseAge times the version's age at
// the read, clamped to [tardisLeaseLen, tardisLeaseMax]; an SC-marked
// block's, tardisLeaseLen.
func extendLease(e *tardisEntry, reqPts int64) int64 {
	lease := int64(tardisLeaseLen)
	if !e.sc {
		lease = min(max(tardisLeaseAge*(reqPts-e.wts), tardisLeaseLen), tardisLeaseMax)
	}
	e.rts = max(e.rts, reqPts+lease)
	return e.rts
}

// noteRequest keeps the migratory record (migEntry), and marks a block
// with an SC upgrade for the base lease (tardisEntry.sc). With no upgrades
// and no sharer set, the home classifies on a read-exclusive: the block was
// handed on read-then-write when the requester is the one agent served a
// read since the last writer's grant. A read the core will not serve as a
// read-exclusive (the block is not migratory) is recorded as served.
func (t *tardis) noteRequest(p *Proc, blk *blockInfo, reqAgent int, kind msgKind) {
	s := t.s
	switch h := &s.homes[blk.id]; {
	case kind == msgSCUpgradeReq:
		t.entries[blk.id].sc = true
	case kind == msgReadExclReq:
		s.classify(p, blk, reqAgent, h.mig.reader == reqAgent)
	case kind == msgReadReq && h.owner != reqAgent && !h.mig.migratory:
		s.noteRead(blk, reqAgent)
	}
}

// serveMaster serves a request from the master copy. A read leases the
// current version from memory (extendLease). A write is granted after every
// outstanding lease; an SC upgrade only if its LL read the current version
// — the currency check that replaces dirinval's sharer-set membership,
// which fails without disturbing a third party and so without livelock
// (§3.1.2).
func (t *tardis) serveMaster(p *Proc, blk *blockInfo, req *Proc, kind msgKind, m msg) {
	s := t.s
	homeMem := s.agents[blk.homeAgent]
	e := &t.entries[blk.id]
	if kind == msgReadReq {
		end := extendLease(e, m.ts)
		p.send(req, &msg{kind: msgReadReply, block: blk.id, from: p.ID,
			data: s.blockData(homeMem, blk), ts: e.wts, rts: end}, CatMessage)
		return
	}
	if kind == msgSCUpgradeReq && e.wts != m.rts {
		p.send(req, &msg{kind: msgSCFail, block: blk.id, from: p.ID}, CatMessage)
		return
	}
	// Park the request behind a fill another local process has in flight
	// on the block, or a downgrade of it: the grant below downgrades the
	// home agent's own copy, which needs the transition lock. The
	// requester's own miss does not count: when the requester is local it
	// holds the lock, and the guard below skips the downgrade.
	if p.deferIfPending(&m, blk, req) {
		return
	}
	reqAgent := s.agentOf(req)
	grant := grantTs(e, m.ts)
	e.wts, e.rts = grant, grant
	s.homes[blk.id].owner = reqAgent
	s.noteGrant(p, blk, reqAgent, m.kind)
	rep := msg{kind: msgUpgradeAck, block: blk.id, from: p.ID, reqProc: req.ID, ts: grant}
	if kind != msgSCUpgradeReq {
		rep.kind, rep.data = msgReadExclReply, s.blockData(homeMem, blk)
	}
	// Local master copy becomes stale and has no lease record to bound it —
	// drop it. Remote leaseholders keep their copies: that is the whole
	// point of Tardis.
	if blk.homeAgent != reqAgent && homeMem.table[blk.firstLine] != Invalid {
		p.downgradeAgent(blk, Invalid, thenSend, &rep)
		return
	}
	p.send(req, &rep, CatMessage)
}

// grantOwned stamps a grant of an owned block. A read of the home agent's
// version makes the master copy valid again, and a write is granted after
// it; either way the version leaves its owning agent, so it is stamped
// with the agent's dirty record (see tardisAgentState.dirty), taken once
// the downgrade is done: the owner's stores were inline hits that never
// touched wts, and one of its processes can still store while the
// downgrade stalls. A read of a remote owner's version recalls it: the
// owner demotes to a leaseholder of the version it wrote, the data comes
// back with its writeback, and the home is master again — so LL/SC and SC
// upgrades never have to reason about remote owners. A write forwarded to
// a remote owner is a 3-hop transfer whose grant is fixed here, before the
// forward: requests that queue behind the busy entry serialize after it.
func (t *tardis) grantOwned(p *Proc, blk *blockInfo, m msg, excl, atHome bool) (ts, rts int64) {
	e := &t.entries[blk.id]
	var dirty int64
	if atHome {
		dirty = t.takeDirty(t.s.agents[blk.homeAgent], blk.id)
	}
	if excl {
		grant := max(grantTs(e, m.ts), dirty+1)
		e.wts, e.rts = grant, grant
		return grant, 0
	}
	e.wts = max(e.wts, dirty)
	e.rts = max(e.rts, e.wts)
	return e.wts, extendLease(e, m.ts)
}

// noteWriteback adopts the stamps of a recall's writeback or a yield's
// ownership transfer: the old owner may have raised them past what the home
// recorded at forward time.
func (t *tardis) noteWriteback(p *Proc, blk *blockInfo, m msg) {
	e := &t.entries[blk.id]
	e.wts = max(e.wts, m.ts)
	if m.kind == msgOwnerTransfer {
		e.rts = max(e.rts, e.wts)
		return
	}
	e.rts = max(e.rts, m.rts)
	// The home's processes read the master copy, now the version at wts,
	// without a miss: their pts must reach it, or one of them could read
	// the new version, release, and hand an acquirer a pts still inside an
	// older lease on the block.
	for _, q := range t.s.localProcs(blk.homeAgent) {
		t.advancePts(q, e.wts)
	}
	t.expire(p)
}

// noteFill does the lease bookkeeping for the installed copy, and advances
// pts to the grant — except an RC store grant's, which raises wpts. It
// returns the timestamp the process observes once the fill is done, whose
// lease sweep (observeTs) follows the deferred replays: 0 for a refused SC
// and an RC store grant. Tardis collects no acks, so every reply completes
// its miss.
func (t *tardis) noteFill(p *Proc, m *mshrEntry, ts, rts int64) int64 {
	as, ps := t.astate(p.mem), t.pstate(p)
	refill := as.leases.takeLLDrop(m.block)
	switch {
	case m.scFailed:
		// finishMiss drops the line; the lease record goes with it.
		as.leases.del(m.block)
		return 0
	case m.grant == Exclusive:
		as.leases.del(m.block)
		as.tenure[m.block] = ts
		ps.wrote = true
		if m.wantExcl && t.s.Cfg.Consistency != SequentiallyConsistent {
			ps.wpts = max(ps.wpts, ts) // see tardisProcState.wpts
			return 0
		}
	default:
		// Shared fill: record the lease — except at the block's home,
		// whose copies are master copies (current by construction, kept
		// in step by ShareWB) and must never be expired.
		if p.agent != t.s.blocks[m.block].homeAgent {
			as.leases.set(m.block, tardisLease{dataWts: ts, leaseEnd: rts}, len(t.s.blocks))
		}
		ps.filled = ps.filled || !refill
	}
	t.advancePts(p, ts)
	return ts
}

func (t *tardis) advancePts(p *Proc, ts int64) {
	if ps := t.pstate(p); ts > ps.pts {
		ps.pts = ts
	}
}

// expire drops this agent's leased copies whose leases ended before the
// process's pts: reading them would serialize the read before a write
// the process already observed. Runs after every fill and pts advance.
func (t *tardis) expire(p *Proc) {
	as := t.astate(p.mem)
	ps := t.pstate(p)
	if end, ok := as.leases.minEnd(); !ok || end >= ps.pts {
		return
	}
	// Dropped in ascending block order: the order is simulated behaviour.
	ids := as.leases.endedBefore(ps.pts, ps.expiring)
	ps.expiring = nil
	sort.Ints(ids)
	wasIn := p.inProtocol
	p.inProtocol = true
	defer func() { p.inProtocol, ps.expiring = wasIn, ids[:0] }()
	for _, id := range ids {
		if old, ok := as.leases.get(id); ok && old.leaseEnd < ps.pts { // else refreshed while an earlier drop stalled
			t.drop(p, as, id, old, "expire")
		}
	}
}

// drop discards the agent's leased copy of the block, which holds the lease
// old, and emits a line event "runout" naming the cause: expire, tick or
// ll. The caller is in protocol code.
func (t *tardis) drop(p *Proc, as *tardisAgentState, id int, old tardisLease, cause string) {
	blk := t.s.blocks[id]
	if tr := t.s.tr(p); tr != nil {
		tr.Emit(trace.Event{T: p.Sim.Now(), Cat: "line", Ev: "runout", P: p.ID, Blk: id, S: cause})
	}
	if p.mem.table[blk.firstLine] == Shared {
		p.downgradeAgent(blk, Invalid, thenNothing, nil)
	}
	// A miss in flight installs a fresh copy with a fresh lease (the
	// record is overwritten at the reply); just forget this one.
	if l, still := as.leases.get(id); still && l == old {
		as.leases.del(id)
	}
}

// refreshLL drops a leased copy before the LL reads it, so the LL
// observes the current version and the SC currency check can succeed —
// otherwise an LL over a stale lease would fail its SC forever. Master
// and owned copies are already current and stay put. The block is the one
// the process's poll tick drops beside the oldest, and the fill that
// replaces the copy is no evidence that the agent is busy (pollTick).
func (t *tardis) refreshLL(p *Proc, line int) {
	blk := t.s.blockOf(line)
	as := t.astate(p.mem)
	t.pstate(p).ll = blk.id + 1
	old, ok := as.leases.get(blk.id)
	if !ok {
		return
	}
	wasIn := p.inProtocol
	p.inProtocol = true
	defer func() { p.inProtocol = wasIn }()
	as.leases.llDropped[blk.id] = true
	t.drop(p, as, blk.id, old, "ll")
}

// pollTick bounds how long a spin-wait can read a stale leased copy. Every
// tardisPollPeriod inline polls it decides, from what the process did since
// its previous tick, whether the process looks like a spinner; if its agent
// holds a leased copy, a line event "tick" names the decision:
//   - busy: the process took a shared fill, other than one replacing a copy
//     an LL dropped (by any process of the agent). It is still working
//     through data, not spinning on a copy.
//   - wrote: it took an exclusive fill, and the previous tick was not
//     skipped for one. A grant raises wpts, not pts, so a spin loop that
//     write-misses every turn would otherwise skip every tick.
//   - drop: neither. The agent drops the leased copy it installed longest
//     ago, and the copy of the block the process last LL'd, the word an LL
//     spinner reads.
//
// Dropping a copy early is always safe, and pts does not move, so no
// timestamp runs ahead of the data and spreads through grants and lock
// hand-offs. A re-fetched copy goes to the back of the order, so a spinner
// whose agent holds K older leases re-fetches its flag within K+1 dropping
// ticks, and an LL spinner its lock word on the first. DESIGN.md §6.10 gives
// the liveness argument.
func (t *tardis) pollTick(p *Proc) {
	ps, as := t.pstate(p), t.astate(p.mem)
	decision := "drop"
	switch {
	case ps.filled:
		decision = "busy"
	case ps.wrote && !ps.wroteSkip:
		decision = "wrote"
	}
	ps.filled, ps.wrote, ps.wroteSkip = false, false, decision == "wrote"
	id, ok := as.leases.oldest()
	if !ok {
		return
	}
	if tr := t.s.tr(p); tr != nil {
		tr.Emit(trace.Event{T: p.Sim.Now(), Cat: "line", Ev: "tick", P: p.ID, S: decision})
	}
	if decision != "drop" {
		return
	}
	wasIn := p.inProtocol
	p.inProtocol = true
	defer func() { p.inProtocol = wasIn }()
	old, _ := as.leases.get(id)
	t.drop(p, as, id, old, "tick")
	if ll := ps.ll - 1; ll >= 0 {
		if old, ok := as.leases.get(ll); ok {
			t.drop(p, as, ll, old, "tick")
		}
	}
}

func (t *tardis) syncTs(p *Proc) int64 { return t.pstate(p).storeTs() }

func (t *tardis) observeTs(p *Proc, ts int64) {
	t.advancePts(p, ts)
	// Sweep even when ts did not advance pts: the acquiring process may
	// already sit exactly at the release timestamp (it contributed the
	// barrier's max, or raced the releaser to the same pts) while its
	// agent still holds a lease that ended just below it — installed
	// after the last sweep, e.g. the demoted-owner self-lease a FwdRead
	// records. Reads ordered after an acquire must never hit such a
	// copy, so lease expiry is unconditional here; plain unsynchronized
	// reads keep their bounded-staleness semantics (pollTick). A MemBar
	// observes the process's own storeTs: a load after it follows the
	// stores before it.
	t.expire(p)
}

// checkExclusive is Tardis's half of single-writer. Leased copies beside
// the exclusive one are legal — they are bounded-stale — but the exclusive
// holder is the owner the home names, or the pending owner of a transfer in
// flight.
func (t *tardis) checkExclusive(s *System, line, excl int) *InvariantError {
	h := s.homes[s.blockOf(line).id]
	if excl != h.owner && !(h.busy && excl == h.pendingOwner) {
		return violated("swmr", "line %d exclusive at agent %d, but the home names agent %d owner", line, excl, h.owner)
	}
	return nil
}

// checkAgreement verifies home-entry/state-table agreement — what
// dir-agreement, the name both backends share so that one
// ExpConfig.Disabled applies to either, means under timestamps. Stale
// leased copies are legal (leases expire lazily), so what is checked is the
// structure that bounds the staleness: wts <= rts, the owner holds the
// exclusive copy, the home's copy is the master while nobody owns the
// block, and every other shared copy has a lease record within the home's
// timestamps. Tolerated in flight: a busy recall or transfer with its
// resolving message somewhere, and a copy Pending on its agent's miss.
func (t *tardis) checkAgreement(s *System, e *Explorer) *InvariantError {
	for _, blk := range s.blocks {
		te, h := t.entries[blk.id], s.homes[blk.id]
		if te.wts > te.rts {
			return violated("dir-agreement", "block %d has wts %d > rts %d", blk.id, te.wts, te.rts)
		}
		if h.busy && !e.busyJustified(blk.id) {
			return violated("dir-agreement", "block %d is busy with no forward, writeback or ownership transfer in flight", blk.id)
		}
		for line := blk.firstLine; line < blk.firstLine+blk.lines; line++ {
			for a, am := range s.agents {
				st := am.table[line]
				switch {
				case a == h.owner:
					// While busy the owner may already have handed its copy on.
					if st != Exclusive && !h.busy && !s.fillInFlight(a, blk, st) {
						return violated("dir-agreement", "block %d line %d: owner agent %d holds state %v", blk.id, line, a, st)
					}
				case a == blk.homeAgent && h.owner == -1:
					if st != Shared && !s.fillInFlight(a, blk, st) {
						return violated("dir-agreement", "block %d line %d: home master copy holds state %v", blk.id, line, st)
					}
				case a == blk.homeAgent:
					// The home's copies carry no lease: beside an owner one is
					// stale with nothing to bound it, unless it was filled by a
					// recall whose writeback has yet to land.
					if st == Shared && !h.busy {
						return violated("dir-agreement", "block %d line %d: home agent %d holds a shared copy while agent %d owns the block",
							blk.id, line, a, h.owner)
					}
				case st == Shared:
					l, ok := t.astate(am).leases.get(blk.id)
					if !ok {
						return violated("dir-agreement", "block %d line %d: agent %d holds a shared copy with no lease record", blk.id, line, a)
					}
					// While a recall is busy the recalled owner (and the
					// requester) may already hold the stamped lease, ahead of
					// the home adopting the stamped timestamps from the ShareWB
					// still in flight.
					if !h.busy && (l.dataWts > te.wts || l.leaseEnd > te.rts) {
						return violated("dir-agreement", "block %d line %d: agent %d lease (wts %d, end %d) outside home timestamps (wts %d, rts %d)",
							blk.id, line, a, l.dataWts, l.leaseEnd, te.wts, te.rts)
					}
				}
			}
		}
	}
	return nil
}

func (t *tardis) encodeBlock(e *Explorer, b *strings.Builder, blk *blockInfo, perm []int) {
	te := t.entries[blk.id]
	fmt.Fprintf(b, " w%d r%d", te.wts, te.rts)
	if te.sc {
		b.WriteString(" sc")
	}
}

func (t *tardis) encodeProcExtra(e *Explorer, b *strings.Builder, p *Proc, perm []int) {
	ps := t.pstate(p)
	fmt.Fprintf(b, " pts%d", ps.pts)
	if ps.wpts > ps.pts {
		fmt.Fprintf(b, " wpts%d", ps.wpts)
	}
	as := t.astate(p.mem)
	// The leases' install order, their LL-drop marks and the process's tick
	// evidence (tardisProcState.filled and the rest) only decide what a poll
	// tick does, and the explorer never polls: they are not part of the
	// state.
	for id := range as.leases.pos {
		if l, ok := as.leases.get(id); ok {
			fmt.Fprintf(b, " L%d:%d.%d", id, l.dataWts, l.leaseEnd)
		}
	}
	// The dirty records decide how future departures are stamped, so two
	// states differing only in them are distinct.
	ids := make([]int, 0, len(as.dirty))
	for id := range as.dirty {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(b, " D%d:%d", id, as.dirty[id])
	}
}

// histAt returns the word's value in the latest version at or before
// wts. Allocated shared memory starts zeroed, so the implicit initial
// version is (ts 0, value 0).
func (t *tardis) histAt(word int, wts int64) uint64 {
	var v uint64
	for _, ver := range t.hist[word] {
		if ver.ts > wts {
			break
		}
		v = ver.val
	}
	return v
}

// noteGhostStore keys each performed store by the writer's tenure grant
// timestamp: all stores of one exclusive tenure collapse into one
// version, exactly as a leaseholder that read the block between tenures
// would see them.
func (t *tardis) noteGhostStore(e *Explorer, pid, word int, val uint64) {
	s := e.sys
	p := s.procs[pid]
	blk := s.blockOf(word / s.wordsPerLine)
	ts := t.astate(p.mem).tenure[blk.id]
	h := t.hist[word]
	if n := len(h); n > 0 && h[n-1].ts == ts {
		h[n-1].val = val
	} else {
		t.hist[word] = append(h, tardisVersion{ts: ts, val: val})
	}
	if n := len(t.hist[word]); n > 1 && t.hist[word][n-1].ts < t.hist[word][n-2].ts {
		panic(fmt.Sprintf("core: tardis version history out of order for w%d", word))
	}
}

// expectedValue: owners, pending owners and the home's master copy are
// current. A read of a leased copy may legally return a stale value, but
// only the exact version its lease names, which only the explorer's history
// can say.
func (t *tardis) expectedValue(s *System, e *Explorer, a int, blk *blockInfo, word int, cur uint64) (uint64, bool) {
	h := s.homes[blk.id]
	if a == h.owner || (h.busy && h.pendingOwner == a) || a == blk.homeAgent {
		return cur, true
	}
	if e == nil {
		return 0, false
	}
	l, ok := t.astate(s.agents[a]).leases.get(blk.id)
	if !ok {
		// An unleased non-master copy is dir-agreement's to report; against
		// the current value here.
		return cur, true
	}
	return t.histAt(word, l.dataWts), true
}
