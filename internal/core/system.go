// Package core implements the Shasta distributed shared memory system of
// Scales & Gharachorloo (SOSP '97): fine-grained software coherence with
// in-line state checks, a directory-based invalidation protocol over a
// Memory Channel-style network, SMP-aware state management, transparent
// LL/SC and memory-barrier support, and the cluster process model needed to
// run complex applications such as databases.
//
// The system runs on a deterministic discrete-event simulation of an Alpha
// cluster (see internal/sim); guest code performs loads and stores through
// the Proc API, each of which executes the same in-line check logic the
// Shasta binary rewriter inserts into executables.
package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/memchannel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// queueBox couples a receive queue with the processes that serve it, in the
// order they were built: its process for a reply queue or a private request
// queue, the processes of its CPU for a CPU's queue, and those of its node
// for an agent's. The list is fixed when each process is built (newProc); a
// process waits on its boxes by setting its watching flag (watchQueues), so
// waiting costs neither a registration nor a scan. A flag needs no count:
// waits never nest, since a handler never stalls (stallWhile).
type queueBox struct {
	q       memchannel.Queue[msg]
	waiters []*Proc
}

func newQueueBox() *queueBox {
	return &queueBox{}
}

// put queues m and wakes, for its arrival, each process on the box that is
// watching its queues: one parked in a stretch at the first of its polls
// that can find m (Proc.wakeFor), not at the arrival, so that a node-mate
// that takes m before that poll spares it the wake (spare).
func (b *queueBox) put(m msg, arrive sim.Time, ord memchannel.Ord) {
	b.q.PutOrd(m, arrive, ord)
	for _, q := range b.waiters {
		if q.watching {
			q.Sim.NotifyAt(q.wakeFor(arrive))
		}
	}
}

// spare runs once p has taken a message from a box that several processes
// serve (a CPU's or an agent's): the other waiters, woken for it too, will
// find nothing, so each that is parked on its queues sleeps on to when it
// next has something to do (Proc.spareWake).
func (b *queueBox) spare(p *Proc) {
	for _, q := range b.waiters {
		if q != p && q.watching {
			q.spareWake()
		}
	}
}

// cpuState holds per-processor protocol state (the shared request queue of
// §4.3.2 when SharedQueues is enabled: the requests for processes on the CPU
// that are not their agent's; see System.requestBox).
type cpuState struct {
	reqQ *queueBox
	// procs counts the processes ever bound to this CPU; a process that
	// shares its CPU takes its polls one at a time (see Proc.Compute).
	procs int
}

// UserHandler services application-defined messages (the cluster OS layer
// uses these for fork, kill, signals and friends). It runs on the process
// that receives the message.
type UserHandler func(p *Proc, from int, tag int, payload any)

// System is one Shasta cluster: the simulation engine, the network, the
// shared-memory agents, and all processes.
type System struct {
	Cfg Config
	Eng *sim.Engine
	Net *memchannel.Network

	procs  []*Proc
	agents []*agentMem
	cpus   []*cpuState

	numLines     int // lines in the virtual shared region (SharedBytes)
	wordsPerLine int
	lineBlock    []int32 // line index -> block ID, -1 if unallocated; sized by growLines
	blocks       []*blockInfo
	homes        []homeEntry // per-block home record, beside blocks (home.go)
	allocCursor  int         // next free line
	homeRR       int
	// requester, SMP-Shasta only, is indexed [block*Nodes+node]: ID+1 of the
	// last process of the node whose request for the block the home served,
	// 0 for none. Sized by growLines; touched by the block's home alone.
	requester []uint8

	// proto is the coherence backend selected by Cfg.Protocol; it owns
	// the per-block home-side state that homes does not (see coherence.go).
	proto Protocol
	// pollTickEvery is the backend's poll period, set by its constructor: the
	// backend's pollTick runs on every pollTickEvery-th in-line poll of a
	// process (by its CntPolls), never if 0.
	pollTickEvery int64
	// pollEach makes Compute execute every back-edge poll as an event of
	// its own instead of in closed form (see Proc.Compute): set when the
	// engine has no lookahead, and by tests as the reference to compare
	// the closed form against.
	pollEach bool

	locks    []*lockState
	barriers []*barrierState

	userHandler UserHandler

	started bool

	// par holds the parallel-engine staging state when built WithEngine.
	par *parState

	// nodeProcs caches, per node, the processes on that node in spawn
	// order (exactly the s.procs order restricted to the node). It backs
	// localProcs in SMP mode, where the old per-call rebuild was the
	// single largest allocation source on the store/downgrade hot path.
	nodeProcs [][]*Proc
	// pooling enables the msg.data / MSHR free-list pools (see pool.go).
	// Off only under the model-checking explorer, which captures and
	// replays whole msg values, and in the pool's own audit tests.
	pooling bool

	tracer *trace.Tracer
	osObj  any // cluster OS layer when built WithOS

	deliveryCount int64 // messages offered to the wire (debug dup hook)

	// Model-checker hooks (see explore.go). mcCapture, when set,
	// intercepts every deliver: returning true claims the message (the
	// explorer owns delivery order). onStorePerform observes each store
	// performed against an agent copy (ghost-memory bookkeeping).
	// brokenSkipInvalAck enables a deliberately broken protocol variant —
	// the requester forgets one expected invalidation ack — used by the
	// counterexample-replay golden test. brokenHomeInval makes the home
	// wait for its node's miss before it invalidates its own copy, as it
	// did under the transition lock (the wedge of DESIGN.md §8 finding 9),
	// for the starved-miss probe's test.
	mcCapture          func(sender, dst *Proc, m msg) bool
	onStorePerform     func(p *Proc, addr, val uint64)
	brokenSkipInvalAck bool
	brokenHomeInval    bool

	// Reliability sublayer link state, indexed [srcNode*Nodes+dstNode]:
	// per-link sequence counters and receiver-side resequencers.
	linkSeq []int64
	reseq   []*linkReseq
}

type lockState struct {
	id      int // index in System.locks
	home    int // home process
	held    bool
	waiters []int // the process of each agent queued for the lock, in request order
	relTs   int64 // max protocol timestamp carried by releases (tardis)
	// slots is indexed by agent: each agent's part of the lock, kept in the
	// agent's memory.
	slots []lockSlot
}

// lockSlot is one agent's part of an MP lock: whether a process of the
// agent holds the lock or has asked the home for it, the node-mates queued
// behind that one, in request order, and the hand-offs within the agent
// since the lock arrived.
type lockSlot struct {
	busy    bool
	waiters []int
	streak  int
}

// barrierState is one MP barrier. Its participants are processes 0 to
// needed-1; the home's agent keeps the count, each agent its own slot.
type barrierState struct {
	id     int // index in System.barriers
	home   int
	needed int
	epoch  int
	// This episode at the home: participants counted, the max protocol
	// timestamp they carried (tardis), and the process that reported each
	// agent, in report order.
	count     int
	maxTs     int64
	reporters idList
	slots     []barrierSlot // by agent; sized by the first arrival
	sizing    sync.Once
}

// barrierSlot is one agent's part of a barrier episode, kept in the agent's
// memory: its arrivals, the last of which reports to the home.
type barrierSlot struct {
	need    int // participants on the agent
	arrived idList
	maxTs   int64
}

// slotOf returns p's agent's slot, sizing every slot on the first arrival
// of all.
func (b *barrierState) slotOf(p *Proc) *barrierSlot {
	s := p.sys
	b.sizing.Do(func() {
		if len(s.procs) < b.needed {
			panic(fmt.Sprintf("core: barrier %d has %d participants, but only %d processes exist at its first arrival", b.id, b.needed, len(s.procs)))
		}
		b.slots = make([]barrierSlot, len(s.agents))
		for _, q := range s.procs[:b.needed] {
			b.slots[q.agent].need++
		}
		for a := range b.slots {
			b.slots[a].arrived = newIDList(b.slots[a].need)
		}
		b.reporters = newIDList(len(b.slots))
	})
	if p.ID >= b.needed {
		panic(fmt.Sprintf("core: %s waits at barrier %d, whose participants are processes 0 to %d", p, b.id, b.needed-1))
	}
	return &b.slots[p.agent]
}

// idList is a fixed-capacity list of process IDs, kept in two buffers:
// take hands back one episode's entries and starts the next in the other
// buffer, so a release can walk one while the processes it has woken arrive
// again in the other. The next take comes only once all of them are back,
// after the walk.
type idList struct{ cur, next []int }

func newIDList(n int) idList { return idList{make([]int, 0, n), make([]int, 0, n)} }

func (l *idList) len() int { return len(l.cur) }

// add appends without growing: the capacity is the number of participants.
func (l *idList) add(id int) {
	l.cur = l.cur[:len(l.cur)+1]
	l.cur[len(l.cur)-1] = id
}

func (l *idList) take() []int {
	ids := l.cur
	l.cur, l.next = l.next[:0], ids
	return ids
}

// newSystem wires a system. immediate says that something above this
// package will act across nodes with no latency (the cluster OS does).
func newSystem(cfg Config, immediate bool) *System {
	cfg.validate()
	wd := cfg.WatchdogCycles
	if wd < 0 {
		wd = 0 // explicit disable
	}
	// The engine's lookahead: every cross-node effect of this package goes
	// over the Memory Channel, so one initiated at t lands no earlier than
	// t + WireLatency (occupancy and injected delay faults only add to
	// that). Dedicated protocol processes share CPUs with application
	// processes, which makes preemption points depend on the schedule, so
	// they run in strict global order like the cluster OS.
	lookahead := cfg.Net.WireLatency
	if immediate || cfg.ProtocolProcs {
		lookahead = 0
	}
	s := &System{
		Cfg: cfg,
		Eng: sim.NewEngine(sim.Config{
			Nodes:          cfg.Nodes,
			CPUsPerNode:    cfg.CPUsPerNode,
			Quantum:        cfg.Cost.Quantum,
			CtxSwitch:      cfg.Cost.CtxSwitch,
			MaxTime:        cfg.MaxTime,
			Lookahead:      lookahead,
			WatchdogCycles: wd,
		}),
		Net:          memchannel.NewNetwork(cfg.Nodes, cfg.Net),
		numLines:     cfg.SharedBytes / cfg.LineSize,
		wordsPerLine: cfg.LineSize / 8,
		nodeProcs:    make([][]*Proc, cfg.Nodes),
		pooling:      true,
		pollEach:     lookahead == 0,
	}
	if cfg.SMP {
		for n := 0; n < cfg.Nodes; n++ {
			s.newAgent()
		}
	}
	for i := 0; i < s.Eng.NumCPUs(); i++ {
		s.cpus = append(s.cpus, &cpuState{reqQ: newQueueBox()})
	}
	s.Net.SetFaults(cfg.Faults)
	s.linkSeq = make([]int64, cfg.Nodes*cfg.Nodes)
	s.reseq = make([]*linkReseq, cfg.Nodes*cfg.Nodes)
	for i := range s.reseq {
		s.reseq[i] = &linkReseq{}
	}
	s.Eng.SetDumpHook(s.dumpProtocolState)
	s.Eng.SetStarveProbe(s.starvedMiss)
	s.proto = newProtocol(s)
	return s
}

// NumProcs returns the number of spawned processes.
func (s *System) NumProcs() int { return len(s.procs) }

// Procs returns all processes.
func (s *System) Procs() []*Proc { return s.procs }

// Proc returns the process with the given ID.
func (s *System) Proc(id int) *Proc { return s.procs[id] }

// SetUserHandler installs the handler for user messages.
func (s *System) SetUserHandler(h UserHandler) { s.userHandler = h }

// agentOf returns the coherence agent index of a process: its node in
// SMP-Shasta, itself in Base-Shasta.
func (s *System) agentOf(p *Proc) int {
	if s.Cfg.SMP {
		return p.node
	}
	return p.ID
}

// noteRequester records, as the block's home serves a request, that req is
// the last process of its node to have asked for the block.
func (s *System) noteRequester(blk *blockInfo, req *Proc) {
	if s.Cfg.SMP {
		s.requester[blk.id*s.Cfg.Nodes+req.node] = uint8(req.ID + 1)
	}
}

// requesterOf returns the process the home sends a forward, recall or
// invalidation for the agent's copy to: the one noteRequester recorded, which
// most likely holds the line in its private table and need downgrade nobody
// (Base-Shasta: the agent is the process). An agent holds a copy only through
// a request the home served, and the home's own node is never sent to, so an
// empty record is a protocol bug.
func (s *System) requesterOf(blk *blockInfo, agent int) *Proc {
	if !s.Cfg.SMP {
		return s.procs[agent]
	}
	id := s.requester[blk.id*s.Cfg.Nodes+agent]
	if id == 0 {
		panic(fmt.Sprintf("core: block %d: the home served no request from node %d, yet sends to it", blk.id, agent))
	}
	return s.procs[id-1]
}

// localProcs returns processes sharing the agent's memory (SMP: the node's
// processes; Base: just the one process). The SMP answer comes from the
// nodeProcs cache maintained by spawn — rebuilding it per call allocated
// on every store's LL-reset sweep.
func (s *System) localProcs(agent int) []*Proc {
	if !s.Cfg.SMP {
		return s.procs[agent : agent+1]
	}
	return s.nodeProcs[agent]
}

// Spawn creates an application process on the given global CPU. It may be
// called before Run or, for dynamic process creation (§4.3), from a running
// process via the cluster OS layer.
func (s *System) Spawn(name string, cpu int, body func(*Proc)) *Proc {
	return s.spawn(name, cpu, 0, 0, body)
}

// SpawnAt creates a process starting at the given simulated time.
func (s *System) SpawnAt(name string, cpu int, start sim.Time, body func(*Proc)) *Proc {
	return s.spawn(name, cpu, 0, start, body)
}

// newProc makes the next process, on the given CPU, gives it its memory and
// queues, and puts it on the waiter list of each queue it serves (queueBox);
// the sim.Proc is the caller's to attach.
func (s *System) newProc(name string, cpu int) *Proc {
	if s.Cfg.SMP && len(s.procs) >= math.MaxUint8 {
		panic("core: SMP-Shasta takes at most 255 processes (the requester record is a byte each)")
	}
	p := &Proc{
		ID:           len(s.procs),
		Name:         name,
		sys:          s,
		node:         s.Eng.NodeOf(cpu),
		cpu:          cpu,
		replyQ:       newQueueBox(),
		mshr:         make(map[int]*mshrEntry),
		granted:      make([]bool, len(s.locks)),
		barrierSeen:  make([]int, len(s.barriers)),
		barrierWaits: make([]int, len(s.barriers)),
		pinnedLines:  make(map[int]bool),
		quiet:        quietPlan{line: -1},
		seed:         s.Cfg.Seed + int64(len(s.procs))*7919,
	}
	if !s.Cfg.SharedQueues {
		p.reqQ = newQueueBox()
	}
	if s.Cfg.SMP {
		p.mem = s.agents[p.node]
	} else {
		p.mem = s.newAgent() // each process is its own agent
	}
	s.sizePriv(p)
	p.agent = s.agentOf(p)
	p.replyQ.waiters = append(p.replyQ.waiters, p)
	box := p.procBox()
	box.waiters = append(box.waiters, p)
	if a := p.mem.reqQ; a != nil {
		a.waiters = append(a.waiters, p)
	}
	s.procs = append(s.procs, p)
	s.nodeProcs[p.node] = append(s.nodeProcs[p.node], p)
	s.cpus[cpu].procs++
	return p
}

func (s *System) spawn(name string, cpu, priority int, start sim.Time, body func(*Proc)) *Proc {
	p := s.newProc(name, cpu)
	wrapped := func(sp *sim.Proc) {
		p.Sim = sp
		sp.Data = p
		body(p)
		p.exited = true
		p.serveAfterExit()
	}
	p.Sim = s.Eng.SpawnAt(name, cpu, priority, start, wrapped)
	p.Sim.Data = p
	return p
}

// spawnProtocolProcs creates one low-priority protocol process per CPU
// (§4.3.2's general solution). It has no program: it serves its CPU's and
// its agent's requests from the start, as an exited process does, parked off
// its CPU until a put wakes it, and dispatch runs an application process
// ready at the same time first, so it gets the CPU only when every
// application process on it is blocked, descheduled or done.
func (s *System) spawnProtocolProcs() {
	for cpu := 0; cpu < s.Eng.NumCPUs(); cpu++ {
		s.spawn(fmt.Sprintf("proto%d", cpu), cpu, 1, 0, func(*Proc) {})
	}
}

// Run executes the cluster until all application processes have finished
// and no process has protocol work left. A run that ends otherwise with
// work left over fails with a QuiescenceError; one that ends at rest is
// held to the whole invariant catalogue.
func (s *System) Run() error {
	if s.started {
		return fmt.Errorf("core: system already ran")
	}
	s.started = true
	if s.Cfg.ProtocolProcs {
		s.spawnProtocolProcs()
	}
	err := s.Eng.Run()
	// Commit any staged state left from the final parallel window (and
	// trace events emitted during tear-down) before accounting runs.
	s.finishParallel()
	if err == nil {
		err = s.quiescent()
	}
	if err == nil {
		err = s.CheckInvariants()
	}
	if s.tracer != nil {
		// Emit final accounting even on error so stall dumps can be analyzed.
		s.emitStats()
		if ferr := s.tracer.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	return err
}

// lineOf converts a shared address to a line index.
func (s *System) lineOf(addr uint64) int {
	if addr < SharedBase {
		panic(fmt.Sprintf("core: address %#x is not shared", addr))
	}
	off := addr - SharedBase
	line := int(off / uint64(s.Cfg.LineSize))
	if line >= s.allocCursor {
		// Past the arrays growLines sized: fail by name, not by index.
		if off >= uint64(s.Cfg.SharedBytes) {
			panic(fmt.Sprintf("core: shared address %#x out of range", addr))
		}
		panic(fmt.Sprintf("core: line %d not allocated", line))
	}
	return line
}

// wordOf converts a shared address to a word index in an agent copy, on a
// path that has already passed the address through lineOf.
func (s *System) wordOf(addr uint64) int {
	return int(addr-SharedBase) / 8
}

// allocWord is wordOf for a path that indexes an agent copy without
// calling lineOf: it compares the word index with the allocated prefix,
// which takes no division by the line size, and an address past it gets
// lineOf's panic before any array is indexed.
func (s *System) allocWord(addr uint64) int {
	w := (addr - SharedBase) / 8
	if w >= uint64(s.allocCursor*s.wordsPerLine) {
		s.lineOf(addr) // panics: not shared, out of range or not allocated
	}
	return int(w)
}

// blockOf returns the block containing the given line.
func (s *System) blockOf(line int) *blockInfo {
	b := s.lineBlock[line]
	if b < 0 {
		panic(fmt.Sprintf("core: line %d not allocated", line))
	}
	return s.blocks[b]
}

// AllocOptions controls shared-memory allocation.
type AllocOptions struct {
	// BlockLines is the coherence block size in lines; 0 means one.
	// Shasta supports different block sizes for different data (§2.1).
	BlockLines int
	// Home is the block's home process. The zero value spreads the blocks
	// round-robin over every process, so no one process serves every miss
	// (§2.1); HomeAt fixes one.
	Home Home
}

// Home names a home process; only HomeAt makes one, so an explicit home
// cannot be mistaken for the round-robin default.
type Home struct{ procPlus1 int }

// HomeAt homes every block of an allocation at the given process.
func HomeAt(proc int) Home {
	if proc < 0 {
		panic(fmt.Sprintf("core: HomeAt(%d): negative process", proc))
	}
	return Home{proc + 1}
}

// Alloc carves bytes out of the shared region, creating coherence blocks
// and assigning homes. The home's copy starts exclusive and zeroed. A
// running process may call it on the built-in driver (see growLines).
func (s *System) Alloc(bytes int, opts AllocOptions) uint64 {
	if bytes <= 0 {
		panic("core: Alloc of non-positive size")
	}
	blockLines := max(opts.BlockLines, 1)
	blockBytes := blockLines * s.Cfg.LineSize
	nblocks := (bytes + blockBytes - 1) / blockBytes
	startLine := s.allocCursor
	if startLine+nblocks*blockLines > s.numLines {
		panic(fmt.Sprintf("core: shared region exhausted (%d lines)", s.numLines))
	}
	if s.started && s.par != nil {
		panic("core: Alloc during a run under WithEngine(parallel): it mutates the block list and reallocates every agent's memory, which other shards are reading; allocate before Run, or use the built-in driver")
	}
	s.growLines(startLine + nblocks*blockLines)
	for b := 0; b < nblocks; b++ {
		home := opts.Home.procPlus1 - 1
		if home < 0 {
			home = s.nextHome()
		}
		blk := &blockInfo{
			id:        len(s.blocks),
			home:      home,
			homeAgent: s.agentOf(s.procs[home]),
			firstLine: startLine + b*blockLines,
			lines:     blockLines,
		}
		s.blocks = append(s.blocks, blk)
		s.homes = append(s.homes, homeEntry{owner: blk.homeAgent, pendingOwner: -1, mig: migEntry{writer: -1, reader: noReader}})
		s.proto.initBlock(blk)
		mem := s.agents[blk.homeAgent]
		for l := blk.firstLine; l < blk.firstLine+blk.lines; l++ {
			s.lineBlock[l] = int32(blk.id)
			mem.table[l] = Exclusive
			base := l * s.wordsPerLine
			for w := 0; w < s.wordsPerLine; w++ {
				mem.data[base+w] = 0
			}
		}
	}
	s.allocCursor = startLine + nblocks*blockLines
	return SharedBase + uint64(startLine*s.Cfg.LineSize)
}

func (s *System) nextHome() int {
	if len(s.procs) == 0 {
		panic("core: Alloc before any process spawned needs a HomeAt")
	}
	h := s.homeRR % len(s.procs)
	s.homeRR++
	return h
}

// NewLock creates a message-passing lock homed at the given process, with
// a slot for each agent (newAgent adds the slots of agents made later).
func (s *System) NewLock(home int) int {
	id := len(s.locks)
	lk := &lockState{id: id, home: home, slots: make([]lockSlot, len(s.agents))}
	s.locks = append(s.locks, lk)
	for _, p := range s.procs {
		p.granted = append(p.granted, false)
	}
	return id
}

// NewBarrier creates a message-passing barrier for n participants, homed
// at the given process. The participants are processes 0 to n-1, which must
// all exist by the first arrival.
func (s *System) NewBarrier(home, n int) int {
	id := len(s.barriers)
	s.barriers = append(s.barriers, &barrierState{id: id, home: home, needed: n})
	for _, p := range s.procs {
		p.barrierSeen = append(p.barrierSeen, 0)
		p.barrierWaits = append(p.barrierWaits, 0)
	}
	return id
}

// snapshotSource returns the agent whose copy of the line is authoritative
// for host-side reads (Peek, SnapshotShared) and for the live catalogue's
// current value: the owner's while it holds the block exclusive, the home's
// master copy otherwise. Leaseholders and sharers never are.
func (s *System) snapshotSource(line int) int {
	blk := s.blockOf(line)
	if owner := s.homes[blk.id].owner; owner >= 0 && s.agents[owner].table[blk.firstLine] == Exclusive {
		return owner
	}
	return blk.homeAgent
}

// Peek reads a shared word from the authoritative copy of its line; it is
// a host-side debugging/verification aid, not a guest operation.
func (s *System) Peek(addr uint64) uint64 {
	line := s.lineOf(addr)
	return s.agents[s.snapshotSource(line)].data[s.wordOf(addr)]
}

// SnapshotShared returns the final contents of every allocated shared
// word, each resolved like Peek through the authoritative copy. It is the
// chaos harness's equivalence check — two runs of the same workload must
// produce identical snapshots.
func (s *System) SnapshotShared() []uint64 {
	out := make([]uint64, s.allocCursor*s.wordsPerLine)
	for line := 0; line < s.allocCursor; line++ {
		src := s.snapshotSource(line)
		base := line * s.wordsPerLine
		copy(out[base:base+s.wordsPerLine], s.agents[src].data[base:base+s.wordsPerLine])
	}
	return out
}

// AggregateStats sums the statistics of all processes.
func (s *System) AggregateStats() Stats {
	var total Stats
	for _, p := range s.procs {
		total.Add(&p.stats)
	}
	return total
}

// Busiest returns the process that spent the most cycles handling messages
// (CatMessage; the lowest ID on a tie), with its share of the messages the
// system handled and of those cycles. Homes spread over the processes keep
// both near 1/len(Procs); a home hot spot shows here first.
func (s *System) Busiest() (busiest *Proc, msgShare, cycleShare float64) {
	return busiestOf(s.procs)
}

// BusiestInNode is Busiest among one node's processes, its cycles as a
// multiple of its node-mates' mean (nil and 0 without mates). Messages for a
// node's copy of a block go to the process that asked for it, which keeps
// this near 1 unless the mates are homes of different things; sent to the
// node's first process they made it 4. The ratio is 0, for none, when the
// node-mates' mean is 0: a handler run inside a stall charges the stall, so
// mates that handled messages only while stalled spent no handler cycles.
func (s *System) BusiestInNode(node int) (busiest *Proc, ratio float64) {
	mates := s.nodeProcs[node]
	if len(mates) < 2 {
		return nil, 0
	}
	busiest, _, share := busiestOf(mates)
	if share >= 1 {
		return busiest, 0
	}
	return busiest, share * float64(len(mates)-1) / (1 - share)
}

func busiestOf(procs []*Proc) (busiest *Proc, msgShare, cycleShare float64) {
	var total Stats
	busiest = procs[0]
	for _, p := range procs {
		total.Add(&p.stats)
		if p.stats.Time[CatMessage] > busiest.stats.Time[CatMessage] {
			busiest = p
		}
	}
	share := func(part, whole int64) float64 {
		if whole == 0 {
			return 0
		}
		return float64(part) / float64(whole)
	}
	return busiest, share(busiest.stats.MessagesHandled(), total.MessagesHandled()),
		share(int64(busiest.stats.Time[CatMessage]), int64(total.Time[CatMessage]))
}

// requestBox returns the queue that carries a request of kind k for process
// p. Without shared queues it is p's own. With them, a request for state in
// agent memory (msgKind.toAgent) goes to p's agent's queue, which whichever
// process of the agent polls first serves; any other goes to p's CPU's queue
// (§4.3.2): a forward or invalidation names the process that asked for the
// block, which holds the copy and downgrades itself without a message.
func (s *System) requestBox(p *Proc, k msgKind) *queueBox {
	if k.toAgent() && p.mem.reqQ != nil {
		return p.mem.reqQ
	}
	return p.procBox()
}

// deliver routes message m from sender to another process dst, computing
// network latency and charging the sender's send cost; Proc.send is its one
// caller. With ReliableDelivery on, inter-node messages are sequenced and
// registered for retransmission until acknowledged (net acks themselves
// are not).
func (s *System) deliver(sender *Proc, dst *Proc, m *msg, cat TimeCategory) {
	if s.mcCapture != nil && s.mcCapture(sender, dst, *m) {
		return
	}
	if m.kind != msgNetAck && sender.reliable(dst) {
		m.seq = sender.assignSeq(dst)
		if m.data != nil {
			// The retransmit entry keeps referencing the data buffer, so
			// the receiver must not recycle it (see pool.go).
			m.retained = true
		}
	}
	s.sendWire(sender, dst, m, cat)
	if m.seq != 0 {
		sender.trackRetx(dst, *m)
	}
}

// sendWire transmits m (an original send or a retransmission): it charges
// the send cost, runs the network — including any injected faults — and
// enqueues whatever copies survive the wire.
func (s *System) sendWire(sender *Proc, dst *Proc, m *msg, cat TimeCategory) {
	sender.charge(cat, s.Cfg.Cost.MsgSend)
	if s.Cfg.SharedQueues {
		sender.charge(cat, s.Cfg.Cost.QueueLock)
	}
	sender.stats.N[CntMessagesSent]++
	size := m.wireSize(s.Cfg.LineSize)
	now := sender.Sim.Now()
	a1, a2, copies := s.Net.Send(sender.node, dst.node, size, now)
	box := dst.replyQ
	if !m.kind.isReply() {
		box = s.requestBox(dst, m.kind)
	}
	arrive := a1
	if copies == 0 {
		arrive = 0 // dropped: never arrives
	}
	// Under a parallel engine, cross-node traffic is staged and committed
	// at the next window barrier; it arrives at or past the horizon, so no
	// shard could have observed it within the current window anyway.
	staging := s.parActive() && sender.node != dst.node
	// The copies to enqueue, in order: the wire's first and second, then a
	// test-injected duplicate of a sequenced message.
	arrivals := [3]sim.Time{a1, a2}
	n := copies
	if m.seq != 0 && !staging && debugForceDup != nil && copies >= 1 && debugForceDup(s.deliveryCount) {
		arrivals[n] = a1 + 500
		n++
	}
	for _, at := range arrivals[:n] {
		// Sequenced traffic goes through the destination node's link
		// resequencer, which restores FIFO order before the queues (and
		// assigns the canonical (link, seq) ordering key itself). Any other
		// copy gets a canonical ordering key (send time, sender, per-sender
		// sequence): queue order among equal arrival times is then a
		// property of the messages, not of enqueue order, which is what lets
		// the built-in driver put cross-node traffic straight into the queue
		// from whichever node's window runs first, and a parallel engine
		// commit staged traffic at window barriers, without replaying the
		// enqueue sequence of strict global order.
		var ord memchannel.Ord
		if m.seq == 0 {
			ord = sender.nextOrd(now)
		}
		switch {
		case staging:
			s.stagePut(sender.node, dst, *m, box, at, ord)
		case m.seq != 0:
			s.reseqEnqueue(sender.node, dst, *m, box, at)
		default:
			mm := *m
			mm.arrive = at
			box.put(mm, at, ord)
		}
	}
	if !s.parActive() {
		s.deliveryCount++ // debug-hook cursor; meaningful sequentially only
	}
	if t := s.tr(sender); t != nil {
		t.Emit(trace.Event{
			T: now, Cat: "msg", Ev: "send",
			P: sender.ID, O: dst.ID, Blk: m.block, S: m.kind.String(),
			A: arrive, B: int64(size),
		})
	}
}
