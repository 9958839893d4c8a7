package core

// This file is the model checker's exploration engine (see
// internal/modelcheck). Rather than checking a hand-transcribed
// abstraction of the coherence protocol, the explorer drives the *real*
// implementation — the access paths Proc.Load, Store, LoadLocked,
// StoreCond and MemBar, and Proc.handleMessage — as an explicit-state
// transition system:
//
//   - Each process runs a tiny straight-line program of shared-memory
//     operations through those entry points, as the body of an external
//     sim.Proc (sim.Engine.ExternalProc) that the scheduler never runs.
//     A step resumes the body for one operation. An operation that misses
//     stalls as it would in a run, parked in stallWhile's Wait, and settle
//     resumes it once a delivery has completed its miss. Which steps are
//     enabled is the explorer's rule (stepEnabled): an operation whose
//     first instruction would stall is not.
//   - System.mcCapture intercepts every deliver() call, so messages land
//     in per-link FIFO channels owned by the explorer instead of the
//     simulated wire. Delivering a captured message is an explicit
//     transition; its handler runs on the explorer's goroutine.
//
// The abstraction is exact for Base-Shasta (SMP off): handlers never
// block, a process's downgrade is of its own table alone, and cross-agent
// shared state (the directory) is touched only by its home's handlers, so
// every real execution corresponds to some sequence of these atomic steps
// and vice versa.
//
// Channel model: the Memory Channel delivers messages on one (src,dst)
// link in FIFO order, but the receiver services its reply queue before
// its request queue (Proc.serviceReady), so a reply may be handled
// before an earlier-sent request from the same link, while requests
// never overtake anything and replies never reorder among themselves.
// Enabled deliveries on a link are therefore the head of the link queue
// plus the first reply-class message behind a request-class prefix.
//
// A ghost memory records, per shared word, the last performed store and
// per-process write counts; it backs the data-value and LL/SC-atomicity
// invariants.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/memchannel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ExpOpKind enumerates the shared-memory operations a model-checked
// process can perform.
type ExpOpKind int

const (
	ExpRead ExpOpKind = iota
	ExpWrite
	ExpLL
	ExpSC
	ExpMemBar
)

// ExpOp is one operation of a model-checked process's program. Word is a
// global shared-word index; Val is the stored value (ExpWrite, ExpSC).
type ExpOp struct {
	Kind ExpOpKind
	Word int
	Val  uint64
}

func (o ExpOp) String() string {
	switch o.Kind {
	case ExpRead:
		return fmt.Sprintf("R w%d", o.Word)
	case ExpWrite:
		return fmt.Sprintf("W w%d=%d", o.Word, o.Val)
	case ExpLL:
		return fmt.Sprintf("LL w%d", o.Word)
	case ExpSC:
		return fmt.Sprintf("SC w%d=%d", o.Word, o.Val)
	case ExpMemBar:
		return "MB"
	}
	return "?"
}

// ExpConfig describes one model: the per-process programs, the coherence
// blocks (one line each; Homes[i] is block i's home process), and the
// consistency model. Broken selects the deliberately buggy
// skip-one-InvalAck protocol variant used by counterexample tests.
type ExpConfig struct {
	Programs     [][]ExpOp
	Homes        []int
	WordsPerLine int // default 2
	Consistency  ConsistencyModel
	Broken       bool
	// Protocol names the coherence backend to explore ("dirinval",
	// "tardis"); empty selects "dirinval".
	Protocol string
	// Disabled names invariants to skip ("swmr", "data-value",
	// "dir-agreement", "flag-fill", "bounded", "fwd-owner", "llsc").
	Disabled map[string]bool
}

// ExpAction is one transition: either a process step (issue/complete the
// process's next operation) or the delivery of a captured message.
type ExpAction struct {
	Step bool
	Proc int // Step: process ID
	Src  int // delivery: link source process
	Dst  int // delivery: link destination process
	Idx  int // delivery: index within the link queue
}

func (a ExpAction) String() string {
	if a.Step {
		return fmt.Sprintf("p%d", a.Proc)
	}
	return fmt.Sprintf("d%d>%d#%d", a.Src, a.Dst, a.Idx)
}

// ParseExpAction parses the String form of an action (replay files).
func ParseExpAction(s string) (ExpAction, error) {
	if strings.HasPrefix(s, "p") {
		n, err := strconv.Atoi(s[1:])
		if err != nil {
			return ExpAction{}, fmt.Errorf("bad action %q: %v", s, err)
		}
		return ExpAction{Step: true, Proc: n}, nil
	}
	var a ExpAction
	if _, err := fmt.Sscanf(s, "d%d>%d#%d", &a.Src, &a.Dst, &a.Idx); err != nil {
		return ExpAction{}, fmt.Errorf("bad action %q: %v", s, err)
	}
	return a, nil
}

type ghostWord struct {
	val     uint64
	version int64   // total performed stores
	writes  []int64 // performed stores per process
}

// expAwait is a stalled operation: what it is (see awaitKinds) and the
// block whose miss it waits on.
type expAwait struct {
	kind byte
	blk  *blockInfo
}

type expProc struct {
	p     *Proc
	prog  []ExpOp
	pc    int
	await *expAwait
	regs  []uint64 // observed values (reads, LLs) and SC results (1/0)

	// Ghost LL reservation: others' write count to llWord at the LL.
	llGhostValid bool
	llWord       int
	llOthers     int64
}

// Explorer drives the protocol as an explicit-state transition system.
type Explorer struct {
	cfg    ExpConfig
	sys    *System
	eps    []*expProc
	chans  map[[2]int][]msg
	ghost  []ghostWord
	events []trace.Event
	viol   *InvariantError
	perms  [][]int // proc-ID permutations for symmetry reduction
}

// NewExplorer builds the initial state of a model. The same config always
// yields the same initial state, and Apply is deterministic, so a path of
// actions is a complete replay seed.
func NewExplorer(c ExpConfig) *Explorer {
	if c.WordsPerLine <= 0 {
		c.WordsPerLine = 2
	}
	n := len(c.Programs)
	if n == 0 {
		panic("core: explorer needs at least one process")
	}
	for _, h := range c.Homes {
		if h < 0 || h >= n {
			panic(fmt.Sprintf("core: explorer home %d out of range", h))
		}
	}
	lineSize := 8 * c.WordsPerLine
	cfg := Config{
		Nodes:       n,
		CPUsPerNode: 1,
		LineSize:    lineSize,
		SharedBytes: lineSize * len(c.Homes),
		SMP:         false,
		Consistency: c.Consistency,
		FlagCheck:   true,
		Checks:      true,
		Protocol:    c.Protocol,
		Cost:        DefaultCostModel(),
		Net:         memchannel.DefaultConfig(),
		Seed:        1,
	}
	s := newSystem(cfg, false)
	// The explorer holds captured messages, data buffers included, in its
	// channels for as long as it likes; free-list reuse would let distinct
	// logical states share storage, so pooling is always off here.
	s.pooling = false
	s.brokenSkipInvalAck = c.Broken
	e := &Explorer{cfg: c, sys: s, chans: make(map[[2]int][]msg)}
	for i := range c.Programs {
		ep := &expProc{prog: c.Programs[i], llWord: -1}
		ep.p = s.spawnExternal(fmt.Sprintf("mc%d", i), i, func(*sim.Proc) { e.run(ep) })
		e.eps = append(e.eps, ep)
	}
	for _, home := range c.Homes {
		s.Alloc(lineSize, AllocOptions{Home: HomeAt(home)})
	}
	e.ghost = make([]ghostWord, len(c.Homes)*c.WordsPerLine)
	for i := range e.ghost {
		e.ghost[i].writes = make([]int64, n)
	}
	s.mcCapture = func(sender, dst *Proc, m msg) bool {
		key := [2]int{sender.ID, dst.ID}
		e.chans[key] = append(e.chans[key], m)
		return true
	}
	s.onStorePerform = func(p *Proc, addr, val uint64) {
		e.ghostStore(p.ID, addr, val)
	}
	e.perms = symmetryPerms(c)
	return e
}

// spawnExternal constructs a Base-Shasta process that the scheduler never
// runs (sim.Engine.ExternalProc): its body runs only when stepped, and
// handlers delivered to it run synchronously on the caller. Model checking
// only.
func (s *System) spawnExternal(name string, cpu int, body func(*sim.Proc)) *Proc {
	if s.Cfg.SMP {
		panic("core: external processes require Base-Shasta (SMP off)")
	}
	p := s.newProc(name, cpu)
	p.Sim = s.Eng.ExternalProc(name, cpu, body)
	p.Sim.Data = p
	return p
}

func (e *Explorer) addrOf(word int) uint64 { return SharedBase + uint64(word)*8 }

func (e *Explorer) blkOf(word int) *blockInfo {
	return e.sys.blockOf(e.sys.lineOf(e.addrOf(word)))
}

func (e *Explorer) ghostStore(pid int, addr, val uint64) {
	word := e.sys.wordOf(addr)
	g := &e.ghost[word]
	g.val = val
	g.version++
	g.writes[pid]++
	e.sys.proto.noteGhostStore(e, pid, word, val)
}

// linkKeys returns the non-empty link keys in deterministic order.
func (e *Explorer) linkKeys() [][2]int {
	keys := make([][2]int, 0, len(e.chans))
	for k, q := range e.chans {
		if len(q) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}

// Enabled returns every transition possible in the current state, in a
// fixed deterministic order.
func (e *Explorer) Enabled() []ExpAction {
	var out []ExpAction
	for i, ep := range e.eps {
		if e.stepEnabled(ep) {
			out = append(out, ExpAction{Step: true, Proc: i})
		}
	}
	for _, k := range e.linkKeys() {
		q := e.chans[k]
		out = append(out, ExpAction{Src: k[0], Dst: k[1], Idx: 0})
		if !q[0].kind.isReply() {
			for i := 1; i < len(q); i++ {
				if q[i].kind.isReply() {
					out = append(out, ExpAction{Src: k[0], Dst: k[1], Idx: i})
					break
				}
			}
		}
	}
	return out
}

// stepEnabled is the interleaving rule the pinned state counts rest on: a
// process's next operation is enabled only when its first instruction would
// not stall. One that would stall behind a miss outstanding for its block
// waits until a delivery completes the miss; the real code would stall
// there and resume at once.
func (e *Explorer) stepEnabled(ep *expProc) bool {
	if ep.await != nil || ep.pc >= len(ep.prog) {
		return false
	}
	op := ep.prog[ep.pc]
	p := ep.p
	switch op.Kind {
	case ExpMemBar:
		return p.outstanding == 0
	case ExpRead:
		if p.mshr[e.blkOf(op.Word).id] != nil {
			_, ok := p.forwardedStore(e.addrOf(op.Word))
			return ok
		}
		return true
	case ExpLL:
		return p.mshr[e.blkOf(op.Word).id] == nil
	case ExpWrite:
		if m := p.mshr[e.blkOf(op.Word).id]; m != nil {
			return m.wantExcl
		}
		return true
	case ExpSC:
		return true
	}
	return false
}

// Apply executes one transition and then settles: any process whose
// awaited miss completed finishes its operation within the same atomic
// step, exactly as stallWhile resumes immediately after the completing
// handler returns in the real implementation.
func (e *Explorer) Apply(a ExpAction) {
	if a.Step {
		e.applyStep(a.Proc)
	} else {
		e.applyDeliver(a)
	}
	e.settle()
}

func (e *Explorer) applyDeliver(a ExpAction) {
	key := [2]int{a.Src, a.Dst}
	q := e.chans[key]
	if a.Idx < 0 || a.Idx >= len(q) {
		panic(fmt.Sprintf("core: explorer delivery %v out of range (queue %d)", a, len(q)))
	}
	if a.Idx > 0 {
		if !q[a.Idx].kind.isReply() {
			panic(fmt.Sprintf("core: explorer delivery %v would reorder a request", a))
		}
		for j := 0; j < a.Idx; j++ {
			if q[j].kind.isReply() {
				panic(fmt.Sprintf("core: explorer delivery %v would reorder replies", a))
			}
		}
	}
	m := q[a.Idx]
	rest := make([]msg, 0, len(q)-1)
	rest = append(rest, q[:a.Idx]...)
	rest = append(rest, q[a.Idx+1:]...)
	e.chans[key] = rest
	e.events = append(e.events, trace.Event{
		Cat: "mc", Ev: "deliver", P: a.Dst, O: a.Src, Blk: m.block, S: m.kind.String(),
	})
	e.sys.procs[a.Dst].handleMessage(&m, CatMessage, 0)
}

func (e *Explorer) applyStep(pid int) {
	ep := e.eps[pid]
	if !e.stepEnabled(ep) {
		panic(fmt.Sprintf("core: explorer step p%d not enabled", pid))
	}
	op := ep.prog[ep.pc]
	e.events = append(e.events, trace.Event{Cat: "mc", Ev: "op", P: pid, S: op.String()})
	aw := &expAwait{kind: awaitKinds[op.Kind], blk: e.blkOf(op.Word)}
	if op.Kind == ExpWrite && ep.p.mshr[aw.blk.id] != nil {
		aw.kind = 'm'
	}
	e.resume(ep, aw)
}

// awaitKinds names what an operation that stalls awaits; a store that
// merges into a miss in flight awaits as 'm' instead.
var awaitKinds = [...]byte{ExpRead: 'r', ExpWrite: 'w', ExpLL: 'l', ExpSC: 'c', ExpMemBar: 'b'}

// resume runs the process's body until it blocks. Its operation has then
// either completed, or stalled in stallWhile on its block's miss, and awaits
// the delivery that completes it.
func (e *Explorer) resume(ep *expProc, aw *expAwait) {
	pc := ep.pc
	ep.p.Sim.Step()
	ep.await = nil
	if ep.pc == pc {
		if ep.p.mshr[aw.blk.id] == nil {
			panic(fmt.Sprintf("core: explorer p%d stalled with no miss on block %d", ep.p.ID, aw.blk.id))
		}
		ep.await = aw
	}
}

// run is a process's body: its program, through the real entry points, one
// operation per step. Between operations it waits for the next step.
func (e *Explorer) run(ep *expProc) {
	for i, op := range ep.prog {
		if i > 0 {
			ep.p.Sim.Wait()
		}
		e.perform(ep, op)
		ep.pc++
	}
}

func (e *Explorer) perform(ep *expProc, op ExpOp) {
	p, addr := ep.p, e.addrOf(op.Word)
	switch op.Kind {
	case ExpRead:
		_, forwarded := p.forwardedStore(addr)
		e.observe(ep, op, p.Load(addr), !forwarded)
	case ExpLL:
		v := p.LoadLocked(addr)
		g := &e.ghost[op.Word]
		ep.llGhostValid, ep.llWord, ep.llOthers = true, op.Word, g.version-g.writes[p.ID]
		e.observe(ep, op, v, true)
	case ExpWrite:
		p.Store(addr, op.Val)
	case ExpSC:
		var r uint64
		if p.StoreCond(addr, op.Val) {
			r = 1
			e.checkSCAtomicity(ep, op)
		}
		ep.llGhostValid = false
		e.observe(ep, op, r, false)
	case ExpMemBar:
		p.MemBar()
	}
}

// observe records a value the process read, or an SC's outcome, and checks
// a read that did not forward a buffered store against the ghost memory.
func (e *Explorer) observe(ep *expProc, op ExpOp, v uint64, check bool) {
	p := ep.p
	ep.regs = append(ep.regs, v)
	e.events = append(e.events, trace.Event{
		Cat: "mc", Ev: "value", P: p.ID, A: int64(v), S: fmt.Sprintf("%s -> %d", op, v),
	})
	if check && !e.disabled("data-value") {
		s := e.sys
		if want, ok := s.proto.expectedValue(s, e, p.agent, e.blkOf(op.Word), op.Word, e.ghost[op.Word].val); ok && v != want {
			e.fail("data-value", fmt.Sprintf("p%d %s read %#x, want %#x", p.ID, op, v, want))
		}
	}
}

func (e *Explorer) settle() {
	for changed := true; changed; {
		changed = false
		for _, ep := range e.eps {
			if ep.await != nil && ep.p.mshr[ep.await.blk.id] == nil {
				e.resume(ep, ep.await)
				changed = true
			}
		}
	}
}

// checkSCAtomicity asserts the LL/SC atomicity invariant on a successful
// SC: no other process's store to the word serialized between the LL and
// this SC. The explorer's own store has already been counted, so the
// others' write count must match the LL snapshot exactly.
func (e *Explorer) checkSCAtomicity(ep *expProc, op ExpOp) {
	if e.disabled("llsc") || !ep.llGhostValid || ep.llWord != op.Word {
		return
	}
	g := &e.ghost[op.Word]
	others := g.version - g.writes[ep.p.ID]
	if others != ep.llOthers {
		e.fail("llsc", fmt.Sprintf(
			"p%d SC w%d succeeded but %d foreign store(s) serialized since the LL",
			ep.p.ID, op.Word, others-ep.llOthers))
	}
}

func (e *Explorer) fail(inv, detail string) {
	if e.viol != nil {
		return
	}
	e.viol = &InvariantError{Invariant: inv, Detail: detail}
	e.events = append(e.events, trace.Event{Cat: "mc", Ev: "violation", S: inv + ": " + detail})
}

// Close unwinds the body of every process stalled or waiting for its next
// step. An explorer no longer needed must be closed, or its bodies' parked
// coroutines stay behind.
func (e *Explorer) Close() {
	for _, ep := range e.eps {
		ep.p.Sim.Stop()
	}
}

// Done reports whether every process has finished its program.
func (e *Explorer) Done() bool {
	for _, ep := range e.eps {
		if ep.await != nil || ep.pc < len(ep.prog) {
			return false
		}
	}
	return true
}

// Terminal reports a clean final state: programs done, no message in
// flight, and the system at rest (System.quiescent: nothing queued, no miss
// outstanding, no deferred request, every home record at rest).
func (e *Explorer) Terminal() bool {
	return e.Done() && e.linksEmpty() && e.sys.quiescent() == nil
}

// linksEmpty reports whether no message is in flight on any link.
func (e *Explorer) linksEmpty() bool {
	for _, q := range e.chans {
		if len(q) > 0 {
			return false
		}
	}
	return true
}

// Outcome summarizes the observed values of every process — the litmus
// outcome of a terminal state.
func (e *Explorer) Outcome() string {
	var b strings.Builder
	for i, ep := range e.eps {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "p%d:%v", i, ep.regs)
	}
	return b.String()
}

// Events returns the trace events recorded along the applied path (the
// counterexample trace after a violating replay).
func (e *Explorer) Events() []trace.Event { return e.events }
