// Package sim provides a deterministic, conservative discrete-event
// simulation engine for a cluster of SMP nodes.
//
// Each simulated process runs as a coroutine. The scheduler is organised
// around *shards*: disjoint groups of CPUs (and the processes bound to
// them) that each resume exactly one process at a time — always a process
// whose next possible action is earliest in simulated time within the
// shard. A resumed process runs until it blocks, or until its local clock
// passes the engine-supplied window (the minimum effective time of any
// other process in the shard, clamped to the shard's horizon), at which
// point it yields back to the scheduler.
//
// By default the engine has a single shard containing every CPU and a
// horizon of Forever, which is exactly the classic sequential
// discrete-event schedule: causally correct and fully deterministic. A
// Runner (see internal/sim/parallel) may instead partition the engine into
// one shard per node and drive all shards concurrently in bounded time
// windows — conservative parallel discrete-event simulation. Within a
// window shards share no mutable state (higher layers stage cross-shard
// effects until the window barrier), so the parallel schedule commits the
// same state transitions at the same simulated times as the sequential
// one.
//
// Time is measured in CPU cycles of the modeled machine (300 MHz Alpha
// 21164 in the Shasta configuration, so 300 cycles per microsecond).
package sim

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/trace"
)

// Time is a point in simulated time, in CPU cycles.
type Time = int64

// CyclesPerMicrosecond converts the modeled 300 MHz clock to microseconds.
const CyclesPerMicrosecond = 300

// Microseconds converts a duration in cycles to microseconds.
func Microseconds(t Time) float64 { return float64(t) / CyclesPerMicrosecond }

// Cycles converts microseconds to cycles.
func Cycles(us float64) Time { return Time(us * CyclesPerMicrosecond) }

// Forever is a wake time used for indefinite blocking.
const Forever = Time(1) << 62

type procState int

const (
	stateNew     procState = iota // spawned, not yet started
	stateReady                    // schedulable at p.now
	stateRunning                  // currently executing guest code
	stateWaiting                  // waiting for an event; holds its CPU
	stateBlocked                  // blocked in the OS; releases its CPU
	stateDone                     // finished
)

func (s procState) String() string {
	switch s {
	case stateNew:
		return "new"
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateWaiting:
		return "waiting"
	case stateBlocked:
		return "blocked"
	case stateDone:
		return "done"
	}
	return "invalid"
}

// Config holds engine-level scheduling parameters.
type Config struct {
	Nodes       int  // number of SMP nodes
	CPUsPerNode int  // processors per node
	Quantum     Time // scheduling time slice; 0 disables preemption
	CtxSwitch   Time // cost of a context switch
	MaxTime     Time // safety stop; 0 means no limit

	// WatchdogCycles enables the stall watchdog: if no process performs any
	// charged work (Proc.Advance with a positive cost) for this many
	// simulated cycles while the engine keeps scheduling, the run fails
	// with a StallError describing every process. This catches livelocks
	// where time still creeps forward (e.g. protocol processes polling an
	// empty queue forever) that the all-blocked deadlock check cannot see.
	// 0 disables the watchdog.
	WatchdogCycles Time
	// WatchdogIters bounds scheduler iterations without charged work, for
	// livelocks that do not advance simulated time at all. 0 picks a
	// default when WatchdogCycles is set.
	WatchdogIters int64
}

// defaultWatchdogIters backs WatchdogIters when only WatchdogCycles is
// configured: enough scheduler round-trips that any legitimate zero-cost
// phase (barrier release cascades, queue drains) finishes long before it.
const defaultWatchdogIters = 4 << 20

// Runner drives Engine.Run in place of the built-in sequential scheduler.
// Implementations (internal/sim/parallel) repeatedly call RunShardWindow on
// every shard, CommitRound at each window barrier, and return the first
// error. Engine.Run still owns process tear-down (drain) around the runner.
type Runner interface {
	Run(e *Engine) error
}

// WindowStatus reports how a shard's window ended.
type WindowStatus int

const (
	// WindowHorizon: the shard ran until no process could act before the
	// horizon. The normal outcome of a bounded window.
	WindowHorizon WindowStatus = iota
	// WindowIdle: no process in the shard can ever run again without an
	// external notification (all done or blocked indefinitely).
	WindowIdle
	// WindowErr: the shard recorded an error (guest panic, MaxTime, Fail).
	WindowErr
	// WindowStall: the shard's watchdog tripped; the coordinator must
	// confirm (ConfirmStall) at the window barrier.
	WindowStall
)

// shard is one scheduling domain: a disjoint set of CPUs and the processes
// bound to them. All scheduler state that the sequential engine kept
// globally lives per shard, so shards can run concurrently without sharing.
type shard struct {
	eng  *Engine
	idx  int
	cpus []*CPU

	// heap holds the live processes as an indexed binary min-heap ordered
	// by (key, ID), key caching Proc.effectiveTime: the root is the next
	// moment anything can happen here. An effective time depends on the
	// process and on its CPU's current/sliceEnd/freeAt, so keys go stale
	// only on the CPUs in dirty.
	heap []*Proc
	// dirty lists, in CPU order, the CPUs touched since their last pass:
	// the CPU of the process that ran, of every NotifyAt target and of
	// every spawned process. The next step re-keys and examines only these.
	dirty []*CPU
	// staleMin is a lower bound on the shard progress at which a clean
	// CPU's waiting incumbent outlives its slice (see staleAt); reaching it
	// makes every CPU dirty for one step.
	staleMin Time

	now     Time // time of the most recently resumed process
	running *Proc
	last    *Proc // the process resumed by the previous step
	err     error
	// ctxSwitches counts context switches performed by this shard.
	ctxSwitches int64
	counters    SchedCounters

	// progressMark is the clock of the last process that performed charged
	// work; itersNoProgress counts scheduler iterations since then. Both
	// feed the stall watchdog.
	progressMark    Time
	itersNoProgress int64
	// stalled is the process at which the watchdog tripped; stallIters
	// marks an iteration-budget (rather than cycle-budget) trip.
	stalled    *Proc
	stallIters bool

	tracer *trace.Tracer
}

// SchedCounters counts the scheduler's own work, summed over shards.
type SchedCounters struct {
	Steps     int64 // scheduler steps: one process resumed, one coroutine round trip
	Switches  int64 // steps that resumed a different process than the step before
	SelfPicks int64 // steps that resumed the process that had just yielded
	HeapFixes int64 // heap keys that changed and were sifted
	CPUPasses int64 // per-CPU preempt/dispatch passes
}

// Engine is the simulation scheduler.
type Engine struct {
	cfg    Config
	cpus   []*CPU
	procs  []*Proc
	shards []*shard

	runner    Runner
	lookahead Time
	// barrierHook runs at every window barrier of a parallel run; higher
	// layers use it to commit staged cross-shard effects.
	barrierHook func()
	inRounds    bool

	tracer *trace.Tracer
	// dumpHook, when set, contributes higher-layer state (protocol queues,
	// outstanding misses) to StallError dumps.
	dumpHook func() string
	// probe, when set by a test, observes every scheduler step before it
	// decides anything.
	probe func(sh *shard, horizon Time)
}

// NewEngine creates an engine with the given topology.
func NewEngine(cfg Config) *Engine {
	if cfg.Nodes <= 0 || cfg.CPUsPerNode <= 0 {
		panic("sim: topology must have at least one node and one CPU")
	}
	e := &Engine{cfg: cfg}
	for n := 0; n < cfg.Nodes; n++ {
		for c := 0; c < cfg.CPUsPerNode; c++ {
			e.cpus = append(e.cpus, &CPU{id: len(e.cpus), node: n, sliceEnd: Forever})
		}
	}
	sh := &shard{eng: e, idx: 0, cpus: e.cpus, staleMin: Forever}
	e.shards = []*shard{sh}
	for _, c := range e.cpus {
		c.shard = sh
	}
	return e
}

// ShardPerNode partitions the engine into one shard per node for a parallel
// run. Must be called before any process is spawned.
func (e *Engine) ShardPerNode() {
	if len(e.procs) > 0 {
		panic("sim: ShardPerNode after processes were spawned")
	}
	e.shards = nil
	for n := 0; n < e.cfg.Nodes; n++ {
		sh := &shard{eng: e, idx: n, staleMin: Forever}
		for _, c := range e.cpus {
			if c.node == n {
				sh.cpus = append(sh.cpus, c)
				c.shard = sh
			}
		}
		e.shards = append(e.shards, sh)
	}
}

// NumShards returns the number of scheduling shards (1 unless ShardPerNode
// was called).
func (e *Engine) NumShards() int { return len(e.shards) }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetTracer installs a structured event tracer (nil disables tracing).
// With a single shard the tracer also receives scheduling events; a
// per-node-sharded engine needs SetShardTracers for those.
func (e *Engine) SetTracer(t *trace.Tracer) {
	e.tracer = t
	if len(e.shards) == 1 {
		e.shards[0].tracer = t
	}
}

// Tracer returns the installed tracer, or nil.
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// SetShardTracers installs one tracer per shard (indexed like shards, i.e.
// by node after ShardPerNode). Shard tracers receive the scheduling events
// emitted inside windows; a parallel coordinator merges them into the main
// tracer at each barrier.
func (e *Engine) SetShardTracers(ts []*trace.Tracer) {
	if len(ts) != len(e.shards) {
		panic(fmt.Sprintf("sim: %d shard tracers for %d shards", len(ts), len(e.shards)))
	}
	for i, sh := range e.shards {
		sh.tracer = ts[i]
	}
}

// SetDumpHook installs a callback that contributes extra state to watchdog
// stall dumps (the DSM layer uses it to describe protocol queues).
func (e *Engine) SetDumpHook(fn func() string) { e.dumpHook = fn }

// SetRunner installs a Runner that Run delegates to (nil restores the
// built-in sequential scheduler).
func (e *Engine) SetRunner(r Runner) { e.runner = r }

// SetLookahead records the minimum cross-shard interaction latency of the
// modeled system; a parallel runner adds it to the global minimum effective
// time to obtain each round's safe horizon.
func (e *Engine) SetLookahead(l Time) { e.lookahead = l }

// Lookahead returns the configured lookahead.
func (e *Engine) Lookahead() Time { return e.lookahead }

// SetBarrierHook installs the callback CommitRound invokes at every window
// barrier of a parallel run.
func (e *Engine) SetBarrierHook(fn func()) { e.barrierHook = fn }

// CommitRound runs the barrier hook. A parallel runner calls it after all
// shards have parked at the horizon; with all processes quiescent, the
// hook may commit staged cross-shard effects safely.
func (e *Engine) CommitRound() {
	if e.barrierHook != nil {
		e.barrierHook()
	}
}

// NumCPUs returns the total processor count.
func (e *Engine) NumCPUs() int { return len(e.cpus) }

// NodeOf returns the node index of a global CPU index.
func (e *Engine) NodeOf(cpu int) int { return e.cpus[cpu].node }

// Now returns the clock of the most recently scheduled process (the
// furthest shard clock on a sharded engine). It is a reporting aid, not a
// causal bound.
func (e *Engine) Now() Time {
	var m Time
	for _, sh := range e.shards {
		m = max(m, sh.now)
	}
	return m
}

// ContextSwitches reports how many context switches the scheduler performed.
func (e *Engine) ContextSwitches() int64 {
	var n int64
	for _, sh := range e.shards {
		n += sh.ctxSwitches
	}
	return n
}

// SchedCounters reports the scheduler's work counters summed over shards.
func (e *Engine) SchedCounters() SchedCounters {
	var n SchedCounters
	for _, sh := range e.shards {
		n.Steps += sh.counters.Steps
		n.Switches += sh.counters.Switches
		n.SelfPicks += sh.counters.SelfPicks
		n.HeapFixes += sh.counters.HeapFixes
		n.CPUPasses += sh.counters.CPUPasses
	}
	return n
}

// Procs returns all spawned processes.
func (e *Engine) Procs() []*Proc { return e.procs }

// Spawn creates a process bound to the given global CPU index. The function
// fn runs as the process body; the process finishes when fn returns.
// Priority 0 is normal; higher values run only when no lower value is ready
// on the same CPU (used for Shasta protocol processes).
func (e *Engine) Spawn(name string, cpu int, priority int, fn func(p *Proc)) *Proc {
	return e.SpawnAt(name, cpu, priority, 0, fn)
}

// SpawnAt is Spawn with an explicit start time.
func (e *Engine) SpawnAt(name string, cpu int, priority int, start Time, fn func(p *Proc)) *Proc {
	if cpu < 0 || cpu >= len(e.cpus) {
		panic(fmt.Sprintf("sim: spawn %q on invalid cpu %d", name, cpu))
	}
	if e.inRounds {
		panic(fmt.Sprintf("sim: spawn %q during a parallel run (dynamic process creation requires the sequential engine)", name))
	}
	p := &Proc{
		ID:       len(e.procs),
		Name:     name,
		Priority: priority,
		eng:      e,
		cpu:      e.cpus[cpu],
		now:      start,
		state:    stateNew,
		body:     fn,
		wakeAt:   Forever,
		window:   Forever,
	}
	e.procs = append(e.procs, p)
	p.cpu.queue = append(p.cpu.queue, p)
	p.cpu.shard.push(p)
	p.cpu.touch()
	if e.tracer != nil {
		e.tracer.Emit(trace.Event{T: start, Cat: "sched", Ev: "spawn", P: p.ID, O: cpu, S: name})
	}
	return p
}

// ExternalProc creates a process that is driven from outside Engine.Run:
// it has no coroutine, is never scheduled, and is invisible to the
// scheduler (not registered with the engine or any CPU queue). It exists
// so higher-layer code that charges time (Proc.Advance) or reads clocks
// can execute directly on the calling goroutine — the model checker uses
// it to invoke protocol handlers as atomic steps. An external process
// must never block: Wait/Block/Sleep panic.
func (e *Engine) ExternalProc(name string, cpu int) *Proc {
	if cpu < 0 || cpu >= len(e.cpus) {
		panic(fmt.Sprintf("sim: external proc %q on invalid cpu %d", name, cpu))
	}
	return &Proc{
		ID:       -1,
		Name:     name,
		eng:      e,
		cpu:      e.cpus[cpu],
		state:    stateRunning,
		wakeAt:   Forever,
		window:   Forever,
		external: true,
	}
}

// Run drives the simulation until every process has finished, a process
// panics, deadlock is detected, or MaxTime is exceeded. With a Runner
// installed, Run delegates the schedule to it (tear-down stays here).
func (e *Engine) Run() error {
	defer e.drain()
	if e.runner != nil {
		e.inRounds = true
		err := e.runner.Run(e)
		e.inRounds = false
		return err
	}
	sh := e.shards[0]
	switch sh.runWindow(Forever) {
	case WindowErr:
		return sh.err
	case WindowStall:
		return e.stallErrorAt(sh, sh.progressMark)
	default: // WindowHorizon, WindowIdle: nothing left before Forever
		if e.allDone() {
			return nil
		}
		return e.DeadlockError()
	}
}

// RunShardWindow runs one shard until nothing in it can act before the
// horizon (or an error/stall interrupts it). A parallel runner calls it
// for different shards concurrently; the sequential engine calls it once
// with horizon Forever.
func (e *Engine) RunShardWindow(i int, horizon Time) WindowStatus {
	return e.shards[i].runWindow(horizon)
}

// ShardErr returns the error recorded by shard i, if any.
func (e *Engine) ShardErr(i int) error { return e.shards[i].err }

// FirstErr returns the recorded error of the lowest-indexed failed shard.
// Shards run their windows independently, so when several fail in one
// round the lowest index gives a deterministic winner.
func (e *Engine) FirstErr() error {
	for _, sh := range e.shards {
		if sh.err != nil {
			return sh.err
		}
	}
	return nil
}

// GlobalMinEffective returns the earliest effective time of any live
// process: the next moment anything can happen.
func (e *Engine) GlobalMinEffective() Time {
	m := Forever
	for _, sh := range e.shards {
		m = min(m, sh.minEffective())
	}
	return m
}

// AllDone reports whether every process has finished.
func (e *Engine) AllDone() bool { return e.allDone() }

// DeadlockError builds the all-blocked diagnostic error.
func (e *Engine) DeadlockError() error {
	var stuck []string
	for _, p := range e.procs {
		if p.state != stateDone {
			stuck = append(stuck, fmt.Sprintf("%s[%d] %s t=%d wake=%d", p.Name, p.ID, p.state, p.now, p.wakeAt))
		}
	}
	sort.Strings(stuck)
	return fmt.Errorf("sim: deadlock, %d processes stuck: %v", len(stuck), stuck)
}

// ConfirmStall resolves a WindowStall from shard i at a window barrier.
// An iteration-budget trip is always genuine (a zero-time livelock cannot
// span shards inside one window). A cycle-budget trip is re-checked
// against global progress: another shard may have performed charged work
// the tripping shard could not see, in which case the shard's watchdog
// state is synchronized and the run continues. Returns the StallError to
// fail with, or nil to continue.
func (e *Engine) ConfirmStall(i int) error {
	sh := e.shards[i]
	if sh.stalled == nil {
		return nil
	}
	var gm Time
	for _, s := range e.shards {
		gm = max(gm, s.progressMark)
	}
	if sh.stallIters || sh.stalled.now > gm+e.cfg.WatchdogCycles {
		return e.stallErrorAt(sh, gm)
	}
	sh.progressMark = gm
	sh.itersNoProgress = 0
	sh.stalled = nil
	return nil
}

// runWindow drives the shard's scheduling loop until nothing in the shard
// can act before the horizon. It is re-entrant: a parallel runner calls it
// once per round with an increasing horizon.
func (sh *shard) runWindow(horizon Time) WindowStatus {
	e := sh.eng
	for {
		if sh.err != nil {
			return WindowErr
		}
		if e.probe != nil {
			e.probe(sh, horizon)
		}
		minEff := sh.minEffective()
		if minEff >= horizon {
			return WindowHorizon
		}
		sh.pass(minEff)
		p, st := sh.pick(horizon)
		if p == nil {
			return st
		}
		if e.cfg.MaxTime > 0 && p.now > e.cfg.MaxTime {
			sh.err = fmt.Errorf("sim: exceeded MaxTime %d at proc %s (t=%d)", e.cfg.MaxTime, p.Name, p.now)
			return WindowErr
		}
		if e.cfg.WatchdogCycles > 0 {
			sh.itersNoProgress++
			iters := e.cfg.WatchdogIters
			if iters <= 0 {
				iters = defaultWatchdogIters
			}
			if p.now > sh.progressMark+e.cfg.WatchdogCycles || sh.itersNoProgress > iters {
				sh.stalled = p
				sh.stallIters = sh.itersNoProgress > iters && p.now <= sh.progressMark+e.cfg.WatchdogCycles
				return WindowStall
			}
		}
		sh.now = p.now
		// p may run until any other process could act: the root if p is
		// not the root itself, else the smaller of the root's children.
		window := horizon
		if p.hpos != 0 {
			window = min(window, sh.heap[0].key)
		} else {
			for i := 1; i <= 2 && i < len(sh.heap); i++ {
				window = min(window, sh.heap[i].key)
			}
		}
		if e.cfg.MaxTime > 0 && window > e.cfg.MaxTime+1 {
			window = e.cfg.MaxTime + 1
		}
		sh.counters.Steps++
		if p == sh.last {
			sh.counters.SelfPicks++
		} else {
			sh.counters.Switches++
		}
		p.state = stateRunning
		p.window = window
		sh.running, sh.last = p, p
		p.switchTo()
		sh.running = nil
		if p.state == stateRunning {
			p.state = stateReady
		}
		if p.state == stateDone {
			sh.remove(p)
			if sh.tracer != nil {
				sh.tracer.Emit(trace.Event{T: p.now, Cat: "sched", Ev: "exit", P: p.ID, O: p.cpu.id, S: p.Name})
			}
		}
		sh.reschedule(p)
	}
}

// touch marks c as changed since its last scheduling pass.
func (c *CPU) touch() {
	if c.dirty {
		return
	}
	c.dirty = true
	d := append(c.shard.dirty, c) // hotlint:allow(append-growth): at most one entry per CPU of the shard
	for i := len(d) - 1; i > 0 && d[i-1].id > c.id; i-- {
		d[i], d[i-1] = d[i-1], d[i]
	}
	c.shard.dirty = d
}

// minEffective returns the earliest effective time of any live process in
// the shard: the next moment anything can happen here.
func (sh *shard) minEffective() Time {
	for _, c := range sh.dirty {
		sh.rekey(c)
	}
	if len(sh.heap) == 0 {
		return Forever
	}
	return sh.heap[0].key
}

// pass runs the preempt/dispatch pass on the dirty CPUs, in CPU order. On
// a clean CPU it would change nothing: the CPU is as its last pass left it,
// and only preemptIfStale also reads shard progress, which staleMin tracks.
// A CPU whose pass changed something stays dirty for the next step.
func (sh *shard) pass(minEff Time) {
	if minEff >= sh.staleMin {
		sh.staleMin = Forever
		for _, c := range sh.cpus {
			c.touch()
		}
	}
	keep := sh.dirty[:0]
	for _, c := range sh.dirty {
		sh.counters.CPUPasses++
		changed := sh.preemptIfStale(c, minEff)
		changed = preemptSleeper(c) || changed
		changed = sh.dispatch(c) || changed
		if changed {
			sh.rekey(c)
			keep = append(keep, c)
		} else {
			c.dirty = false
		}
		sh.staleMin = min(sh.staleMin, sh.staleAt(c))
	}
	sh.dirty = keep
}

// staleAt returns the shard progress at which c's incumbent, waiting past
// its quantum while others want the CPU, is to be switched out; Forever if
// c is in no such state.
func (sh *shard) staleAt(c *CPU) Time {
	p := c.current
	if p != nil && sh.eng.cfg.Quantum > 0 && p.state == stateWaiting && !p.sleeping &&
		p.wakeAt > c.sliceEnd && anyoneElseWants(c) {
		return c.sliceEnd
	}
	return Forever
}

// preemptIfStale deschedules a current process that is waiting past its
// quantum while others want the CPU (a spinning process being switched
// out). The preemption may only be committed once shard progress (minEff)
// has actually reached the slice end: an earlier wake-up would mean the
// spinner consumed its event mid-quantum and was never switched out.
// (Cross-shard events cannot wake it before the slice end either: they
// arrive at or after the horizon, which bounds every in-window wake.)
func (sh *shard) preemptIfStale(c *CPU, minEff Time) bool {
	if minEff < sh.staleAt(c) {
		return false
	}
	p := c.current
	p.now = max(p.now, c.sliceEnd)
	c.lastRan = p
	c.freeAt = max(c.freeAt, p.now)
	c.current = nil
	c.queue = append(c.queue, p)
	if sh.tracer != nil {
		sh.tracer.Emit(trace.Event{T: p.now, Cat: "sched", Ev: "preempt", P: p.ID, O: c.id})
	}
	return true
}

// preemptSleeper displaces a dispatched sleeping process (it merely parks
// on the CPU until its wake time) as soon as any other process could run
// earlier: the CPU is semantically idle while its occupant sleeps.
func preemptSleeper(c *CPU) bool {
	p := c.current
	if p == nil || p.state != stateWaiting || !p.sleeping {
		return false
	}
	for _, q := range c.queue {
		t := q.now
		if q.state == stateBlocked || q.state == stateWaiting {
			t = q.wakeAt
		}
		if t < p.wakeAt {
			c.lastRan = p
			c.current = nil
			c.queue = append(c.queue, p)
			p.state = stateBlocked
			return true
		}
	}
	return false
}

// dispatch installs a current process on an idle CPU, choosing the process
// that can run earliest; ties go to the lowest priority value, then FIFO
// order. Ordering by readiness (not priority alone) keeps a sleeping
// process's future wake tick from starving an immediately-ready one.
//
//hot:path
func (sh *shard) dispatch(c *CPU) bool {
	if c.current != nil {
		return false
	}
	best := -1
	var bestReady Time
	for i, q := range c.queue {
		if (q.state == stateBlocked || q.state == stateWaiting) && q.wakeAt >= Forever {
			continue // nothing to run until notified
		}
		ready := max(q.now, c.freeAt)
		if q.state == stateBlocked || q.state == stateWaiting {
			ready = max(q.wakeAt, c.freeAt)
		}
		if best == -1 || ready < bestReady ||
			(ready == bestReady && q.Priority < c.queue[best].Priority) {
			best = i
			bestReady = ready
		}
	}
	if best == -1 {
		return false
	}
	p := c.queue[best]
	copy(c.queue[best:], c.queue[best+1:])
	c.queue = c.queue[:len(c.queue)-1]
	start := max(p.now, c.freeAt)
	if c.lastRan != nil && c.lastRan != p {
		start += sh.eng.cfg.CtxSwitch
		sh.ctxSwitches++
		if sh.tracer != nil {
			sh.tracer.Emit(trace.Event{T: start, Cat: "sched", Ev: "switch", P: p.ID, O: c.id})
		}
	}
	// A blocked process is parked on the CPU until its wake time. The clock
	// advance to the wake is committed at pick time, not here: a
	// notification sent later in global order may still pull the wake
	// earlier, and the window engine's cross-shard notifications always
	// land after dispatch (at a window barrier). Committing eagerly would
	// make the two engines resume such sleepers at different times.
	p.now = start
	c.current = p
	c.sliceEnd = Forever
	if sh.eng.cfg.Quantum > 0 {
		// For a parked sleeper the quantum starts at its (current) wake
		// time; NotifyAt keeps sliceEnd in step if the wake moves earlier.
		resumeAt := start
		if p.state == stateBlocked {
			resumeAt = max(start, p.wakeAt)
		}
		c.sliceEnd = resumeAt + sh.eng.cfg.Quantum
	}
	return true
}

// pick returns the incumbent with the smallest (effective time, ID) below
// the horizon. The nil status distinguishes "nothing before the horizon"
// (WindowHorizon) from "nothing ever" (WindowIdle).
func (sh *shard) pick(horizon Time) (*Proc, WindowStatus) {
	best := sh.heap[0]
	if best.cpu.current != best {
		// The earliest process is descheduled behind an incumbent that has
		// outrun its slice but was not switched out yet; only incumbents
		// can be resumed.
		best = nil
		for _, c := range sh.cpus {
			if p := c.current; p != nil && (best == nil || p.before(best)) {
				best = p
			}
		}
	}
	if best == nil || best.key >= Forever {
		return nil, WindowIdle
	}
	if best.key >= horizon {
		return nil, WindowHorizon
	}
	best.cpu.touch()
	if best.state == stateWaiting || best.state == stateBlocked {
		// Its event has arrived; advance its clock to the wake time. (A
		// blocked process parked on its CPU commits the wake here — see
		// dispatch. Its sleeping flag is deliberately left set, matching
		// the historical dispatch-time transition.)
		wasWaiting := best.state == stateWaiting
		best.now = max(best.now, best.wakeAt)
		best.wakeAt = Forever
		best.state = stateReady
		if wasWaiting {
			best.sleeping = false
		}
	}
	if best.wakeAt <= best.now {
		// A pending notification the process has already reached (it was
		// delivered while the process was descheduled mid-run, clamped to
		// its clock then). The process observes it now; left in place it
		// would mask a later, larger re-arm (NotifyAt keeps the minimum)
		// and force a spurious wake at the next park — at a wall-order-
		// dependent point, since the two engines deliver cross-node
		// notifications at different moments (put time vs window barrier).
		best.wakeAt = Forever
	}
	return best, WindowHorizon
}

// reschedule handles quantum expiry and blocking after p yields.
func (sh *shard) reschedule(p *Proc) {
	c := p.cpu
	if c.current != p {
		return
	}
	switch p.state {
	case stateDone, stateBlocked:
		c.lastRan = p
		c.freeAt = max(c.freeAt, p.now)
		c.current = nil
		if p.state == stateBlocked {
			c.queue = append(c.queue, p)
		}
	case stateReady, stateWaiting:
		if p.now >= c.sliceEnd && anyoneElseWants(c) {
			// Quantum expired and another process wants the CPU.
			c.lastRan = p
			c.freeAt = max(c.freeAt, p.now)
			c.current = nil
			c.queue = append(c.queue, p)
			if sh.tracer != nil {
				sh.tracer.Emit(trace.Event{T: p.now, Cat: "sched", Ev: "preempt", P: p.ID, O: c.id})
			}
		}
	}
}

func anyoneElseWants(c *CPU) bool {
	for _, q := range c.queue {
		if (q.state == stateBlocked || q.state == stateWaiting) && q.wakeAt >= Forever {
			continue
		}
		return true
	}
	return false
}

// before is the heap order: earlier effective time first, then lower ID.
func (p *Proc) before(q *Proc) bool {
	return p.key < q.key || (p.key == q.key && p.ID < q.ID)
}

// push adds a newly spawned process to the heap.
func (sh *shard) push(p *Proc) {
	p.key = p.effectiveTime()
	p.hpos = len(sh.heap)
	sh.heap = append(sh.heap, p)
	sh.up(p.hpos)
}

// remove takes an exited process out of the heap.
func (sh *shard) remove(p *Proc) {
	i, last := p.hpos, len(sh.heap)-1
	sh.swap(i, last)
	sh.heap = sh.heap[:last]
	if i < last && !sh.down(i) {
		sh.up(i)
	}
}

// rekey recomputes the key of every process bound to c.
func (sh *shard) rekey(c *CPU) {
	if c.current != nil {
		sh.fix(c.current)
	}
	for _, q := range c.queue {
		sh.fix(q)
	}
}

func (sh *shard) fix(p *Proc) {
	if k := p.effectiveTime(); k != p.key {
		p.key = k
		sh.counters.HeapFixes++
		if !sh.down(p.hpos) {
			sh.up(p.hpos)
		}
	}
}

func (sh *shard) swap(i, j int) {
	h := sh.heap
	h[i], h[j] = h[j], h[i]
	h[i].hpos, h[j].hpos = i, j
}

func (sh *shard) up(i int) {
	for i > 0 && sh.heap[i].before(sh.heap[(i-1)/2]) {
		sh.swap(i, (i-1)/2)
		i = (i - 1) / 2
	}
}

// down sifts the entry at i towards the leaves and reports whether it moved.
func (sh *shard) down(i int) bool {
	start := i
	for {
		c := 2*i + 1
		if c >= len(sh.heap) {
			break
		}
		if c+1 < len(sh.heap) && sh.heap[c+1].before(sh.heap[c]) {
			c++
		}
		if !sh.heap[c].before(sh.heap[i]) {
			break
		}
		sh.swap(i, c)
		i = c
	}
	return i > start
}

func (e *Engine) allDone() bool {
	for _, p := range e.procs {
		if p.state != stateDone {
			return false
		}
	}
	return true
}

// StallError reports a watchdog-detected livelock: the engine kept
// scheduling but no process performed charged work for the configured
// budget. It carries a full diagnostic dump.
type StallError struct {
	At           Time // simulated time at detection
	LastProgress Time // time of the last charged work
	Budget       Time // configured WatchdogCycles
	Iters        int64
	Procs        []string // one line per live process
	CPUs         []string // one line per CPU scheduling state
	Extra        string   // higher-layer dump-hook output
	Recent       []trace.Event
}

func (e *StallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: stall watchdog: no process progress for %d cycles (t=%d, last progress t=%d, %d scheduler iterations)",
		e.At-e.LastProgress, e.At, e.LastProgress, e.Iters)
	fmt.Fprintf(&b, "\nlive processes:")
	for _, p := range e.Procs {
		fmt.Fprintf(&b, "\n  %s", p)
	}
	fmt.Fprintf(&b, "\ncpus:")
	for _, c := range e.CPUs {
		fmt.Fprintf(&b, "\n  %s", c)
	}
	if e.Extra != "" {
		fmt.Fprintf(&b, "\n%s", e.Extra)
	}
	if len(e.Recent) > 0 {
		fmt.Fprintf(&b, "\nlast %d trace events:", len(e.Recent))
		for _, ev := range e.Recent {
			fmt.Fprintf(&b, "\n  t=%d %s/%s p=%d o=%d blk=%d a=%d s=%s", ev.T, ev.Cat, ev.Ev, ev.P, ev.O, ev.Blk, ev.A, ev.S)
		}
	}
	return b.String()
}

// stallErrorAt builds a StallError for the watchdog trip recorded in sh.
// On a parallel engine it runs only at a window barrier, when every shard
// is parked, so the multi-process dump is a consistent snapshot.
func (e *Engine) stallErrorAt(sh *shard, lastProgress Time) error {
	p := sh.stalled
	se := &StallError{
		At:           p.now,
		LastProgress: lastProgress,
		Budget:       e.cfg.WatchdogCycles,
		Iters:        sh.itersNoProgress,
	}
	for _, q := range e.procs {
		if q.state == stateDone {
			continue
		}
		se.Procs = append(se.Procs, fmt.Sprintf("%s[%d] cpu%d %s t=%d wake=%d", q.Name, q.ID, q.cpu.id, q.state, q.now, q.wakeAt))
	}
	for i := range e.cpus {
		se.CPUs = append(se.CPUs, e.DescribeCPU(i))
	}
	if e.dumpHook != nil {
		se.Extra = e.dumpHook()
	}
	if e.tracer != nil {
		e.tracer.Emit(trace.Event{T: p.now, Cat: "sched", Ev: "stall", P: p.ID})
		se.Recent = e.tracer.Recent(32)
	}
	return se
}

// DescribeCPU reports the scheduling state of one CPU (debugging aid).
func (e *Engine) DescribeCPU(idx int) string {
	c := e.cpus[idx]
	cur := "idle"
	if c.current != nil {
		p := c.current
		cur = fmt.Sprintf("%s[%d] %v now=%d wake=%d", p.Name, p.ID, p.state, p.now, p.wakeAt)
	}
	q := ""
	for _, p := range c.queue {
		q += fmt.Sprintf(" %s[%d]:%v@%d/w%d", p.Name, p.ID, p.state, p.now, p.wakeAt)
	}
	return fmt.Sprintf("cpu%d sliceEnd=%d freeAt=%d cur={%s} queue=[%s]", idx, c.sliceEnd, c.freeAt, cur, q)
}

// fail records a guest failure against the shard; the scheduler's next
// iteration (or the coordinator at the barrier) surfaces it.
func (sh *shard) fail(err error) {
	if sh.err == nil {
		sh.err = err
	}
}

// drain unwinds every process that is still suspended, one at a time:
// each fully unwinds (running its deferred cleanups, which may touch state
// shared with other processes) before the next is resumed. A process that
// never ran has no coroutine to unwind.
func (e *Engine) drain() {
	for _, p := range e.procs {
		if p.state != stateDone {
			p.abort = true
			if p.stop != nil {
				p.stop()
			}
			p.state = stateDone
		}
	}
}
