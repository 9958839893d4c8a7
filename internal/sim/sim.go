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
// # One rule
//
// A shard may run up to its horizon: the earliest moment anything can
// happen in any other shard, plus the lookahead. The lookahead
// (Config.Lookahead) is the least simulated time an effect takes to get
// from one node to another, so whatever the other shards still have to do
// cannot reach this one before the horizon, and the schedule inside the
// window is the one strict global time order would have produced.
//
// With a positive lookahead every node is a shard. The built-in driver
// (Engine.Run) runs one window at a time on the calling goroutine: it takes
// the shard whose next event is earliest and runs it to its horizon, and a
// shard that is the only one with anything left to do runs to the end
// without yielding to anyone. Effects on other shards — NotifyAt, a spawn,
// whatever a higher layer puts in another node's queues — are applied on
// the spot. With lookahead 0 some cross-node effect is immediate (a cluster
// OS that signals across nodes): all CPUs form one shard, it is alone, its
// horizon is Forever, and the same loop is the classic sequential
// discrete-event schedule. A Runner (internal/sim/parallel) is the special
// case for several host threads: every shard runs the same window
// [B, B+lookahead), B the global minimum, concurrently, and higher layers
// stage cross-shard effects until the barrier between rounds.
//
// Two rules make the windows exact rather than merely safe:
//
//   - When a running process gives another shard something to do at time w
//     (a NotifyAt that moves a wake forward, a spawn), that shard may answer
//     from w on, so the running shard's horizon and the running process's
//     window drop to w + lookahead (shard.clamp). The horizon a window
//     starts with accounts only for what the other shards already had to do.
//   - A process that advances past a pending notification drops it there, in
//     Advance, on its own trajectory. How often a process yields depends on
//     the driver; what it has seen by a given step must not.
//
// A third lets a process skip what cannot matter. Work that nothing but a
// notification can interrupt is one move, not one per unit of it
// (AdvanceUnlessNotified): if it ends below the window nobody can act, so
// nobody can notify, before it does, and the clock moves there without a
// step; otherwise the process parks until the end or the first notification,
// as it would with NotifyAt and Wait, except that the time it is parked for
// is charged work to the stall watchdog. Which of the two happens depends on
// the driver; what the call returns does not. The DSM layer runs stretches of
// back-edge polls that find nothing this way.
//
// What the engine promises in return is that every process does the same
// things at the same simulated times under every driver, given two things
// of the layers above. Cross-node effects take at least the lookahead (the
// built-in driver panics, naming both processes, at a notification or spawn
// that does not: the other shard may already be that far ahead). And
// notifications are hints: NotifyAt keeps one pending wake per process, the
// earliest, and a wake consumes it, so which of two notifications survives
// can depend on the order drivers deliver them in. A process that parks
// must therefore re-arm from the state the notification stands for (the
// DSM layer's queues: "next arrival"), as a device driver re-reads the
// status register after an edge-triggered interrupt.
//
// A CPU holds only a process that runs or spins. One that waits (Wait,
// AdvanceUnlessNotified) keeps its CPU; one that blocks (Block, Serve)
// releases it and waits in the CPU's queue, and an idle CPU takes the next
// queued process only when it is due, when nothing in the shard can act
// before it starts, so its wake is committed there. The one preemption
// point, quantum expiry, is taken when a process yields, so it follows the
// driver wherever several processes share a CPU under a quantum; the DSM
// layer runs the two configurations that do share CPUs, dedicated protocol
// processes and the cluster OS, with lookahead 0.
//
// Time is measured in CPU cycles of the modeled machine (300 MHz Alpha
// 21164 in the Shasta configuration, so 300 cycles per microsecond).
package sim

import (
	"errors"
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

	// Lookahead is the minimum simulated latency of any effect one node has
	// on another (a cross-node NotifyAt, a queue put, a spawn). When it is
	// positive the engine schedules each node as its own shard and lets a
	// shard run up to Lookahead past the earliest moment anything can
	// happen in the others. 0 means some cross-node effect is immediate:
	// one shard holds every CPU and processes run in strict global order.
	Lookahead Time

	// WatchdogCycles enables the stall watchdog: if no process performs any
	// charged work (Proc.Advance or AdvanceUnlessNotified with a positive
	// cost) for this many simulated cycles while the engine keeps
	// scheduling, the run fails with a StallError describing every process.
	// This catches livelocks
	// where time still creeps forward (e.g. a miss that waits for ever on a
	// process blocked in the OS while others' timed sleeps go on) that the
	// all-blocked deadlock check cannot see.
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

// Runner drives Engine.Run in place of the built-in driver. Implementations
// (internal/sim/parallel) repeatedly call RunShardWindow on every shard,
// CommitRound at each window barrier, and return the first error. Engine.Run
// still owns process tear-down (drain) around the runner.
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
	// WindowStall: the shard's watchdog tripped; the driver must confirm
	// (ConfirmStall) between windows.
	WindowStall
)

// shard is one scheduling domain: a disjoint set of CPUs and the processes
// bound to them. All scheduler state lives per shard, so a Runner can run
// shards concurrently without sharing.
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
	now      Time // time of the most recently resumed process
	horizon  Time // end of the window being run; clamp may lower it mid-window
	running  *Proc
	last     *Proc // the process resumed by the previous step
	err      error
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
	probeAt    Time // when this shard next asks the starve probe

	tracer *trace.Tracer
}

// SchedCounters counts the scheduler's own work, summed over shards.
type SchedCounters struct {
	Steps     int64 // scheduler steps: one process resumed, one coroutine round trip
	Switches  int64 // steps that resumed a different process than the step before
	SelfPicks int64 // steps that resumed the process that had just yielded
	HeapFixes int64 // heap keys that changed and were sifted
	CPUPasses int64 // per-CPU preempt/dispatch passes
	// Windows counts shard windows run; HorizonClamps the cross-shard
	// notifications and spawns that ended the sender's window early.
	Windows       int64
	HorizonClamps int64
	// Parks counts the AdvanceUnlessNotified calls that had to park (the
	// others moved the clock without a step); EarlyWakes the parks that a
	// notification ended before their time.
	Parks      int64
	EarlyWakes int64
}

// Engine is the simulation scheduler.
type Engine struct {
	cfg    Config
	cpus   []*CPU
	procs  []*Proc
	shards []*shard

	runner Runner
	// barrierHook runs at every window barrier of a parallel run; higher
	// layers use it to commit staged cross-shard effects.
	barrierHook func()
	inRounds    bool
	// cur is the shard whose window the built-in driver is running, nil
	// between windows and throughout a Runner's rounds. An effect on any
	// other shard clamps cur's horizon (see clamp).
	cur *shard

	tracer *trace.Tracer
	// dumpHook, when set, contributes higher-layer state (protocol queues,
	// outstanding misses) to StallError dumps.
	dumpHook func() string
	// starveProbe, when set, is asked by each shard, starveProbesPerBudget
	// times per watchdog budget of simulated time, for an operation
	// outstanding longer than the budget.
	starveProbe func(now, budget Time) string
	// probe, when set by a test, observes every scheduler step before it
	// decides anything.
	probe func(sh *shard, horizon Time)
}

// starveProbesPerBudget sets how late a starved operation is reported (at
// most a thirty-second of the budget past it) and what the probe costs: a
// compare per step and a handful of calls per run.
const starveProbesPerBudget = 32

// NewEngine creates an engine with the given topology: one shard per node
// when cfg.Lookahead is positive, one shard in all otherwise.
func NewEngine(cfg Config) *Engine {
	if cfg.Nodes <= 0 || cfg.CPUsPerNode <= 0 {
		panic("sim: topology must have at least one node and one CPU")
	}
	if cfg.Lookahead < 0 {
		panic("sim: negative lookahead")
	}
	e := &Engine{cfg: cfg}
	perShard := cfg.Nodes * cfg.CPUsPerNode
	if cfg.Lookahead > 0 {
		perShard = cfg.CPUsPerNode
	}
	e.cpus = make([]*CPU, cfg.Nodes*cfg.CPUsPerNode)
	e.shards = make([]*shard, len(e.cpus)/perShard)
	for i := range e.shards {
		// One allocation per shard: a Runner's threads write to them.
		sh := &shard{eng: e, idx: i, cpus: e.cpus[i*perShard : (i+1)*perShard], staleMin: Forever}
		e.shards[i] = sh
		for j := range sh.cpus {
			id := i*perShard + j
			sh.cpus[j] = &CPU{id: id, node: id / cfg.CPUsPerNode, shard: sh, sliceEnd: Forever}
		}
	}
	return e
}

// NumShards returns the number of scheduling shards: the number of nodes
// when the lookahead is positive, else 1.
func (e *Engine) NumShards() int { return len(e.shards) }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetTracer installs a structured event tracer (nil disables tracing).
// Every shard writes its scheduling events to it too: the built-in driver
// runs one window at a time. A Runner that runs windows concurrently
// gives the shards tracers of their own with SetShardTracers.
func (e *Engine) SetTracer(t *trace.Tracer) {
	e.tracer = t
	for _, sh := range e.shards {
		sh.tracer = t
	}
}

// Tracer returns the installed tracer, or nil.
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// SetShardTracers installs one tracer per shard (indexed like shards, i.e.
// by node). Shard tracers receive the scheduling events emitted inside
// windows; a parallel coordinator merges them into the main tracer at each
// barrier.
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

// SetStarveProbe installs the watchdog's second question. The first, "has
// any process done charged work lately", is answered yes by a run in which
// one process waits for ever for a reply while others spin on a lock it
// holds; such a run used to end only at MaxTime. The built-in driver calls
// fn between steps, each time a shard's clock has moved on by a thirty-second
// of the watchdog budget, with the clock of the process about to run and the
// budget; a non-empty answer names an operation outstanding for longer than
// the budget and fails the run with a StallError that starts with it. The
// call is not an event: it charges nothing and wakes nobody.
func (e *Engine) SetStarveProbe(fn func(now, budget Time) string) { e.starveProbe = fn }

// SetRunner installs a Runner that Run delegates to (nil restores the
// built-in driver).
func (e *Engine) SetRunner(r Runner) { e.runner = r }

// Lookahead returns the configured lookahead.
func (e *Engine) Lookahead() Time { return e.cfg.Lookahead }

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
		n.Windows += sh.counters.Windows
		n.HorizonClamps += sh.counters.HorizonClamps
		n.Parks += sh.counters.Parks
		n.EarlyWakes += sh.counters.EarlyWakes
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
		panic(fmt.Sprintf("sim: spawn %q during a parallel run (dynamic process creation requires the built-in driver)", name))
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
	if e.cur != nil && e.cur != p.cpu.shard {
		e.cur.crossShard("spawns", p, start, start)
	}
	if e.tracer != nil {
		e.tracer.Emit(trace.Event{T: start, Cat: "sched", Ev: "spawn", P: p.ID, O: cpu, S: name})
	}
	return p
}

// ExternalProc creates a process that is driven from outside Engine.Run:
// it is never scheduled and is invisible to the scheduler (not registered
// with the engine or any CPU queue). Code that charges time (Proc.Advance)
// or reads clocks can execute for it directly on the calling goroutine —
// the model checker invokes protocol handlers that way, as atomic steps —
// and must not block there: Wait/Block panic. A non-nil body runs on
// a coroutine of its own, only inside Step, and may block: Step returns when
// it does, and the next Step resumes it. Stop unwinds it.
func (e *Engine) ExternalProc(name string, cpu int, body func(*Proc)) *Proc {
	if cpu < 0 || cpu >= len(e.cpus) {
		panic(fmt.Sprintf("sim: external proc %q on invalid cpu %d", name, cpu))
	}
	return &Proc{
		ID:       -1,
		Name:     name,
		eng:      e,
		cpu:      e.cpus[cpu],
		state:    stateRunning,
		body:     body,
		wakeAt:   Forever,
		window:   Forever,
		external: true,
	}
}

// Run drives the simulation until every process has finished or is idle in
// Serve, a process panics, deadlock is detected, or MaxTime is exceeded.
// With a Runner installed, Run delegates the schedule to it (tear-down stays
// here).
func (e *Engine) Run() error {
	defer e.drain()
	var err error
	if e.runner != nil {
		e.inRounds = true
		err = e.runner.Run(e)
		e.inRounds = false
	} else {
		err = e.drive()
	}
	if err == nil {
		e.retireIdle()
	}
	// Every shard is parked now, so the dump is a consistent snapshot.
	var over *MaxTimeError
	if errors.As(err, &over) && e.dumpHook != nil {
		over.Extra = e.dumpHook()
	}
	return err
}

// drive is the built-in driver: one window at a time, always of the shard
// whose next event is earliest, up to the lookahead past the earliest event
// of any other shard. Nothing another shard does can take effect here before
// that horizon, and what this window does to another shard clamps the
// horizon as it happens (see clamp), so cross-shard effects are applied
// directly. A shard that is alone — the only shard, or the only one with
// anything left to do — runs to the end in a single window.
func (e *Engine) drive() error {
	// A window that takes no step is not idle: its pass may have dispatched
	// a process behind a context switch, which moves the shard's next step,
	// or it leaves the shard settled so that nextStep is exact. Either
	// happens a bounded number of times per CPU before some shard steps.
	// Beyond that the driver is offering the same window again and again;
	// steps are what MaxTime and the watchdog count, so say so here.
	idle, maxIdle := 0, 4*(len(e.cpus)+len(e.shards))
	for {
		var sh *shard
		first, second := Forever, Forever // the two earliest next steps
		for _, s := range e.shards {
			if r := s.nextStep(); r < first {
				sh, first, second = s, r, first
			} else if r < second {
				second = r
			}
		}
		if sh == nil {
			if e.allDone() {
				return nil
			}
			return e.DeadlockError()
		}
		horizon := Forever
		if second < Forever {
			horizon = second + e.cfg.Lookahead
		}
		steps := sh.counters.Steps
		e.cur = sh
		st := sh.runWindow(horizon)
		e.cur = nil
		switch st {
		case WindowErr:
			return sh.err
		case WindowStall:
			if err := e.confirmStallInOrder(sh); err != nil {
				return err
			}
		default:
			if sh.counters.Steps > steps {
				idle = 0
			} else if idle++; idle > maxIdle {
				return fmt.Errorf("sim: driver stuck: %d windows in a row took no step; shard %d next steps at t=%d, window [%d, %d)", idle, sh.idx, sh.nextStep(), first, horizon)
			}
		}
	}
}

// confirmStallInOrder resolves a watchdog trip of the built-in driver. The
// trip is shard-local; the watchdog's question is global and asked in time
// order. While another shard still has something to do before the tripping
// process's clock, that comes first (the process trips again when its shard
// is next the earliest); after that ConfirmStall decides.
func (e *Engine) confirmStallInOrder(sh *shard) error {
	for _, s := range e.shards {
		if s != sh && s.nextStep() < sh.stalled.now {
			sh.stalled = nil
			return nil
		}
	}
	return e.ConfirmStall(sh.idx)
}

// RunShardWindow runs one shard until nothing in it can act before the
// horizon (or an error/stall interrupts it). A parallel runner calls it
// for different shards concurrently.
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

// AllDone reports whether every process has finished or is idle in Serve.
func (e *Engine) AllDone() bool { return e.allDone() }

// retireIdle emits the exit event of each process left idle in Serve, at
// its own clock, as the scheduler does for one that returns; drain then
// unwinds it.
func (e *Engine) retireIdle() {
	for _, p := range e.procs {
		if tr := p.cpu.shard.tracer; tr != nil && p.state != stateDone {
			tr.Emit(trace.Event{T: p.now, Cat: "sched", Ev: "exit", P: p.ID, O: p.cpu.id, S: p.Name})
		}
	}
}

// DeadlockError builds the all-blocked diagnostic error.
func (e *Engine) DeadlockError() error {
	var stuck []string
	for _, p := range e.procs {
		if p.state != stateDone && !p.idle() {
			stuck = append(stuck, fmt.Sprintf("%s[%d] %s t=%d wake=%d", p.Name, p.ID, p.state, p.now, p.wakeAt))
		}
	}
	sort.Strings(stuck)
	return fmt.Errorf("sim: deadlock, %d processes stuck: %v", len(stuck), stuck)
}

// ConfirmStall resolves a WindowStall from shard i between windows. An
// iteration-budget trip is always genuine (a zero-time livelock cannot
// span shards inside one window). A cycle-budget trip is re-checked
// against global progress: another shard may have performed charged work
// the tripping shard could not see, in which case the shard's watchdog
// state is synchronized and the run continues. Either kind of trip is a
// false alarm if a process parked in AdvanceUnlessNotified has been working
// in the meantime (creditParkedWork). Returns the StallError to fail with,
// or nil to continue.
func (e *Engine) ConfirmStall(i int) error {
	sh := e.shards[i]
	if sh.stalled == nil {
		return nil
	}
	var gm Time
	for _, s := range e.shards {
		s.creditParkedWork(sh.stalled.now)
		gm = max(gm, s.progressMark)
	}
	if sh.stallIters && sh.itersNoProgress > 0 || sh.stalled.now > gm+e.cfg.WatchdogCycles {
		return e.stallErrorAt(sh, gm)
	}
	sh.progressMark = gm
	sh.itersNoProgress = 0
	sh.stalled = nil
	return nil
}

// runWindow drives the shard's scheduling loop until nothing in the shard
// can act before the horizon. It is re-entrant: every driver calls it again
// and again with later horizons.
func (sh *shard) runWindow(horizon Time) WindowStatus {
	e := sh.eng
	sh.horizon = horizon
	sh.counters.Windows++
	for {
		if sh.err != nil {
			return WindowErr
		}
		if e.probe != nil {
			e.probe(sh, sh.horizon)
		}
		minEff := sh.minEffective()
		if minEff >= sh.horizon {
			return WindowHorizon
		}
		sh.pass(minEff)
		p, st := sh.pick(sh.horizon)
		if p == nil {
			return st
		}
		if e.cfg.MaxTime > 0 && p.now > e.cfg.MaxTime {
			sh.err = &MaxTimeError{MaxTime: e.cfg.MaxTime, Proc: p.Name, At: p.now}
			return WindowErr
		}
		if e.cfg.WatchdogCycles > 0 {
			if p.working && p.now > sh.progressMark {
				sh.progress(p.now) // it worked until this wake
			}
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
			// Between a Runner's barriers other shards are running; only the
			// built-in driver may look across them here.
			if p.now >= sh.probeAt && e.starveProbe != nil && !e.inRounds {
				sh.probeAt = p.now + e.cfg.WatchdogCycles/starveProbesPerBudget
				if who := e.starveProbe(p.now, e.cfg.WatchdogCycles); who != "" {
					sh.stalled = p
					se := e.stallErrorAt(sh, sh.progressMark)
					se.Starved = who
					sh.err = se
					return WindowErr
				}
			}
		}
		sh.now = p.now
		// p may run until any other process could act: the root if p is
		// not the root itself, else the smaller of the root's children.
		window := sh.horizon
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

// progress records charged work up to t, the stall watchdog's definition of
// progress.
func (sh *shard) progress(t Time) {
	if t > sh.progressMark {
		sh.progressMark = t
	}
	sh.itersNoProgress = 0
}

// creditParkedWork brings the progress mark up to date, at time t, with the
// processes still parked in AdvanceUnlessNotified. They charge work all the
// while but say so only when they wake; ConfirmStall asks here before it
// believes a trip.
func (sh *shard) creditParkedWork(t Time) {
	for _, q := range sh.heap {
		if q.working && q.state == stateWaiting && q.now <= t {
			if m := min(q.wakeAt, t); m > sh.progressMark {
				sh.progress(m)
			}
		}
	}
}

// touch marks c as changed since its last scheduling pass.
func (c *CPU) touch() {
	if c.dirty {
		return
	}
	c.dirty = true
	d := append(c.shard.dirty, c) // at most one entry per CPU of the shard
	for i := len(d) - 1; i > 0 && d[i-1].id > c.id; i-- {
		d[i], d[i-1] = d[i-1], d[i]
	}
	c.shard.dirty = d
}

// crossShard accounts for the process running in sh, the shard whose window
// the built-in driver is in, notifying or spawning q in another shard for
// time t, which makes q schedulable at w (t, or q's own clock if later).
// That shard may answer from w on, so nothing here may run past w +
// lookahead: the window is clamped. (The horizon it started with allowed for
// what the other shards already had to do, not for this.) And t must be at
// least a lookahead after the running process's clock, the one thing the
// windows take on trust: q's shard may already have run up to that far
// ahead, so an earlier effect would silently reorder the run instead.
func (sh *shard) crossShard(verb string, q *Proc, t, w Time) {
	la := sh.eng.cfg.Lookahead
	if r := sh.running; r != nil && t < r.now+la {
		panic(fmt.Sprintf("sim: %s[%d] on node %d %s %s[%d] on node %d for t=%d, less than the lookahead (%d) after its own clock t=%d: cross-node effects this fast need Config.Lookahead 0",
			r.Name, r.ID, r.cpu.node, verb, q.Name, q.ID, q.cpu.node, t, la, r.now))
	}
	sh.clamp(w + la)
}

// clamp ends the shard's current window at h if that is earlier.
func (sh *shard) clamp(h Time) {
	if h >= sh.horizon {
		return
	}
	sh.horizon = h
	sh.counters.HorizonClamps++
	if r := sh.running; r != nil && h < r.window {
		r.window = h
	}
}

// nextStep returns a lower bound on the time of the step the shard would
// take next, for the built-in driver to order shards by and to bound the
// others' horizons with. It is computed from the shard as it stands, every
// time: normally the heap root, minEffective. While a pass still has CPUs
// to look at, that is all that can be said, and the window that runs the
// pass settles it. After it, the bound is exact: a root queued behind an
// incumbent that overran its slice when nobody wanted the CPU cannot run
// before the incumbent yields, so the next step is the earliest incumbent's.
func (sh *shard) nextStep() Time {
	m := sh.minEffective()
	if m >= Forever || len(sh.dirty) > 0 || m >= sh.staleMin {
		return m
	}
	if p := sh.earliestIncumbent(); p != nil {
		return p.key
	}
	return Forever
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
// and only preemptIfStale and dispatch also read shard progress, which
// staleMin tracks. A CPU whose pass changed something stays dirty for the
// next step.
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
		changed = sh.dispatch(c, minEff) || changed
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

// staleAt returns the shard progress at which c needs a pass that nothing
// else asks for: when its incumbent, waiting past its quantum while others
// want the CPU, is to be switched out, or, if c is idle, when its next
// process is due (dispatch). Forever if neither.
func (sh *shard) staleAt(c *CPU) Time {
	p := c.current
	if p == nil {
		_, due := c.next()
		return due
	}
	if sh.eng.cfg.Quantum > 0 && p.state == stateWaiting && p.wakeAt > c.sliceEnd && anyoneElseWants(c) {
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
	if c.current == nil || minEff < sh.staleAt(c) {
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

// next returns the index in c's queue of the process an idle CPU c runs
// next and when it can start: the earliest, ties going to the lowest
// priority value, then FIFO order (ordering by readiness, not priority
// alone, keeps a sleeping process's future wake from starving an
// immediately ready one). -1 and Forever if every queued process waits for
// a notification.
func (c *CPU) next() (int, Time) {
	best, due := -1, Forever
	for i, q := range c.queue {
		if t := q.effectiveTime(); t < due || t == due && best >= 0 && q.Priority < c.queue[best].Priority {
			best, due = i, t
		}
	}
	return best, due
}

// dispatch installs c's next process on c if c is idle and that process is
// due: the shard has progressed to its start (minEff), so nothing here can
// act, let alone notify it, before then. A waiting or blocked process's wake
// is committed here: its clock moves to the wake and the one wake consumes
// whatever was pending. A process therefore holds a CPU only to run on it,
// or to spin in Wait.
func (sh *shard) dispatch(c *CPU, minEff Time) bool {
	if c.current != nil {
		return false
	}
	i, due := c.next()
	if due > minEff {
		return false
	}
	p := c.queue[i]
	c.queue = append(c.queue[:i], c.queue[i+1:]...)
	start := max(p.now, c.freeAt)
	if c.lastRan != nil && c.lastRan != p {
		start += sh.eng.cfg.CtxSwitch
		sh.ctxSwitches++
		if sh.tracer != nil {
			sh.tracer.Emit(trace.Event{T: start, Cat: "sched", Ev: "switch", P: p.ID, O: c.id})
		}
	}
	if p.state == stateWaiting || p.state == stateBlocked {
		start = max(start, p.wakeAt)
		p.wakeAt = Forever
		p.state = stateReady
	}
	p.now = start
	c.current = p
	c.sliceEnd = Forever
	if sh.eng.cfg.Quantum > 0 {
		c.sliceEnd = start + sh.eng.cfg.Quantum
	}
	return true
}

// earliestIncumbent returns the process the next step would resume: the
// heap root, or, when the root is descheduled behind an incumbent that has
// outrun its slice but was not switched out yet, the incumbent with the
// smallest (effective time, ID), since only incumbents can be resumed. nil
// if there is none.
func (sh *shard) earliestIncumbent() *Proc {
	best := sh.heap[0]
	if best.cpu.current == best {
		return best
	}
	best = nil
	for _, c := range sh.cpus {
		if p := c.current; p != nil && (best == nil || p.before(best)) {
			best = p
		}
	}
	return best
}

// pick returns the process to resume, the earliest incumbent if it can act
// before the horizon. Otherwise it returns nil and distinguishes "nothing
// before the horizon" (WindowHorizon) from "nothing ever" (WindowIdle).
func (sh *shard) pick(horizon Time) (*Proc, WindowStatus) {
	best := sh.earliestIncumbent()
	if best == nil || best.key >= Forever {
		return nil, WindowIdle
	}
	if best.key >= horizon {
		return nil, WindowHorizon
	}
	best.cpu.touch()
	if best.state == stateWaiting {
		// Its event has arrived: the wake is committed here, in time order
		// within the shard and before the horizon, so every notification
		// that could still have made it earlier has been delivered. The
		// clock moves to the wake time and the one wake consumes whatever
		// was pending.
		best.now = max(best.now, best.wakeAt)
		best.wakeAt = Forever
		best.state = stateReady
	}
	if best.wakeAt <= best.now {
		// A notification for a time the process is already at or past. It
		// arrived while the process was descheduled mid-run, either
		// clamped to its clock then or overtaken since by a dispatch that
		// moved the clock (Advance drops the ones it runs past itself).
		// The process has nothing to wait for, so it is dropped before the
		// process takes another step: how often a process yields differs
		// between drivers, what it has seen by a given step must not.
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
		if p.state != stateDone && !p.idle() {
			return false
		}
	}
	return true
}

// MaxTimeError reports a run that was still going at Config.MaxTime. A run
// in which one process waits for ever while the others keep polling gets
// here, not to the watchdog (they are making progress), so like StallError
// it carries the dump hook's output: the dump says where.
type MaxTimeError struct {
	MaxTime Time
	Proc    string // the process whose next step passed MaxTime
	At      Time   // its clock
	Extra   string // higher-layer dump-hook output
}

func (e *MaxTimeError) Error() string {
	s := fmt.Sprintf("sim: exceeded MaxTime %d at proc %s (t=%d)", e.MaxTime, e.Proc, e.At)
	if e.Extra != "" {
		s += "\n" + e.Extra
	}
	return s
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
	// Starved is the starve probe's answer when that is what failed the
	// run: the operation that waited longer than Budget while others worked.
	Starved string
}

func (e *StallError) Error() string {
	var b strings.Builder
	if e.Starved != "" {
		fmt.Fprintf(&b, "sim: stall watchdog: %s, longer than the budget of %d cycles (t=%d)", e.Starved, e.Budget, e.At)
	} else {
		fmt.Fprintf(&b, "sim: stall watchdog: no process progress for %d cycles (t=%d, last progress t=%d, %d scheduler iterations)",
			e.At-e.LastProgress, e.At, e.LastProgress, e.Iters)
	}
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
func (e *Engine) stallErrorAt(sh *shard, lastProgress Time) *StallError {
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
