package sim

import (
	"fmt"
	"runtime"
)

// CPU models one processor of an SMP node. Processes are bound to a CPU;
// at most one process runs on a CPU at a time, selected FIFO by priority
// with quantum-based preemption.
type CPU struct {
	id       int
	node     int
	shard    *shard // scheduling domain this CPU belongs to
	current  *Proc
	queue    []*Proc // descheduled processes bound to this CPU
	lastRan  *Proc
	freeAt   Time // time the CPU last became free
	sliceEnd Time // when the current process's quantum expires
	dirty    bool // listed in shard.dirty
}

// ID returns the global CPU index.
func (c *CPU) ID() int { return c.id }

// Node returns the node this CPU belongs to.
func (c *CPU) Node() int { return c.node }

// Proc is a simulated process. All methods must be called only from within
// the process's own body function, except NotifyAt, which is called by other
// running processes to deliver an event.
type Proc struct {
	ID       int
	Name     string
	Priority int

	// Data is an arbitrary per-process payload for higher layers.
	Data any

	eng    *Engine
	cpu    *CPU
	now    Time
	window Time // may run until local clock reaches this
	state  procState
	wakeAt Time
	// working marks a process parked in AdvanceUnlessNotified: its wait is
	// charged work, which the stall watchdog credits at its wake (or when it
	// is about to trip, see creditParkedWork).
	working bool
	// serving marks a process parked in Serve: with no wake pending it has
	// nothing left to do, and the run may end without it (idle).
	serving bool
	abort   bool
	// external marks a process driven from outside Engine.Run, never
	// scheduled; stepping is set while Step runs its body, the one place it
	// may block. See ExternalProc.
	external, stepping bool

	key  Time // cached effectiveTime, the heap key
	hpos int  // index in shard.heap

	// The process body runs as a coroutine created at its first resume:
	// resume runs it until it yields or returns, stop unwinds it.
	body   func(*Proc)
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
}

// Now returns the process's local clock.
func (p *Proc) Now() Time { return p.now }

// CPUIndex returns the global index of the CPU this process is bound to.
func (p *Proc) CPUIndex() int { return p.cpu.id }

// Node returns the node index this process runs on.
func (p *Proc) Node() int { return p.cpu.node }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.eng }

// run is the coroutine body wrapper.
func (p *Proc) run(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		p.state = stateDone
		r := recover()
		if r == nil || r == any(abortSignal) || p.abort {
			return
		}
		if p.external {
			panic(r) // to Step's caller
		}
		buf := make([]byte, 16384)
		n := runtime.Stack(buf, false)
		p.cpu.shard.fail(fmt.Errorf("sim: process %s[%d] panicked at t=%d: %v\n%s", p.Name, p.ID, p.now, r, buf[:n]))
	}()
	p.body(p)
}

type abortSignalType struct{}

var abortSignal = abortSignalType{}

// Fail aborts the whole simulation with a structured error: the engine's
// Run returns err after unwinding every process. Higher layers use it to
// surface typed failures (e.g. a peer declared unreachable after retry
// exhaustion) the same way the watchdog surfaces StallError. Must be
// called from within the process's own body; it does not return.
func (p *Proc) Fail(err error) {
	p.cpu.shard.fail(err)
	panic(abortSignal)
}

// yieldBack returns control to the engine and parks until resumed.
func (p *Proc) yieldBack() {
	if p.external && !p.stepping {
		panic(fmt.Sprintf("sim: external process %s attempted to block at t=%d outside its body", p.Name, p.now))
	}
	// The yield fails once drain has stopped the coroutine, also for a
	// deferred guest cleanup that blocks while the process unwinds.
	if !p.yield(struct{}{}) {
		panic(abortSignal)
	}
}

// Step runs an external process's body, from the start or from where it
// last blocked, until it blocks again or returns. A panic in the body
// propagates to the caller.
func (p *Proc) Step() {
	if !p.external || p.body == nil {
		panic(fmt.Sprintf("sim: Step of %s, which is not an external process with a body", p.Name))
	}
	p.stepping = true
	defer func() { p.stepping = false }()
	p.switchTo()
}

// Stop unwinds an external process's body if it is suspended in it, running
// its deferred cleanups.
func (p *Proc) Stop() {
	if p.stop != nil && p.state != stateDone {
		p.abort, p.stepping = true, true
		p.stop()
		p.stepping = false
	}
}

// Advance charges c cycles of execution to the process's clock, yielding to
// the engine if that crosses the causality window.
func (p *Proc) Advance(c Time) {
	if c < 0 {
		panic("sim: negative advance")
	}
	p.now += c
	if c > 0 {
		p.cpu.shard.progress(p.now)
		if p.wakeAt <= p.now {
			// The process has run past a pending notification. It is
			// dropped here, on the process's own trajectory; dropping it
			// at the next resume instead (see pick) would let the next
			// Wait return at once or not, depending on whether a window
			// happened to end in between.
			p.wakeAt = Forever
		}
	}
	if p.now >= p.window {
		p.yieldBack()
	}
}

// AdvanceUnlessNotified charges up to c cycles of private work — work that
// reads and writes nothing another process can see — and stops early at a
// notification: the clock moves to the earlier of now+c and the process's
// wake, a pending one included, which is consumed, and the cycles charged
// are returned. It is "NotifyAt(now+c); Wait()" for a process that is busy
// rather than idle, which makes two differences. If the stretch ends below
// the window, nobody in this shard or any other can act, let alone notify,
// before it does, so the clock moves there without a yield. And the time is
// charged work, the stall watchdog's definition of progress, also while the
// process is parked: two processes that each work for longer than the
// watchdog's budget are not a stall. As before a Wait, the caller registers
// wherever its notifications come from first and re-reads that state after.
//
// It is for a process that has its CPU to itself. One that shares it can
// lose it to the quantum like any waiting process; its clock then moves past
// now+c, charged for work it had no CPU to do.
func (p *Proc) AdvanceUnlessNotified(c Time) Time {
	if c < 0 {
		panic("sim: negative advance")
	}
	start, sh := p.now, p.cpu.shard
	end := min(start+c, p.wakeAt)
	if end >= p.window {
		p.wakeAt = end
		p.working = true
		p.state = stateWaiting
		sh.counters.Parks++
		p.yieldBack() // pick moves the clock to the wake and consumes it
		p.working = false
		if p.now < start+c {
			sh.counters.EarlyWakes++
		}
		return p.now - start
	}
	p.now = end
	if end > start {
		sh.progress(end)
	}
	if p.wakeAt <= end {
		p.wakeAt = Forever
	}
	return end - start
}

// Wait parks the process until another process calls NotifyAt. The process
// keeps its CPU while waiting (it models Shasta's spin-polling for protocol
// replies), whatever it did before, a Block included; it loses the CPU only
// at quantum expiry, if another process wants it then.
func (p *Proc) Wait() {
	p.state = stateWaiting
	p.yieldBack()
}

// Block parks the process and releases its CPU (models blocking in the OS,
// e.g. pid_block or file I/O). It returns after another process calls
// NotifyAt and the scheduler gives the CPU back: the process waits in the
// CPU's queue, and dispatch puts it on the CPU, woken, once the wake is due
// and the CPU is free.
func (p *Proc) Block() {
	p.state = stateBlocked
	p.yieldBack()
}

// Serve parks the process as Block does, for a server that has nothing to
// do until it is notified. While it is parked with no wake pending it is
// idle: the run ends once every process has finished or is idle, and the
// engine then retires it with its exit event at its own clock, without
// resuming it.
func (p *Proc) Serve() {
	p.serving = true
	p.Block()
	p.serving = false
}

// idle reports whether the process is parked in Serve with no wake pending.
func (p *Proc) idle() bool {
	return p.serving && p.state == stateBlocked && p.wakeAt >= Forever
}

// NotifyAt delivers an event to p at absolute time t: if p is waiting or
// blocked, it becomes schedulable at max(t, its own clock). Multiple
// notifications keep the earliest. Safe to call only from a running process
// or before Run starts.
func (p *Proc) NotifyAt(t Time) {
	w := max(t, p.now)
	sh := p.cpu.shard
	if w < p.wakeAt {
		p.wakeAt = w
		p.cpu.touch()
		if cur := p.eng.cur; cur != nil && cur != sh {
			// p may act from w on, and what it does reaches the notifier's
			// shard a lookahead later.
			cur.crossShard("notifies", p, t, w)
		}
	}
	// The notifier must yield control by the wake time, or the waiter
	// would be resumed only after the notifier's (possibly unbounded)
	// window expires. (A notifier in another shard is held back by clamp
	// above, or is not running at all: a Runner delivers cross-shard
	// notifications at window barriers.)
	if r := sh.running; r != nil && r != p && w < r.window {
		r.window = w
	}
}

// DelayWake moves the pending wake of a waiting process later, to t: for a
// process that finds the reason it notified p gone before p woke (a message
// it was woken for, taken by another). The caller answers for t: nothing
// else p waits for may come before it, or that wake-up is lost. It covers a
// process parked in Wait or AdvanceUnlessNotified, and one parked in Serve.
// A process in any other state (one that dispatch has already woken
// included), or whose wake is t or later already, is left alone. Like
// NotifyAt, safe to call only from a running process of p's shard.
func (p *Proc) DelayWake(t Time) {
	parked := p.state == stateWaiting || p.serving && p.state == stateBlocked
	if !parked || t <= p.wakeAt {
		return
	}
	p.wakeAt = t
	p.cpu.touch()
}

// effectiveTime is the earliest simulated time at which this process could
// next execute an action, from the scheduler's point of view.
func (p *Proc) effectiveTime() Time {
	t := p.now
	switch p.state {
	case stateDone:
		return Forever
	case stateWaiting, stateBlocked:
		t = p.wakeAt
	}
	if t >= Forever {
		return Forever
	}
	if p.cpu.current != p {
		// Descheduled: cannot run before the incumbent's quantum expires.
		if p.cpu.current != nil && t < p.cpu.sliceEnd {
			t = p.cpu.sliceEnd
		}
		if t < p.cpu.freeAt {
			t = p.cpu.freeAt
		}
	}
	return t
}
