// Package parallel drives a sim.Engine's per-node shards concurrently, as a
// conservative parallel discrete-event simulation (PDES) with deterministic,
// sequential-equivalent results. It is the several-threads case of the rule
// in package sim's comment (a shard may run to the earliest event of any
// other shard plus the lookahead): so that all shards can run at once, every
// shard gets the same, shortest window, and cross-shard effects wait for the
// barrier between rounds. The engine's built-in driver applies the same rule
// one shard at a time, with a horizon per shard and no rounds.
//
// # The window/lookahead rule
//
// Let B be the global minimum effective time — the earliest simulated time
// at which any process in any shard can next act — and L the lookahead:
// the minimum simulated latency of any cross-node interaction. In the
// modeled cluster every cross-node effect travels over the Memory Channel,
// so an effect initiated at time t is observable remotely no earlier than
// t + L (link occupancy and injected delay faults only add to that). Any
// event a shard executes in the half-open window [B, B+L) therefore cannot
// influence another shard within the same window: its remote consequences
// land at or after the horizon H = B + L. All shards can run their windows
// concurrently, one goroutine per shard (bounded by the worker pool), with
// no synchronization other than the barrier at H.
//
// # Why conservative, not optimistic
//
// An optimistic engine (Time Warp) would speculate past the horizon and
// roll back on a straggler message. Rollback requires checkpointing every
// layer of mutable state — directory entries, agent line tables, MSHRs,
// resequencer windows, retransmit queues, guest heap words — or making all
// of it reversible; the DSM protocol above this engine is exactly the kind
// of fine-grained, pointer-rich state that makes state-saving cost exceed
// the speculation win. The conservative window needs no rollback, and the
// cost model guarantees a useful lookahead (the Memory Channel's one-way
// latency, hundreds of simulated cycles), so windows are wide enough to
// batch meaningful work per barrier.
//
// # Determinism and sequential equivalence (proof sketch)
//
// Strict global order is a one-shard instance of the same scheduler
// (lookahead 0: sim.Engine.Run calls runWindow with an infinite horizon), so
// equivalence reduces to three observations:
//
//  1. Shard projection. Scheduling decisions — dispatch, quantum expiry,
//     pick order — read only shard-local state
//     (the shard's CPUs and the processes bound to them). The sequential
//     schedule, restricted to one shard's processes, is therefore a legal
//     schedule of that shard alone, and the shard scheduler reproduces it
//     step for step: both always run the shard's earliest-eligible
//     process next.
//
//  2. Window isolation. Within a window a shard mutates only its own
//     node's state. Cross-node messages are staged by the DSM layer and
//     committed at the barrier; by the lookahead rule they arrive at or
//     after the horizon, so no in-window poll could have observed them in
//     the sequential run either (a process's poll points are charge
//     boundaries of its own trajectory, not scheduler artifacts).
//
//  3. Canonical commit. Staged messages are committed per sending node in
//     staging order, which per link equals the sequential enqueue order,
//     and receive queues order entries by a key that is a pure function
//     of the message (arrival time, then send time/sender/sequence — see
//     memchannel.Ord), so queue contents after the barrier are
//     independent of commit interleaving across links.
//
// Induction over windows: if all shards enter a window with the state the
// sequential run had at time B, every process performs the same actions at
// the same simulated times within the window (1, 2), and the barrier
// commit reproduces the sequential cross-node state at H (3). Memory
// images, core.Stats, and the multiset of trace events are therefore
// identical to the sequential engine's; trace stream order within a window
// is merged per node and is deterministic run to run.
//
// # Staging and merge
//
// The DSM layer stages cross-node wire copies (message, destination queue,
// arrival time, ordering key) in per-sending-node buffers and registers a
// barrier hook; per-node trace events accumulate in per-shard buffering
// tracers. At each barrier the coordinator — single-threaded, all shards
// parked — applies staged puts and drains the trace buffers in node order.
// Stall-watchdog trips inside a window park the shard instead of dumping,
// and the coordinator confirms or clears them at the barrier against
// global progress, so multi-process dumps are never torn.
package parallel

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/sim"
)

// Engine is a sim.Runner that schedules shard windows on a bounded worker
// pool. Zero workers means one per available CPU core.
type Engine struct {
	workers int
}

// New returns a parallel runner with the given worker-pool size; pass it
// to core.WithEngine. workers <= 0 uses runtime.GOMAXPROCS(0).
func New(workers int) *Engine { return &Engine{workers: workers} }

// Workers returns the configured pool size (0 = automatic).
func (p *Engine) Workers() int { return p.workers }

func (p *Engine) String() string {
	if p.workers <= 0 {
		return "parallel(auto)"
	}
	return fmt.Sprintf("parallel(%d)", p.workers)
}

// Run drives the engine to completion: repeated conservative windows with
// a commit barrier between rounds. It is installed via Engine.SetRunner
// and called from sim.Engine.Run, which retains ownership of process
// tear-down (the serialized drain).
func (p *Engine) Run(e *sim.Engine) error {
	n := e.NumShards()
	lookahead := e.Lookahead()
	if lookahead <= 0 {
		panic("parallel: engine has no lookahead; the coordinator cannot form a window (set sim.Config.Lookahead to the minimum cross-node latency)")
	}
	workers := p.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}

	// Persistent pool: the coordinator itself is executor zero and spawns
	// workers-1 pool goroutines, each fed a horizon per round. Executors
	// claim shard indices from a shared cursor so an imbalanced round (one
	// shard much busier than the rest) does not idle the pool. Rounds are
	// short — horizon steps are one lookahead wide — so round handoff must
	// be cheap: with workers=1 there is no handoff at all (the coordinator
	// runs every shard inline), and channel sends are cheap enough for the
	// rest; goroutine spawns are not.
	statuses := make([]sim.WindowStatus, n)
	var cursor atomic.Int64
	pool := workers - 1
	start := make([]chan sim.Time, pool)
	done := make(chan struct{}, pool)
	claim := func(horizon sim.Time) {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= n {
				return
			}
			statuses[i] = e.RunShardWindow(i, horizon)
		}
	}
	for k := 0; k < pool; k++ {
		start[k] = make(chan sim.Time)
		go func(k int) {
			for horizon := range start[k] {
				claim(horizon)
				done <- struct{}{}
			}
		}(k)
	}
	defer func() {
		for k := range start {
			close(start[k])
		}
	}()

	for {
		base := e.GlobalMinEffective()
		if base >= sim.Forever {
			if e.AllDone() {
				return nil
			}
			return e.DeadlockError()
		}
		horizon := base + lookahead

		cursor.Store(0)
		for k := 0; k < pool; k++ {
			start[k] <- horizon
		}
		claim(horizon)
		for k := 0; k < pool; k++ {
			<-done
		}

		// Barrier: all shards parked. Commit staged cross-node effects and
		// merge trace buffers first so error/stall reporting below sees a
		// complete, consistent picture.
		e.CommitRound()

		anyErr := false
		for i := 0; i < n; i++ {
			switch statuses[i] {
			case sim.WindowErr:
				anyErr = true
			case sim.WindowStall:
				// Re-check the shard-local watchdog trip against global
				// progress; a confirmed stall dumps here, at the barrier,
				// where the multi-process snapshot is consistent.
				if serr := e.ConfirmStall(i); serr != nil {
					return serr
				}
			}
		}
		if anyErr {
			// Windows are causally independent, so the lowest-indexed
			// shard's error is a deterministic choice even when several
			// shards failed in the same round.
			return e.FirstErr()
		}
	}
}
