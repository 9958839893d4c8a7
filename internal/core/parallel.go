package core

import (
	"repro/internal/memchannel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file wires the DSM layer to a sim.Runner that runs the engine's
// per-node shards concurrently, in rounds (internal/sim/parallel). The
// built-in driver runs one shard window at a time and needs none of it:
// cross-node puts go straight into the destination queue and every event
// into the main tracer. Under a Runner the DSM layer's obligations are:
//
//   - stage cross-node message puts during a window and commit them at the
//     window barrier (in-window, shards may only mutate their own node's
//     queues, agents, and directory entries);
//   - route every trace emit to the acting process's node so concurrent
//     shards never share a tracer, and merge the per-node buffers into the
//     main tracer at each barrier.
//
// Exits need nothing here: an exited process serves until the whole run is
// at rest (sim.Proc.Serve), which the drivers decide between windows.
//
// Everything here is inert (nil s.par, active=false) unless the system was
// built WithEngine.

// parState is the per-run parallel support state.
type parState struct {
	runner sim.Runner
	active bool
	// staged cross-node puts, indexed by sending node. Entries are
	// committed in staging order per node, which per destination link is
	// exactly the sequential engine's enqueue order (shard execution order
	// equals the sequential schedule restricted to the shard).
	staged [][]stagedPut
	// shardTracers holds one buffering tracer per node (nil when tracing
	// is off); commitRound drains them into s.tracer in node order.
	shardTracers []*trace.Tracer
}

// stagedPut is one wire copy awaiting commit at the window barrier.
type stagedPut struct {
	dst    *Proc
	m      msg
	box    *queueBox
	arrive sim.Time
	ord    memchannel.Ord
}

// WithEngine installs a sim.Runner (e.g. parallel.New(workers)) that drives
// the engine's per-node shards in place of the built-in driver. It needs
// the shards, so it rejects the two configurations that run on one: WithOS
// (the cluster OS performs zero-latency cross-node notifications) and
// ProtocolProcs (protocol processes share CPUs with application processes,
// making quantum preemption points schedule-dependent). It also requires a
// static layout: Spawn and Alloc during the run panic by name.
func WithEngine(r sim.Runner) Option {
	return func(b *builder) { b.runner = r }
}

// enableParallel installs the runner and the staging machinery. Called
// from Build before any process is spawned.
func (s *System) enableParallel(r sim.Runner, wantOS bool) {
	if r == nil {
		return
	}
	if wantOS {
		panic("core: WithEngine(parallel) is incompatible with WithOS (the cluster OS layer performs zero-latency cross-node notifications; run it on the built-in driver)")
	}
	if s.Cfg.ProtocolProcs {
		panic("core: WithEngine(parallel) is incompatible with ProtocolProcs (dedicated protocol processes share CPUs with application processes, which makes preemption points depend on the schedule; run them on the built-in driver)")
	}
	s.par = &parState{
		runner: r,
		active: true,
		staged: make([][]stagedPut, s.Cfg.Nodes),
	}
	s.Eng.SetRunner(r)
	s.Eng.SetBarrierHook(s.commitRound)
	s.wireShardTracers()
}

// wireShardTracers gives each node a private buffering tracer (only when
// tracing is enabled at all).
func (s *System) wireShardTracers() {
	if s.par == nil {
		return
	}
	if s.tracer == nil {
		s.par.shardTracers = nil
		return
	}
	ts := make([]*trace.Tracer, s.Cfg.Nodes)
	for i := range ts {
		ts[i] = trace.NewBuffer()
	}
	s.par.shardTracers = ts
	s.Eng.SetShardTracers(ts)
	s.Net.SetNodeTracers(ts)
}

// parActive reports whether cross-node effects must currently be staged.
func (s *System) parActive() bool { return s.par != nil && s.par.active }

// tr returns the tracer for events attributed to process p: its node's
// buffer during a parallel run, the main tracer otherwise.
func (s *System) tr(p *Proc) *trace.Tracer {
	if s.par != nil && s.par.active && s.par.shardTracers != nil {
		return s.par.shardTracers[p.node]
	}
	return s.tracer
}

// stagePut records one cross-node wire copy for commit at the barrier.
func (s *System) stagePut(srcNode int, dst *Proc, m msg, box *queueBox, arrive sim.Time, ord memchannel.Ord) {
	s.par.staged[srcNode] = append(s.par.staged[srcNode], stagedPut{
		dst: dst, m: m, box: box, arrive: arrive, ord: ord,
	})
}

// commitRound is the engine's barrier hook: with every shard parked at the
// horizon, apply the staged cross-node puts and merge the per-node trace
// buffers. Committing per sending node in staging order reproduces the
// sequential engine's per-link resequencer call order, and the queues'
// canonical (arrival, Ord) ordering makes the interleaving across links
// irrelevant — so queue contents, held-arrival counts, and wake-ups are
// identical to the sequential run.
func (s *System) commitRound() {
	for n := range s.par.staged {
		for _, sp := range s.par.staged[n] {
			if sp.m.seq != 0 {
				s.reseqEnqueue(n, sp.dst, sp.m, sp.box, sp.arrive)
			} else {
				mm := sp.m
				mm.arrive = sp.arrive
				sp.box.put(mm, sp.arrive, sp.ord)
			}
		}
		s.par.staged[n] = s.par.staged[n][:0]
	}
	s.mergeShardTraces()
}

// mergeShardTraces drains each node's buffered events into the main tracer
// in node order (deterministic run to run; cross-engine comparisons use an
// order-blind multiset digest, trace.MultisetDigest).
func (s *System) mergeShardTraces() {
	if s.par.shardTracers == nil || s.tracer == nil {
		return
	}
	for _, bt := range s.par.shardTracers {
		bt.DrainBuffered(s.tracer.Emit)
	}
}

// finishParallel commits any leftover staged state after the engine
// returns (e.g. sends staged in the final window, or events emitted while
// draining) and drops back to direct tracing for end-of-run accounting.
func (s *System) finishParallel() {
	if s.par == nil {
		return
	}
	s.commitRound()
	s.par.active = false
}
