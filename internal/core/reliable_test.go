package core

import (
	"errors"
	"testing"

	"repro/internal/memchannel"
	"repro/internal/sim"
)

// reliableConfig is a Base-Shasta topology where every process is its own
// node, so all protocol traffic crosses the network and is sequenced.
func reliableConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.CPUsPerNode = 1
	cfg.SMP = false
	cfg.SharedQueues = false
	cfg.SharedBytes = 64 << 10
	cfg.MaxTime = sim.Cycles(60e6)
	cfg.ReliableDelivery = true
	return cfg
}

// mixWorkload exercises read misses, write misses, upgrades, forwarded
// requests, invalidation fans and MP locks/barriers across 4 processes.
// Returns the final shared snapshot and a digest of per-agent line states.
func runMixWorkload(t *testing.T, cfg Config) (*System, []uint64) {
	t.Helper()
	s := Build(WithConfig(cfg))
	const words = 64
	var arr uint64
	var lk, bar [4]int
	body := func(rank int) func(*Proc) {
		return func(p *Proc) {
			for i := 0; i < 120; i++ {
				w := (i*7 + rank*13) % words
				l := w % 4
				p.LockAcquire(lk[l])
				v := p.Load(arr + uint64(w*8))
				p.Store(arr+uint64(w*8), v+1)
				p.LockRelease(lk[l])
				if i%40 == 19 {
					p.MemBar()
				}
			}
			// Two post-barrier read passes pull the lines back shared. One
			// is not enough to make the final line states independent of
			// timing: a read of a block the home has found migratory
			// takes it exclusive from the previous reader, so which agents
			// hold a block after one pass depends on the order the reads
			// reached its home, and a duplicate's extra handling reorders
			// them. But a grantee that gives a block up unwritten makes it
			// ordinary for good, and every block has at least two readers in
			// the first pass besides its last writer, so the second pass
			// serves every read shared and every line ends Shared at every
			// agent, whatever the order.
			for pass := 0; pass < 2; pass++ {
				p.BarrierWait(bar[0])
				var sum uint64
				for w := 0; w < words; w++ {
					sum += p.Load(arr + uint64(w*8))
				}
				if sum != 4*120 {
					t.Errorf("rank %d read sum %d in pass %d, want %d", rank, sum, pass, 4*120)
				}
			}
		}
	}
	for i := 0; i < 4; i++ {
		i := i
		s.Spawn("w", i, body(i))
	}
	for i := range lk {
		lk[i] = s.NewLock(i)
	}
	bar[0] = s.NewBarrier(0, 4)
	arr = s.Alloc(words*8, AllocOptions{})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s, s.SnapshotShared()
}

// lineStateDigest captures every agent's line-state table.
func lineStateDigest(s *System) []LineState {
	var out []LineState
	for _, a := range s.agents {
		out = append(out, a.table...)
	}
	return out
}

func equalStates(a, b []LineState) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalWords(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestProtocolIdempotenceUnderDuplication is the satellite property test:
// duplicating any single sequenced message at delivery must leave the
// final memory contents and line states unchanged — the duplicate filter
// makes every handler path idempotent. Duplicating a sampled subset keeps
// the test fast while still covering every message kind the workload
// produces (requests, replies, invals, writebacks, lock/barrier traffic).
func TestProtocolIdempotenceUnderDuplication(t *testing.T) {
	var total int64
	countHook := func(n int64) bool {
		total = n + 1
		return false
	}
	SetDebugForceDup(countHook)
	_, baseMem := runMixWorkload(t, reliableConfig())
	baseSys, baseMem2 := runMixWorkload(t, reliableConfig())
	SetDebugForceDup(nil)
	if !equalWords(baseMem, baseMem2) {
		t.Fatal("baseline runs disagree; workload is nondeterministic")
	}
	baseStates := lineStateDigest(baseSys)
	if total < 100 {
		t.Fatalf("workload only delivered %d messages; too small to sample", total)
	}
	step := total / 23
	if step < 1 {
		step = 1
	}
	for dup := int64(0); dup < total; dup += step {
		dup := dup
		SetDebugForceDup(func(n int64) bool { return n == dup })
		sys, mem := runMixWorkload(t, reliableConfig())
		SetDebugForceDup(nil)
		agg := sys.AggregateStats()
		if got := agg.DupsSuppressed(); got == 0 {
			// The duplicated message may have been unsequenced traffic
			// (the hook filters for seq != 0, so this means the index
			// landed on nothing) — still must be equivalent.
			t.Logf("dup at %d: no duplicate actually injected", dup)
		}
		if !equalWords(mem, baseMem) {
			t.Fatalf("dup of message %d changed final memory", dup)
		}
		if !equalStates(lineStateDigest(sys), baseStates) {
			t.Fatalf("dup of message %d changed final line states", dup)
		}
	}
}

// TestReliableDeliveryMatchesBaseline: turning the sublayer on without
// faults must not change the protocol's outcome (memory and line states),
// even though acks add traffic and shift timing.
func TestReliableDeliveryMatchesBaseline(t *testing.T) {
	cfg := reliableConfig()
	cfg.ReliableDelivery = false
	_, base := runMixWorkload(t, cfg)
	relSys, rel := runMixWorkload(t, reliableConfig())
	if !equalWords(base, rel) {
		t.Fatal("ReliableDelivery changed final memory contents")
	}
	relAgg := relSys.AggregateStats()
	if relAgg.NetAcksSent() == 0 {
		t.Fatal("reliable run sent no net acks")
	}
}

// TestLossyFaultsConverge: under the lossy profile the same workload must
// complete (retransmissions recover every drop) with identical memory.
func TestLossyFaultsConverge(t *testing.T) {
	_, base := runMixWorkload(t, reliableConfig())
	var held int64
	for _, seed := range []int64{1, 2, 3} {
		cfg := reliableConfig()
		fc, err := memchannel.FaultProfile("lossy", seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = fc
		sys, mem := runMixWorkload(t, cfg)
		if !equalWords(base, mem) {
			t.Fatalf("seed %d: lossy run diverged from fault-free memory", seed)
		}
		st := sys.AggregateStats()
		net := sys.Net.Stats()
		if net.Drops == 0 {
			t.Fatalf("seed %d: lossy run dropped nothing; fault injection inactive", seed)
		}
		if st.Retransmits() == 0 {
			t.Fatalf("seed %d: drops occurred but nothing was retransmitted", seed)
		}
		held += st.HeldArrivals()
	}
	// Dropped messages leave sequence gaps, so later traffic on the same
	// link must have been buffered by the resequencer at least once.
	if held == 0 {
		t.Fatal("no arrivals were ever held for resequencing across any seed")
	}
}

// TestLinkResequencer drives the receiver-side link resequencer directly:
// out-of-order arrivals are buffered, the gap release flushes them in
// sequence order with nondecreasing arrival times, and duplicates of
// released seqs are enqueued dup-tagged so the handler re-acks them.
func TestLinkResequencer(t *testing.T) {
	s := Build(WithConfig(reliableConfig()))
	dst := &Proc{node: 0}
	box := newQueueBox()
	enq := func(seq int64, arrive sim.Time) {
		s.reseqEnqueue(1, dst, msg{kind: msgReadReply, seq: seq}, box, arrive)
	}
	pop := func() (msg, bool) { return box.q.Pop(sim.Forever) }

	enq(2, 300) // overtakes seq 1: held
	enq(3, 100) // also held
	if _, ok := pop(); ok {
		t.Fatal("out-of-order arrival reached the queue before the gap filled")
	}
	enq(2, 310) // copy of a held seq: dropped outright
	enq(1, 500) // fills the gap: releases 1, 2, 3 in order
	var got []int64
	var arrives []sim.Time
	for {
		m, ok := pop()
		if !ok {
			break
		}
		if m.dup {
			t.Fatalf("fresh release of seq %d tagged dup", m.seq)
		}
		got = append(got, m.seq)
		arrives = append(arrives, m.arrive)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("released seqs %v, want [1 2 3]", got)
	}
	for i := 1; i < len(arrives); i++ {
		if arrives[i] < arrives[i-1] {
			t.Fatalf("release arrivals decrease: %v", arrives)
		}
	}
	enq(2, 900) // late retransmission of a released seq: dup-tagged
	m, ok := pop()
	if !ok || !m.dup {
		t.Fatalf("late retransmission not enqueued as dup (ok=%v)", ok)
	}
}

// TestReorderHeavyFaultsConverge: heavy extra-delay reordering (no
// losses) must be absorbed entirely by the resequencing window — the
// protocol sees FIFO order and the outcome matches the fault-free run.
func TestReorderHeavyFaultsConverge(t *testing.T) {
	_, base := runMixWorkload(t, reliableConfig())
	cfg := reliableConfig()
	cfg.Faults = memchannel.FaultConfig{Seed: 7, DelayProb: 0.5, MaxExtraDelay: 20000}
	sys, mem := runMixWorkload(t, cfg)
	if !equalWords(base, mem) {
		t.Fatal("reorder-heavy run diverged from fault-free memory")
	}
	// Pure delays never populate the held buffer (enqueue order is send
	// order); they are absorbed by the resequencer's arrival clamp. The
	// observable effect is simply that memory stays correct.
	_ = sys
}

// TestUnreachablePeerFailsStructured: a peer that never acks (100% drop
// toward it) must surface NodeUnreachableError with the retry history,
// not hang or trip the stall watchdog.
func TestUnreachablePeerFailsStructured(t *testing.T) {
	cfg := reliableConfig()
	cfg.Nodes = 2
	cfg.Faults = memchannel.FaultConfig{Seed: 1, DropProb: 1}
	s := Build(WithConfig(cfg))
	var arr uint64
	s.Spawn("reader", 0, func(p *Proc) {
		p.Load(arr) // remote miss; request is dropped forever
	})
	s.Spawn("idle", 1, func(p *Proc) {
		p.Compute(100)
	})
	arr = s.Alloc(64, AllocOptions{Home: HomeAt(1)})
	err := s.Run()
	if err == nil {
		t.Fatal("run with a total-loss link completed")
	}
	var ne *NodeUnreachableError
	if !errors.As(err, &ne) {
		t.Fatalf("want NodeUnreachableError, got %T: %v", err, err)
	}
	if ne.Proc != 0 || ne.Peer != 1 {
		t.Errorf("error names procs %d->%d, want 0->1", ne.Proc, ne.Peer)
	}
	if want := RetxMaxRetries + 1; ne.Attempts != want {
		t.Errorf("attempts = %d, want %d", ne.Attempts, want)
	}
	if len(ne.RetryHistory) != ne.Attempts {
		t.Errorf("retry history has %d entries, want %d", len(ne.RetryHistory), ne.Attempts)
	}
	for i := 1; i < len(ne.RetryHistory); i++ {
		if ne.RetryHistory[i] <= ne.RetryHistory[i-1] {
			t.Errorf("retry history not increasing: %v", ne.RetryHistory)
		}
	}
}
