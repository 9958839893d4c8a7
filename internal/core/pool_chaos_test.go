package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/memchannel"
	"repro/internal/sim"
	"repro/internal/sim/parallel"
)

// Chaos alias tests for the buffer pool (pool.go): under drop, duplicate
// and delay faults — the regime where retransmissions put multiple
// copies of one buffer in flight — every recycle is audited against all
// live message storage (AuditRecycle), on both protocols. The parallel-
// engine legs skip the audit hook (scanning other shards' queues from a
// recycle would itself race) and instead assert the end-to-end contract:
// final memory byte-identical to the sequential run, pooled or not.

func chaosAliasConfig(protocol string) Config {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.CPUsPerNode = 1
	cfg.SMP = false
	cfg.SharedQueues = false
	cfg.SharedBytes = 64 << 10
	cfg.MaxTime = sim.Cycles(120e6)
	cfg.ReliableDelivery = true
	cfg.Protocol = protocol
	return cfg
}

// chaosProfiles are the fault schedules the alias tests sweep. Rates are
// high enough that every run observes drops (hence retransmissions),
// duplicates, and reordering.
var chaosProfiles = []struct {
	name   string
	faults memchannel.FaultConfig
}{
	{"drop", memchannel.FaultConfig{Seed: 11, DropProb: 0.05}},
	{"dup", memchannel.FaultConfig{Seed: 13, DupProb: 0.15}},
	{"mixed", memchannel.FaultConfig{Seed: 17, DropProb: 0.03, DupProb: 0.1, DelayProb: 0.25, MaxExtraDelay: 8000}},
}

// runChaosMix drives the shared-counter mix workload (reliable_test.go)
// under the given config and options, with the buffer and MSHR pools on or
// off, returning the final snapshot.
func runChaosMix(t *testing.T, cfg Config, pooled bool, opts ...Option) []uint64 {
	t.Helper()
	s := Build(append([]Option{WithConfig(cfg)}, opts...)...)
	s.pooling = pooled
	const words = 64
	var arr uint64
	var lk [4]int
	var bar int
	for i := 0; i < 4; i++ {
		rank := i
		s.Spawn("w", i, func(p *Proc) {
			for n := 0; n < 120; n++ {
				w := (n*7 + rank*13) % words
				l := w % 4
				p.LockAcquire(lk[l])
				v := p.Load(arr + uint64(w*8))
				p.Store(arr+uint64(w*8), v+1)
				p.LockRelease(lk[l])
			}
			p.BarrierWait(bar)
			var sum uint64
			for w := 0; w < words; w++ {
				sum += p.Load(arr + uint64(w*8))
			}
			if sum != 4*120 {
				t.Errorf("rank %d read sum %d, want %d", rank, sum, 4*120)
			}
		})
	}
	for i := range lk {
		lk[i] = s.NewLock(i)
	}
	bar = s.NewBarrier(0, 4)
	arr = s.Alloc(words*8, AllocOptions{})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s.SnapshotShared()
}

// TestChaosRecycleAudit: with the alias audit armed at every putBuf, the
// mix workload must complete under every fault profile on both protocols
// with zero audit violations, a nonzero recycle count (the test is not
// vacuous), and the exact fault-free memory image — which must also
// match the unpooled run under identical faults.
func TestChaosRecycleAudit(t *testing.T) {
	for _, protocol := range ProtocolNames() {
		base := runChaosMix(t, chaosAliasConfig(protocol), true)
		for _, prof := range chaosProfiles {
			t.Run(fmt.Sprintf("%s/%s", protocol, prof.name), func(t *testing.T) {
				var recycles atomic.Int64
				var mu sync.Mutex
				var auditErr error
				SetDebugBufRecycle(func(s *System, p *Proc, b []uint64) {
					recycles.Add(1)
					if err := AuditRecycle(s, p, b); err != nil {
						mu.Lock()
						if auditErr == nil {
							auditErr = err
						}
						mu.Unlock()
					}
				})
				defer SetDebugBufRecycle(nil)
				cfg := chaosAliasConfig(protocol)
				cfg.Faults = prof.faults
				snap := runChaosMix(t, cfg, true)
				if auditErr != nil {
					t.Fatal(auditErr)
				}
				if recycles.Load() == 0 {
					t.Fatal("no buffer recycles observed; audit is vacuous")
				}
				if !equalWords(base, snap) {
					t.Error("faulty pooled run diverged from fault-free memory")
				}
				SetDebugBufRecycle(nil)
				unpooled := runChaosMix(t, cfg, false)
				if !equalWords(snap, unpooled) {
					t.Error("pooling changed final memory under faults")
				}
			})
		}
	}
}

// TestChaosRecycleParallelEngine: the same faulty workload on the
// parallel engine must produce the sequential engine's exact memory,
// pooled and unpooled. (The global audit hook stays unarmed here: its
// cross-shard scan would race; aliasing bugs surface instead as memory
// divergence or as -race reports on the reused buffer itself.)
func TestChaosRecycleParallelEngine(t *testing.T) {
	for _, protocol := range ProtocolNames() {
		t.Run(protocol, func(t *testing.T) {
			cfg := chaosAliasConfig(protocol)
			cfg.Faults = chaosProfiles[2].faults // mixed drop+dup+delay
			seq := runChaosMix(t, cfg, true)
			par := runChaosMix(t, cfg, true, WithEngine(parallel.New(2)))
			if !equalWords(seq, par) {
				t.Error("parallel pooled run diverged from sequential memory under faults")
			}
			parNo := runChaosMix(t, cfg, false, WithEngine(parallel.New(2)))
			if !equalWords(seq, parNo) {
				t.Error("parallel unpooled run diverged from sequential memory under faults")
			}
		})
	}
}
