package workloads

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/dsmsync"
	"repro/internal/isa"
	"repro/internal/rewriter"
	"repro/internal/sim"
)

// Litmus kernels: the classic memory-model tests (message passing, store
// buffering, independent reads of independent writes) as ISA programs run
// through the full rewriter + protocol path. Each kernel is swept over a
// range of observer delays; the set of outcomes observed across the sweep
// must stay inside the model's allowed table (§3.2): under sequential
// consistency every store stalls until its invalidations are acked, so
// the relaxed outcomes are forbidden; under release consistency stores
// are non-blocking and the MP/SB relaxed outcomes become reachable. The
// model checker (internal/modelcheck) cross-validates the same tables by
// exhaustive exploration of its mp/sb models.
//
// Two structural points make the relaxed outcomes observable at all.
// First, a process services every incoming message while it is stalled
// or polling, so the "stale" read of each test must be a home-local
// flag-checked load that never enters the protocol — the race is then
// between that load executing and the rival's ownership request being
// serviced. Second, for MP the invalidation of the observer's warm copy
// must arrive later than the whole observer read sequence; a noise rank
// queues read requests at x's home so the writer's upgrade (and hence
// the invalidation) is delayed behind them.
//
// Variable layout is fixed by the alloc list: one line per variable in
// source order starting at the shared base (x at +0, y at +64, results
// at +128). Results are stored to the results line and read back from
// the final memory snapshot; r15/r14 carry per-rank spin counts.

// LitmusAlloc is one shared allocation of a litmus kernel.
type LitmusAlloc struct {
	Bytes int
	Home  int // home RANK (process), as in core.HomeAt
}

// LitmusKernel is one litmus test program.
type LitmusKernel struct {
	Name        string
	Description string
	Source      string
	Ranks       int
	Allocs      []LitmusAlloc
	// Decode extracts the outcome string from the final memory words.
	Decode func(mem []uint64) string
}

const litmusResultWord = 128 / 8 // results line starts at byte offset 128

// mpSource: rank 0 writes x (homed at the idle rank 2, so the store must
// invalidate the observer's warm copy via the home) then y (home-local,
// performed immediately); rank 1 pre-reads x, spins r15, then reads y
// and x. Rank 3 issues noise reads to lines homed at rank 2 right after
// the barrier, delaying the service of the writer's upgrade — and so the
// observer's invalidation — long enough for the relaxed (ry=1 rx=0)
// window to open under release consistency.
const mpSource = `
proc main
  lda   r9, 0x100000000      ; x (home 2, third party)
  lda   r10, 64(r9)          ; y (home 0 = writer)
  lda   r11, 128(r9)         ; results (home 1)
  lda   r13, 192(r9)         ; noise lines (home 2)
  bne   r8, notw
  syscall #1
wspin:
  subq  r14, r14, #1
  bne   r14, wspin
  lda   r3, 1
  stq   r3, 0(r9)            ; x = 1: upgrade via home 2, invals observer
  stq   r3, 0(r10)           ; y = 1: home-local, performed immediately
  mb
  halt
notw:
  subq  r1, r8, #2
  beq   r1, idle
  subq  r1, r8, #3
  beq   r1, noise
  ldq   r4, 0(r9)            ; observer: warm a shared copy of x
  syscall #1
spin:
  subq  r15, r15, #1
  bne   r15, spin
  ldq   r5, 0(r10)           ; ry (remote miss to the writer)
  ldq   r6, 0(r9)            ; rx (flag-checked; stale copy if no inval yet)
  stq   r5, 0(r11)
  stq   r6, 8(r11)
  mb
  halt
idle:
  syscall #1                 ; rank 2: x's home, no accesses of its own
  mb
  halt
noise:
  syscall #1                 ; rank 3: stack reads in front of the upgrade
  ldq   r4, 0(r13)
  ldq   r4, 64(r13)
  ldq   r4, 128(r13)
  ldq   r4, 192(r13)
  mb
  halt
endproc
`

// sbSource: each rank stores to the variable homed at the OTHER rank,
// then reads the variable homed at itself with a flag-checked local
// load. Under release consistency the remote store is buffered and the
// local read runs immediately, so with small delays both reads see zero.
const sbSource = `
proc main
  lda   r9, 0x100000000      ; x (home 1)
  lda   r10, 64(r9)          ; y (home 0)
  lda   r11, 128(r9)         ; results (home 0)
  bne   r8, side1
  syscall #1
spin:
  subq  r15, r15, #1
  bne   r15, spin
  lda   r3, 1
  stq   r3, 0(r9)            ; x = 1 (remote home 1)
  ldq   r4, 0(r10)           ; ry (home-local)
  stq   r4, 0(r11)
  mb
  halt
side1:
  syscall #1
spin1:
  subq  r14, r14, #1
  bne   r14, spin1
  lda   r3, 1
  stq   r3, 0(r10)           ; y = 1 (remote home 0)
  ldq   r4, 0(r9)            ; rx (home-local, runs under the buffered store)
  stq   r4, 8(r11)
  mb
  halt
endproc
`

// iriwSource: ranks 0/1 write x/y, each homed at the OPPOSITE reader, so
// each reader's second, home-local read is the one that can be stale.
// Both readers observing (1,0) would mean they disagree on the write
// order — forbidden under BOTH models: a reader sees a new value only
// after the writer collected its acks, so stores stay multi-copy-atomic
// even when release consistency buffers them.
const iriwSource = `
proc main
  lda   r9, 0x100000000      ; x (home 3)
  lda   r10, 64(r9)          ; y (home 2)
  lda   r11, 128(r9)         ; results (home 0)
  subq  r1, r8, #1
  beq   r1, wy
  subq  r1, r8, #2
  beq   r1, rd2
  subq  r1, r8, #3
  beq   r1, rd3
  syscall #1
  lda   r2, 400
wxspin:
  subq  r2, r2, #1
  bne   r2, wxspin
  lda   r3, 1
  stq   r3, 0(r9)            ; x = 1
  mb
  halt
wy:
  syscall #1
  lda   r2, 800
wyspin:
  subq  r2, r2, #1
  bne   r2, wyspin
  lda   r3, 1
  stq   r3, 0(r10)           ; y = 1
  mb
  halt
rd2:
  syscall #1
spin2:
  subq  r15, r15, #1
  bne   r15, spin2
  ldq   r4, 0(r9)            ; rx (remote miss via home 3)
  ldq   r5, 0(r10)           ; ry (home-local flag-checked)
  stq   r4, 0(r11)
  stq   r5, 8(r11)
  mb
  halt
rd3:
  syscall #1
spin3:
  subq  r14, r14, #1
  bne   r14, spin3
  ldq   r4, 0(r10)           ; ry (remote miss via home 2)
  ldq   r5, 0(r9)            ; rx (home-local flag-checked)
  stq   r4, 16(r11)
  stq   r5, 24(r11)
  mb
  halt
endproc
`

// LitmusKernels returns the litmus suite.
func LitmusKernels() []LitmusKernel {
	return []LitmusKernel{
		{
			Name:        "mp",
			Description: "message passing: W x; W y || R y; R x",
			Source:      mpSource, Ranks: 4,
			Allocs: []LitmusAlloc{{64, 2}, {64, 0}, {64, 1}, {256, 2}},
			Decode: func(mem []uint64) string {
				return fmt.Sprintf("ry=%d rx=%d", mem[litmusResultWord], mem[litmusResultWord+1])
			},
		},
		{
			Name:        "sb",
			Description: "store buffering: W x; R y || W y; R x",
			Source:      sbSource, Ranks: 2,
			Allocs: []LitmusAlloc{{64, 1}, {64, 0}, {64, 0}},
			Decode: func(mem []uint64) string {
				return fmt.Sprintf("ry=%d rx=%d", mem[litmusResultWord], mem[litmusResultWord+1])
			},
		},
		{
			Name:        "iriw",
			Description: "independent reads of independent writes: W x || W y || R x; R y || R y; R x",
			Source:      iriwSource, Ranks: 4,
			Allocs: []LitmusAlloc{{64, 3}, {64, 2}, {64, 0}},
			Decode: func(mem []uint64) string {
				return fmt.Sprintf("r2=%d,%d r3=%d,%d",
					mem[litmusResultWord], mem[litmusResultWord+1],
					mem[litmusResultWord+2], mem[litmusResultWord+3])
			},
		},
	}
}

// LitmusKernelByName looks up a litmus kernel.
func LitmusKernelByName(name string) (LitmusKernel, error) {
	for _, k := range LitmusKernels() {
		if k.Name == name {
			return k, nil
		}
	}
	return LitmusKernel{}, fmt.Errorf("unknown litmus kernel %q", name)
}

// RunLitmus executes one kernel once under the given consistency model
// with the given spin counts (r15 and r14) and returns the decoded
// outcome. Batching is disabled so every access keeps its own inline
// check: litmus tests measure per-access ordering.
func RunLitmus(k LitmusKernel, cons core.ConsistencyModel, d15, d14 int64) (string, error) {
	return RunLitmusOn(k, cons, "", d15, d14)
}

// RunLitmusOn is RunLitmus pinned to the named coherence backend (""
// selects the config default).
func RunLitmusOn(k LitmusKernel, cons core.ConsistencyModel, protocol string, d15, d14 int64) (string, error) {
	prog, err := isa.Assemble(k.Source)
	if err != nil {
		return "", fmt.Errorf("litmus %s: %w", k.Name, err)
	}
	out, _, err := rewriter.Rewrite(prog, rewriter.Options{Polls: true})
	if err != nil {
		return "", fmt.Errorf("litmus %s: %w", k.Name, err)
	}
	cfg := core.DefaultConfig()
	cfg.SharedBytes = 16 << 10
	cfg.Consistency = cons
	cfg.Protocol = protocol
	cfg.MaxTime = sim.Cycles(100e6)
	s := core.Build(core.WithConfig(cfg))
	bar := dsmsync.NewMPBarrier(s, 0, k.Ranks)
	var mu sync.Mutex
	var errs []error
	for r := 0; r < k.Ranks; r++ {
		r := r
		m := isa.NewInterp(out)
		m.Sanitize = true
		m.Regs[8] = uint64(r)
		m.Regs[15] = uint64(max64(1, d15))
		m.Regs[14] = uint64(max64(1, d14))
		m.Syscall = func(p *core.Proc, _ *isa.Interp, code int64) {
			if code == 1 {
				bar.Wait(p)
			}
		}
		cpu := r * cfg.CPUsPerNode % (cfg.Nodes * cfg.CPUsPerNode)
		s.Spawn(fmt.Sprintf("rank%d", r), cpu, func(p *core.Proc) {
			if err := m.Run(p, "main"); err != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("litmus %s rank %d: %w", k.Name, r, err))
				mu.Unlock()
			}
		})
	}
	for _, a := range k.Allocs {
		s.Alloc(a.Bytes, core.AllocOptions{Home: core.HomeAt(a.Home)})
	}
	if err := s.Run(); err != nil {
		return "", fmt.Errorf("litmus %s: %w", k.Name, err)
	}
	if len(errs) > 0 {
		return "", errs[0]
	}
	return k.Decode(s.SnapshotShared()), nil
}

// litmusDelayPairs is the sweep grid over the two spin knobs (r15, r14):
// dense where the relaxed windows sit — within a few message latencies of
// each other — plus coarse points to cover the fully-ordered regimes.
func litmusDelayPairs() [][2]int64 {
	var ps [][2]int64
	for d15 := int64(1); d15 <= 1301; d15 += 100 {
		for _, d14 := range []int64{1, 200, 500, 900} {
			ps = append(ps, [2]int64{d15, d14})
		}
	}
	for _, d := range []int64{2000, 5000, 10000, 20000} {
		ps = append(ps, [2]int64{d, 1}, [2]int64{d, d})
	}
	return ps
}

// LitmusSweep runs the kernel across the delay grid and returns the
// sorted set of distinct outcomes observed.
func LitmusSweep(k LitmusKernel, cons core.ConsistencyModel) ([]string, error) {
	return LitmusSweepOn(k, cons, "")
}

// LitmusSweepOn is LitmusSweep pinned to the named coherence backend.
func LitmusSweepOn(k LitmusKernel, cons core.ConsistencyModel, protocol string) ([]string, error) {
	seen := make(map[string]bool)
	for _, d := range litmusDelayPairs() {
		out, err := RunLitmusOn(k, cons, protocol, d[0], d[1])
		if err != nil {
			return nil, err
		}
		seen[out] = true
	}
	var outs []string
	for o := range seen {
		outs = append(outs, o)
	}
	sort.Strings(outs)
	return outs, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
