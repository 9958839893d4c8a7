package workloads

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dsmsync"
	"repro/internal/isa"
	"repro/internal/rewriter"
	"repro/internal/sim"
)

// Assembly kernels: small ISA programs, one per SPLASH-2 application,
// whose every shared access goes through the rewriter's instrumentation.
// Unlike the Go-level workload models (kernels.go), these exercise the
// full binary path — analysis, checks, batching, check elimination, polls
// — and are the corpus cmd/shasta-lint verifies in CI.
//
// Every kernel follows the same deterministic discipline so check counts
// and final memory are exactly reproducible run to run:
//
//   - r8 carries the rank (seeded by the harness); each rank owns the
//     4 KiB stripe at SharedBase + rank<<12 and a private global slot at
//     SharedBase + 0x4000 + 8*rank;
//   - cross-rank reads happen only after a barrier (SYSCALL #1, a
//     message-passing barrier that executes no checked loads);
//   - loop trip counts and branch conditions depend only on the rank and
//     on values already deterministic at that point.
//
// The phase-1 loop of each kernel is a "hub" pattern — load a word,
// branch on it, reload the same line in both arms and at the join —
// which batching cannot cover (the runs end at branch targets) but check
// elimination can: the arm and join reloads are dominated by the hub
// check with no protocol entry in between.

// AsmKernel is one assembly workload.
type AsmKernel struct {
	Name        string
	Description string
	Source      string
	Ranks       int
}

type kparams struct {
	name     string
	desc     string
	seedOff  int64 // constant mixed into the stripe seeds
	loopN    int   // phase-1 hub loop trips
	armOff1  int64 // reload offset in the taken arm (same line as 0)
	armOff2  int64 // reload offset in the other arm
	neighbor int   // stripe read distance in ranks
	sweepN   int   // phase-2 neighbor words summed (batched run length)
	llsc     bool  // append a lock-free global accumulate (water flavor)
	deepHub  bool  // nest a second diamond in the hub arm (tree walk)
}

func kernelSource(p kparams) string {
	src := fmt.Sprintf(`
proc main
  ; r8 = rank (seeded by the harness); bases are 64-aligned by construction
  lda   r9, 0x100000000
  sll   r10, r8, #12
  addq  r10, r9, r10        ; own stripe
  lda   r11, 0x4000(r9)     ; global slots
  ; phase 0: seed the stripe, then drain so line facts can widen
  addq  r3, r8, #%d
  mulq  r4, r3, r3
  stq   r3, 0(r10)
  stq   r4, 8(r10)
  stq   r3, 16(r10)
  mb
  ; phase 1: hub loop — reloads of the hub line are check-eliminated
  lda   r2, %d
  lda   r7, 0
ph1:
  ldq   r3, 0(r10)
  and   r5, r3, #1
  beq   r5, arm2
  ldq   r4, %d(r10)
`, p.seedOff, p.loopN, p.armOff1)
	if p.deepHub {
		src += `  and   r5, r4, #2
  beq   r5, deep2
  addq  r4, r4, #1
  br    deepj
deep2:
  addq  r4, r4, #2
deepj:
`
	}
	src += fmt.Sprintf(`  br    ph1j
arm2:
  ldq   r4, %d(r10)
ph1j:
  ldq   r6, 0(r10)
  addq  r7, r7, r4
  addq  r7, r7, r6
  subq  r2, r2, #1
  bne   r2, ph1
  stq   r7, 24(r10)
  mb
  syscall #1
  ; phase 2: sweep a neighbor stripe (one batched run)
  addq  r12, r8, #%d
  and   r12, r12, #3
  sll   r12, r12, #12
  addq  r12, r9, r12
  lda   r2, %d
  lda   r3, 0
  lda   r13, 0(r12)
ph2:
  ldq   r4, 0(r13)
  ldq   r5, 8(r13)
  addq  r3, r3, r4
  addq  r3, r3, r5
  lda   r13, 16(r13)
  subq  r2, r2, #1
  bne   r2, ph2
  sll   r4, r8, #3
  addq  r4, r11, r4
  stq   r3, 0(r4)
  mb
  syscall #1
  ; phase 3: total the global slots (batched) into the stripe
  ldq   r3, 0(r11)
  ldq   r4, 8(r11)
  ldq   r5, 16(r11)
  ldq   r6, 24(r11)
  addq  r3, r3, r4
  addq  r5, r5, r6
  addq  r3, r3, r5
  stq   r3, 2048(r10)
`, p.armOff2, p.neighbor, p.sweepN)
	if p.llsc {
		src += `  ; lock-free global accumulate — the retry loop has no load checks
wtry:
  ldq_l r4, 256(r11)
  addq  r4, r4, r3
  stq_c r4, 256(r11)
  beq   r4, wtry
`
	}
	src += `  mb
  halt
endproc
`
	return src
}

var asmKernelParams = []kparams{
	{name: "barnes", desc: "tree walk: nested diamonds over the hub line", seedOff: 5, loopN: 8, armOff1: 8, armOff2: 16, neighbor: 1, sweepN: 4, deepHub: true},
	{name: "fmm", desc: "far-field accumulation with neighbor sweep", seedOff: 7, loopN: 6, armOff1: 16, armOff2: 8, neighbor: 2, sweepN: 4},
	{name: "lu", desc: "pivot-row reload loop", seedOff: 3, loopN: 8, armOff1: 8, armOff2: 16, neighbor: 1, sweepN: 4},
	{name: "lu-contig", desc: "pivot loop, longer contiguous sweep", seedOff: 3, loopN: 8, armOff1: 8, armOff2: 16, neighbor: 1, sweepN: 8},
	{name: "ocean", desc: "stencil pass reading a distant stripe", seedOff: 11, loopN: 10, armOff1: 32, armOff2: 40, neighbor: 2, sweepN: 6},
	{name: "raytrace", desc: "ray bounce loop, wide arms", seedOff: 13, loopN: 12, armOff1: 48, armOff2: 56, neighbor: 3, sweepN: 4},
	{name: "volrend", desc: "octree probe with deep diamond", seedOff: 9, loopN: 6, armOff1: 8, armOff2: 32, neighbor: 1, sweepN: 4, deepHub: true},
	{name: "water-nsq", desc: "molecule update plus lock-free accumulate", seedOff: 4, loopN: 8, armOff1: 8, armOff2: 16, neighbor: 1, sweepN: 4, llsc: true},
	{name: "water-sp", desc: "spatial variant with LL/SC accumulate", seedOff: 6, loopN: 10, armOff1: 16, armOff2: 24, neighbor: 2, sweepN: 4, llsc: true},
}

// AsmKernels returns the nine assembly workloads.
func AsmKernels() []AsmKernel {
	out := make([]AsmKernel, 0, len(asmKernelParams))
	for _, p := range asmKernelParams {
		out = append(out, AsmKernel{Name: p.name, Description: p.desc, Source: kernelSource(p), Ranks: 4})
	}
	return out
}

// AsmResult is the outcome of one kernel run.
type AsmResult struct {
	Memory  []uint64 // SnapshotShared after the run
	Stats   core.Stats
	Rewrite rewriter.Stats
	Program *isa.Program
}

// RunAsm assembles, rewrites and executes one kernel on a default 4-node
// system, one rank per node. sanitize enables the interpreter's
// instrumentation sanitizer on every rank.
// AsmConfig returns the default system configuration RunAsm builds on:
// a 4-node cluster with a heap and time budget sized for the kernels.
// Callers overriding it (consistency model, faults, engine) should start
// from this value so those floors are preserved.
func AsmConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.SharedBytes = 64 << 10
	cfg.MaxTime = sim.Cycles(400e6)
	return cfg
}

func RunAsm(k AsmKernel, opt rewriter.Options, sanitize bool, opts ...core.Option) (*AsmResult, error) {
	_, res, err := runAsm(k, opt, sanitize, opts...)
	return res, err
}

// runAsm is RunAsm, returning the system it ran on as well.
func runAsm(k AsmKernel, opt rewriter.Options, sanitize bool, opts ...core.Option) (*core.System, *AsmResult, error) {
	prog, err := isa.Assemble(k.Source)
	if err != nil {
		return nil, nil, fmt.Errorf("kernel %s: %w", k.Name, err)
	}
	out, rst, err := rewriter.Rewrite(prog, opt)
	if err != nil {
		return nil, nil, fmt.Errorf("kernel %s: %w", k.Name, err)
	}
	cfg := AsmConfig()
	s := core.Build(append([]core.Option{core.WithConfig(cfg)}, opts...)...)
	if c := s.Cfg; c.Nodes != cfg.Nodes || c.CPUsPerNode != cfg.CPUsPerNode {
		return nil, nil, fmt.Errorf("kernel %s: options changed the cluster topology (%d×%d)", k.Name, c.Nodes, c.CPUsPerNode)
	}
	cfg = s.Cfg
	bar := dsmsync.NewMPBarrier(s, 0, k.Ranks)
	var mu sync.Mutex
	var errs []error
	for r := 0; r < k.Ranks; r++ {
		r := r
		m := isa.NewInterp(out)
		m.Sanitize = sanitize
		m.Regs[8] = uint64(r)
		m.Syscall = func(p *core.Proc, _ *isa.Interp, code int64) {
			if code == 1 {
				bar.Wait(p)
			}
		}
		cpu := r * cfg.CPUsPerNode % (cfg.Nodes * cfg.CPUsPerNode)
		s.Spawn(fmt.Sprintf("rank%d", r), cpu, func(p *core.Proc) {
			if err := m.Run(p, "main"); err != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("kernel %s rank %d: %w", k.Name, r, err))
				mu.Unlock()
			}
		})
	}
	s.Alloc(32<<10, core.AllocOptions{Home: core.HomeAt(0)})
	if err := s.Run(); err != nil {
		return nil, nil, fmt.Errorf("kernel %s: %w", k.Name, err)
	}
	if len(errs) > 0 {
		return nil, nil, errs[0]
	}
	return s, &AsmResult{Memory: s.SnapshotShared(), Stats: s.AggregateStats(), Rewrite: rst, Program: out}, nil
}
