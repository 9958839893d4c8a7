package rewriter

import (
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/sim"
)

// theProgram touches shared memory (via r9-derived addresses), private
// memory (via sp), loops, and uses LL/SC and MB.
const theProgram = `
proc main
    lda   r9, 0x100000000   ; shared base
    lda   r2, 8             ; loop count
loop:
    ldq   r3, 0(r9)         ; shared load
    addq  r3, r3, #1
    stq   r3, 0(r9)         ; shared store
    ldq   r4, 8(r9)         ; batchable: same base
    stq   r4, 16(r9)
    ldq   r5, 0(sp)         ; private: never checked
    stq   r5, 8(sp)
    subq  r2, r2, #1
    bne   r2, loop          ; back-edge: poll here
    mb
try:
    ldq_l r6, 64(r9)
    addq  r6, r6, #1
    stq_c r6, 64(r9)
    beq   r6, try
    halt
endproc
`

func mustAssemble(t *testing.T) *isa.Program {
	t.Helper()
	prog, err := isa.Assemble(theProgram)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestRewriteInsertsChecksAndPolls(t *testing.T) {
	prog := mustAssemble(t)
	out, st, err := Rewrite(prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.LoadChecks+st.StoreChecks+st.BatchedMembers+st.HoistedChecks == 0 {
		t.Fatalf("no checks inserted: %+v", st)
	}
	if st.LoopBatches == 0 || st.HoistedChecks == 0 {
		t.Fatalf("counted loop not hoisted: %+v", st)
	}
	if st.Polls < 2 {
		t.Fatalf("polls=%d, want >=2 (two back-edges)", st.Polls)
	}
	if st.LLSCPairs != 1 {
		t.Fatalf("llsc pairs=%d", st.LLSCPairs)
	}
	if st.MBCalls != 1 {
		t.Fatalf("mb calls=%d", st.MBCalls)
	}
	if st.GrowthPercent() <= 0 {
		t.Fatalf("no code growth: %+v", st)
	}
	// Private (sp-based) accesses must not be checked.
	for _, in := range out.Instrs {
		if (in.Op == isa.CHKLD || in.Op == isa.CHKST) && in.Ra == isa.RegSP {
			t.Fatal("stack access was checked")
		}
	}
	if !out.Rewritten {
		t.Fatal("output not marked rewritten")
	}
}

func TestRewriteTwiceFails(t *testing.T) {
	prog := mustAssemble(t)
	out, _, err := Rewrite(prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Rewrite(out, DefaultOptions()); err == nil {
		t.Fatal("double rewrite allowed")
	}
}

func TestBatchingReducesChecks(t *testing.T) {
	prog := mustAssemble(t)
	_, noBatch, err := Rewrite(prog, Options{Batching: false, Polls: true})
	if err != nil {
		t.Fatal(err)
	}
	prog2 := mustAssemble(t)
	_, batch, err := Rewrite(prog2, Options{Batching: true, Polls: true})
	if err != nil {
		t.Fatal(err)
	}
	if batch.BatchedRuns == 0 {
		t.Fatal("no batches formed")
	}
	if batch.NewWords >= noBatch.NewWords {
		t.Fatalf("batching did not shrink code: %d vs %d", batch.NewWords, noBatch.NewWords)
	}
}

// TestRewrittenProgramRunsCorrectly executes original and rewritten
// programs and checks they compute the same result — the transparency
// property.
func TestRewrittenProgramRunsCorrectly(t *testing.T) {
	// Compare the shared word at SharedBase: 8 increments either way.
	runVal := func(rw bool) uint64 {
		prog := mustAssemble(t)
		if rw {
			prog, _, _ = Rewrite(prog, DefaultOptions())
		}
		cfg := core.DefaultConfig()
		cfg.SharedBytes = 64 << 10
		cfg.MaxTime = sim.Cycles(60e6)
		s := core.Build(core.WithConfig(cfg))
		m := isa.NewInterp(prog)
		var got uint64
		s.Spawn("cpu", 0, func(p *core.Proc) {
			if err := m.Run(p, "main"); err != nil {
				t.Error(err)
			}
			got = p.Load(core.SharedBase)
		})
		s.Alloc(4096, core.AllocOptions{Home: core.HomeAt(0)})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	orig := runVal(false)
	rewr := runVal(true)
	if orig != rewr || orig != 8 {
		t.Fatalf("original=%d rewritten=%d want 8", orig, rewr)
	}
}

// TestRewrittenParallelCounter runs the LL/SC part of the program from two
// processes on different nodes — only correct because the rewriter
// instrumented the binary.
func TestRewrittenParallelCounter(t *testing.T) {
	src := `
proc main
try:
    ldq_l r1, 0(r9)
    addq  r1, r1, #1
    stq_c r1, 0(r9)
    beq   r1, try
    mb
    halt
endproc
`
	cfg := core.DefaultConfig()
	cfg.SharedBytes = 64 << 10
	cfg.MaxTime = sim.Cycles(120e6)
	s := core.Build(core.WithConfig(cfg))
	const n = 4
	for i := 0; i < n; i++ {
		i := i
		s.Spawn("cpu", i*s.Eng.Config().CPUsPerNode/2%s.Eng.NumCPUs(), func(p *core.Proc) {
			prog, err := isa.Assemble(src)
			if err != nil {
				t.Error(err)
				return
			}
			rw, _, err := Rewrite(prog, DefaultOptions())
			if err != nil {
				t.Error(err)
				return
			}
			m := isa.NewInterp(rw)
			m.Regs[9] = core.SharedBase
			for k := 0; k < 10; k++ {
				m.PC = 0
				if err := m.Run(p, "main"); err != nil {
					t.Error(err)
					return
				}
				p.Compute(300)
			}
			_ = i
		})
	}
	s.Alloc(64, core.AllocOptions{Home: core.HomeAt(0)})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if v := s.Peek(core.SharedBase); v != n*10 {
		t.Fatalf("counter=%d want %d", v, n*10)
	}
}
