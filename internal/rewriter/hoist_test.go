package rewriter

import (
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/sim"
)

// TestHoistHubLoop: under DefaultOptions the hub loop (elim_test.go)
// becomes one loop-wide batch window — all four per-iteration load checks
// hoist into the preheader guard and nothing is left for the straight-line
// eliminator.
func TestHoistHubLoop(t *testing.T) {
	out, st, err := Rewrite(mustAssembleSrc(t, hubProgram), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.LoopBatches != 1 || st.HoistedChecks != 4 {
		t.Fatalf("LoopBatches=%d HoistedChecks=%d, want 1/4\n%+v", st.LoopBatches, st.HoistedChecks, st)
	}
	if st.LoadChecks != 0 || st.ChecksEliminated != 0 {
		t.Fatalf("hoisted loop left LoadChecks=%d ChecksEliminated=%d, want 0/0", st.LoadChecks, st.ChecksEliminated)
	}
	if st.WidenedBatches != 0 {
		t.Fatalf("zero-stride loop counted as widened: %+v", st)
	}
	// Emitted shape: the guard precedes the loop body and only the first
	// entry pays it — the back edge lands one past the BATCHCHK.
	chk := -1
	for i, in := range out.Instrs {
		if in.Op == isa.BATCHCHK {
			chk = i
			break
		}
	}
	if chk < 0 {
		t.Fatal("no BATCHCHK emitted")
	}
	for _, in := range out.Instrs {
		if in.Op == isa.BNE && in.Target == chk {
			t.Fatal("back edge re-executes the preheader guard every iteration")
		}
	}
	found := false
	for _, in := range out.Instrs {
		if in.Op == isa.BNE && in.Target == chk+1 {
			found = true
		}
	}
	if !found {
		t.Fatal("back edge does not land just past the BATCHCHK")
	}
}

// TestHoistStrideWidening: an affine-stride sweep with a proven trip count
// widens into one window covering base + k*stride for every iteration.
func TestHoistStrideWidening(t *testing.T) {
	src := `
proc main
  lda   r9, 0x100000000
  lda   r2, 4
loop:
  ldq   r3, 0(r9)
  addq  r4, r4, r3
  addq  r9, r9, #8
  subq  r2, r2, #1
  bne   r2, loop
  halt
endproc
`
	out, st, err := Rewrite(mustAssembleSrc(t, src), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.LoopBatches != 1 || st.WidenedBatches != 1 || st.HoistedChecks != 1 {
		t.Fatalf("stats %+v, want one widened loop batch with one hoisted check", st)
	}
	// The access runs at offsets 0, 8, 16, 24 (k in [0,3]); the window must
	// declare exactly bytes [0, 32).
	for _, in := range out.Instrs {
		if in.Op == isa.BATCHCHK {
			if in.Ra != 9 || in.Imm != 0 || in.BatchBytes != 32 {
				t.Fatalf("window base r%d imm %d bytes %d, want r9 +0 32 bytes", in.Ra, in.Imm, in.BatchBytes)
			}
			return
		}
	}
	t.Fatal("no BATCHCHK emitted")
}

// TestHoistDynamicEquivalence runs the hub program with hoisting off and
// on: final memory must match while the hoisted version executes strictly
// fewer dynamic checks (the guard's per-line batch checks included).
func TestHoistDynamicEquivalence(t *testing.T) {
	run := func(opt Options) (uint64, core.Stats) {
		prog, _, err := Rewrite(mustAssembleSrc(t, hubProgram), opt)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.SharedBytes = 64 << 10
		cfg.MaxTime = sim.Cycles(60e6)
		s := core.Build(core.WithConfig(cfg))
		m := isa.NewInterp(prog)
		m.Sanitize = true
		s.Spawn("cpu", 0, func(p *core.Proc) {
			if err := m.Run(p, "main"); err != nil {
				t.Error(err)
			}
		})
		s.Alloc(4096, core.AllocOptions{Home: core.HomeAt(0)})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Peek(core.SharedBase + 24), s.AggregateStats()
	}
	sumElim, stElim := run(Options{Batching: true, Polls: true, CheckElim: true})
	sumHoist, stHoist := run(DefaultOptions())
	if sumElim != sumHoist {
		t.Fatalf("results differ: elim=%d hoist=%d", sumElim, sumHoist)
	}
	dynElim := stElim.LoadChecks() + stElim.StoreChecks() + stElim.BatchChecks()
	dynHoist := stHoist.LoadChecks() + stHoist.StoreChecks() + stHoist.BatchChecks()
	if dynHoist >= dynElim {
		t.Fatalf("dynamic checks did not drop: %d -> %d", dynElim, dynHoist)
	}
}

// TestHoistIneligibleLoops: loops the prover must refuse keep their full
// per-iteration instrumentation (the conservative fallback) and still
// verify — Rewrite runs the verifier on its own output.
func TestHoistIneligibleLoops(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"barrier-in-body", `
proc main
  lda   r9, 0x100000000
  lda   r2, 4
loop:
  ldq   r3, 0(r9)
  mb
  subq  r2, r2, #1
  bne   r2, loop
  halt
endproc
`},
		{"spin-on-loaded-flag", `
proc main
  lda   r9, 0x100000000
  lda   r3, 1
loop:
  ldq   r3, 0(r9)
  bne   r3, loop
  halt
endproc
`},
		{"call-in-body", `
proc main
  lda   r9, 0x100000000
  lda   r2, 4
loop:
  ldq   r3, 0(r9)
  jsr   helper
  subq  r2, r2, #1
  bne   r2, loop
  halt
endproc
proc helper
  lda   r5, 7
  ret
endproc
`},
		{"two-window-bases", `
proc main
  lda   r9, 0x100000000
  lda   r10, 0x100001000
  lda   r2, 4
loop:
  ldq   r3, 0(r9)
  ldq   r4, 0(r10)
  subq  r2, r2, #1
  bne   r2, loop
  halt
endproc
`},
		{"window-exceeds-batch-budget", `
proc main
  lda   r9, 0x100000000
  lda   r2, 4
loop:
  ldq   r3, 0(r9)
  ldq   r4, 504(r9)
  subq  r2, r2, #1
  bne   r2, loop
  halt
endproc
`},
		{"strided-without-proven-trip", `
proc main
  lda   r9, 0x100000000
  ldq   r2, 0(sp)
loop:
  ldq   r3, 0(r9)
  addq  r9, r9, #8
  subq  r2, r2, #1
  bne   r2, loop
  halt
endproc
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, st, err := Rewrite(mustAssembleSrc(t, tc.src), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if st.LoopBatches != 0 || st.HoistedChecks != 0 {
				t.Fatalf("ineligible loop was hoisted: %+v", st)
			}
		})
	}
}

// TestHoistNestedLoopsInnerOnly: only innermost loops are transformed; the
// outer loop's own shared access keeps its per-iteration check.
func TestHoistNestedLoopsInnerOnly(t *testing.T) {
	src := `
proc main
  lda   r9, 0x100000000
  lda   r2, 3
outer:
  ldq   r6, 64(r9)
  lda   r3, 4
inner:
  ldq   r4, 0(r9)
  addq  r5, r5, r4
  subq  r3, r3, #1
  bne   r3, inner
  subq  r2, r2, #1
  bne   r2, outer
  halt
endproc
`
	_, st, err := Rewrite(mustAssembleSrc(t, src), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.LoopBatches != 1 || st.HoistedChecks != 1 {
		t.Fatalf("want exactly the inner loop hoisted, got %+v", st)
	}
	if st.LoadChecks == 0 {
		t.Fatalf("outer loop's shared access lost its check: %+v", st)
	}
}

// TestHoistRequiresBatching: CheckHoist rides the batch machinery; without
// Batching no loop windows form.
func TestHoistRequiresBatching(t *testing.T) {
	_, st, err := Rewrite(mustAssembleSrc(t, hubProgram), Options{Polls: true, CheckElim: true, CheckHoist: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.LoopBatches != 0 || st.HoistedChecks != 0 {
		t.Fatalf("loop batches formed without batching enabled: %+v", st)
	}
}
