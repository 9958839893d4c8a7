package rewriter

import (
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/sim"
)

// hubProgram reloads the same line on both sides of a diamond and at the
// join: three of its four load checks are dominated by the one at the loop
// head (exactly the redundancy Shasta's batching cannot express).
const hubProgram = `
proc main
  lda   r9, 0x100000000
  lda   r2, 6
  lda   r7, 0
loop:
  ldq   r3, 0(r9)
  beq   r3, other
  ldq   r4, 8(r9)
  addq  r7, r7, r4
  br    join
other:
  ldq   r5, 16(r9)
  addq  r7, r7, r5
join:
  ldq   r6, 0(r9)
  addq  r7, r7, r6
  subq  r2, r2, #1
  bne   r2, loop
  stq   r7, 24(r9)
  halt
endproc
`

func TestCheckElimStatic(t *testing.T) {
	prog, err := isa.Assemble(hubProgram)
	if err != nil {
		t.Fatal(err)
	}
	// Hoisting off: this test pins the pure available-check eliminator
	// (under DefaultOptions the whole hub loop becomes one loop window
	// with no checks left to eliminate — see hoist_test.go).
	out, st, err := Rewrite(prog, Options{Batching: true, Polls: true, CheckElim: true})
	if err != nil {
		t.Fatal(err)
	}
	// The loop-head check survives; the diamond arms (same line, base
	// aligned) and the join reload (same address) are covered.
	if st.ChecksEliminated != 3 {
		t.Fatalf("ChecksEliminated = %d, want 3\n%v", st.ChecksEliminated, st)
	}
	if st.LoadChecks != 1 {
		t.Fatalf("LoadChecks = %d, want 1", st.LoadChecks)
	}
	covered := 0
	for _, in := range out.Instrs {
		if in.Covered {
			if in.Op != isa.LDQ {
				t.Fatalf("covered op %v, want LDQ", in.Op)
			}
			covered++
		}
	}
	if covered != 3 {
		t.Fatalf("%d covered loads emitted, want 3", covered)
	}

	// Without elimination every load keeps its check.
	_, stOff, err := Rewrite(mustAssembleSrc(t, hubProgram), Options{Batching: true, Polls: true})
	if err != nil {
		t.Fatal(err)
	}
	if stOff.ChecksEliminated != 0 || stOff.LoadChecks != 4 {
		t.Fatalf("elim-off stats: %+v", stOff)
	}
}

func mustAssembleSrc(t *testing.T, src string) *isa.Program {
	t.Helper()
	prog, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestCheckElimDynamicEquivalence runs the hub program with and without
// elimination: the final memory must match exactly while the eliminated
// version executes strictly fewer dynamic checks (counted as elided).
func TestCheckElimDynamicEquivalence(t *testing.T) {
	run := func(elim bool) (uint64, core.Stats) {
		opt := Options{Batching: true, Polls: true, CheckElim: elim}
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
	sumOff, stOff := run(false)
	sumOn, stOn := run(true)
	if sumOff != sumOn {
		t.Fatalf("results differ: elim-off=%d elim-on=%d", sumOff, sumOn)
	}
	if stOn.ElidedChecks() == 0 {
		t.Fatal("no elided checks executed")
	}
	if stOn.LoadChecks() >= stOff.LoadChecks() {
		t.Fatalf("dynamic load checks did not drop: %d -> %d", stOff.LoadChecks(), stOn.LoadChecks())
	}
	if stOn.LoadChecks()+stOn.ElidedChecks() != stOff.LoadChecks() {
		t.Fatalf("checks+elided should equal the unoptimized check count: %d+%d != %d",
			stOn.LoadChecks(), stOn.ElidedChecks(), stOff.LoadChecks())
	}
}

// TestCheckElimRespectsInvalidationPoints: facts must die across polls,
// barriers, store checks and batch opens — a load after any of them keeps
// its check.
func TestCheckElimRespectsInvalidationPoints(t *testing.T) {
	src := `
proc main
  lda   r9, 0x100000000
  ldq   r3, 0(r9)
  stq   r3, 128(r9)
  ldq   r4, 0(r9)
  mb
  ldq   r5, 0(r9)
  halt
endproc
`
	// Batching off so the store keeps its own CHKST (a kill point); the
	// reloads at the same address must NOT be eliminated.
	_, st, err := Rewrite(mustAssembleSrc(t, src), Options{Polls: true, CheckElim: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.ChecksEliminated != 0 {
		t.Fatalf("eliminated %d checks across kill points, want 0", st.ChecksEliminated)
	}
}
