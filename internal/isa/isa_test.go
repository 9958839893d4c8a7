package isa

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

const sumProgram = `
; sum the integers 1..10 into private memory at 0x10000
proc main
    lda   r1, 0          ; acc
    lda   r2, 10         ; i
loop:
    addq  r1, r1, r2
    subq  r2, r2, #1
    bne   r2, loop
    lda   r3, 0x10000
    stq   r1, 0(r3)
    halt
endproc
`

func testSystem(t *testing.T) *core.System {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.SharedBytes = 64 << 10
	cfg.MaxTime = sim.Cycles(60e6)
	return core.Build(core.WithConfig(cfg))
}

func TestAssembleAndRunPrivate(t *testing.T) {
	prog, err := Assemble(sumProgram)
	if err != nil {
		t.Fatal(err)
	}
	s := testSystem(t)
	m := NewInterp(prog)
	s.Spawn("cpu", 0, func(p *core.Proc) {
		if err := m.Run(p, "main"); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadPriv(0x10000)
	if err != nil || v != 55 {
		t.Fatalf("sum=%d err=%v", v, err)
	}
}

// TestZeroInterpRuns: the zero Interp with its program set needs no
// constructor; MaxInstrs 0 is the default limit, not a limit of none.
func TestZeroInterpRuns(t *testing.T) {
	prog, err := Assemble(sumProgram)
	if err != nil {
		t.Fatal(err)
	}
	s := testSystem(t)
	m := Interp{Prog: prog}
	s.Spawn("cpu", 0, func(p *core.Proc) {
		if err := m.Run(p, "main"); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if v, err := m.ReadPriv(0x10000); err != nil || v != 55 {
		t.Fatalf("sum=%d err=%v", v, err)
	}
}

func TestAssemblerErrors(t *testing.T) {
	cases := []string{
		"bogus r1, r2",
		"ldq r1",
		"beq r1, nowhere\nhalt",
		"proc a\nproc b\nendproc\nendproc",
		"addq r99, r1, r2",
		"lab:\nlab:\nhalt",
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestSharedMemoryInstructions(t *testing.T) {
	// Store then load through shared memory with raw (un-rewritten) ops;
	// single process so coherence is trivial.
	src := `
proc main
    lda   r1, 0x100000000
    lda   r2, 777
    stq   r2, 8(r1)
    ldq   r3, 8(r1)
    lda   r4, 0x10000
    stq   r3, 0(r4)
    halt
endproc
`
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	s := testSystem(t)
	m := NewInterp(prog)
	s.Spawn("cpu", 0, func(p *core.Proc) {
		if err := m.Run(p, "main"); err != nil {
			t.Error(err)
		}
	})
	s.Alloc(4096, core.AllocOptions{Home: core.HomeAt(0)}) // back the address
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.ReadPriv(0x10000); v != 777 {
		t.Fatalf("got %d", v)
	}
}

func TestLLSCInstructions(t *testing.T) {
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
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	s := testSystem(t)
	m := NewInterp(prog)
	s.Spawn("cpu", 0, func(p *core.Proc) {
		m.Regs[9] = core.SharedBase
		if err := m.Run(p, "main"); err != nil {
			t.Error(err)
		}
	})
	s.Alloc(64, core.AllocOptions{Home: core.HomeAt(0)})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Procs()[0].Stats().LLs() != 1 || s.Procs()[0].Stats().SCs() != 1 {
		t.Fatalf("LL/SC not executed: %+v", s.Procs()[0].Stats())
	}
}

func TestJSRAndRet(t *testing.T) {
	src := `
proc main
    lda  r1, 5
    jsr  double
    lda  r4, 0x10000
    stq  r1, 0(r4)
    halt
endproc
proc double
    addq r1, r1, r1
    ret
endproc
`
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	s := testSystem(t)
	m := NewInterp(prog)
	s.Spawn("cpu", 0, func(p *core.Proc) {
		if err := m.Run(p, "main"); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.ReadPriv(0x10000); v != 10 {
		t.Fatalf("got %d", v)
	}
}

func TestRunawayGuard(t *testing.T) {
	src := "proc main\nspin:\n br spin\nendproc"
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	s := testSystem(t)
	m := NewInterp(prog)
	m.MaxInstrs = 1000
	var runErr error
	s.Spawn("cpu", 0, func(p *core.Proc) {
		runErr = m.Run(p, "main")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if runErr == nil || !strings.Contains(runErr.Error(), "exceeded") {
		t.Fatalf("err=%v", runErr)
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	prog, err := Assemble(sumProgram)
	if err != nil {
		t.Fatal(err)
	}
	for i := range prog.Instrs {
		if prog.Disassemble(i) == "" {
			t.Fatalf("empty disassembly at %d", i)
		}
	}
	if prog.SizeWords() != len(prog.Instrs) {
		t.Fatalf("un-rewritten program size %d != %d instrs", prog.SizeWords(), len(prog.Instrs))
	}
}
