package rewriter

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/sim"
)

// Property test: for randomly generated programs, the rewritten binary
// (checks, batching, polls, check elimination and loop hoisting —
// everything on) computes exactly the same register file, private memory
// and shared memory as the original, and every rewritten output passes
// the verifier. The generator produces structured programs —
// straight-line runs, diamonds, bounded counted loops, nested loops,
// calls to pure and impure helper procedures — over a shared base (r9),
// a private base (r10) and a handful of data registers, which is enough
// shape variety to exercise batching windows, loop windows, branch-target
// splits, poll insertion, call summaries and the available-check lattice.

const (
	genSharedReg  = 9
	genPrivateReg = 10
	genCountReg   = 21
	genInnerReg   = 22
	genHelpReg1   = 11
	genHelpReg2   = 12
)

var genDataRegs = []uint8{1, 2, 3, 4, 5, 6, 7}

func genDataReg(r *rand.Rand) uint8 { return genDataRegs[r.Intn(len(genDataRegs))] }

// genOp appends one straight-line instruction.
func genOp(r *rand.Rand, out *[]isa.Instr) {
	off := func() int64 { return int64(r.Intn(32)) * 8 } // within one 256-byte window
	switch r.Intn(10) {
	case 0, 1: // shared load
		*out = append(*out, isa.Instr{Op: isa.LDQ, Rd: genDataReg(r), Ra: genSharedReg, Imm: off()})
	case 2: // shared store
		*out = append(*out, isa.Instr{Op: isa.STQ, Rd: genDataReg(r), Ra: genSharedReg, Imm: off()})
	case 3: // private load
		*out = append(*out, isa.Instr{Op: isa.LDQ, Rd: genDataReg(r), Ra: genPrivateReg, Imm: off()})
	case 4: // private store
		*out = append(*out, isa.Instr{Op: isa.STQ, Rd: genDataReg(r), Ra: genPrivateReg, Imm: off()})
	case 5:
		*out = append(*out, isa.Instr{Op: isa.LDA, Rd: genDataReg(r), Ra: isa.RegZero, Imm: int64(r.Intn(1 << 12))})
	case 6, 7:
		ops := []isa.Op{isa.ADDQ, isa.SUBQ, isa.MULQ, isa.AND, isa.OR, isa.XOR}
		*out = append(*out, isa.Instr{
			Op: ops[r.Intn(len(ops))], Rd: genDataReg(r), Ra: genDataReg(r), Rb: genDataReg(r),
		})
	case 8:
		*out = append(*out, isa.Instr{
			Op: isa.ADDQ, Rd: genDataReg(r), Ra: genDataReg(r), UseImm: true, Imm: int64(r.Intn(64)),
		})
	case 9:
		sh := []isa.Op{isa.SLL, isa.SRL}
		*out = append(*out, isa.Instr{
			Op: sh[r.Intn(2)], Rd: genDataReg(r), Ra: genDataReg(r), UseImm: true, Imm: int64(r.Intn(8)),
		})
	}
}

func genStraight(r *rand.Rand, out *[]isa.Instr) {
	for k := 1 + r.Intn(4); k > 0; k-- {
		genOp(r, out)
	}
}

// genProgram builds one random program.
func genProgram(r *rand.Rand) *isa.Program {
	var ins []isa.Instr
	// Preamble: shared base (line-aligned), private base, seeded data regs.
	ins = append(ins,
		isa.Instr{Op: isa.LDA, Rd: genSharedReg, Ra: isa.RegZero, Imm: int64(core.SharedBase) + int64(r.Intn(4))*64},
		isa.Instr{Op: isa.LDA, Rd: genPrivateReg, Ra: isa.RegZero, Imm: int64(isa.PrivateBase) + 0x400},
	)
	for _, d := range genDataRegs {
		ins = append(ins, isa.Instr{Op: isa.LDA, Rd: d, Ra: isa.RegZero, Imm: int64(r.Intn(1 << 10))})
	}
	branches := []isa.Op{isa.BEQ, isa.BNE, isa.BLT, isa.BGE}
	var calls []int
	for seg := 3 + r.Intn(5); seg > 0; seg-- {
		switch r.Intn(6) {
		case 0, 1:
			genStraight(r, &ins)
		case 2: // diamond
			condAt := len(ins)
			ins = append(ins, isa.Instr{Op: branches[r.Intn(len(branches))], Ra: genDataReg(r)})
			genStraight(r, &ins)
			brAt := len(ins)
			ins = append(ins, isa.Instr{Op: isa.BR})
			ins[condAt].Target = len(ins)
			genStraight(r, &ins)
			ins[brAt].Target = len(ins)
		case 3: // counted loop
			ins = append(ins, isa.Instr{Op: isa.LDA, Rd: genCountReg, Ra: isa.RegZero, Imm: int64(1 + r.Intn(4))})
			top := len(ins)
			genStraight(r, &ins)
			ins = append(ins,
				isa.Instr{Op: isa.SUBQ, Rd: genCountReg, Ra: genCountReg, UseImm: true, Imm: 1},
				isa.Instr{Op: isa.BNE, Ra: genCountReg, Target: top},
			)
		case 4: // nested counted loops (only the inner one is hoistable)
			ins = append(ins, isa.Instr{Op: isa.LDA, Rd: genCountReg, Ra: isa.RegZero, Imm: int64(1 + r.Intn(3))})
			outerTop := len(ins)
			genStraight(r, &ins)
			ins = append(ins, isa.Instr{Op: isa.LDA, Rd: genInnerReg, Ra: isa.RegZero, Imm: int64(1 + r.Intn(3))})
			innerTop := len(ins)
			genStraight(r, &ins)
			ins = append(ins,
				isa.Instr{Op: isa.SUBQ, Rd: genInnerReg, Ra: genInnerReg, UseImm: true, Imm: 1},
				isa.Instr{Op: isa.BNE, Ra: genInnerReg, Target: innerTop},
				isa.Instr{Op: isa.SUBQ, Rd: genCountReg, Ra: genCountReg, UseImm: true, Imm: 1},
				isa.Instr{Op: isa.BNE, Ra: genCountReg, Target: outerTop},
			)
		case 5: // call one of the helper procedures (target patched below)
			calls = append(calls, len(ins))
			ins = append(ins, isa.Instr{Op: isa.JSR})
		}
	}
	// Drain the store buffer so both executions end memory-quiescent.
	ins = append(ins, isa.Instr{Op: isa.MB}, isa.Instr{Op: isa.HALT})
	mainEnd := len(ins)
	// Helper procedures. "pure" touches only registers and stack — call
	// summaries prove it never enters the protocol, so facts survive its
	// call sites. "impure" reads and writes shared memory.
	pureStart := len(ins)
	ins = append(ins,
		isa.Instr{Op: isa.LDA, Rd: genHelpReg1, Ra: isa.RegZero, Imm: int64(r.Intn(512))},
		isa.Instr{Op: isa.STQ, Rd: genHelpReg1, Ra: isa.RegSP, Imm: 16},
		isa.Instr{Op: isa.LDQ, Rd: genHelpReg2, Ra: isa.RegSP, Imm: 16},
		isa.Instr{Op: isa.ADDQ, Rd: genHelpReg1, Ra: genHelpReg1, Rb: genHelpReg2},
		isa.Instr{Op: isa.RET},
	)
	impureStart := len(ins)
	ins = append(ins,
		isa.Instr{Op: isa.LDA, Rd: genHelpReg1, Ra: isa.RegZero, Imm: int64(core.SharedBase) + 128},
		isa.Instr{Op: isa.LDQ, Rd: genHelpReg2, Ra: genHelpReg1, Imm: 0},
		isa.Instr{Op: isa.ADDQ, Rd: genHelpReg2, Ra: genHelpReg2, UseImm: true, Imm: 1},
		isa.Instr{Op: isa.STQ, Rd: genHelpReg2, Ra: genHelpReg1, Imm: 8},
		isa.Instr{Op: isa.RET},
	)
	for _, c := range calls {
		if r.Intn(2) == 0 {
			ins[c].Target = pureStart
		} else {
			ins[c].Target = impureStart
		}
	}
	return &isa.Program{
		Instrs: ins,
		Labels: map[string]int{},
		Procs: []isa.ProcSym{
			{Name: "main", Start: 0, End: mainEnd},
			{Name: "pure", Start: pureStart, End: impureStart},
			{Name: "impure", Start: impureStart, End: len(ins)},
		},
	}
}

type execResult struct {
	regs   [isa.NumRegs]uint64
	priv   []uint64
	shared []uint64
}

func execProgram(t *testing.T, prog *isa.Program, sanitize bool) execResult {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.SharedBytes = 64 << 10
	cfg.MaxTime = sim.Cycles(60e6)
	s := core.Build(core.WithConfig(cfg))
	m := isa.NewInterp(prog)
	m.Sanitize = sanitize
	s.Spawn("cpu", 0, func(p *core.Proc) {
		if err := m.Run(p, "main"); err != nil {
			t.Error(err)
		}
	})
	s.Alloc(1024, core.AllocOptions{Home: core.HomeAt(0)})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	res := execResult{regs: m.Regs, shared: s.SnapshotShared()}
	for w := 0; w < 256; w++ {
		v, err := m.ReadPriv(isa.PrivateBase + 0x400 + uint64(w)*8)
		if err != nil {
			t.Fatal(err)
		}
		res.priv = append(res.priv, v)
	}
	return res
}

func TestPropertyRewriteTransparency(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		prog := genProgram(r)
		rewritten, st, err := Rewrite(genProgramCopy(prog), DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := Verify(rewritten, VerifyOptions{Polls: true}); err != nil {
			t.Fatalf("seed %d: verifier rejected output:\n%v", seed, err)
		}
		orig := execProgram(t, prog, false)
		rw := execProgram(t, rewritten, true)
		if t.Failed() {
			t.Fatalf("seed %d: execution error (stats %+v)", seed, st)
		}
		// The return-address register holds an instruction index, which
		// legitimately differs between the original and rewritten layouts;
		// everything else must match exactly.
		orig.regs[isa.RegRA], rw.regs[isa.RegRA] = 0, 0
		if orig.regs != rw.regs {
			t.Fatalf("seed %d: register files differ\norig: %v\nrewr: %v", seed, orig.regs, rw.regs)
		}
		for i := range orig.priv {
			if orig.priv[i] != rw.priv[i] {
				t.Fatalf("seed %d: private word %d differs: %#x vs %#x", seed, i, orig.priv[i], rw.priv[i])
			}
		}
		if len(orig.shared) != len(rw.shared) {
			t.Fatalf("seed %d: shared snapshot sizes differ", seed)
		}
		for i := range orig.shared {
			if orig.shared[i] != rw.shared[i] {
				t.Fatalf("seed %d: shared word %d differs: %#x vs %#x", seed, i, orig.shared[i], rw.shared[i])
			}
		}
	}
}

// genProgramCopy deep-copies a program so Rewrite's input and the original
// execution don't share instruction slices.
func genProgramCopy(p *isa.Program) *isa.Program {
	q := &isa.Program{
		Instrs: append([]isa.Instr(nil), p.Instrs...),
		Labels: map[string]int{},
		Procs:  append([]isa.ProcSym(nil), p.Procs...),
	}
	for k, v := range p.Labels {
		q.Labels[k] = v
	}
	return q
}
