package isa

import (
	"fmt"

	"repro/internal/core"
)

// PrivateBase is the base address of a process's private memory (static
// data and stack); private accesses are never checked (§2.2).
const PrivateBase uint64 = 0x10000

// PrivateWords is the size of the interpreter's private memory.
const PrivateWords = 1 << 15

// privPageWords is the size of one page of private memory, 4 KB. A page is
// allocated on its first store; a kernel touches one at GP and one at the
// stack top, so an interpreter costs what its program uses.
const privPageWords = 512

// defaultMaxInstrs is the instruction limit when MaxInstrs is not positive.
const defaultMaxInstrs = 50_000_000

// SyscallHandler services SYSCALL instructions; the interpreter gives
// full access to the machine state (the cluster OS layer hooks in here).
type SyscallHandler func(p *core.Proc, m *Interp, code int64)

// retHalt is the link-register sentinel that makes RET halt the machine.
const retHalt = ^uint64(0)

// Interp executes a Program on a Shasta process. Instructions cost one
// cycle each; checked pseudo-instructions additionally run the real
// in-line check logic (and protocol) through the core API. The zero value
// with Prog set is ready to run.
type Interp struct {
	Prog    *Program
	Regs    [NumRegs]uint64
	PC      int
	priv    [PrivateWords / privPageWords]*[privPageWords]uint64
	Syscall SyscallHandler
	// MaxInstrs guards against runaway programs (<= 0: 50 M instructions).
	MaxInstrs int64
	// Sanitize enables the dynamic instrumentation sanitizer: in a
	// rewritten program, any raw LDQ/STQ/LDQL/STQC that reaches a shared
	// address faults (the rewriter should have converted it to a checked
	// form or covered it by a batch), and every Covered load is
	// cross-checked against the protocol state before it executes raw.
	// This is the dynamic counterpart of the static verifier in package
	// rewriter.
	Sanitize bool
	executed int64
	halted   bool
	// openBatch is the active BATCHCHK region, if any.
	openBatch *core.Batch
}

// NewInterp creates an interpreter for the program.
func NewInterp(prog *Program) *Interp {
	return &Interp{Prog: prog}
}

// Executed returns the number of instructions retired.
func (m *Interp) Executed() int64 { return m.executed }

// privSlot maps a private address to a slot in the private memory.
func (m *Interp) privSlot(addr uint64) (int, error) {
	if addr < PrivateBase || addr >= PrivateBase+PrivateWords*8 {
		return 0, fmt.Errorf("isa: private address %#x out of range", addr)
	}
	return int(addr-PrivateBase) / 8, nil
}

// WritePriv writes private memory (argument passing, and every private
// store of the program), allocating the word's page on its first store.
func (m *Interp) WritePriv(addr uint64, v uint64) error {
	s, err := m.privSlot(addr)
	if err != nil {
		return err
	}
	pg := m.priv[s/privPageWords]
	if pg == nil {
		pg = new([privPageWords]uint64)
		m.priv[s/privPageWords] = pg
	}
	pg[s%privPageWords] = v
	return nil
}

// ReadPriv reads private memory (result extraction, and every private load
// of the program). A word of a page never stored to reads 0.
func (m *Interp) ReadPriv(addr uint64) (uint64, error) {
	s, err := m.privSlot(addr)
	if err != nil {
		return 0, err
	}
	if pg := m.priv[s/privPageWords]; pg != nil {
		return pg[s%privPageWords], nil
	}
	return 0, nil
}

// Run executes the program on the given Shasta process, starting at the
// entry procedure, until HALT.
func (m *Interp) Run(p *core.Proc, entry string) error {
	ps, ok := m.Prog.FindProc(entry)
	if !ok {
		return fmt.Errorf("isa: no procedure %q", entry)
	}
	m.PC = ps.Start
	m.Regs[RegSP] = PrivateBase + PrivateWords*8 - 1024 // headroom for positive offsets
	m.Regs[RegGP] = PrivateBase
	m.Regs[RegRA] = retHalt // returning from entry halts
	m.halted = false
	limit := m.MaxInstrs
	if limit <= 0 {
		limit = defaultMaxInstrs
	}
	for !m.halted {
		if m.PC < 0 || m.PC >= len(m.Prog.Instrs) {
			return fmt.Errorf("isa: PC %d out of range", m.PC)
		}
		if m.executed++; m.executed > limit {
			return fmt.Errorf("isa: exceeded %d instructions", limit)
		}
		if err := m.step(p); err != nil {
			return fmt.Errorf("isa: @%d %s: %w", m.PC, m.Prog.Disassemble(m.PC), err)
		}
	}
	return nil
}

func (m *Interp) reg(r uint8) uint64 {
	if r == RegZero {
		return 0
	}
	return m.Regs[r]
}

func (m *Interp) setReg(r uint8, v uint64) {
	if r != RegZero {
		m.Regs[r] = v
	}
}

func (m *Interp) ea(in Instr) uint64 { return m.reg(in.Ra) + uint64(in.Imm) }

// load performs a data read at the address, checked or raw per op.
func (m *Interp) load(p *core.Proc, in Instr, checked bool) (uint64, error) {
	addr := m.ea(in)
	if addr < core.SharedBase {
		v, err := m.ReadPriv(addr)
		if err != nil {
			return 0, err
		}
		p.ChargeTime(core.CatTask, 1)
		return v, nil
	}
	if m.openBatch != nil {
		if m.Sanitize && !m.openBatch.Covers(addr) {
			return 0, fmt.Errorf("sanitizer: batched load outside the pinned window at %#x", addr)
		}
		return m.openBatch.Load(addr), nil
	}
	if checked {
		return p.Load(addr), nil
	}
	if in.Covered {
		if m.Sanitize && !p.ElidedLoadValid(addr) {
			return 0, fmt.Errorf("sanitizer: elided check but line not valid at %#x", addr)
		}
		return p.ElidedLoad(addr), nil
	}
	if m.Sanitize && m.Prog.Rewritten {
		return 0, fmt.Errorf("sanitizer: raw load of shared address %#x in rewritten program", addr)
	}
	return p.RawLoad(addr), nil
}

func (m *Interp) store(p *core.Proc, in Instr, v uint64, checked bool) error {
	addr := m.ea(in)
	if addr < core.SharedBase {
		if err := m.WritePriv(addr, v); err != nil {
			return err
		}
		p.ChargeTime(core.CatTask, 1)
		return nil
	}
	if m.openBatch != nil {
		if m.Sanitize && !m.openBatch.Covers(addr) {
			return fmt.Errorf("sanitizer: batched store outside the pinned window at %#x", addr)
		}
		m.openBatch.Store(addr, v)
		return nil
	}
	if checked {
		p.Store(addr, v)
		return nil
	}
	if m.Sanitize && m.Prog.Rewritten {
		return fmt.Errorf("sanitizer: raw store to shared address %#x in rewritten program", addr)
	}
	p.RawStore(addr, v)
	return nil
}

func (m *Interp) step(p *core.Proc) error {
	in := m.Prog.Instrs[m.PC]
	next := m.PC + 1
	charge1 := func() { p.ChargeTime(core.CatTask, 1) }

	switch in.Op {
	case NOP:
		charge1()
	case HALT:
		charge1()
		m.halted = true
	case LDA:
		charge1()
		m.setReg(in.Rd, m.reg(in.Ra)+uint64(in.Imm))
	case LDQ:
		// Plain loads are unchecked: in an un-rewritten binary every
		// load is one of these; the rewriter converts possibly-shared
		// ones to CHKLD.
		v, err := m.load(p, in, false)
		if err != nil {
			return err
		}
		m.setReg(in.Rd, v)
	case CHKLD:
		v, err := m.load(p, in, true)
		if err != nil {
			return err
		}
		m.setReg(in.Rd, v)
	case STQ:
		if err := m.store(p, in, m.reg(in.Rd), false); err != nil {
			return err
		}
	case CHKST:
		if err := m.store(p, in, m.reg(in.Rd), true); err != nil {
			return err
		}
	case LDQL, CHKLDL:
		addr := m.ea(in)
		if addr < core.SharedBase {
			return fmt.Errorf("ldq_l to private memory")
		}
		if in.Op == LDQL && m.Sanitize && m.Prog.Rewritten {
			return fmt.Errorf("sanitizer: raw ldq_l of shared address %#x in rewritten program", addr)
		}
		m.setReg(in.Rd, p.LoadLocked(addr))
	case STQC, CHKSTC:
		addr := m.ea(in)
		if addr < core.SharedBase {
			return fmt.Errorf("stq_c to private memory")
		}
		if in.Op == STQC && m.Sanitize && m.Prog.Rewritten {
			return fmt.Errorf("sanitizer: raw stq_c to shared address %#x in rewritten program", addr)
		}
		ok := p.StoreCond(addr, m.reg(in.Rd))
		if ok {
			m.setReg(in.Rd, 1)
		} else {
			m.setReg(in.Rd, 0)
		}
	case MB:
		p.MemBar()
	case MBPROT:
		// The protocol part of the barrier already ran in MemBar; this
		// pseudo-instruction only accounts the extra call.
		p.ChargeTime(core.CatCheck, 1)
	case POLL:
		p.Poll()
	case PFXEXCL:
		p.PrefetchExclusive(m.ea(in))
	case BATCHCHK:
		if m.openBatch != nil {
			return fmt.Errorf("nested batch")
		}
		addr := m.ea(in)
		if addr >= core.SharedBase {
			m.openBatch = p.BatchStart(core.Range{Addr: addr, Bytes: in.BatchBytes, Write: in.Rd != 0})
		}
	case BATCHEND:
		if m.openBatch != nil {
			p.BatchEnd(m.openBatch)
			m.openBatch = nil
		}
	case ADDQ, SUBQ, MULQ, AND, OR, XOR, SLL, SRL, CMPEQ, CMPLT:
		charge1()
		a := m.reg(in.Ra)
		b := m.reg(in.Rb)
		if in.UseImm {
			b = uint64(in.Imm)
		}
		var v uint64
		switch in.Op {
		case ADDQ:
			v = a + b
		case SUBQ:
			v = a - b
		case MULQ:
			v = a * b
		case AND:
			v = a & b
		case OR:
			v = a | b
		case XOR:
			v = a ^ b
		case SLL:
			v = a << (b & 63)
		case SRL:
			v = a >> (b & 63)
		case CMPEQ:
			if a == b {
				v = 1
			}
		case CMPLT:
			if int64(a) < int64(b) {
				v = 1
			}
		}
		m.setReg(in.Rd, v)
	case BEQ, BNE, BLT, BGE:
		charge1()
		a := m.reg(in.Ra)
		taken := false
		switch in.Op {
		case BEQ:
			taken = a == 0
		case BNE:
			taken = a != 0
		case BLT:
			taken = int64(a) < 0
		case BGE:
			taken = int64(a) >= 0
		}
		if taken {
			next = in.Target
		}
	case BR:
		charge1()
		next = in.Target
	case JSR:
		charge1()
		m.Regs[RegRA] = uint64(m.PC + 1)
		next = in.Target
	case RET:
		charge1()
		ra := m.Regs[RegRA]
		if ra == retHalt {
			m.halted = true
		} else {
			next = int(ra)
		}
	case SYSCALL:
		charge1()
		if m.Syscall != nil {
			m.Syscall(p, m, in.Imm)
		}
	default:
		return fmt.Errorf("unimplemented op %v", in.Op)
	}
	m.PC = next
	return nil
}
