package rewriter

import (
	"fmt"
	"sort"

	"repro/internal/isa"
)

// Natural-loop detection and the loop-window proof engine shared by the
// optimizer (hoist.go) and the verifier (verify.go loop regions).
//
// A transformable loop gets one BATCHCHK in the preheader pinning every
// line the body touches and one BATCHEND on the exit path. §4.1 batch
// semantics make this sound across the back-edge polls: while the batch
// is open, invalidations for pinned lines are acked immediately but their
// flag fills are deferred until the batch closes, so the body's raw
// accesses keep seeing the pinned (possibly stale) copy — legal under the
// Alpha memory model, exactly as for a straight-line batch. What must be
// *proved* is that the loop terminates identically (a pinned spin-wait
// would never observe the flag store it waits for) and that every access,
// across every iteration, stays inside the declared window. Hence the
// counted-trip and stride proofs below.

// natLoop is one natural loop: the header plus every block that can reach
// a back edge without passing through the header. Back edges sharing a
// header are merged into one loop.
type natLoop struct {
	header   int // header block ID
	backSrcs []int
	blocks   map[int]bool
}

// naturalLoops returns the program's natural loops ordered by header
// position.
func naturalLoops(c *CFG) []natLoop {
	byHeader := map[int]*natLoop{}
	var order []int
	for _, e := range c.BackEdges() {
		l := byHeader[e.To]
		if l == nil {
			l = &natLoop{header: e.To, blocks: loopBlocks(c, e.From, e.To)}
			byHeader[e.To] = l
			order = append(order, e.To)
		} else {
			for b := range loopBlocks(c, e.From, e.To) {
				l.blocks[b] = true
			}
		}
		l.backSrcs = append(l.backSrcs, e.From)
	}
	out := make([]natLoop, 0, len(order))
	for _, h := range order {
		out = append(out, *byHeader[h])
	}
	return out
}

// loopBlocks computes the natural loop of back edge from→header by
// reverse reachability from the back-edge source, stopping at the header.
func loopBlocks(c *CFG, from, header int) map[int]bool {
	blocks := map[int]bool{header: true}
	var stack []int
	add := func(b int) {
		if !blocks[b] {
			blocks[b] = true
			stack = append(stack, b)
		}
	}
	add(from)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range c.Blocks[b].Preds {
			add(p)
		}
	}
	return blocks
}

// ---------------------------------------------------------------------------
// Reaching definitions.
// ---------------------------------------------------------------------------

// defsInfo is a reaching-definitions solution over the whole program. Bit
// i (i < n) means "instruction i's definition reaches here"; bit n+r means
// "register r may hold a value defined outside the program text" (entry
// boundary, syscall, or an unsummarized call). The external bits are what
// make the trip-count proof sound: a constant only counts if it is the
// *sole* reaching definition and the external bit for its register is
// clear.
type defsInfo struct {
	c        *CFG
	n        int
	sites    [isa.NumRegs][]int
	boundary BitSet
	blockIn  []BitSet
	ok       bool
	sums     *summarySet
}

// solveDefs computes reaching definitions, with call effects refined by
// summaries when available.
func solveDefs(c *CFG, sums *summarySet) *defsInfo {
	n := len(c.Prog.Instrs)
	d := &defsInfo{c: c, n: n, sums: sums}
	for i, in := range c.Prog.Instrs {
		if r := defRegOf(in); r >= 0 {
			d.sites[r] = append(d.sites[r], i)
		}
	}
	bits := n + isa.NumRegs
	d.boundary = NewBitSet(bits)
	for r := 0; r < isa.NumRegs; r++ {
		d.boundary.Set(n + r)
	}
	blockIn, ok := c.Solve(&Dataflow{
		Dir: Forward, Meet: Union, Bits: bits, Boundary: d.boundary,
		Transfer: func(b *BasicBlock, in BitSet) BitSet {
			for i := b.Start; i < b.End; i++ {
				d.step(in, i, c.Prog.Instrs[i])
			}
			return in
		},
	})
	d.blockIn = blockIn
	d.ok = ok
	return d
}

func (d *defsInfo) killReg(s BitSet, r int) {
	for _, i := range d.sites[r] {
		s.Clear(i)
	}
	s.Clear(d.n + r)
}

func (d *defsInfo) extern(s BitSet, r int) {
	if r == isa.RegZero {
		return
	}
	d.killReg(s, r)
	s.Set(d.n + r)
}

func (d *defsInfo) step(s BitSet, i int, in isa.Instr) {
	switch in.Op {
	case isa.JSR:
		cl := ^uint32(0)
		if cs, ok := d.sums.AtCall(in.Target); ok {
			cl = cs.Clobbers | 1<<isa.RegRA
		}
		for r := 0; r < isa.NumRegs; r++ {
			if cl&(1<<uint(r)) != 0 {
				d.extern(s, r)
			}
		}
		return
	case isa.SYSCALL:
		for r := 0; r < isa.NumRegs; r++ {
			d.extern(s, r)
		}
		return
	}
	if r := defRegOf(in); r >= 0 {
		d.killReg(s, r)
		s.Set(i)
	}
}

// out returns the defs state at the exit of block b.
func (d *defsInfo) out(b int) BitSet {
	s := d.blockIn[b].Clone()
	blk := d.c.Blocks[b]
	for i := blk.Start; i < blk.End; i++ {
		d.step(s, i, d.c.Prog.Instrs[i])
	}
	return s
}

// atLoopEntry returns the definitions reaching the loop header from
// *outside* the loop: the union over non-loop predecessors, plus the
// boundary if the header is itself a program entry.
func (d *defsInfo) atLoopEntry(header int, inLoop map[int]bool) BitSet {
	s := NewBitSet(d.n + isa.NumRegs)
	if d.c.IsEntry(header) {
		s.UnionWith(d.boundary)
	}
	for _, p := range d.c.Blocks[header].Preds {
		if inLoop[p] {
			continue
		}
		s.UnionWith(d.out(p))
	}
	return s
}

// constDef returns the value of register r if its sole reaching
// definition in s is `LDA r, #imm(r31)` and the external bit is clear.
func (d *defsInfo) constDef(s BitSet, r uint8) (int64, bool) {
	if s.Get(d.n + int(r)) {
		return 0, false
	}
	def := -1
	for _, i := range d.sites[r] {
		if s.Get(i) {
			if def >= 0 {
				return 0, false
			}
			def = i
		}
	}
	if def < 0 {
		return 0, false
	}
	in := d.c.Prog.Instrs[def]
	if in.Op != isa.LDA || in.Ra != isa.RegZero {
		return 0, false
	}
	return in.Imm, true
}

// ---------------------------------------------------------------------------
// Loop shape proof.
// ---------------------------------------------------------------------------

// loopClass classifies one body instruction for the prover. The planner
// classifies over its planned stream (CHKLD/CHKST plans are the shared
// accesses); the verifier classifies over the emitted program (raw shared
// LDQ/STQ are the members).
type loopClass struct {
	kind  int
	write bool
	base  uint8
	imm   int64
	def   int // register defined, or -1
}

const (
	lcNeutral = iota // private/ALU work, polls
	lcAccess         // shared access that becomes (or is) a window member
	lcBranch         // interior control flow; targets validated structurally
	lcForbidden
)

// loopMember is one shared access with its occupied byte span across all
// iterations: offsets [lo, hi+8).
type loopMember struct {
	idx    int
	lo, hi int64
	write  bool
}

// loopShape is a proven transformable loop.
type loopShape struct {
	headerBlk, backBlk int
	bodyStart, bodyEnd int // instruction span [start, end)
	base               uint8
	stride             int64
	incIdx             int // index of the base increment, or -1
	cntReg             uint8
	trips              int64 // proven constant trip count, or -1 unproven
	write              bool
	lo, hi             int64 // aggregate window: bytes [lo, hi+8)
	members            []loopMember
}

// loopReject explains why a loop is not transformable, phrased as a
// verifier violation (kind + message anchored at an instruction).
type loopReject struct {
	idx    int
	kind   string
	detail string
}

func reject(idx int, kind, format string, args ...any) *loopReject {
	return &loopReject{idx: idx, kind: kind, detail: fmt.Sprintf(format, args...)}
}

// proveLoop checks the eligibility of a single-back-edge natural loop and
// derives its batch window. Requirements:
//
//   - textually contiguous body [header.Start, backSrc.End) tiled exactly
//     by the loop blocks, with the back-edge block last;
//   - single exit: the only edge leaving the loop is the back-edge
//     block's fall-through;
//   - bottom test `BNE cnt, header` closing the body;
//   - every body instruction neutral, an interior branch, or a shared
//     access; one base register for all accesses;
//   - at most one definition of the base: an affine step (LDA/ADDQ/SUBQ
//     with immediate) in the back-edge block — the stride;
//   - a proven trip count: exactly one interior def of cnt,
//     `SUBQ cnt,cnt,#1` in the back-edge block, and the sole definition
//     reaching the loop entry is `LDA cnt, #N` with N ≥ 1. A strided
//     window's bounds depend on N, and any window whose bottom test
//     depended on pinned data (a spin-wait) would change termination, so
//     the proof is mandatory for every loop.
//
// maxBytes bounds the aggregate window; pass a large value to disable
// (the verifier checks the declared window instead).
func proveLoop(c *CFG, defs *defsInfo, l natLoop, classify func(int) loopClass, maxBytes int64) (*loopShape, *loopReject) {
	hb := c.Blocks[l.header]
	if len(l.backSrcs) != 1 {
		return nil, reject(hb.Start, "loop-batch-backedge", "loop has %d back edges", len(l.backSrcs))
	}
	back := l.backSrcs[0]
	bb := c.Blocks[back]

	// Both scans below go in block order: the first reject is the
	// instruction the verifier reports.
	blocks := make([]int, 0, len(l.blocks))
	for b := range l.blocks {
		blocks = append(blocks, b)
	}
	sort.Ints(blocks)

	// Textual contiguity: the loop blocks tile [hb.Start, bb.End) exactly.
	span := 0
	for _, b := range blocks {
		blk := c.Blocks[b]
		if blk.Start < hb.Start || blk.End > bb.End {
			return nil, reject(blk.Start, "loop-batch-body", "loop block @%d..%d outside the body span [%d,%d)", blk.Start, blk.End, hb.Start, bb.End)
		}
		span += blk.End - blk.Start
	}
	if span != bb.End-hb.Start {
		return nil, reject(hb.Start, "loop-batch-body", "loop blocks do not tile the body span [%d,%d)", hb.Start, bb.End)
	}

	// Single exit: only the back-edge block leaves the loop, by falling
	// through past its bottom test.
	for _, b := range blocks {
		for _, s := range c.Blocks[b].Succs {
			if l.blocks[s] {
				continue
			}
			if b == back && c.Blocks[s].Start == bb.End {
				continue
			}
			return nil, reject(c.Blocks[b].End-1, "loop-batch-body", "side exit from the loop body to @%d", c.Blocks[s].Start)
		}
	}

	last := c.Prog.Instrs[bb.End-1]
	if last.Op != isa.BNE {
		return nil, reject(bb.End-1, "loop-batch-backedge", "back edge must be a BNE bottom test, got %v", last.Op)
	}
	cnt := last.Ra
	if cnt == isa.RegZero {
		return nil, reject(bb.End-1, "loop-batch-backedge", "bottom test on the zero register never loops")
	}

	sh := &loopShape{
		headerBlk: l.header, backBlk: back,
		bodyStart: hb.Start, bodyEnd: bb.End,
		incIdx: -1, cntReg: cnt, trips: -1,
	}

	// Scan the body: classify every instruction, collect members and
	// definition sites.
	baseSet := false
	var defIdxs []int
	for i := sh.bodyStart; i < sh.bodyEnd; i++ {
		lc := classify(i)
		switch lc.kind {
		case lcForbidden:
			return nil, reject(i, "loop-batch-interior-op", "%v may not appear in a loop batch body", c.Prog.Instrs[i].Op)
		case lcAccess:
			if !baseSet {
				sh.base = lc.base
				baseSet = true
			} else if lc.base != sh.base {
				return nil, reject(i, "loop-batch-member-base", "access base r%d differs from the window base r%d", lc.base, sh.base)
			}
			sh.members = append(sh.members, loopMember{idx: i, lo: lc.imm, hi: lc.imm, write: lc.write})
			if lc.write {
				sh.write = true
			}
		}
		if lc.def >= 0 {
			defIdxs = append(defIdxs, i)
		}
	}

	// Base discipline: at most one interior definition, an affine step in
	// the back-edge block.
	if baseSet {
		for _, i := range defIdxs {
			if uint8(defRegOf(c.Prog.Instrs[i])) != sh.base {
				continue
			}
			if sh.incIdx >= 0 {
				return nil, reject(i, "loop-batch-stride", "window base r%d redefined more than once in the body", sh.base)
			}
			in := c.Prog.Instrs[i]
			switch {
			case in.Op == isa.LDA && in.Ra == sh.base:
				sh.stride = in.Imm
			case in.Op == isa.ADDQ && in.Ra == sh.base && in.UseImm:
				sh.stride = in.Imm
			case in.Op == isa.SUBQ && in.Ra == sh.base && in.UseImm:
				sh.stride = -in.Imm
			default:
				return nil, reject(i, "loop-batch-stride", "window base r%d redefined non-affinely", sh.base)
			}
			if c.BlockOf[i] != back {
				return nil, reject(i, "loop-batch-stride", "base step must sit in the back-edge block")
			}
			sh.incIdx = i
		}
	}

	// Trip count: exactly one interior definition of cnt — SUBQ cnt,cnt,#1
	// in the back-edge block — and the sole external reaching definition a
	// positive constant. Mandatory for every window: a strided window's
	// bounds depend on N, and even a zero-stride window changes program
	// termination if the bottom test depends on pinned data (a spin-wait
	// on a flag inside the window never observes the remote store).
	tripFail := func() *loopReject {
		var cdefs []int
		for _, i := range defIdxs {
			if uint8(defRegOf(c.Prog.Instrs[i])) == cnt {
				cdefs = append(cdefs, i)
			}
		}
		if len(cdefs) != 1 {
			return reject(bb.End-1, "loop-batch-count", "loop count r%d must have exactly one body definition, found %d", cnt, len(cdefs))
		}
		sd := c.Prog.Instrs[cdefs[0]]
		if sd.Op != isa.SUBQ || sd.Ra != cnt || !sd.UseImm || sd.Imm != 1 {
			return reject(cdefs[0], "loop-batch-count", "loop count update must be SUBQ r%d, r%d, #1", cnt, cnt)
		}
		if c.BlockOf[cdefs[0]] != back {
			return reject(cdefs[0], "loop-batch-count", "loop count update must sit in the back-edge block")
		}
		if !defs.ok {
			return reject(sh.bodyStart, "loop-batch-trip", "reaching definitions did not converge")
		}
		entry := defs.atLoopEntry(l.header, l.blocks)
		n, ok := defs.constDef(entry, cnt)
		if !ok || n < 1 {
			return reject(sh.bodyStart, "loop-batch-trip", "trip count r%d is not a proven positive constant at loop entry", cnt)
		}
		sh.trips = n
		return nil
	}
	if rj := tripFail(); rj != nil {
		return nil, rj
	}

	// Member spans across iterations. With stride s and trip count N, an
	// access at static offset d executes with the base advanced by k·s:
	// k ∈ [1, N] for accesses after the step in the back-edge block (that
	// block runs exactly once per iteration, last), k ∈ [0, N-1] for all
	// others.
	if sh.stride != 0 {
		for mi := range sh.members {
			m := &sh.members[mi]
			k0, k1 := int64(0), sh.trips-1
			if c.BlockOf[m.idx] == back && m.idx > sh.incIdx {
				k0, k1 = 1, sh.trips
			}
			a, b := k0*sh.stride, k1*sh.stride
			if a > b {
				a, b = b, a
			}
			m.lo += a
			m.hi += b
		}
	}
	if len(sh.members) > 0 {
		sh.lo, sh.hi = sh.members[0].lo, sh.members[0].hi
		for _, m := range sh.members[1:] {
			if m.lo < sh.lo {
				sh.lo = m.lo
			}
			if m.hi > sh.hi {
				sh.hi = m.hi
			}
		}
		if sh.hi-sh.lo+8 > maxBytes {
			return nil, reject(sh.bodyStart, "loop-batch-window", "window [%d,%d) exceeds the %d-byte batch budget", sh.lo, sh.hi+8, maxBytes)
		}
	}
	return sh, nil
}

// innermost filters a loop set to loops containing no other loop's header.
func innermost(loops []natLoop) []natLoop {
	var out []natLoop
	for _, l := range loops {
		nested := false
		for _, m := range loops {
			if m.header != l.header && l.blocks[m.header] {
				nested = true
				break
			}
		}
		if !nested {
			out = append(out, l)
		}
	}
	return out
}
