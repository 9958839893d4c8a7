// Binary: the transparency story end to end. Assemble an Alpha-style
// program that synchronizes with LL/SC and MB — exactly what a hardware-SMP
// binary does — run it through the Shasta rewriter, and execute four copies
// across the cluster. The unmodified program knows nothing about Shasta;
// the in-line checks inserted by the rewriter make it coherent.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/rewriter"
	"repro/internal/sim"
)

const src = `
; increment a shared counter 25 times with an LL/SC retry loop,
; then publish a flag with release semantics (MB + store).
proc main
    lda   r9, 0x100000000    ; shared counter
    lda   r10, 0x100000040   ; shared flag (own line)
    lda   r2, 25
outer:
try:
    ldq_l r1, 0(r9)
    addq  r1, r1, #1
    stq_c r1, 0(r9)
    beq   r1, try
    mb
    subq  r2, r2, #1
    bne   r2, outer
    ldq   r3, 0(r10)         ; read the flag once (shared load)
    halt
endproc
`

func main() {
	prog, err := isa.Assemble(src)
	if err != nil {
		panic(err)
	}
	rewritten, st, err := rewriter.Rewrite(prog, rewriter.DefaultOptions())
	if err != nil {
		panic(err)
	}
	fmt.Printf("rewriter: %d -> %d words (+%.0f%%), %d load checks, %d store checks,\n",
		st.OrigWords, st.NewWords, st.GrowthPercent(), st.LoadChecks, st.StoreChecks)
	fmt.Printf("          %d polls, %d LL/SC sequences, %d MB protocol calls\n\n",
		st.Polls, st.LLSCPairs, st.MBCalls)

	cfg := core.DefaultConfig()
	cfg.SharedBytes = 64 << 10
	cfg.MaxTime = sim.Cycles(300e6)
	sys := core.Build(core.WithConfig(cfg))
	const copies = 4
	for i := 0; i < copies; i++ {
		cpu := i * cfg.CPUsPerNode % sys.Eng.NumCPUs() // one per node
		sys.Spawn(fmt.Sprintf("bin%d", i), cpu, func(p *core.Proc) {
			m := isa.NewInterp(rewritten)
			if err := m.Run(p, "main"); err != nil {
				panic(err)
			}
		})
	}
	sys.Alloc(4096, core.AllocOptions{Home: core.HomeAt(0)})
	if err := sys.Run(); err != nil {
		panic(err)
	}
	agg := sys.AggregateStats()
	fmt.Printf("four copies on four nodes: counter = %d (want %d)\n",
		sys.Peek(core.SharedBase), copies*25)
	fmt.Printf("LL/SC: %d/%d (%d in hardware, %d failed); remote misses: %d read, %d write\n",
		agg.LLs(), agg.SCs(), agg.SCHardware(), agg.SCFailures(), agg.ReadMisses(), agg.WriteMisses())
}
