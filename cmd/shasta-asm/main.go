// shasta-asm assembles an ISA source file and disassembles it, optionally
// executing it on a single-process Shasta system.
//
// Usage:
//
//	shasta-asm [-run] [-entry main] prog.s
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/sim"
)

func main() {
	run := flag.Bool("run", false, "execute the program after assembly")
	entry := flag.String("entry", "main", "entry procedure")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: shasta-asm [flags] prog.s")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	prog, err := isa.Assemble(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, p := range prog.Procs {
		fmt.Printf("proc %s @%d..%d\n", p.Name, p.Start, p.End)
	}
	for i := range prog.Instrs {
		fmt.Printf("%4d  %s\n", i, prog.Disassemble(i))
	}
	if !*run {
		return
	}
	cfg := core.DefaultConfig()
	cfg.SharedBytes = 1 << 20
	cfg.MaxTime = sim.Cycles(300e6)
	s := core.Build(core.WithConfig(cfg))
	m := isa.NewInterp(prog)
	s.Spawn("cpu0", 0, func(p *core.Proc) {
		if err := m.Run(p, *entry); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	})
	s.Alloc(64<<10, core.AllocOptions{Home: core.HomeAt(0)})
	if err := s.Run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\nexecuted %d instructions; registers:\n", m.Executed())
	for r := 0; r < 8; r++ {
		fmt.Printf("  r%-2d = %#x\n", r, m.Regs[r])
	}
}
