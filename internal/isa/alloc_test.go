package isa

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
)

// Private memory is paged on first store (interp.go): an interpreter costs
// the pages its program writes, not the whole 256 KB region.

// interpSink makes the measured Interp escape to the heap, as every real
// one does.
var interpSink *Interp

// TestNewInterpAllocatesNoPrivateMemory measures NewInterp's heap bytes:
// the Interp itself, with a table of page pointers and no page. The least
// of a few calls is taken, so a stray allocation of the runtime cannot
// fail it.
func TestNewInterpAllocatesNoPrivateMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	prog, err := Assemble(sumProgram)
	if err != nil {
		t.Fatal(err)
	}
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		interpSink = NewInterp(prog)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("NewInterp allocated %d bytes", least)
	if least >= 1<<10 {
		t.Errorf("NewInterp allocated %d bytes, want under 1 KB", least)
	}
}

// TestPrivateMemoryAllocatedByPage runs a program that stores at GP and at
// the stack top and loads words nobody stored: it allocates exactly those
// two pages, an untouched word reads 0 (on a page written and on one not),
// and the range check still refuses the word one past the region.
func TestPrivateMemoryAllocatedByPage(t *testing.T) {
	src := `
proc main
    lda   r1, 7
    stq   r1, 0(gp)
    stq   r1, 0(sp)
    ldq   r2, 8(gp)
    ldq   r3, 4096(gp)
    addq  r2, r2, r3
    stq   r2, 16(gp)
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
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var pages []int
	for i, pg := range m.priv {
		if pg != nil {
			pages = append(pages, i)
		}
	}
	if len(pages) != 2 || pages[0] != 0 || pages[1] != len(m.priv)-1 {
		t.Errorf("pages %v allocated, want [0 %d] (GP and the stack top)", pages, len(m.priv)-1)
	}
	for _, w := range []struct {
		addr, want uint64
	}{
		{PrivateBase, 7},
		{PrivateBase + 16, 0},
		{m.Regs[RegSP], 7},
		{PrivateBase + 4096, 0},
	} {
		if v, err := m.ReadPriv(w.addr); err != nil || v != w.want {
			t.Errorf("ReadPriv(%#x) = %d, %v; want %d", w.addr, v, err, w.want)
		}
	}
	past := PrivateBase + PrivateWords*8
	if _, err := m.ReadPriv(past); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("ReadPriv one word past the region: %v, want out of range", err)
	}
	if err := m.WritePriv(past, 1); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("WritePriv one word past the region: %v, want out of range", err)
	}
}
