package core

import "testing"

// TestExplorerRunsRealEntryPoints: an explorer process performs its
// operations through the real Load, Store, LoadLocked, StoreCond and
// MemBar, so a program driven to its end counts each of them once, as a
// live run would. The block is homed at the other process, so the read and
// the write miss and the process stalls on them.
func TestExplorerRunsRealEntryPoints(t *testing.T) {
	prog := []ExpOp{{Kind: ExpRead}, {Kind: ExpWrite, Val: 1}, {Kind: ExpLL}, {Kind: ExpSC, Val: 2}, {Kind: ExpMemBar}}
	for _, proto := range ProtocolNames() {
		for _, cons := range []ConsistencyModel{ReleaseConsistent, SequentiallyConsistent} {
			e := NewExplorer(ExpConfig{Programs: [][]ExpOp{prog, nil}, Homes: []int{1}, Protocol: proto, Consistency: cons})
			for acts := e.Enabled(); len(acts) > 0; acts = e.Enabled() {
				e.Apply(acts[0])
			}
			if v := e.Check(); v != nil || !e.Terminal() {
				t.Fatalf("%s %v: terminal %t, violation %v", proto, cons, e.Terminal(), v)
			}
			if got, want := e.Outcome(), "p0:[0 1 1];p1:[]"; got != want {
				t.Errorf("%s %v: outcome %s, want %s", proto, cons, got, want)
			}
			st := e.sys.procs[0].Stats()
			for _, c := range []Counter{CntLoads, CntStores, CntLLs, CntSCs, CntMemoryBarriers} {
				if st.N[c] != 1 {
					t.Errorf("%s %v: %s = %d, want 1", proto, cons, c, st.N[c])
				}
			}
			e.Close()
		}
	}
}
