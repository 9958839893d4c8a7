package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workloads"
)

func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSuffix(tab.Rows[row][col], "%"), "x"), 64)
	if err != nil {
		t.Fatalf("cell %d,%d = %q: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestTable1Shape(t *testing.T) {
	tab := Table1()
	var buf bytes.Buffer
	tab.Render(&buf)
	// cached: MP ~1.1, SM ~1.9; both far below the miss cases.
	mpCached, smCached := cell(t, tab, 0, 1), cell(t, tab, 0, 2)
	mpMiss, smMiss, pfxMiss := cell(t, tab, 1, 1), cell(t, tab, 1, 2), cell(t, tab, 1, 3)
	mpCont, smCont := cell(t, tab, 2, 1), cell(t, tab, 2, 2)
	if !(mpCached < smCached) {
		t.Errorf("cached: MP %.2f should beat SM %.2f", mpCached, smCached)
	}
	if !(mpMiss < pfxMiss && pfxMiss < smMiss) {
		t.Errorf("uncontended: want MP (%.2f) < SM+pfx (%.2f) < SM (%.2f)", mpMiss, pfxMiss, smMiss)
	}
	if smMiss < 30 || smMiss > 65 {
		t.Errorf("SM uncontended miss %.2f, paper ~44", smMiss)
	}
	if !(mpCont < smCont) {
		t.Errorf("contended: MP %.2f should beat SM %.2f", mpCont, smCont)
	}
	if !(mpCont > mpMiss) {
		t.Errorf("contention should raise MP latency: %.2f vs %.2f", mpCont, mpMiss)
	}
}

func TestMemoryBarrierCosts(t *testing.T) {
	tab := MemoryBarrierCosts()
	native, base, smp := cell(t, tab, 0, 1), cell(t, tab, 1, 1), cell(t, tab, 2, 1)
	if !(native < base && base < smp) {
		t.Fatalf("want native (%.2f) < base (%.2f) < smp (%.2f)", native, base, smp)
	}
	if base < 0.2 || base > 0.6 {
		t.Errorf("Base MB %.2f us, paper 0.32", base)
	}
	if smp < 1.2 || smp > 2.4 {
		t.Errorf("SMP MB %.2f us, paper 1.68", smp)
	}
}

func TestTable2Shape(t *testing.T) {
	tab := Table2()
	for r := 0; r < 4; r++ {
		std, base, smp := cell(t, tab, r, 1), cell(t, tab, r, 2), cell(t, tab, r, 3)
		if !(std < base && base < smp) {
			t.Errorf("row %d (%s): want std (%.1f) < base (%.1f) < smp (%.1f)",
				r, tab.Rows[r][0], std, base, smp)
		}
	}
	// read 65536 standard ~370 us.
	if v := cell(t, tab, 3, 1); v < 250 || v > 500 {
		t.Errorf("read64k standard %.1f, paper ~370", v)
	}
}

func TestTable3Shape(t *testing.T) {
	tab := Table3()
	// Average row is after the 9 apps.
	avg := cell(t, tab, 9, 3)
	if avg <= 1.5 || avg >= 45 {
		t.Fatalf("average checking overhead %.1f%%, paper 21.7%%", avg)
	}
	// Code growth: SPLASH rows ~55-60%, Oracle ~96%.
	for r := 0; r < 9; r++ {
		g := cell(t, tab, r, 4)
		if g < 40 || g > 75 {
			t.Errorf("%s growth %+.0f%%, paper 55-60%%", tab.Rows[r][0], g)
		}
	}
	or := cell(t, tab, 10, 4)
	if or < 80 || or > 115 {
		t.Errorf("Oracle growth %.0f%%, paper 96%%", or)
	}
}

func TestRewriteTimesShape(t *testing.T) {
	tab := RewriteTimes()
	last := len(tab.Rows) - 1
	oracle := cell(t, tab, last, 5)
	if oracle < 150 || oracle > 260 {
		t.Fatalf("Oracle rewrite time %.0f s, paper 202", oracle)
	}
	for r := 0; r < last; r++ {
		v := cell(t, tab, r, 5)
		if v < 2 || v > 12 {
			t.Errorf("%s rewrite time %.1f s, paper 4.0-7.3", tab.Rows[r][0], v)
		}
	}
}

func TestSpeedupSeriesSubset(t *testing.T) {
	// A cheap Figure 3 sanity check: Barnes speeds up with MP sync.
	sp, err := SpeedupSeries("Barnes", workloads.MPSync, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if sp[1] <= sp[0] || sp[1] < 1.8 {
		t.Fatalf("speedups %v: expected growth to >=1.8 at P=8", sp)
	}
}

// TestFigure4SCWithinBound holds every kernel to Figure 4's claim: with
// fine-grained coherence sequential consistency costs at most ~10 % over
// release consistency, so each SC total, normalized to its RC run at 100,
// is at most 110 (and below 90 would be suspicious).
func TestFigure4SCWithinBound(t *testing.T) {
	tab := Figure4()
	if len(tab.Rows) != 2*len(workloads.All()) {
		t.Fatalf("%d rows, want an RC and an SC row per kernel", len(tab.Rows))
	}
	for r := 1; r < len(tab.Rows); r += 2 {
		if sc := cell(t, tab, r, 8); sc > 110 || sc < 90 {
			t.Errorf("%s: SC total %.0f against RC's 100, paper: at most 110", tab.Rows[r][0], sc)
		}
	}
}

// TestMatrixCells pins three cells of the protocol matrix: Raytrace with MP
// synchronization on 8x1 under both backends, and Barnes with MP on 4x4
// under dirinval, splash-smp's Barnes. Barnes moved 13 804 047 ->
// 13 697 534 (0.992x) when an SMP downgrade began to complete at the last
// node-mate to apply it, with no ack back to the handler that sent it
// (0.982x alone), and each node's MP lock messages began to go to a
// different process of the lock home's node. It moved again to
// 13 454 658 (0.982x) when a remote node's processes began to queue for an
// MP lock in their node's slot of it and hand it on in node memory, with no
// lock-release and lock-grant through the home, and to 12 862 107 (0.956x)
// when any process of a home's node began to serve the requests for its
// home records, locks and barriers (the agent's queue). The 8x1 cells have
// no node-mates and do not move.
func TestMatrixCells(t *testing.T) {
	raytrace, _ := workloads.Get("Raytrace")
	barnes, _ := workloads.Get("Barnes")
	for _, c := range []struct {
		protocol string
		layout   matrixLayout
		app      *workloads.App
		want     int64
	}{
		{"tardis", matrixLayouts[0], raytrace, 3216443},
		{"dirinval", matrixLayouts[0], raytrace, 2640805},
		{"dirinval", matrixLayouts[1], barnes, 12862107},
	} {
		if got := int64(matrixCell(c.protocol, c.layout, matrixSyncs[0], c.app)); got != c.want {
			t.Errorf("%s MP %s under %s: %d cycles, want %d", c.app.Name, c.layout.name, c.protocol, got, c.want)
		}
	}
}

// TestTable4Shape asserts Table 4's claims. Two of them do not hold yet
// (ROADMAP item 8): each is expected to fail, for the reason given, and the
// test fails once it holds, so that it is asserted instead.
func TestTable4Shape(t *testing.T) {
	tab := Table4()
	smp1, smp3 := cell(t, tab, 0, 1), cell(t, tab, 2, 1)
	ex1, ex2, ex3 := cell(t, tab, 0, 2), cell(t, tab, 1, 2), cell(t, tab, 2, 2)
	eq1, eq2, eq3 := cell(t, tab, 0, 3), cell(t, tab, 1, 3), cell(t, tab, 2, 3)
	if smp3 >= smp1 {
		t.Errorf("SMP Oracle did not scale: 1srv %.1f vs 3srv %.1f", smp1, smp3)
	}
	// Shasta EX is slower than SMP but scales.
	if ex1 <= smp1 {
		t.Errorf("Shasta EX 1srv (%.1f) should exceed SMP (%.1f)", ex1, smp1)
	}
	if ex3 >= ex1 {
		t.Errorf("Shasta EX did not scale: %.1f -> %.1f", ex1, ex3)
	}
	// EQ is slower than EX once there is a second server: the daemons
	// steal the first server's CPU.
	if eq2 <= ex2 || eq3 <= ex3 {
		t.Errorf("EQ (%.1f, %.1f) should exceed EX (%.1f, %.1f) at 2 and 3 servers", eq2, eq3, ex2, ex3)
	}
	expectedFail := []struct {
		claim  string
		holds  bool
		reason string
	}{
		{"EQ(2) > EQ(1)", eq2 > eq1,
			"the daemons sharing the first server's CPU cost EQ less than the second server gains it, so EQ speeds up at 2 servers where the paper's slows down 25 %"},
		{"EX(3) <= EX(1)/1.5", ex3 <= ex1/1.5,
			"EX gains 1.3x from one server to three, the paper's 1.9x; what holds it back is not yet named"},
	}
	for _, c := range expectedFail {
		if c.holds {
			t.Errorf("%s now holds: assert it instead of expecting it to fail", c.claim)
		} else {
			t.Logf("expected failure, %s: %s", c.claim, c.reason)
		}
	}
}

func TestFigure5Renders(t *testing.T) {
	tab := Figure5()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	if !strings.Contains(buf.String(), "EQ") {
		t.Fatal("missing EQ rows")
	}
}

func TestAblationSMPFaster(t *testing.T) {
	tab := AblationSMP()
	for r := range tab.Rows {
		sp := cell(t, tab, r, 3)
		if sp < 1.0 {
			t.Errorf("%s: SMP-Shasta slower than Base (%.2fx)", tab.Rows[r][0], sp)
		}
	}
}

func TestAblationDirectDowngrade(t *testing.T) {
	tab := AblationDirectDowngrade()
	if len(tab.Rows) != 2 {
		t.Fatal("want 2 rows")
	}
	on := cell(t, tab, 0, 1)
	if strings.Contains(tab.Rows[1][1], "cap") {
		return // unmeasurable, like the paper
	}
	off := cell(t, tab, 1, 1)
	if off < on*2 {
		t.Errorf("direct downgrade off should be much slower: on=%.1f off=%.1f", on, off)
	}
}

func TestAblationFlagCheck(t *testing.T) {
	tab := AblationFlagCheck()
	on, off := cell(t, tab, 0, 1), cell(t, tab, 1, 1)
	if on >= off {
		t.Errorf("flag check on (%.2f) should beat off (%.2f)", on, off)
	}
}

// TestAblationCheckElim holds the check-elimination ablation to the PR's
// acceptance bar: no kernel executes more dynamic checks, at least three
// execute strictly fewer, and every kernel's final shared memory is
// byte-identical.
func TestAblationCheckElim(t *testing.T) {
	tab := AblationCheckElim()
	if len(tab.Rows) != len(workloads.AsmKernels()) {
		t.Fatalf("%d rows, want one per kernel", len(tab.Rows))
	}
	fewer := 0
	for i, row := range tab.Rows {
		off, on := cell(t, tab, i, 1), cell(t, tab, i, 2)
		if on > off {
			t.Errorf("%s: elimination increased dynamic checks (%.0f -> %.0f)", row[0], off, on)
		}
		if on < off {
			fewer++
		}
		if row[5] != "true" {
			t.Errorf("%s: final shared memory differs with elimination on", row[0])
		}
	}
	if fewer < 3 {
		t.Errorf("only %d kernels executed fewer checks, want >= 3", fewer)
	}
}

// TestAblationCheckHoist holds the loop-aware optimizer to the PR's
// acceptance bar: at least two kernels cut dynamic checks by a further
// 15% beyond elimination alone, and every kernel's final shared memory
// is identical with hoisting on.
func TestAblationCheckHoist(t *testing.T) {
	tab := AblationCheckHoist()
	if len(tab.Rows) != len(workloads.AsmKernels()) {
		t.Fatalf("%d rows, want one per kernel", len(tab.Rows))
	}
	big := 0
	for i, row := range tab.Rows {
		off, on := cell(t, tab, i, 1), cell(t, tab, i, 2)
		if on > off {
			t.Errorf("%s: hoisting increased dynamic checks (%.0f -> %.0f)", row[0], off, on)
		}
		if off > 0 && (off-on)/off >= 0.15 {
			big++
		}
		if row[7] != "true" {
			t.Errorf("%s: final shared memory differs with hoisting on", row[0])
		}
	}
	if big < 2 {
		t.Errorf("only %d kernels cut checks by >= 15%% beyond elimination, want >= 2", big)
	}
}
