// Package workloads implements parallel kernels with the sharing and
// synchronization signatures of the nine SPLASH-2 applications evaluated in
// the Shasta paper (Table 3, Figures 3 and 4). Each kernel is a guest
// program against the checked shared-memory API, so every load and store
// executes the in-line Shasta miss check, and synchronization can use
// either the message-passing ("MP") routines or transparent Alpha LL/SC
// sequences ("SM"), the two styles Figure 3 compares.
//
// Problem sizes are scaled down from the paper's (the substrate is a
// simulator); the figures reproduce in shape, not absolute seconds.
package workloads

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dsmsync"
	"repro/internal/sim"
)

// SyncStyle selects the synchronization flavour of a run (Figure 3).
type SyncStyle int

const (
	// MPSync uses Shasta's message-passing locks and barriers.
	MPSync SyncStyle = iota
	// SMSync uses Alpha LL/SC and memory-barrier sequences through the
	// shared-memory abstraction, as an unmodified binary would.
	SMSync
)

func (s SyncStyle) String() string {
	if s == SMSync {
		return "SM"
	}
	return "MP"
}

// RunConfig parameterizes one workload run.
type RunConfig struct {
	Procs int
	Scale int // problem-size multiplier; 0 means 1
	Sync  SyncStyle
}

// App is one workload: a static code profile (used by the binary-rewrite
// models for Table 3 and §6.3) plus the kernel body.
type App struct {
	Name string
	// Procedures and CodeKB describe the original executable for the
	// rewrite-time and code-size models.
	Procedures int
	CodeKB     int
	// LockCount is how many locks the kernel uses; HighContention marks
	// applications whose locks are highly contended (Raytrace, Volrend).
	LockCount int
	// Setup allocates shared data; it runs before the processes start.
	Setup func(ctx *Ctx)
	// Body is the per-process kernel; rank is the process index.
	Body func(ctx *Ctx, p *core.Proc, rank int)
}

// Ctx carries the shared state of one run.
type Ctx struct {
	Sys   *core.System
	Cfg   RunConfig
	App   *App
	arrs  map[string]uint64
	sizes map[string]int
	locks []dsmsync.Lock
	bar   dsmsync.Barrier
}

// Scale returns the effective problem-size multiplier.
func (c *Ctx) Scale() int {
	if c.Cfg.Scale <= 0 {
		return 1
	}
	return c.Cfg.Scale
}

// Alloc creates a named shared array.
func (c *Ctx) Alloc(name string, bytes int, opts core.AllocOptions) uint64 {
	a := c.Sys.Alloc(bytes, opts)
	c.arrs[name] = a
	c.sizes[name] = bytes
	return a
}

// AllocStriped creates a named array with bytesPerProc homed at each
// process in turn — the home-placement optimization the paper applies to
// FMM, LU-Contiguous and Ocean (§6.4).
func (c *Ctx) AllocStriped(name string, bytesPerProc int) uint64 {
	var base uint64
	for r := 0; r < c.Cfg.Procs; r++ {
		a := c.Sys.Alloc(bytesPerProc, core.AllocOptions{Home: core.HomeAt(r)})
		if r == 0 {
			base = a
		}
	}
	c.arrs[name] = base
	c.sizes[name] = bytesPerProc * c.Cfg.Procs
	return base
}

// Arr returns the base address of a named array.
func (c *Ctx) Arr(name string) uint64 { return c.arrs[name] }

// Lock acquires/releases by index through the configured style.
func (c *Ctx) Lock(i int) dsmsync.Lock { return c.locks[i%len(c.locks)] }

// Barrier blocks until all processes arrive.
func (c *Ctx) Barrier(p *core.Proc) { c.bar.Wait(p) }

// Result summarizes one run.
type Result struct {
	App     string
	Cfg     RunConfig
	Elapsed sim.Time // parallel completion time
	Stats   core.Stats
}

// newSMBarrier makes the barrier of an SM-synchronized run: the stock
// dsmsync.SMBarrier, which tests may swap for a variant.
var newSMBarrier = func(sys *core.System, n int, opts core.AllocOptions) dsmsync.Barrier {
	return dsmsync.NewSMBarrier(sys, n, opts)
}

// Run executes the app on the given system. The system must be fresh; its
// CPUs are filled in order (2-4 processes share the first SMP node, 8 use
// two nodes, 16 use all four — the paper's placement).
func Run(sys *core.System, app *App, cfg RunConfig) (*Result, error) {
	if cfg.Procs <= 0 {
		cfg.Procs = 1
	}
	if cfg.Procs > sys.Eng.NumCPUs() {
		return nil, fmt.Errorf("workloads: %d processes > %d CPUs", cfg.Procs, sys.Eng.NumCPUs())
	}
	ctx := &Ctx{Sys: sys, Cfg: cfg, App: app, arrs: map[string]uint64{}, sizes: map[string]int{}}
	var procs []*core.Proc
	for r := 0; r < cfg.Procs; r++ {
		r := r
		procs = append(procs, sys.Spawn(app.Name, r, func(p *core.Proc) {
			ctx.Barrier(p)
			app.Body(ctx, p, r)
			ctx.Barrier(p)
		}))
	}
	// Synchronization objects. Locks spread evenly across the processes, so
	// fewer locks than processes do not all land on the first node.
	nl := app.LockCount
	if nl <= 0 {
		nl = 1
	}
	for i := 0; i < nl; i++ {
		home := (i * max(1, cfg.Procs/nl)) % cfg.Procs
		if cfg.Sync == SMSync {
			ctx.locks = append(ctx.locks, dsmsync.NewSMLock(sys, core.AllocOptions{Home: core.HomeAt(home)}))
		} else {
			ctx.locks = append(ctx.locks, dsmsync.NewMPLock(sys, home))
		}
	}
	if cfg.Sync == SMSync {
		ctx.bar = newSMBarrier(sys, cfg.Procs, core.AllocOptions{Home: core.HomeAt(0)})
	} else {
		ctx.bar = dsmsync.NewMPBarrier(sys, 0, cfg.Procs)
	}
	if app.Setup != nil {
		app.Setup(ctx)
	}
	if err := sys.Run(); err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", app.Name, err)
	}
	var end sim.Time
	for _, p := range procs {
		if t := p.Stats().Total(); t > end {
			end = t
		}
	}
	return &Result{App: app.Name, Cfg: cfg, Elapsed: end, Stats: sys.AggregateStats()}, nil
}

// Get returns the app with the given name.
func Get(name string) (*App, bool) {
	for _, a := range All() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// All returns the nine SPLASH-2-style kernels in the paper's Table 3 order.
func All() []*App {
	return []*App{
		Barnes(), FMM(), LU(), LUContig(), Ocean(),
		Raytrace(), Volrend(), WaterNsq(), WaterSp(),
	}
}
