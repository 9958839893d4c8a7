package workloads

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// The nine kernels below reproduce the sharing signatures that drive the
// paper's results: compute-to-communication ratio (Table 3 checking
// overheads), lock and barrier behaviour (Figure 3's MP vs SM gap for
// Raytrace, Volrend and Ocean), and data placement (the home-placement
// optimization for FMM, LU-Contiguous and Ocean).

const wordBytes = 8

// sweepRead loads n words starting at base with the given word stride,
// interleaving gap cycles of computation per access.
func sweepRead(p *core.Proc, base uint64, n, strideW int, gap sim.Time) uint64 {
	var acc uint64
	for i := 0; i < n; i++ {
		acc += p.Load(base + uint64(i*strideW*wordBytes))
		p.Compute(gap)
	}
	return acc
}

// sweepUpdate does read-modify-write over n words.
func sweepUpdate(p *core.Proc, base uint64, n, strideW int, gap sim.Time) {
	for i := 0; i < n; i++ {
		a := base + uint64(i*strideW*wordBytes)
		p.Store(a, p.Load(a)+1)
		p.Compute(gap)
	}
}

// Barnes models the Barnes-Hut N-body kernel: a lock-protected tree-build
// phase followed by a compute-heavy force phase that reads scattered
// bodies. High compute per access gives it the lowest checking overhead in
// Table 3 (+9.6%).
func Barnes() *App {
	return &App{
		Name: "Barnes", Procedures: 255, CodeKB: 280, LockCount: 64,
		Setup: func(c *Ctx) {
			n := 256 * c.Scale()
			c.Alloc("bodies", n*8*wordBytes, core.AllocOptions{})
			c.Alloc("tree", 512*8*wordBytes, core.AllocOptions{})
		},
		Body: func(c *Ctx, p *core.Proc, rank int) {
			n := 256 * c.Scale()
			per := n / c.Cfg.Procs
			bodies, tree := c.Arr("bodies"), c.Arr("tree")
			for iter := 0; iter < 3; iter++ {
				// Tree build: insert own bodies under per-cell locks.
				for i := 0; i < per; i++ {
					cell := (rank*per + i*7) % 512
					lk := c.Lock(cell)
					lk.Acquire(p)
					a := tree + uint64(cell*8*wordBytes)
					p.Store(a, p.Load(a)+1)
					lk.Release(p)
					p.Compute(1400)
				}
				c.Barrier(p)
				// Force computation: read scattered bodies, heavy compute.
				for i := 0; i < per; i++ {
					self := bodies + uint64((rank*per+i)*8*wordBytes)
					for k := 0; k < 8; k++ {
						other := (rank*per + i*13 + k*37) % n
						sweepRead(p, bodies+uint64(other*8*wordBytes), 2, 1, 700)
					}
					sweepUpdate(p, self, 4, 1, 350)
				}
				c.Barrier(p)
			}
		},
	}
}

// FMM models the fast multipole method: like Barnes but with more locality
// (cells interact mostly with neighbours) and home-placed data.
func FMM() *App {
	return &App{
		Name: "FMM", Procedures: 310, CodeKB: 340, LockCount: 16,
		Setup: func(c *Ctx) {
			n := 256 * c.Scale()
			per := n / c.Cfg.Procs
			c.AllocStriped("cells", per*8*wordBytes)
		},
		Body: func(c *Ctx, p *core.Proc, rank int) {
			n := 256 * c.Scale()
			per := n / c.Cfg.Procs
			cells := c.Arr("cells")
			mine := cells + uint64(rank*per*8*wordBytes)
			for iter := 0; iter < 3; iter++ {
				// Upward/downward passes over own cells: local, batched.
				b := p.BatchStart(core.Range{Addr: mine, Bytes: per * 8 * wordBytes, Write: true})
				for i := 0; i < per*2; i++ {
					a := mine + uint64((i%per)*8*wordBytes)
					b.Store(a, b.Load(a)+1)
					p.Compute(420)
				}
				p.BatchEnd(b)
				// Neighbour-list interactions: read the two adjacent
				// stripes.
				for d := -1; d <= 1; d += 2 {
					nb := (rank + d + c.Cfg.Procs) % c.Cfg.Procs
					nbase := cells + uint64(nb*per*8*wordBytes)
					sweepRead(p, nbase, per/2, 2, 800)
				}
				c.Barrier(p)
			}
			_ = n
		},
	}
}

// LU models the non-contiguous blocked LU factorization: blocks are spread
// round-robin over homes, so pivot blocks are usually remote.
func LU() *App {
	return &App{
		Name: "LU", Procedures: 270, CodeKB: 250, LockCount: 1,
		Setup: func(c *Ctx) {
			blocks := 64 * c.Scale()
			c.Alloc("mat", blocks*8*wordBytes, core.AllocOptions{})
		},
		Body: func(c *Ctx, p *core.Proc, rank int) {
			blocks := 64 * c.Scale()
			mat := c.Arr("mat")
			steps := 12
			for k := 0; k < steps; k++ {
				pivot := mat + uint64((k%blocks)*8*wordBytes)
				if k%c.Cfg.Procs == rank {
					sweepUpdate(p, pivot, 8, 1, 40)
				}
				c.Barrier(p)
				// Trailing update: read the pivot block, update own blocks.
				piv := sweepRead(p, pivot, 8, 1, 150)
				_ = piv
				for b := rank; b < blocks; b += c.Cfg.Procs {
					// The pivot block is finished; rewriting it here would
					// race with the other ranks' pivot reads and make the
					// final matrix depend on message timing (the chaos
					// harness compares faulty runs against fault-free ones).
					if b == k%blocks {
						continue
					}
					if b%4 == k%4 { // subset shrinks per step
						sweepUpdate(p, mat+uint64(b*8*wordBytes), 8, 1, 220)
					}
				}
				c.Barrier(p)
			}
		},
	}
}

// LUContig is the contiguous variant: each process's blocks are allocated
// home-local and in multi-line coherence blocks, so trailing updates stay
// local (§2.1's variable granularity + home placement).
func LUContig() *App {
	return &App{
		Name: "LU-Contig", Procedures: 265, CodeKB: 250, LockCount: 1,
		Setup: func(c *Ctx) {
			blocks := 64 * c.Scale()
			per := blocks / c.Cfg.Procs
			var base uint64
			for r := 0; r < c.Cfg.Procs; r++ {
				a := c.Sys.Alloc(per*8*wordBytes, core.AllocOptions{Home: core.HomeAt(r), BlockLines: 4})
				if r == 0 {
					base = a
				}
			}
			c.arrs["mat"] = base
		},
		Body: func(c *Ctx, p *core.Proc, rank int) {
			blocks := 64 * c.Scale()
			per := blocks / c.Cfg.Procs
			mat := c.Arr("mat")
			mine := mat + uint64(rank*per*8*wordBytes)
			steps := 12
			for k := 0; k < steps; k++ {
				owner := k % c.Cfg.Procs
				pivot := mat + uint64((owner*per+(k%per))*8*wordBytes)
				if owner == rank {
					sweepUpdate(p, pivot, 8, 1, 40)
				}
				c.Barrier(p)
				b := p.BatchStart(
					core.Range{Addr: pivot, Bytes: 8 * wordBytes, Write: false},
					core.Range{Addr: mine, Bytes: per * 8 * wordBytes, Write: true},
				)
				for i := 0; i < per*4; i++ {
					// The owner skips its finished pivot block: storing to it
					// here would race with the other ranks' b.Load(pivot) and
					// make the result timing-dependent.
					if owner == rank && i%per == k%per {
						p.Compute(200)
						continue
					}
					a := mine + uint64((i%per)*8*wordBytes)
					b.Store(a, b.Load(a)+b.Load(pivot))
					p.Compute(200)
				}
				p.BatchEnd(b)
				c.Barrier(p)
			}
		},
	}
}

// Ocean models the ocean-current grid solver: striped rows with boundary
// exchanges and a high barrier rate — the barrier cost is what makes its
// SM-synchronization runs slow down by 34% in Figure 3.
func Ocean() *App {
	return &App{
		Name: "Ocean", Procedures: 485, CodeKB: 420, LockCount: 1,
		Setup: func(c *Ctx) {
			rows := 4 * c.Cfg.Procs
			rowW := 32 * c.Scale()
			c.AllocStriped("grid", (rows/c.Cfg.Procs)*rowW*wordBytes)
		},
		Body: func(c *Ctx, p *core.Proc, rank int) {
			rowsPer := 4
			rowW := 32 * c.Scale()
			grid := c.Arr("grid")
			mine := grid + uint64(rank*rowsPer*rowW*wordBytes)
			iters := 14
			for it := 0; it < iters; it++ {
				// Read neighbour boundary rows.
				for d := -1; d <= 1; d += 2 {
					nb := rank + d
					if nb < 0 || nb >= c.Cfg.Procs {
						continue
					}
					bRow := grid + uint64((nb*rowsPer+boundRow(d, rowsPer))*rowW*wordBytes)
					sweepRead(p, bRow, rowW/2, 2, 160)
				}
				// Relax own rows (batched, local).
				b := p.BatchStart(core.Range{Addr: mine, Bytes: rowsPer * rowW * wordBytes, Write: true})
				for i := 0; i < rowsPer*rowW/2; i++ {
					a := mine + uint64((i*2)*wordBytes)
					b.Store(a, b.Load(a)+3)
					p.Compute(150)
				}
				p.BatchEnd(b)
				// Two barriers per iteration: the high barrier rate.
				c.Barrier(p)
				c.Barrier(p)
			}
		},
	}
}

func boundRow(d, rowsPer int) int {
	if d < 0 {
		return rowsPer - 1
	}
	return 0
}

// Raytrace models the ray tracer: a read-shared scene plus a custom memory
// allocator protected by a single highly contended lock — the reason its
// 16-processor SM-synchronization run slows down by 78% (Figure 3, §6.4).
func Raytrace() *App {
	return &App{
		Name: "Raytrace", Procedures: 300, CodeKB: 300, LockCount: 1,
		Setup: func(c *Ctx) {
			c.Alloc("scene", 1024*wordBytes, core.AllocOptions{})
			c.Alloc("queue", 64, core.AllocOptions{Home: core.HomeAt(0)})
			c.AllocStriped("image", 512*wordBytes)
		},
		Body: func(c *Ctx, p *core.Proc, rank int) {
			scene, queue := c.Arr("scene"), c.Arr("queue")
			// The image is task-indexed, not rank-indexed: which rank
			// traces a bundle depends on lock timing, but the pixels it
			// writes — and their values — depend only on the task, so the
			// final image is identical across schedules (and fault
			// schedules; the chaos harness relies on this).
			image := c.Arr("image")
			imgWords := 512 * c.Cfg.Procs
			tasks := 40 * c.Scale() * c.Cfg.Procs
			const bundle = 8
			done := 0
			for done < tasks {
				// Grab a bundle of rays from the allocator/queue under
				// the single global lock.
				lk := c.Lock(0)
				lk.Acquire(p)
				t := p.Load(queue)
				if int(t) >= tasks {
					lk.Release(p)
					break
				}
				p.Store(queue, t+bundle)
				lk.Release(p)
				done = int(t) + bundle
				// Trace: read scene objects, heavy compute, write pixels.
				for b := 0; b < bundle; b++ {
					for k := 0; k < 10; k++ {
						idx := ((int(t)+b)*31 + k*17) % 1024
						p.Load(scene + uint64(idx*wordBytes))
						p.Compute(900)
					}
					slot := (int(t) + b) % imgWords
					p.Store(image+uint64(slot*wordBytes), uint64(slot)*3+1)
				}
			}
		},
	}
}

// Volrend models the volume renderer: task stealing with a few contended
// locks (a 50% SM-sync slowdown at 16 processors in Figure 3).
func Volrend() *App {
	return &App{
		Name: "Volrend", Procedures: 290, CodeKB: 270, LockCount: 4,
		Setup: func(c *Ctx) {
			c.Alloc("volume", 2048*wordBytes, core.AllocOptions{})
			c.Alloc("counters", 4*64, core.AllocOptions{})
			c.AllocStriped("img", 256*wordBytes)
		},
		Body: func(c *Ctx, p *core.Proc, rank int) {
			vol, ctr := c.Arr("volume"), c.Arr("counters")
			// Task-indexed image, like Raytrace: ranks sharing a work
			// counter may steal each other's bundles, but each pixel's
			// slot and value derive from the task alone, keeping the
			// final image schedule-independent.
			img := c.Arr("img")
			tasks := 30 * c.Scale() * c.Cfg.Procs
			const bundle = 3
			for {
				q := rank % 4
				lk := c.Lock(q)
				lk.Acquire(p)
				a := ctr + uint64(q*64)
				t := p.Load(a)
				p.Store(a, t+bundle)
				lk.Release(p)
				if int(t)*4 >= tasks {
					break
				}
				for b := 0; b < bundle; b++ {
					for k := 0; k < 12; k++ {
						idx := ((int(t)+b)*53 + k*29 + q*511) % 2048
						p.Load(vol + uint64(idx*wordBytes))
						p.Compute(700)
					}
					slot := q*256 + (int(t)+b)%256
					p.Store(img+uint64(slot*wordBytes), uint64(slot)*5+2)
				}
			}
		},
	}
}

// WaterNsq models the O(n^2) water simulation: pairwise force reads with
// lock-protected accumulations into other molecules (+23.6% checking
// overhead in Table 3 — lots of fine-grained shared accesses).
func WaterNsq() *App {
	return &App{
		Name: "Water-Nsq", Procedures: 280, CodeKB: 260, LockCount: 32,
		Setup: func(c *Ctx) {
			n := 64 * c.Scale()
			c.Alloc("mol", n*8*wordBytes, core.AllocOptions{})
		},
		Body: func(c *Ctx, p *core.Proc, rank int) {
			n := 64 * c.Scale()
			per := n / c.Cfg.Procs
			mol := c.Arr("mol")
			for iter := 0; iter < 2; iter++ {
				for i := rank * per; i < (rank+1)*per; i++ {
					for j := i + 1; j < i+1+per && j < n; j++ {
						// Read both molecules, compute the interaction.
						p.Load(mol + uint64(i*8*wordBytes))
						p.Load(mol + uint64(j*8*wordBytes))
						p.Compute(260)
						// Accumulate into j under its lock (every 4th
						// pair; forces are batched locally in between).
						if (j-i)%4 == 0 {
							lk := c.Lock(j)
							lk.Acquire(p)
							a := mol + uint64(j*8*wordBytes)
							p.Store(a, p.Load(a)+1)
							lk.Release(p)
						}
					}
				}
				c.Barrier(p)
				sweepUpdate(p, mol+uint64(rank*per*8*wordBytes), per, 8, 300)
				c.Barrier(p)
			}
		},
	}
}

// WaterSp is the spatial variant: interactions only with molecules in
// neighbouring boxes, so there is more locality and fewer lock operations.
func WaterSp() *App {
	return &App{
		Name: "Water-Sp", Procedures: 295, CodeKB: 275, LockCount: 8,
		Setup: func(c *Ctx) {
			n := 64 * c.Scale()
			per := n / c.Cfg.Procs
			c.AllocStriped("boxes", per*8*wordBytes)
		},
		Body: func(c *Ctx, p *core.Proc, rank int) {
			n := 64 * c.Scale()
			per := n / c.Cfg.Procs
			boxes := c.Arr("boxes")
			mine := boxes + uint64(rank*per*8*wordBytes)
			for iter := 0; iter < 3; iter++ {
				// Intra-box interactions: local.
				for i := 0; i < per; i++ {
					sweepUpdate(p, mine+uint64(i*8*wordBytes), 4, 1, 260)
				}
				// Boundary interactions with one neighbour stripe.
				nb := (rank + 1) % c.Cfg.Procs
				nbase := boxes + uint64(nb*per*8*wordBytes)
				sweepRead(p, nbase, per, 8, 300)
				// The boundary update targets word 4 of the neighbour's
				// first box: the intra-box sweeps only touch words 0-3, so
				// this word has a single writer and the final value never
				// depends on message timing. (Word 0 would race with the
				// neighbour's unlocked sweepUpdate read-modify-write.)
				bword := nbase + uint64(4*wordBytes)
				lk := c.Lock(rank)
				lk.Acquire(p)
				p.Store(bword, p.Load(bword)+1)
				lk.Release(p)
				c.Barrier(p)
			}
			_ = n
		},
	}
}
