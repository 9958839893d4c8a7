package core

import "repro/internal/sim"

// The loops an idle process runs in closed form: Compute's back-edge polls
// (computeQuiet), a compute to an absolute time (ComputeUntil) and a spin on
// a word cached in node memory (SpinWhile). All are stretches: a run of loop
// iterations that can observe nothing, taken in one move (quietly). A
// compute's loads have no check cost and read no line: its end, or each
// chunk end of one to an absolute time. The process parks on its queues, and
// a spinner on its line, until the first iteration that may observe
// something, and they differ only in what they do there.

// quietPlan is the timetable of the stretch a process is taking. From
// start, with g task cycles to the next poll, it runs task cycles with a
// poll after every PollInterval I of them, each charged Cost.Poll P, and a
// load after every gap G of them, each charged cost L (Cost.LoadCheck for a
// spin, 0 for a compute). Poll m (from 0) follows task cycle g+mI and load j
// (from 1) task cycle jG; where the two meet, the load goes first. Load last
// ends the stretch at the latest. line is the line a spin's loads read, -1
// for a compute's and outside a stretch, and seen the instant of the first
// load that sees a node-mate's write to it, sim.Forever until one writes
// (sawWrite). stop is the instant the process is parked until, 0 while it is
// not parked in a stretch.
type quietPlan struct {
	start, g, gap, cost, stop, seen sim.Time
	last                            int64
	line                            int
}

// spinSpan bounds a spin's stretch: a load at least every spinSpan cycles
// is taken for real, so that a spin nothing ends still reaches MaxTime.
const spinSpan = sim.Time(1) << 24

// pollAt returns the instant by which poll m of the stretch is charged.
func (p *Proc) pollAt(m int64) sim.Time {
	c, pl := &p.sys.Cfg, &p.quiet
	x := pl.g + m*c.PollInterval
	t := pl.start + x + (m+1)*c.Cost.Poll
	if pl.cost > 0 {
		t += x / pl.gap * pl.cost
	}
	return t
}

// loadAt returns the instant by which load j of the stretch is charged.
func (p *Proc) loadAt(j int64) sim.Time {
	pl := &p.quiet
	x := j * pl.gap
	return pl.start + x + j*pl.cost + p.pollsBefore(x)*p.sys.Cfg.Cost.Poll
}

// pollsBefore returns how many polls of the stretch come before task cycle
// x.
func (p *Proc) pollsBefore(x sim.Time) int64 {
	if g := p.quiet.g; x > g {
		return (x-g-1)/p.sys.Cfg.PollInterval + 1
	}
	return 0
}

// firstPoll returns the first poll of the stretch charged at or after t.
// Polls are P+I apart where loads cost nothing, which makes a compute's
// arithmetic O(1); costly loads only push them later, so that spacing
// bounds a spin's search.
func (p *Proc) firstPoll(t sim.Time) int64 {
	spacing := p.sys.Cfg.PollInterval + p.sys.Cfg.Cost.Poll
	first := p.pollAt(0)
	if t <= first {
		return 0
	}
	m := (t - first + spacing - 1) / spacing
	if p.quiet.cost == 0 {
		return m
	}
	return least(0, m, func(i int64) bool { return p.pollAt(i) >= t })
}

// firstLoad returns the first load of the stretch charged at or after t.
// Loads are at least G+L apart.
func (p *Proc) firstLoad(t sim.Time) int64 {
	step := p.quiet.gap + p.quiet.cost
	hi := max(1, (t-p.quiet.start+step-1)/step)
	return least(1, hi, func(j int64) bool { return p.loadAt(j) >= t })
}

// least returns the least i in [lo, hi] for which ok, which is monotone and
// holds at hi.
func least(lo, hi int64, ok func(int64) bool) int64 {
	for lo < hi {
		if mid := lo + (hi-lo)/2; ok(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// wakeFor returns when a process watching its queues is to be woken for a
// message that arrives at t: if it is parked in a stretch, at the first
// poll at or after t, since that poll is the one that looks, but no later
// than the park's stop, so that no wake outlives it; else at t.
func (p *Proc) wakeFor(t sim.Time) sim.Time {
	if stop := p.quiet.stop; stop > 0 {
		return min(p.pollAt(p.firstPoll(t)), stop)
	}
	return t
}

// computeQuiet is Compute with every stretch of polls that find nothing
// taken in one move: a stretch of c cycles runs to its end, or to the first
// poll that may find something, and the compute goes on with the cycles it
// has left. Cycles that reach no poll are charged as they come.
func (p *Proc) computeQuiet(c sim.Time) {
	for c > p.pollGap {
		_, x := p.quietly(c, -1, 0)
		c -= x
	}
	if c > 0 {
		p.charge(CatTask, c)
		p.pollGap -= c
	}
}

// SpinWhile is a synchronization loop's spin-wait on the word at addr, with
// a compute of gap cycles (and its back-edge polls) between reads. It is
// exactly
//
//	got := p.Load(addr)
//	for (got == v) == equal {
//		p.Compute(gap)
//		got = p.Load(addr)
//	}
//	return got
//
// A load that hits a word other than the flag value reads a copy in node
// memory, which changes only when a process of the node writes it. So
// where Compute takes its polls in closed form, and the process has no miss
// outstanding, no stall override and no batch open, the iterations after
// such a hit are a stretch too. The stretch's loads read what the first did
// until a process of the node writes the line (stored, fillFlag,
// installData). At a load the spin takes the rest of Load; at a poll, the
// rest of the compute around it and a Load.
func (p *Proc) SpinWhile(addr uint64, gap sim.Time, v uint64, equal bool) uint64 {
	got, hit := p.load(addr)
	for (got == v) == equal {
		if hit && gap > 0 && p.pollsQuietly() && p.outstanding == 0 && !p.overridden && p.curBatch == nil {
			line := p.sys.lineOf(addr)
			if load, x := p.quietly(gap, line, p.Sim.Now()+spinSpan); load {
				got, hit = p.loaded(p.sys.wordOf(addr), line)
			} else {
				p.Compute(gap - x%gap)
				got, hit = p.load(addr)
			}
			continue
		}
		p.Compute(gap)
		got, hit = p.load(addr)
	}
	return got
}

// ComputeUntil computes to the absolute time t in chunks of at most gap
// cycles, as a loop that reads its clock between chunks does. It is exactly
//
//	for p.Now() < t {
//		p.Compute(min(gap, t-p.Now()))
//	}
//
// Where Compute runs in closed form, the full chunks before the last are a
// stretch whose loads are the chunk ends, the last the first charged at or
// after t-gap: where the loop first finds at most one chunk left. At a poll
// the rest of its chunk is a Compute, and the loop plans again.
func (p *Proc) ComputeUntil(t, gap sim.Time) {
	for now := p.Now(); now < t; now = p.Now() {
		if t-now <= gap || !p.sys.Cfg.Checks || !p.pollsQuietly() {
			p.Compute(min(gap, t-now))
		} else if load, x := p.quietly(gap, -1, t-gap); !load {
			p.Compute(gap - x%gap)
		}
	}
}

// quietly takes a stretch from now, with loads gap task cycles apart, the
// last the first charged at or after until: a spin's, whose loads read line
// and cost Cost.LoadCheck, or, with line -1, a compute's ends. The process
// parks on its queues up to and including the first event that may end the
// stretch or find something (quietNext), and plans again on every wake: one
// at an instant that is no event, such as a put's for a message a node-mate
// has since taken, leaves it parked on to the next. There it accounts for
// the stretch (quietCharged), does what Poll does after its charge if the
// event is a poll, and returns whether it is a load and the task cycles
// before it.
func (p *Proc) quietly(gap sim.Time, line int, until sim.Time) (bool, sim.Time) {
	now := p.Sim.Now()
	p.quiet = quietPlan{start: now, g: p.pollGap, gap: gap, seen: sim.Forever, last: 1, line: line}
	if line >= 0 {
		p.quiet.cost = p.sys.Cfg.Cost.LoadCheck
	}
	if until > now {
		p.quiet.last = p.firstLoad(until)
	}
	p.watchQueues()
	var load bool
	var i int64
	for {
		var at sim.Time
		at, load, i = p.quietNext(now)
		if now >= at {
			break
		}
		p.quiet.stop = at
		now += p.Sim.AdvanceUnlessNotified(at - now)
	}
	p.watching = false
	x := p.quietCharged(load, i)
	p.quiet.stop, p.quiet.line = 0, -1
	if !load {
		p.polled()
	}
	return load, x
}

// quietNext returns the first event of the stretch at or after t that may
// end it or find something, whether it is a load, and its index: the first
// load that sees a write to the line, or load last; and, if earlier, the
// first poll at or after the next arrival (or retransmission, which
// nextArrival includes), or the backend's tick. Of a load and a poll at one
// instant the load comes first.
func (p *Proc) quietNext(t sim.Time) (sim.Time, bool, int64) {
	j := p.quiet.last
	if seen := p.quiet.seen; seen < sim.Forever {
		j = min(j, p.firstLoad(seen))
	}
	m := int64(-1)
	if a, ok := p.nextArrival(); ok {
		m = p.firstPoll(max(a, t))
	}
	if every := p.sys.pollTickEvery; every > 0 {
		if tick := every - 1 - p.stats.N[CntPolls]%every; m < 0 || tick < m {
			m = tick
		}
	}
	at := p.loadAt(j)
	if m >= 0 {
		if pt := p.pollAt(m); pt < at {
			return pt, false, m
		}
	}
	return at, true, j
}

// quietCharged accounts for the stretch's loads, polls and task cycles up
// to and including its load or poll i, which the clock has already been
// moved over, moves the process's poll gap past them, and returns those
// task cycles. A compute's load is its end, not a load.
func (p *Proc) quietCharged(load bool, i int64) sim.Time {
	c, pl := &p.sys.Cfg, &p.quiet
	var polls int64
	var x sim.Time
	if load {
		x = i * pl.gap
		polls = p.pollsBefore(x)
		p.pollGap = pl.g + polls*c.PollInterval - x
	} else {
		x = pl.g + i*c.PollInterval
		polls = i + 1
		p.pollGap = c.PollInterval
	}
	if pl.line >= 0 {
		loads := x / pl.gap
		p.stats.N[CntLoads] += loads
		p.stats.N[CntLoadChecks] += loads
		p.stats.Time[p.chargedTo(CatCheck)] += loads * pl.cost
	}
	p.stats.N[CntPolls] += polls
	p.stats.Time[p.chargedTo(CatPoll)] += polls * c.Cost.Poll
	p.stats.Time[p.chargedTo(CatTask)] += x
	return x
}

// sawWrite is a write of w's, a process of p's node, to lines [first,
// first+n) of their node memory.
func (p *Proc) sawWrite(w *Proc, first, n int) {
	if l := p.quiet.line; l >= first && l < first+n && p != w {
		p.spinSaw(w)
	}
}

// spinSaw is a write of w's to the line p spins on in closed form. The
// engine's order decides which of p's loads sees it: the first at or after
// w's clock, or a cycle later if w's ID is the higher, since of two
// processes at one instant the lower ID acts first. p is woken there, and a
// spare keeps that wake (spareWake).
func (p *Proc) spinSaw(w *Proc) {
	t := w.Sim.Now()
	if w.Sim.ID > p.Sim.ID {
		t++
	}
	if at := p.loadAt(p.firstLoad(t)); at < p.quiet.seen {
		p.quiet.seen = at
		p.Sim.NotifyAt(at)
	}
}

// wroteLines is a write of p's to lines [first, first+n) of agent's memory
// other than a store (stored): a flag fill or a fill's data.
func (p *Proc) wroteLines(agent, first, n int) {
	for _, q := range p.sys.localProcs(agent) {
		q.sawWrite(p, first, n)
	}
}
