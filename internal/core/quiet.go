package core

import "repro/internal/sim"

// The two loops an idle process runs in closed form: Compute's back-edge
// polls (computeQuiet) and a spin on a word cached in node memory
// (SpinWhile). A stretch of iterations that can observe nothing is one move:
// the process parks on its queues, and a spinner on its line, until the
// first iteration that may.

// quietPlan is the timetable of the stretch a process is parked in
// (pollQuietly, spinQuietly). From start, with g task cycles to the next
// poll, it runs task cycles with a poll after every PollInterval I of them,
// each charged Cost.Poll P; a spin also loads its word after every gap G of
// them, each load charged Cost.LoadCheck L. Poll m (from 0) follows task
// cycle g+mI and load j (from 1) task cycle jG; where the two meet, the load
// goes first. A compute (gap 0) has n polls. stop is the instant the process
// is parked until, 0 while it is in no stretch.
type quietPlan struct {
	start, g, gap, stop sim.Time
	n                   int64
}

// spinSpan bounds a spin's stretch: a load at least every spinSpan cycles
// is taken for real, so that a spin nothing ends still reaches MaxTime.
const spinSpan = sim.Time(1) << 24

// pollAt returns the instant by which poll m of the stretch is charged.
func (p *Proc) pollAt(m int64) sim.Time {
	c, pl := &p.sys.Cfg, &p.quiet
	x := pl.g + m*c.PollInterval
	t := pl.start + x + (m+1)*c.Cost.Poll
	if pl.gap > 0 {
		t += x / pl.gap * c.Cost.LoadCheck
	}
	return t
}

// loadAt returns the instant by which load j of a spin's stretch is charged.
func (p *Proc) loadAt(j int64) sim.Time {
	c, pl := &p.sys.Cfg, &p.quiet
	x := j * pl.gap
	return pl.start + x + j*c.Cost.LoadCheck + p.pollsBefore(x)*c.Cost.Poll
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
// Polls are P+I apart, and a spin's loads only push them later, so that
// spacing gives a compute's exactly and bounds a spin's search.
func (p *Proc) firstPoll(t sim.Time) int64 {
	spacing := p.sys.Cfg.PollInterval + p.sys.Cfg.Cost.Poll
	first := p.pollAt(0)
	if t <= first {
		return 0
	}
	m := (t - first + spacing - 1) / spacing
	if p.quiet.gap == 0 {
		return m
	}
	return least(0, m, func(i int64) bool { return p.pollAt(i) >= t })
}

// firstLoad returns the first load of a spin's stretch charged at or after
// t. Loads are at least G+L apart.
func (p *Proc) firstLoad(t sim.Time) int64 {
	step := p.quiet.gap + p.sys.Cfg.Cost.LoadCheck
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
// message that arrives at t: at the first poll at or after t if it is
// parked in a stretch, since that poll is the one that looks, else at t. (A
// compute's stretch past its last poll is its trailing task chunk, which
// that wake does not end.)
func (p *Proc) wakeFor(t sim.Time) sim.Time {
	pl := &p.quiet
	if pl.stop == 0 {
		return t
	}
	m := p.firstPoll(t)
	if pl.gap == 0 && m >= pl.n {
		return t
	}
	return p.pollAt(m)
}

// computeQuiet is Compute with every stretch of polls that find nothing
// taken in one move (quietPlan with no loads): poll k from now is charged at
// T(k) = now + g + P + k(I+P), and there are n = ceil((c-g)/I) of them
// before the compute ends at now + c + nP. A poll finds something only if a
// message is due (or a retransmission, which nextArrival includes) or if it
// is the backend's pollTickEvery-th. So the stretch runs to the first T(k)
// at or after the next arrival, or the tick if that comes first, or else to
// the end of the compute, trailing task chunk included, unless a put wakes
// the process first: a put wakes a process parked in a stretch at its first
// poll at or after the arrival (wakeFor; every arrival is later than its
// sender's clock, so nothing reaches a poll before), and any other wake at w
// means the first T(j) >= w instead. (A wake for a message somebody else
// then takes just makes poll j one more that finds nothing, unless the
// taker spares it, spareWake.) There the process accounts for j polls and
// the task time between them and does what Poll does after its charge. A
// wake past T(n-1), inside the trailing chunk, is for no poll of this
// compute, and the process sleeps on.
func (p *Proc) computeQuiet(c sim.Time) {
	if c > p.pollGap {
		p.watchQueues()
		for c > p.pollGap {
			c = p.pollQuietly(c)
		}
		p.watching = false
	}
	if c > 0 {
		p.charge(CatTask, c)
		p.pollGap -= c
	}
}

// pollQuietly runs a compute of c cycles, with a poll in it and the process
// watching its queues, up to and including the first poll that may find
// something, and returns the cycles of it still to do.
func (p *Proc) pollQuietly(c sim.Time) sim.Time {
	s := p.sys
	interval := s.Cfg.PollInterval
	start := p.Sim.Now()
	n := (c - p.pollGap + interval - 1) / interval
	p.quiet = quietPlan{start: start, g: p.pollGap, n: n}
	k := n // the poll to take for real; n for none
	if a, ok := p.nextArrival(); ok {
		k = min(k, p.firstPoll(a))
	}
	if every := s.pollTickEvery; every > 0 {
		k = min(k, every-1-p.stats.N[CntPolls]%every)
	}
	stop := start + c + n*s.Cfg.Cost.Poll
	if k < n {
		stop = p.pollAt(k)
	}
	p.quiet.stop = stop
	for w := start; w < stop; {
		w += p.Sim.AdvanceUnlessNotified(stop - w)
		if j := p.firstPoll(w); w < stop && j < n {
			k, stop = j, p.pollAt(j)
			p.Sim.Advance(stop - w)
			break
		}
	}
	p.quiet.stop = 0
	if k >= n {
		p.chargedPolls(n, c)
		p.pollGap += n*interval - c
		return 0
	}
	task := p.pollGap + k*interval
	p.chargedPolls(k+1, task)
	p.pollGap = interval
	p.polled()
	return c - task
}

// chargedPolls accounts for n polls and the task cycles around them, which
// the clock has already been moved over.
func (p *Proc) chargedPolls(n int64, task sim.Time) {
	p.stats.N[CntPolls] += n
	p.stats.Time[p.chargedTo(CatPoll)] += n * p.sys.Cfg.Cost.Poll
	p.stats.Time[p.chargedTo(CatTask)] += task
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
// such a hit are a stretch too (spinQuietly).
func (p *Proc) SpinWhile(addr uint64, gap sim.Time, v uint64, equal bool) uint64 {
	got, hit := p.load(addr)
	for (got == v) == equal {
		if hit && gap > 0 && p.pollsQuietly() && p.outstanding == 0 && !p.overridden && p.curBatch == nil {
			got, hit = p.spinQuietly(addr, gap)
			continue
		}
		p.Compute(gap)
		got, hit = p.load(addr)
	}
	return got
}

// spinQuietly runs SpinWhile's loop from just after a load that hit, parked
// on its queues and on the line, up to and including the first event that
// may end the spin or find something (spinNext), and returns what the
// last load returned and whether it hit. The stretch's loads read what the
// first did until a process of the node writes the line (stored, fillFlag,
// installData); the writer wakes the spinner at the first load that sees
// the write (sawWrite). A wake at an instant that is no such event, such as
// a put's for a message a node-mate has taken, leaves the spinner parked on
// to the next. At a load the spin takes the rest of Load; at a poll, what
// Poll does after its charge, the rest of the compute around it and a
// Load.
func (p *Proc) spinQuietly(addr uint64, gap sim.Time) (uint64, bool) {
	s := p.sys
	line := s.lineOf(addr)
	now := p.Sim.Now()
	p.quiet = quietPlan{start: now, g: p.pollGap, gap: gap}
	p.spinLine, p.spinSeen = line, sim.Forever
	p.watchQueues()
	bound := p.firstLoad(now + spinSpan)
	var load bool
	var i int64
	for {
		var at sim.Time
		at, load, i = p.spinNext(now, bound)
		if now >= at {
			break
		}
		p.quiet.stop = at
		now += p.Sim.AdvanceUnlessNotified(at - now)
	}
	p.quiet.stop, p.spinLine, p.watching = 0, -1, false
	interval := s.Cfg.PollInterval
	if load {
		x := i * gap
		polls := p.pollsBefore(x)
		p.spun(i, polls, x)
		p.pollGap = p.quiet.g + polls*interval - x
		return p.loaded(s.wordOf(addr), line)
	}
	x := p.quiet.g + i*interval
	loads := x / gap
	p.spun(loads, i+1, x)
	p.pollGap = interval
	p.polled()
	p.Compute((loads+1)*gap - x)
	return p.load(addr)
}

// spinNext returns the first event of a spin's stretch at or after t that
// may end the spin or find something, whether it is a load, and its
// index: the first load that sees a write to the line, or load bound;
// and, if earlier, the first poll at or after the next arrival, or the
// backend's tick. Of a load and a poll at one instant the load comes first.
func (p *Proc) spinNext(t sim.Time, bound int64) (sim.Time, bool, int64) {
	j := bound
	if p.spinSeen < sim.Forever {
		j = min(j, p.firstLoad(p.spinSeen))
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

// spun accounts for a spin's loads, polls and task cycles, which the clock
// has already been moved over.
func (p *Proc) spun(loads, polls int64, task sim.Time) {
	p.stats.N[CntLoads] += loads
	p.stats.N[CntLoadChecks] += loads
	p.stats.Time[p.chargedTo(CatCheck)] += loads * p.sys.Cfg.Cost.LoadCheck
	p.chargedPolls(polls, task)
}

// sawWrite is a write of w's, a process of p's node, to lines [first,
// first+n) of their node memory.
func (p *Proc) sawWrite(w *Proc, first, n int) {
	if p.spinLine >= first && p.spinLine < first+n && p != w {
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
	if at := p.loadAt(p.firstLoad(t)); at < p.spinSeen {
		p.spinSeen = at
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
