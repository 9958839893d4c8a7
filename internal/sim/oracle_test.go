package sim

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// The differential oracle: the linear scheduler step the heap replaced —
// minEffective, the preempt/dispatch pass over every CPU, pick and
// windowFor, each walking all processes or CPUs — kept as the reference.
// Before every real step the oracle copies the shard, takes the linear step
// on the copy, and holds the outcome as a prediction; the process the real
// scheduler resumes then compares the shard against it.

func linearMinEffective(sh *shard) Time {
	m := Forever
	for _, p := range sh.heap {
		if t := p.effectiveTime(); t < m {
			m = t
		}
	}
	return m
}

func linearPick(sh *shard, horizon Time) *Proc {
	var best *Proc
	bestT := Forever
	for _, c := range sh.cpus {
		p := c.current
		if p == nil {
			continue
		}
		t := p.effectiveTime()
		if t >= Forever {
			continue
		}
		if t < bestT || (t == bestT && (best == nil || p.ID < best.ID)) {
			best = p
			bestT = t
		}
	}
	if best == nil || bestT >= horizon {
		return nil
	}
	if best.state == stateWaiting {
		best.now = max(best.now, best.wakeAt)
		best.wakeAt = Forever
		best.state = stateReady
	}
	if best.wakeAt <= best.now {
		best.wakeAt = Forever
	}
	return best
}

func linearWindowFor(sh *shard, p *Proc, horizon Time) Time {
	w := horizon
	for _, q := range sh.heap {
		if q == p {
			continue
		}
		if t := q.effectiveTime(); t < w {
			w = t
		}
	}
	return w
}

// linearStep takes one whole scheduler step on sh the way the linear
// scheduler did and returns the process it resumes, or nil.
func (o *Oracle) linearStep(sh *shard, horizon Time) *Proc {
	minEff := linearMinEffective(sh)
	if minEff >= horizon {
		return nil
	}
	for _, c := range sh.cpus {
		if sh.preemptIfStale(c, minEff) {
			o.StalePreempts.Add(1)
		}
		sh.dispatch(c, minEff)
	}
	p := linearPick(sh, horizon)
	if p != nil {
		p.window = linearWindowFor(sh, p, horizon)
		p.state = stateRunning
	}
	return p
}

// cloneShard copies the scheduling state of sh: its CPUs, its live
// processes, and whatever finished process a CPU still names as lastRan.
func cloneShard(sh *shard) *shard {
	c := &shard{eng: sh.eng, idx: sh.idx, staleMin: Forever}
	cpus := map[*CPU]*CPU{}
	for _, k := range sh.cpus {
		kc := &CPU{id: k.id, node: k.node, shard: c, freeAt: k.freeAt, sliceEnd: k.sliceEnd}
		cpus[k] = kc
		c.cpus = append(c.cpus, kc)
	}
	procs := map[*Proc]*Proc{}
	cp := func(p *Proc) *Proc {
		if p == nil {
			return nil
		}
		q, ok := procs[p]
		if !ok {
			q = &Proc{ID: p.ID, Name: p.Name, Priority: p.Priority, eng: p.eng, cpu: cpus[p.cpu],
				now: p.now, window: p.window, state: p.state, wakeAt: p.wakeAt}
			procs[p] = q
		}
		return q
	}
	for _, p := range sh.heap {
		c.heap = append(c.heap, cp(p))
	}
	for _, k := range sh.cpus {
		kc := cpus[k]
		kc.current, kc.lastRan = cp(k.current), cp(k.lastRan)
		for _, q := range k.queue {
			kc.queue = append(kc.queue, cp(q))
		}
	}
	return c
}

func procID(p *Proc) int {
	if p == nil {
		return -1
	}
	return p.ID
}

// describe renders everything the scheduler decides: per CPU the incumbent,
// slice end, free time, last process and queue order; per live process its
// clock, window, state and wake time.
func describe(sh *shard) string {
	s := ""
	for _, c := range sh.cpus {
		s += fmt.Sprintf("cpu%d cur=%d slice=%d free=%d last=%d q=[", c.id, procID(c.current), c.sliceEnd, c.freeAt, procID(c.lastRan))
		for _, q := range c.queue {
			s += fmt.Sprintf(" %d", q.ID)
		}
		s += " ]\n"
	}
	byID := map[int]*Proc{}
	maxID := -1
	for _, p := range sh.heap {
		byID[p.ID] = p
		maxID = max(maxID, p.ID)
	}
	for id := 0; id <= maxID; id++ {
		if p := byID[id]; p != nil {
			w := p.window
			if p.state != stateRunning {
				w = 0 // only the resumed process's window is a decision
			}
			s += fmt.Sprintf("p%d now=%d win=%d %v wake=%d\n", id, p.now, w, p.state, p.wakeAt)
		}
	}
	return s
}

// Oracle checks every scheduler step of one engine against the linear
// reference. It is safe under a parallel runner: shards step concurrently,
// each against its own prediction.
type Oracle struct {
	t    testing.TB
	pred []prediction // per shard

	Steps         atomic.Int64 // resumes checked
	StalePreempts atomic.Int64 // steps in which preemptIfStale fired
	OffRoot       atomic.Int64 // resumes of a process that was not the heap root
}

type prediction struct {
	pick    int // ID of the process to resume, -1 for none
	state   string
	checked bool
}

// NewOracle installs the oracle on e; every process body must call Check
// first thing and after every call that may have yielded.
func NewOracle(t testing.TB, e *Engine) *Oracle {
	o := &Oracle{t: t, pred: make([]prediction, len(e.shards))}
	for i := range o.pred {
		o.pred[i] = prediction{pick: -1}
	}
	e.probe = func(sh *shard, horizon Time) {
		if t.Failed() {
			return // one divergence is enough; everything after it differs
		}
		if last := o.pred[sh.idx]; last.pick >= 0 && !last.checked {
			t.Errorf("shard %d: the linear scheduler resumes p%d, the heap scheduler resumed nobody", sh.idx, last.pick)
		}
		c := cloneShard(sh)
		p := o.linearStep(c, horizon)
		o.pred[sh.idx] = prediction{pick: procID(p), state: describe(c)}
	}
	return o
}

// Check is called by the process the scheduler has just resumed (or by one
// whose call did not yield, which has nothing new to compare).
func (o *Oracle) Check(p *Proc) {
	sh := p.cpu.shard
	pr := &o.pred[sh.idx]
	if pr.checked || o.t.Failed() {
		return
	}
	pr.checked = true
	o.Steps.Add(1)
	if p.hpos != 0 {
		o.OffRoot.Add(1)
	}
	if got := describe(sh); pr.pick != p.ID || pr.state != got {
		o.t.Errorf("shard %d step %d: heap scheduler resumed p%d, linear scheduler p%d\nheap:\n%slinear:\n%s",
			sh.idx, o.Steps.Load(), p.ID, pr.pick, got, pr.state)
	}
}
