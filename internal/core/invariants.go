package core

// The coherence invariant catalogue, written once and run in two worlds:
// the live system at quiesce points (CheckInvariants, with a nil
// *Explorer) and the model checker at every explored state (Explorer.Check,
// with itself). checkLight holds what is true at any instant; checkFull
// what is true once every transition in flight has landed, which the
// explorer can discount at any state because it sees them, and the live
// system only when there are none: at the end of a run, which Run requires
// to be at rest (quiescent).
//
// A nil *Explorer is the live view: nothing in flight, no ghost memory,
// nothing disabled (busyJustified, invalPending and disabled are false on a
// nil receiver). Every transient a clause tolerates rests on evidence a
// quiescent system cannot have — a busy home entry whose resolving message
// is in flight, an invalidation in flight, or a Pending copy whose agent has
// a miss outstanding — so the live check is exactly as strict as the
// clause, and the explorer runs every clause.
//
//	swmr          at most one exclusive copy of a line, and the backend's
//	              half (checkExclusive): no shared copy beside it
//	              (dirinval), held by the owner the home names (tardis)
//	bounded       MSHR accounting; deferred requests and home queues within
//	              the process count; explorer: link occupancy
//	dir-agreement the backend's home state agrees with the state tables
//	              (checkAgreement)
//	data-value    every valid copy holds what the backend says it must
//	              (expectedValue); explorer: also each read, as it completes
//	flag-fill     every invalid copy holds the flag value (§4.1), unless
//	              its fill is deferred behind an open batch
//	fwd-owner     explorer: a forward in flight targets an owner or a fill
//	llsc          explorer: a successful SC pairs atomically with its LL,
//	              checked as the SC completes

import "fmt"

// InvariantError reports a violated coherence invariant.
type InvariantError struct {
	Invariant string
	Detail    string
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("coherence invariant %s violated: %s", e.Invariant, e.Detail)
}

func violated(inv, format string, args ...any) *InvariantError {
	return &InvariantError{inv, fmt.Sprintf(format, args...)}
}

// CheckInvariants verifies the whole catalogue against the live system, as
// Run leaves it: at rest, with nothing in flight. Returns nil when inline
// checks are disabled (Cfg.Checks off means application code writes shared
// memory without coherence, so the invariants cannot hold by construction).
func (s *System) CheckInvariants() error {
	if !s.Cfg.Checks {
		return nil
	}
	v := s.checkLight(nil)
	if v == nil {
		v = s.checkFull(nil)
	}
	if v == nil {
		return nil
	}
	return v
}

// checkLight is the half of the catalogue true at any instant: swmr and
// bounded. O(lines × agents); reached from every barrier release of an
// instrumented run, and it allocates only once it has found a violation.
func (s *System) checkLight(e *Explorer) *InvariantError {
	if !e.disabled("swmr") {
		for line := 0; line < s.allocCursor; line++ {
			excl := -1
			for a, am := range s.agents {
				if am.table[line] != Exclusive {
					continue
				}
				if excl >= 0 {
					return violated("swmr", "line %d exclusive at agents %d and %d", line, excl, a)
				}
				excl = a
			}
			if excl >= 0 {
				if v := s.proto.checkExclusive(s, line, excl); v != nil {
					return v
				}
			}
		}
	}
	if e.disabled("bounded") {
		return nil
	}
	n := len(s.procs)
	for _, p := range s.procs {
		if p.outstanding != len(p.mshr) {
			return violated("bounded", "%s outstanding=%d but %d MSHRs", p, p.outstanding, len(p.mshr))
		}
		if len(p.deferredReqs) > n {
			return violated("bounded", "%s has %d deferred requests (max %d)", p, len(p.deferredReqs), n)
		}
	}
	for id := range s.homes {
		if q := len(s.homes[id].queue); q > n {
			return violated("bounded", "block %d home queue holds %d requests (max %d)", id, q, n)
		}
	}
	return nil
}

// checkFull is the half true once every transition has landed, over every
// line of every block: dir-agreement, then data-value and flag-fill.
func (s *System) checkFull(e *Explorer) *InvariantError {
	if !e.disabled("dir-agreement") {
		if v := s.proto.checkAgreement(s, e); v != nil {
			return v
		}
	}
	for _, blk := range s.blocks {
		for line := blk.firstLine; line < blk.firstLine+blk.lines; line++ {
			if v := s.checkLineData(e, blk, line); v != nil {
				return v
			}
		}
	}
	return nil
}

// checkLineData checks every copy of one line. A valid copy holds what the
// backend expects of it given the word's current value: the last performed
// store in the explorer, the authoritative copy's live (looked up once per
// line, and only live). An invalid copy holds the flag value, unless the
// line's fill is still deferred behind an open batch.
func (s *System) checkLineData(e *Explorer, blk *blockInfo, line int) *InvariantError {
	base := line * s.wordsPerLine
	var ref []uint64
	if e == nil {
		ref = s.agents[s.snapshotSource(line)].data
	}
	for a, am := range s.agents {
		switch am.table[line] {
		case Shared, Exclusive:
			if e.disabled("data-value") {
				continue
			}
			for w := 0; w < s.wordsPerLine; w++ {
				var cur uint64
				if e != nil {
					cur = e.ghost[base+w].val
				} else {
					cur = ref[base+w]
				}
				want, ok := s.proto.expectedValue(s, e, a, blk, base+w, cur)
				if got := am.data[base+w]; ok && got != want {
					return violated("data-value", "line %d word %d: agent %d holds %#x, want %#x", line, w, a, got, want)
				}
			}
		case Invalid:
			if !s.Cfg.FlagCheck || e.disabled("flag-fill") {
				continue
			}
			for w := 0; w < s.wordsPerLine; w++ {
				if got := am.data[base+w]; got != FlagWord {
					if s.fillDeferred(line) {
						break
					}
					return violated("flag-fill", "line %d word %d: invalid copy at agent %d holds %#x instead of the flag value", line, w, a, got)
				}
			}
		}
	}
	return nil
}

// fillInFlight reports whether agent a's copy of blk, in state st, is
// Pending on a miss one of the agent's processes has outstanding: a fill on
// its way, which no quiescent system has.
func (s *System) fillInFlight(a int, blk *blockInfo, st LineState) bool {
	if st != Pending {
		return false
	}
	for _, p := range s.localProcs(a) {
		if p.mshr[blk.id] != nil {
			return true
		}
	}
	return false
}

func (s *System) fillDeferred(line int) bool {
	for _, p := range s.procs {
		for _, l := range p.deferredFills {
			if l == line {
				return true
			}
		}
	}
	return false
}

// Check runs the catalogue against the explorer's current state and
// returns the first violation: one recorded eagerly during Apply (a read's
// data-value, an SC's llsc), else checkLight and checkFull with this
// explorer's evidence, else what only the explorer can see — its links, in
// linkKeys order.
func (e *Explorer) Check() *InvariantError {
	if e.viol != nil {
		return e.viol
	}
	v := e.sys.checkLight(e)
	if v == nil {
		v = e.sys.checkFull(e)
	}
	if v == nil {
		v = e.checkLinks()
	}
	if v != nil {
		e.fail(v.Invariant, v.Detail)
	}
	return e.viol
}

// checkLinks bounds each link's occupancy (bounded) and checks that every
// forward in flight targets a process whose agent owns the block or has a
// miss outstanding on it (fwd-owner).
func (e *Explorer) checkLinks() *InvariantError {
	s := e.sys
	limit := 4*len(s.blocks)*len(s.procs) + 4
	for _, k := range e.linkKeys() {
		q := e.chans[k]
		if len(q) > limit && !e.disabled("bounded") {
			return violated("bounded", "link %d->%d holds %d messages (limit %d)", k[0], k[1], len(q), limit)
		}
		if e.disabled("fwd-owner") {
			continue
		}
		dst := s.procs[k[1]]
		for _, m := range q {
			if m.kind != msgFwdRead && m.kind != msgFwdReadExcl {
				continue
			}
			if st := dst.mem.table[s.blocks[m.block].firstLine]; st != Exclusive && dst.mshr[m.block] == nil {
				return violated("fwd-owner", "%s for block %d in flight to p%d, whose agent holds state %v with no miss outstanding",
					m.kind, m.block, dst.ID, st)
			}
		}
	}
	return nil
}

// disabled reports whether the model switches the invariant off; the live
// system never does.
func (e *Explorer) disabled(inv string) bool {
	return e != nil && e.cfg.Disabled[inv]
}

// busyJustified reports whether a busy home entry has its resolving message
// somewhere: a forward in flight or deferred, or the resulting writeback
// or ownership transfer heading back to the home.
func (e *Explorer) busyJustified(block int) bool {
	if e == nil {
		return false
	}
	resolving := func(m msg) bool {
		if m.block != block {
			return false
		}
		switch m.kind {
		case msgFwdRead, msgFwdReadExcl, msgShareWB, msgOwnerTransfer:
			return true
		}
		return false
	}
	for _, q := range e.chans {
		for _, m := range q {
			if resolving(m) {
				return true
			}
		}
	}
	for _, p := range e.sys.procs {
		for _, m := range p.deferredReqs {
			if resolving(m) {
				return true
			}
		}
	}
	return false
}

// invalPending reports whether an msgInvalReq for the block is in flight
// to, or deferred at, process a.
func (e *Explorer) invalPending(block, a int) bool {
	if e == nil {
		return false
	}
	for k, q := range e.chans {
		if k[1] != a {
			continue
		}
		for _, m := range q {
			if m.kind == msgInvalReq && m.block == block {
				return true
			}
		}
	}
	for _, m := range e.sys.procs[a].deferredReqs {
		if m.kind == msgInvalReq && m.block == block {
			return true
		}
	}
	return false
}
