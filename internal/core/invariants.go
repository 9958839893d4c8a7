package core

// Runtime coherence invariants, shared with the model checker's
// catalogue (explore_state.go) but phrased for live systems: light
// checks are safe at any quiesce point (barrier releases, chaos-harness
// probes), full checks additionally require global quiescence — no miss
// outstanding anywhere, no message in flight, no busy directory entry —
// because mid-transition states legitimately disagree in ways only the
// model checker (which sees in-flight traffic) can discount.

import "fmt"

// InvariantError reports a violated coherence invariant.
type InvariantError struct {
	Invariant string
	Detail    string
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("coherence invariant %s violated: %s", e.Invariant, e.Detail)
}

// CheckInvariants verifies protocol-level coherence invariants against
// the current system state. It always runs the light checks; when the
// system is fully quiescent it additionally verifies exact
// directory/state-table agreement, word-for-word agreement among valid
// copies, and flag-fill integrity of invalid lines. Returns nil when
// inline checks are disabled (Cfg.Checks off means application code
// writes shared memory without coherence, so the invariants cannot
// hold by construction).
func (s *System) CheckInvariants() error {
	if !s.Cfg.Checks {
		return nil
	}
	if err := s.checkInvariantsLight(); err != nil {
		return err
	}
	if s.fullyQuiescent() {
		return s.checkQuiescent()
	}
	return nil
}

// checkInvariantsLight runs the always-true invariants: at most one
// exclusive copy of a line and bounded home queues (checkHomesLight),
// whatever the backend adds to single-writer, and MSHR accounting.
// O(lines × agents); safe at any point, including mid-transition. Reached
// from the barrier release under InvariantChecks only, and it allocates
// only once it has found a violation.
//
//hot:cold
func (s *System) checkInvariantsLight() error {
	if err := s.checkHomesLight(); err != nil {
		return err
	}
	if err := s.proto.checkLight(s); err != nil {
		return err
	}
	for _, p := range s.procs {
		if p.outstanding != len(p.mshr) {
			return &InvariantError{"bounded", fmt.Sprintf(
				"%s outstanding=%d but %d MSHRs", p.Name, p.outstanding, len(p.mshr))}
		}
	}
	return nil
}

// fullyQuiescent reports whether no protocol activity is pending
// anywhere: no outstanding miss, deferred request, unacknowledged
// retransmission, queued message (delivered or resequencer-held), or
// busy directory entry.
func (s *System) fullyQuiescent() bool {
	for _, p := range s.procs {
		if p.outstanding != 0 || len(p.deferredReqs) > 0 {
			return false
		}
		if p.replyQ.q.Len() > 0 {
			return false
		}
		if p.reqQ != nil && p.reqQ.q.Len() > 0 {
			return false
		}
		for _, rt := range p.retx {
			if !rt.acked {
				return false
			}
		}
	}
	for _, c := range s.cpus {
		if c.reqQ != nil && c.reqQ.q.Len() > 0 {
			return false
		}
	}
	for _, r := range s.reseq {
		if r != nil && len(r.held) > 0 {
			return false
		}
	}
	for _, blk := range s.blocks {
		if !s.blockQuiet(blk) {
			return false
		}
	}
	return true
}

// checkQuiescent verifies the invariants that hold exactly when nothing
// is in flight; the exact catalogue is the backend's (for dirinval:
// directory/state-table agreement copy for copy, identical data among
// valid copies, flag-filled invalid lines modulo deferred fills).
func (s *System) checkQuiescent() error {
	return s.proto.checkQuiescent(s)
}

// checkLineData verifies that all valid copies of a line agree word for
// word, and that invalid copies are flag-filled.
func (s *System) checkLineData(line int) error {
	ref := -1
	for a, am := range s.agents {
		if st := am.table[line]; st != Shared && st != Exclusive {
			continue
		}
		if ref < 0 {
			ref = a
			continue
		}
		for w := 0; w < s.wordsPerLine; w++ {
			word := line*s.wordsPerLine + w
			if am.data[word] != s.agents[ref].data[word] {
				return &InvariantError{"copies-agree", fmt.Sprintf(
					"line %d word %d: agent %d holds %#x, agent %d holds %#x",
					line, w, a, am.data[word], ref, s.agents[ref].data[word])}
			}
		}
	}
	return s.checkFlagFill(line)
}

// checkFlagFill verifies that invalid copies of a line are flag-filled
// (the §4.1 flag technique), unless the line's fill is still deferred. It
// is all of checkLineData a backend can ask for whose valid copies are
// allowed to disagree (Tardis: leased copies against the master).
func (s *System) checkFlagFill(line int) error {
	if !s.Cfg.FlagCheck || s.fillDeferred(line) {
		return nil
	}
	for a, am := range s.agents {
		if am.table[line] != Invalid {
			continue
		}
		for w := 0; w < s.wordsPerLine; w++ {
			word := line*s.wordsPerLine + w
			if am.data[word] != FlagWord {
				return &InvariantError{"flag-fill", fmt.Sprintf(
					"line %d word %d: invalid copy at agent %d holds %#x instead of the flag value",
					line, w, a, am.data[word])}
			}
		}
	}
	return nil
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
