package core

import (
	"fmt"
	"reflect"
)

// PollEach makes Compute take every back-edge poll as an event of its own,
// the reference the closed form is compared against.
func (s *System) PollEach() { s.pollEach = true }

// DiffExported names the first exported field in which two structs of one
// type differ, with both values, or returns "".
func DiffExported(want, got any) string {
	w, g := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < w.NumField(); i++ {
		if f := w.Type().Field(i); f.IsExported() && !reflect.DeepEqual(w.Field(i).Interface(), g.Field(i).Interface()) {
			return fmt.Sprintf("%s differs:\n polling %.300v\n closed  %.300v", f.Name, w.Field(i), g.Field(i))
		}
	}
	return ""
}

// TransitionHolder returns the process holding the transition lock of p's
// agent on the block of addr, nil if nobody does.
func (p *Proc) TransitionHolder(addr uint64) *Proc {
	return p.mem.busy[int(p.sys.lineBlock[p.sys.lineOf(addr)])]
}

// OpenTransitions counts, over every agent, the blocks whose transition lock
// is held and the processes registered as waiters on agent state.
func (s *System) OpenTransitions() (locked, waiters int) {
	for _, m := range s.agents {
		locked += len(m.busy)
		waiters += len(m.stateWaiters)
	}
	return locked, waiters
}

// OpenDowngrades counts the downgrade records still open, over every agent.
func (s *System) OpenDowngrades() (n int) {
	for _, m := range s.agents {
		n += len(m.dgs)
	}
	return n
}

// OpenLocks counts the MP locks held, the agents queued at the locks' homes
// and the lock slots not idle: marked, with waiters, or with a streak.
func (s *System) OpenLocks() (held, queued, slots int) {
	for _, lk := range s.locks {
		if lk.held {
			held++
		}
		queued += len(lk.waiters)
		for _, sl := range lk.slots {
			if sl.busy || len(sl.waiters) > 0 || sl.streak != 0 {
				slots++
			}
		}
	}
	return held, queued, slots
}
