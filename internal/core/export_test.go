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
// is held, and the processes stalled on agent state (stallOnAgent).
func (s *System) OpenTransitions() (locked, waiters int) {
	for _, m := range s.agents {
		locked += len(m.busy)
	}
	for _, p := range s.procs {
		if p.onAgent {
			waiters++
		}
	}
	return locked, waiters
}

// Watching counts the processes watching their queues (watchQueues).
func (s *System) Watching() (n int) {
	for _, p := range s.procs {
		if p.watching {
			n++
		}
	}
	return n
}
