package core

import (
	"strings"
	"testing"
)

// TestStallInsideHandlerPanics: no handler waits. A stallWhile inside one
// panics and names the message the handler serves, even when there is
// nothing to wait for, so a handler that could block is a crash every test
// can hit and not a wedge only some interleavings reach.
func TestStallInsideHandlerPanics(t *testing.T) {
	s := Build(WithConfig(testConfig()))
	s.Spawn("p", 0, func(p *Proc) {
		p.depth, p.handling = 1, msgFwdRead
		p.stallWhile(CatMessage, func() bool { return false })
	})
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "stalls inside its fwd-read handler") {
		t.Fatalf("a stall inside a fwd-read handler returned %v", err)
	}
}

// TestWaitsDoNotNest: a wait is a flag, not a count, because waits never
// nest. A process that starts watching its queues, or stalling on agent
// state, while it already does so panics and names itself.
func TestWaitsDoNotNest(t *testing.T) {
	for _, c := range []struct {
		name, want string
		wait       func(p *Proc)
	}{
		{"watch", "p[0]@n0c0 watches its queues twice", func(p *Proc) {
			p.watchQueues()
			p.Compute(10 * p.sys.Cfg.PollInterval)
		}},
		{"agent", "p[0]@n0c0 stalls on agent state twice", func(p *Proc) {
			p.onAgent = true
			p.stallOnAgent(CatSyncStall, func() bool { return false })
		}},
	} {
		s := Build(WithConfig(testConfig()))
		s.Spawn("p", 0, c.wait)
		if err := s.Run(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: a nested wait returned %v, want a panic with %q", c.name, err, c.want)
		}
	}
}
