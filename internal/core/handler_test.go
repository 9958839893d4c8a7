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
