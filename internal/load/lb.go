package load

import "fmt"

// ClusterView is the dispatcher's view of worker load. Issued counts are
// exact (the dispatcher did the issuing); Done counts come from per-worker
// shared-memory completion counters and are only as fresh as the last time
// the dispatcher read them — exactly the staleness a real load balancer
// lives with. It reads one when something consumes it: a full ring, an
// admission decision at capacity, or, on a timer, a policy that asks for it
// (Policy.ReadsBacklog).
type ClusterView struct {
	Issued []int64 // transactions dispatched, per worker
	Done   []int64 // completions, per worker, as last read
	// HomeWorker maps a buffer-cache page to the worker whose process
	// homes it (the placement signal for the locality policy).
	HomeWorker func(page int) int
}

// Backlog returns the apparent queue depth of worker w.
func (v *ClusterView) Backlog(w int) int64 { return v.Issued[w] - v.Done[w] }

// Policy selects the worker an admitted transaction is placed on. Pick is
// called by the simulated dispatcher process; implementations must be
// deterministic functions of the view and their own state.
type Policy interface {
	Name() string
	Pick(t Txn, view *ClusterView) int
	// ReadsBacklog reports whether Pick reads view.Done (through Backlog).
	// The dispatcher keeps every worker's completion count no staler than
	// refreshPeriod for such a policy, at a read miss per worker per
	// period; for any other it reads no counter on placement's account.
	ReadsBacklog() bool
}

// roundRobin cycles through workers regardless of load.
type roundRobin struct{ next int }

func (p *roundRobin) Name() string       { return "rr" }
func (p *roundRobin) ReadsBacklog() bool { return false }
func (p *roundRobin) Pick(t Txn, view *ClusterView) int {
	w := p.next
	p.next = (p.next + 1) % len(view.Issued)
	return w
}

// leastLoaded picks the worker with the smallest apparent backlog, breaking
// ties toward the lowest index.
type leastLoaded struct{}

func (leastLoaded) Name() string       { return "least" }
func (leastLoaded) ReadsBacklog() bool { return true }
func (leastLoaded) Pick(t Txn, view *ClusterView) int {
	best := 0
	for w := 1; w < len(view.Issued); w++ {
		if view.Backlog(w) < view.Backlog(best) {
			best = w
		}
	}
	return best
}

// locality places a transaction on the worker that homes its primary page,
// so OLTP row writes and the first page of a DSS scan hit home-local lines.
// The trade-off is deliberate: a hot page makes a hot worker, and the
// bench sweep shows where locality beats balance and where it loses.
type locality struct{}

func (locality) Name() string       { return "locality" }
func (locality) ReadsBacklog() bool { return false }
func (locality) Pick(t Txn, view *ClusterView) int {
	return view.HomeWorker(t.Page)
}

// NewPolicy returns the named placement policy: "rr", "least", or
// "locality".
func NewPolicy(name string) (Policy, error) {
	switch name {
	case "rr":
		return &roundRobin{}, nil
	case "least":
		return leastLoaded{}, nil
	case "locality":
		return locality{}, nil
	}
	return nil, fmt.Errorf("load: unknown lb policy %q (want rr, least, or locality)", name)
}
