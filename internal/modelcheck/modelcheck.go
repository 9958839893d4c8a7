// Package modelcheck is an explicit-state model checker for the Shasta
// coherence protocol. Unlike a Murphi-style transcription, it explores
// the real implementation: each transition runs the actual protocol
// handlers (core.Proc.handleMessage and the miss-issue paths) through
// core.Explorer, so a verified property holds for the code that the
// simulator and experiments execute, not for an abstraction of it.
//
// The search is a breadth-first sweep over canonicalized states
// (symmetry-reduced under interchangeable process IDs) with an optional
// depth bound — iterative deepening by frontier levels. Breadth-first
// order makes the first violation found a minimal counterexample, and a
// sweep that exhausts its frontier without hitting the depth or state
// bound has provably explored every reachable state (Converged).
//
// States are reconstructed by deterministic replay of the action path
// from the initial state rather than by snapshotting, so the
// counterexample path doubles as a replay seed: Replay re-executes it
// and must reproduce the violation.
package modelcheck

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/trace"
)

// Options configures a check.
type Options struct {
	// MaxDepth bounds the exploration depth (number of transitions from
	// the initial state); 0 means unbounded.
	MaxDepth int
	// MaxStates bounds the number of distinct canonical states; 0 means
	// the package default (1e6).
	MaxStates int
	// Liveness additionally verifies, after a converged sweep, that
	// every reachable state can still reach a clean terminal state (no
	// deadlock was already checked per-state; this catches livelock).
	Liveness bool
	// Disabled names invariants to skip (see core.ExpConfig.Disabled).
	Disabled map[string]bool
}

// Violation describes one invariant violation with its minimal
// counterexample: the action path from the initial state (a replay
// seed) and the structured trace events recorded along it.
type Violation struct {
	Invariant string        `json:"invariant"`
	Detail    string        `json:"detail"`
	Path      []string      `json:"path"`
	Events    []trace.Event `json:"events,omitempty"`
}

// Result summarizes one exploration.
type Result struct {
	Model       string     `json:"model"`
	Consistency string     `json:"consistency"`
	Protocol    string     `json:"protocol"`
	States      int        `json:"states"`
	Transitions int        `json:"transitions"`
	Depth       int        `json:"depth"`
	Converged   bool       `json:"converged"`
	Violation   *Violation `json:"violation,omitempty"`
	// Outcomes lists the per-process observations of every clean
	// terminal state reached (sorted) — the reachable litmus outcomes.
	Outcomes []string `json:"outcomes,omitempty"`
}

// node is one frontier entry: a state identified by its canonical
// fingerprint and reconstructed by replaying the action path stored as
// a parent chain.
type node struct {
	parent *node
	act    core.ExpAction
	key    string
	depth  int
}

func (n *node) path() []core.ExpAction {
	var rev []core.ExpAction
	for x := n; x.parent != nil; x = x.parent {
		rev = append(rev, x.act)
	}
	out := make([]core.ExpAction, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

func pathStrings(acts []core.ExpAction) []string {
	out := make([]string, len(acts))
	for i, a := range acts {
		out[i] = a.String()
	}
	return out
}

// Check explores the model exhaustively (up to the depth and state
// bounds) and returns the first — and by breadth-first order minimal —
// invariant violation, or the full reachable-state summary.
func Check(m Model, opts Options) *Result {
	cfg := m.Cfg
	if opts.Disabled != nil {
		cfg.Disabled = opts.Disabled
	}
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = 1_000_000
	}
	protocol := cfg.Protocol
	if protocol == "" {
		protocol = "dirinval"
	}
	res := &Result{Model: m.Name, Consistency: cfg.Consistency.String(), Protocol: protocol}
	// replay rebuilds a node's state. The caller closes the explorer it
	// returns; one that panics is closed here and not returned.
	replay := func(n *node) (ex *core.Explorer, v *Violation) {
		acts := n.path()
		defer func() {
			if r := recover(); r != nil {
				v = &Violation{
					Invariant: "panic",
					Detail:    fmt.Sprint(r),
					Path:      pathStrings(acts),
				}
				if ex != nil {
					v.Events = ex.Events()
					ex.Close()
					ex = nil
				}
			}
		}()
		ex = core.NewExplorer(cfg)
		for _, a := range acts {
			ex.Apply(a)
		}
		return ex, nil
	}

	rootEx := core.NewExplorer(cfg)
	defer rootEx.Close()
	if v := rootEx.Check(); v != nil {
		res.Violation = &Violation{Invariant: v.Invariant, Detail: v.Detail}
		return res
	}
	root := &node{key: rootEx.Encode()}
	visited := map[string]bool{root.key: true}
	res.States = 1
	frontier := []*node{root}
	edges := make(map[string][]string)
	terminals := make(map[string]bool)
	outcomes := make(map[string]bool)
	truncated := false

	for len(frontier) > 0 && !truncated {
		if opts.MaxDepth > 0 && frontier[0].depth >= opts.MaxDepth {
			truncated = true
			break
		}
		var next []*node
		for _, nd := range frontier {
			ex, v := replay(nd)
			if v != nil {
				res.Violation = v
				return res
			}
			acts := ex.Enabled()
			if len(acts) == 0 {
				terminal, outcome := ex.Terminal(), ex.Outcome()
				ex.Close()
				if !terminal {
					res.Violation = &Violation{
						Invariant: "deadlock",
						Detail:    "no transition enabled in a non-final state",
						Path:      pathStrings(nd.path()),
						Events:    ex.Events(),
					}
					return res
				}
				terminals[nd.key] = true
				outcomes[outcome] = true
				continue
			}
			ex.Close()
			for _, a := range acts {
				child, v := replay(nd)
				if v == nil {
					func() {
						defer func() {
							if r := recover(); r != nil {
								p := append(nd.path(), a)
								v = &Violation{
									Invariant: "panic",
									Detail:    fmt.Sprint(r),
									Path:      pathStrings(p),
									Events:    child.Events(),
								}
							}
						}()
						child.Apply(a)
					}()
				}
				if v != nil {
					if child != nil {
						child.Close()
					}
					res.Violation = v
					return res
				}
				res.Transitions++
				cv, key := child.Check(), child.Encode()
				child.Close()
				if cv != nil {
					p := append(nd.path(), a)
					res.Violation = &Violation{
						Invariant: cv.Invariant,
						Detail:    cv.Detail,
						Path:      pathStrings(p),
						Events:    child.Events(),
					}
					return res
				}
				if opts.Liveness {
					edges[nd.key] = append(edges[nd.key], key)
				}
				if !visited[key] {
					visited[key] = true
					res.States++
					cn := &node{parent: nd, act: a, key: key, depth: nd.depth + 1}
					if cn.depth > res.Depth {
						res.Depth = cn.depth
					}
					next = append(next, cn)
					if res.States >= maxStates {
						truncated = true
					}
				}
			}
			if truncated {
				break
			}
		}
		frontier = next
	}
	res.Converged = !truncated && len(frontier) == 0
	for o := range outcomes {
		res.Outcomes = append(res.Outcomes, o)
	}
	sort.Strings(res.Outcomes)
	if res.Converged && opts.Liveness {
		if findLivelock(visited, edges, terminals) {
			res.Violation = &Violation{
				Invariant: "livelock",
				Detail:    "a reachable state cannot reach any clean terminal state",
			}
		}
	}
	return res
}

// findLivelock reports whether some state cannot reach any clean terminal
// state (bounded liveness over the explored graph). Only meaningful after a
// converged sweep, when the edge relation is complete.
func findLivelock(visited map[string]bool, edges map[string][]string, terminals map[string]bool) bool {
	// Reverse reachability from the terminal states.
	rev := make(map[string][]string)
	for src, dsts := range edges {
		for _, d := range dsts {
			rev[d] = append(rev[d], src)
		}
	}
	ok := make(map[string]bool, len(terminals))
	var queue []string
	for t := range terminals {
		ok[t] = true
		queue = append(queue, t)
	}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, p := range rev[x] {
			if !ok[p] {
				ok[p] = true
				queue = append(queue, p)
			}
		}
	}
	for k := range visited {
		if !ok[k] {
			return true
		}
	}
	return false
}

// Replay re-executes an action path against a fresh instance of the
// model and returns the violation it reproduces (nil if the state at
// the end of the path satisfies every invariant) along with the trace
// events of the replayed run. It is the counterexample confirmation
// harness: a Violation's Path fed back through Replay must fail with
// the same invariant.
func Replay(m Model, path []string, disabled map[string]bool) (v *Violation, events []trace.Event, err error) {
	cfg := m.Cfg
	if disabled != nil {
		cfg.Disabled = disabled
	}
	acts := make([]core.ExpAction, len(path))
	for i, s := range path {
		a, perr := core.ParseExpAction(s)
		if perr != nil {
			return nil, nil, perr
		}
		acts[i] = a
	}
	var ex *core.Explorer
	defer func() {
		if r := recover(); r != nil {
			if ex != nil {
				events = ex.Events()
			}
			v = &Violation{Invariant: "panic", Detail: fmt.Sprint(r), Path: path}
		}
	}()
	ex = core.NewExplorer(cfg)
	defer ex.Close()
	for _, a := range acts {
		ex.Apply(a)
	}
	events = ex.Events()
	if cv := ex.Check(); cv != nil {
		return &Violation{Invariant: cv.Invariant, Detail: cv.Detail, Path: path, Events: events}, events, nil
	}
	return nil, events, nil
}
