// Package analyze summarizes a JSONL trace emitted by internal/trace into
// the execution-time breakdowns of the paper's Figures 4 and 5 plus message
// and scheduling histograms. The time breakdown is reconstructed from the
// end-of-run "stats" events each process emits, so a trace summary agrees
// exactly with core.Stats aggregation for the same run.
package analyze

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/trace"
)

// Summary aggregates one trace.
type Summary struct {
	Events int64 // total events parsed

	// TimeByCategory sums the per-process "stats"/"time" events, keyed by
	// category name (task, check, poll, read, ...).
	TimeByCategory map[string]int64
	// Counters sums the per-process "stats"/"count" events (loads, stores,
	// messages-sent, ...).
	Counters map[string]int64
	// Procs is the number of distinct processes that reported stats.
	Procs int

	// MsgSends counts "msg"/"send" events by message kind.
	MsgSends map[string]int64
	// MsgHandleDelay accumulates service delay (arrival to handling) by
	// message kind, from "msg"/"handle" events.
	MsgHandleDelay map[string]int64
	MsgHandles     map[string]int64

	// Sched counts scheduler events (spawn, switch, preempt, exit, stall).
	Sched map[string]int64

	// NetBytes and NetXfers total the network traffic seen in "net"
	// transfer events ("xfer" inter-node, "intra" local). Fault-injection
	// and reliability events are tallied separately: NetDrops/NetDups are
	// messages the injected faults removed from or duplicated on the wire,
	// NetRetx counts retransmissions after ack timeouts.
	NetBytes int64
	NetXfers int64
	NetDrops int64
	NetDups  int64
	NetRetx  int64

	// LinkStats sums the end-of-run "stats"/"link" events per sending
	// node and metric name (sends, bytes, drops, dups).
	LinkStats map[int]map[string]int64

	// LoadEvents counts the load generator's transaction lifecycle events
	// ("load" category) by event name: arrive, queue, shed, dispatch,
	// start, done.
	LoadEvents map[string]int64
	// LoadDone and LoadDoneLatency count completed load transactions and
	// accumulate their arrival-to-completion latency, keyed by transaction
	// kind (oltp, dss), from "load"/"done" events.
	LoadDone        map[string]int64
	LoadDoneLatency map[string]int64

	// Migratory counts the migratory-sharing "line" events a home emits,
	// under either backend, by name: migratory (it classified a block),
	// grant-migratory (it granted a read exclusive) and declassify (it made
	// a block ordinary for good).
	Migratory map[string]int64
	// RunOuts counts Tardis's "line"/"runout" events, one per leased copy
	// an agent dropped, by cause: expire (pts passed the lease end), tick
	// (the poll tick dropped the copy installed longest ago) and ll (an LL
	// dropped the copy to read the current version).
	RunOuts map[string]int64
	// Ticks counts Tardis's "line"/"tick" events, one per poll tick of a
	// process whose agent held a leased copy, by decision: drop (the process
	// was idle and the agent dropped copies), busy (it took a shared fill
	// since its previous tick) and wrote (it took an exclusive fill).
	Ticks map[string]int64
	// DowngradeOpens and DowngradeDones count the core's "line"/"dg-open"
	// events, one per downgrade record a handler left open for node-mates'
	// downgrade requests, and its "line"/"dg-done" events, one per record
	// the node-mate that applied the last request finished, naming it.
	// openRecords counts, by block, records not yet done.
	DowngradeOpens int64
	DowngradeDones int64
	openRecords    map[int]int64
	// DowngradeOpenTime sums, and DowngradeOpenMax is the longest of, the
	// cycles from a dg-open to the dg-done that finishes it, over the
	// DowngradeTimed records paired by agent and block. The longest was on
	// block DowngradeMaxBlk at process DowngradeMaxProc's agent. An agent
	// has one record of a block at a time, and the node-mate that finishes
	// it applied a downgrade-req its opener sent: reqFrom names, by block
	// and target, the last sender, and openedAt the open records by block
	// and opener.
	DowngradeOpenTime, DowngradeOpenMax int64
	DowngradeTimed                      int64
	DowngradeMaxBlk, DowngradeMaxProc   int
	reqFrom                             map[[2]int]int
	openedAt                            map[[2]int]int64
	// LockAcquires counts the "sync"/"lock-acquire" events, one per MP
	// lock acquire.
	LockAcquires int64
}

// lockMessages are the MsgSends keys an MP lock passage can cost.
var lockMessages = []string{"lock-req", "lock-grant", "lock-release"}

// migratoryEvents are the Migratory keys, in the order Render prints them.
var migratoryEvents = []string{"migratory", "grant-migratory", "declassify"}

// runOutCauses are the RunOuts keys, in the order Render prints them.
var runOutCauses = []string{"expire", "tick", "ll"}

// tickDecisions are the Ticks keys, in the order Render prints them.
var tickDecisions = []string{"drop", "busy", "wrote"}

// Read parses a JSONL trace stream.
func Read(r io.Reader) (*Summary, error) {
	s := &Summary{
		TimeByCategory:  map[string]int64{},
		Counters:        map[string]int64{},
		MsgSends:        map[string]int64{},
		MsgHandleDelay:  map[string]int64{},
		MsgHandles:      map[string]int64{},
		Sched:           map[string]int64{},
		LinkStats:       map[int]map[string]int64{},
		LoadEvents:      map[string]int64{},
		LoadDone:        map[string]int64{},
		LoadDoneLatency: map[string]int64{},
		Migratory:       map[string]int64{},
		RunOuts:         map[string]int64{},
		Ticks:           map[string]int64{},
		openRecords:     map[int]int64{},
		reqFrom:         map[[2]int]int{},
		openedAt:        map[[2]int]int64{},
	}
	procs := map[int]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var e trace.Event
		if err := json.Unmarshal([]byte(text), &e); err != nil {
			return nil, fmt.Errorf("analyze: line %d: %w", line, err)
		}
		s.Events++
		switch e.Cat {
		case "stats":
			switch e.Ev {
			case "time":
				s.TimeByCategory[e.S] += e.A
				procs[e.P] = true
			case "count":
				s.Counters[e.S] += e.A
			case "link":
				if s.LinkStats[e.P] == nil {
					s.LinkStats[e.P] = map[string]int64{}
				}
				s.LinkStats[e.P][e.S] += e.A
			}
		case "msg":
			switch e.Ev {
			case "send":
				s.MsgSends[e.S]++
				if e.S == "downgrade-req" {
					s.reqFrom[[2]int{e.Blk, e.O}] = e.P
				}
			case "handle":
				s.MsgHandles[e.S]++
				s.MsgHandleDelay[e.S] += e.A
			}
		case "line":
			switch e.Ev {
			case "migratory", "grant-migratory", "declassify":
				s.Migratory[e.Ev]++
			case "runout":
				s.RunOuts[e.S]++
			case "tick":
				s.Ticks[e.S]++
			case "dg-open":
				s.DowngradeOpens++
				s.openRecords[e.Blk]++
				s.openedAt[[2]int{e.Blk, e.P}] = int64(e.T)
			case "dg-done":
				s.DowngradeDones++
				s.openRecords[e.Blk]--
				s.timeRecord(e)
			}
		case "sync":
			if e.Ev == "lock-acquire" {
				s.LockAcquires++
			}
		case "sched":
			s.Sched[e.Ev]++
		case "load":
			s.LoadEvents[e.Ev]++
			if e.Ev == "done" {
				s.LoadDone[e.S]++
				s.LoadDoneLatency[e.S] += e.B
			}
		case "net":
			switch e.Ev {
			case "drop":
				s.NetDrops++
			case "dup":
				s.NetDups++
			case "retx":
				s.NetRetx++
			default: // "xfer", "intra": actual wire transfers
				s.NetXfers++
				s.NetBytes += e.B
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	s.Procs = len(procs)
	return s, nil
}

// timeRecord times the record a dg-done finishes.
func (s *Summary) timeRecord(e trace.Event) {
	opener, ok := s.reqFrom[[2]int{e.Blk, e.P}]
	if !ok {
		return
	}
	key := [2]int{e.Blk, opener}
	t0, ok := s.openedAt[key]
	if !ok {
		return
	}
	delete(s.openedAt, key)
	d := int64(e.T) - t0
	s.DowngradeOpenTime += d
	s.DowngradeTimed++
	if d > s.DowngradeOpenMax || s.DowngradeTimed == 1 {
		s.DowngradeOpenMax, s.DowngradeMaxBlk, s.DowngradeMaxProc = d, e.Blk, opener
	}
}

// CheckInvalAcks checks that every inval-ack answers an inval-req. Under
// dirinval each invalidation message draws one ack, to the writer, and
// nothing else sends one: the home invalidates its own agent's copy in
// place before it grants. So a run that finished sends as many of each; one
// cut short may owe acks. Tardis sends neither.
func (s *Summary) CheckInvalAcks() error {
	if req, ack := s.MsgSends["inval-req"], s.MsgSends["inval-ack"]; ack > req {
		return fmt.Errorf("analyze: %d inval-acks for %d inval-reqs: %d answer none", ack, req, ack-req)
	}
	return nil
}

// CheckDowngrades checks that every downgrade record a handler left open
// was finished by a node-mate, and that every finish answers an open
// record of the same block. A record never finished is a request or a
// reply its opener's handler left undone for good.
func (s *Summary) CheckDowngrades() error {
	var open, unopened int64
	for _, n := range s.openRecords {
		if n > 0 {
			open += n
		} else {
			unopened -= n
		}
	}
	if open > 0 || unopened > 0 {
		return fmt.Errorf("analyze: %d downgrade records opened, %d done: %d never done, %d done without an open", s.DowngradeOpens, s.DowngradeDones, open, unopened)
	}
	return nil
}

// TotalTime returns the sum over all time categories.
func (s *Summary) TotalTime() int64 {
	var t int64
	for _, v := range s.TimeByCategory {
		t += v
	}
	return t
}

// categoryOrder matches core.Categories() display order so the rendered
// breakdown lines up with the paper's figures.
var categoryOrder = []string{
	"task", "check", "poll", "read", "write", "sync", "mb", "blocked", "message",
}

// Render formats the summary as a Figure 4/5-style breakdown table.
func (s *Summary) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events, %d procs\n", s.Events, s.Procs)
	total := s.TotalTime()
	if total > 0 {
		fmt.Fprintf(&b, "\nexecution time breakdown (Figure 4/5 style):\n")
		seen := map[string]bool{}
		emit := func(cat string) {
			v := s.TimeByCategory[cat]
			fmt.Fprintf(&b, "  %-8s %14d cycles  %5.1f%%\n", cat, v, 100*float64(v)/float64(total))
			seen[cat] = true
		}
		for _, cat := range categoryOrder {
			if _, ok := s.TimeByCategory[cat]; ok {
				emit(cat)
			}
		}
		var rest []string
		for cat := range s.TimeByCategory {
			if !seen[cat] {
				rest = append(rest, cat)
			}
		}
		sort.Strings(rest)
		for _, cat := range rest {
			emit(cat)
		}
		fmt.Fprintf(&b, "  %-8s %14d cycles\n", "total", total)
	}
	if len(s.MsgSends) > 0 {
		fmt.Fprintf(&b, "\nprotocol messages sent:\n")
		for _, k := range sortedKeys(s.MsgSends) {
			fmt.Fprintf(&b, "  %-16s %10d", k, s.MsgSends[k])
			if n := s.MsgHandles[k]; n > 0 {
				fmt.Fprintf(&b, "   avg service delay %6.0f cycles", float64(s.MsgHandleDelay[k])/float64(n))
			}
			fmt.Fprintf(&b, "\n")
		}
	}
	if s.NetXfers > 0 {
		fmt.Fprintf(&b, "\nnetwork: %d transfers, %d bytes\n", s.NetXfers, s.NetBytes)
		if s.NetDrops+s.NetDups+s.NetRetx > 0 {
			fmt.Fprintf(&b, "faults: %d dropped, %d duplicated, %d retransmitted\n",
				s.NetDrops, s.NetDups, s.NetRetx)
		}
	}
	if len(s.LinkStats) > 0 {
		fmt.Fprintf(&b, "\nper-link totals (by sending node):\n")
		var nodes []int
		for n := range s.LinkStats {
			nodes = append(nodes, n)
		}
		sort.Ints(nodes)
		for _, n := range nodes {
			ls := s.LinkStats[n]
			fmt.Fprintf(&b, "  node %d:", n)
			for _, k := range sortedKeys(ls) {
				fmt.Fprintf(&b, " %s=%d", k, ls[k])
			}
			fmt.Fprintf(&b, "\n")
		}
	}
	if len(s.LoadEvents) > 0 {
		fmt.Fprintf(&b, "\nmulti-tenant load:")
		for _, k := range sortedKeys(s.LoadEvents) {
			fmt.Fprintf(&b, " %s=%d", k, s.LoadEvents[k])
		}
		fmt.Fprintf(&b, "\n")
		for _, k := range sortedKeys(s.LoadDone) {
			if n := s.LoadDone[k]; n > 0 {
				fmt.Fprintf(&b, "  %-6s %8d done, mean latency %8.0f cycles\n",
					k, n, float64(s.LoadDoneLatency[k])/float64(n))
			}
		}
	}
	if len(s.Migratory) > 0 {
		fmt.Fprintf(&b, "\nmigratory sharing:")
		for _, k := range migratoryEvents {
			fmt.Fprintf(&b, " %s=%d", k, s.Migratory[k])
		}
		fmt.Fprintf(&b, "\n")
	}
	if len(s.RunOuts) > 0 {
		fmt.Fprintf(&b, "\ntardis leases: runout")
		for _, k := range runOutCauses {
			fmt.Fprintf(&b, " %s=%d", k, s.RunOuts[k])
		}
		fmt.Fprintf(&b, "\n")
	}
	if len(s.Ticks) > 0 {
		if len(s.RunOuts) == 0 {
			fmt.Fprintf(&b, "\n")
		}
		fmt.Fprintf(&b, "tardis ticks:")
		for _, k := range tickDecisions {
			fmt.Fprintf(&b, " %s=%d", k, s.Ticks[k])
		}
		fmt.Fprintf(&b, "\n")
	}
	if s.DowngradeOpens+s.DowngradeDones > 0 {
		fmt.Fprintf(&b, "\ndowngrade records: open=%d done=%d\n", s.DowngradeOpens, s.DowngradeDones)
	}
	if s.DowngradeTimed > 0 {
		fmt.Fprintf(&b, "downgrade records open: mean=%.0f max=%d cycles (block %d, agent of p%d)\n",
			float64(s.DowngradeOpenTime)/float64(s.DowngradeTimed), s.DowngradeOpenMax, s.DowngradeMaxBlk, s.DowngradeMaxProc)
	}
	if s.LockAcquires > 0 {
		var n int64
		for _, k := range lockMessages {
			n += s.MsgSends[k]
		}
		fmt.Fprintf(&b, "\nmp locks: acquires=%d messages=%d per-acquire=%.2f\n", s.LockAcquires, n, float64(n)/float64(s.LockAcquires))
	}
	if len(s.Sched) > 0 {
		fmt.Fprintf(&b, "\nscheduler:")
		for _, k := range sortedKeys(s.Sched) {
			fmt.Fprintf(&b, " %s=%d", k, s.Sched[k])
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
