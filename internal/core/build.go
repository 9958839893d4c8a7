package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/memchannel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Option configures Build.
type Option func(*builder)

type builder struct {
	cfg    Config
	tracer *trace.Tracer
	wantOS bool
	runner sim.Runner
}

// WithConfig starts from an explicit configuration instead of
// DefaultConfig. Options applied after it still override individual fields.
func WithConfig(cfg Config) Option {
	return func(b *builder) { b.cfg = cfg }
}

// WithProcs sets the cluster topology: nodes × cpusPerNode processors.
func WithProcs(nodes, cpusPerNode int) Option {
	return func(b *builder) {
		b.cfg.Nodes = nodes
		b.cfg.CPUsPerNode = cpusPerNode
	}
}

// ProtocolVariant bundles the protocol configuration choices the paper
// evaluates against each other (§2.3, §3.2, §4.3). Use one of the
// constructors to get a coherent baseline and adjust fields from there.
type ProtocolVariant struct {
	SMP               bool
	Consistency       ConsistencyModel
	FlagCheck         bool
	PrefetchExclusive bool
	DirectDowngrade   bool
	SharedQueues      bool
	ProtocolProcs     bool
}

// SMPShasta is the paper's standard SMP-Shasta protocol configuration.
func SMPShasta() ProtocolVariant {
	return ProtocolVariant{
		SMP:             true,
		Consistency:     ReleaseConsistent,
		FlagCheck:       true,
		DirectDowngrade: true,
		SharedQueues:    true,
	}
}

// BaseShasta is the per-process-agent protocol (no intra-node sharing).
func BaseShasta() ProtocolVariant {
	return ProtocolVariant{
		Consistency: ReleaseConsistent,
		FlagCheck:   true,
	}
}

// WithVariant selects the protocol variant (SMP vs. Base, consistency
// model, check optimizations).
func WithVariant(v ProtocolVariant) Option {
	return func(b *builder) {
		b.cfg.SMP = v.SMP
		b.cfg.Consistency = v.Consistency
		b.cfg.FlagCheck = v.FlagCheck
		b.cfg.PrefetchExclusive = v.PrefetchExclusive
		b.cfg.DirectDowngrade = v.DirectDowngrade
		b.cfg.SharedQueues = v.SharedQueues
		b.cfg.ProtocolProcs = v.ProtocolProcs
	}
}

// WithProtocol selects the coherence protocol backend by registry name:
// "dirinval" (the paper's directory-invalidation protocol, the default)
// or "tardis" (timestamp-ordered coherence). See ProtocolNames.
func WithProtocol(name string) Option {
	return func(b *builder) { b.cfg.Protocol = name }
}

// WithTrace attaches a structured event tracer to every layer of the built
// system (engine scheduling, protocol messages, network transfers).
func WithTrace(t *trace.Tracer) Option {
	return func(b *builder) { b.tracer = t }
}

// WithWatchdog sets the stall watchdog budget in simulated cycles; pass a
// negative value to disable the watchdog entirely.
func WithWatchdog(cycles sim.Time) Option {
	return func(b *builder) { b.cfg.WatchdogCycles = cycles }
}

// WithMaxTime caps the simulated run time.
func WithMaxTime(t sim.Time) Option {
	return func(b *builder) { b.cfg.MaxTime = t }
}

// WithFaults enables deterministic network fault injection (see
// memchannel.FaultProfile for presets) and, with it, the reliability
// sublayer that lets the protocol survive the injected faults.
func WithFaults(fc memchannel.FaultConfig) Option {
	return func(b *builder) { b.cfg.Faults = fc }
}

// WithConfigure applies an arbitrary configuration edit; an escape hatch for
// the long tail of Config fields that have no dedicated option.
func WithConfigure(f func(*Config)) Option {
	return func(b *builder) { f(&b.cfg) }
}

// WithOS requests the cluster OS layer. The OS implementation lives above
// this package (internal/clusteros registers its factory on import), so the
// built OS is retrieved with System.OS; most callers should use
// clusteros.Build, which wraps this and returns the typed *clusteros.OS.
func WithOS() Option {
	return func(b *builder) { b.wantOS = true }
}

// osFactory is registered by the cluster OS package (RegisterOSFactory); it
// keeps WithOS available here without an import cycle.
var osFactory func(*System) any

// RegisterOSFactory installs the constructor WithOS uses. Called from an
// init function of the OS package.
func RegisterOSFactory(f func(*System) any) { osFactory = f }

// Build constructs a fully wired Shasta system from DefaultConfig plus the
// given options. It is the single construction path.
func Build(opts ...Option) *System {
	b := builder{cfg: DefaultConfig()}
	for _, o := range opts {
		o(&b)
	}
	s := newSystem(b.cfg, b.wantOS)
	if b.tracer != nil {
		s.SetTracer(b.tracer)
	}
	if b.runner != nil {
		s.enableParallel(b.runner, b.wantOS)
	}
	if b.wantOS {
		if osFactory == nil {
			panic("core: WithOS requires the cluster OS package to be linked in; use clusteros.Build")
		}
		s.osObj = osFactory(s)
	}
	return s
}

// OS returns the cluster OS layer built via WithOS, or nil. The concrete
// type is *clusteros.OS; clusteros.Build returns it already typed.
func (s *System) OS() any { return s.osObj }

// SetTracer attaches a tracer to the system and all layers below it.
func (s *System) SetTracer(t *trace.Tracer) {
	s.tracer = t
	s.Eng.SetTracer(t)
	s.Net.SetTracer(t)
	s.wireShardTracers()
}

// Tracer returns the attached tracer, or nil.
func (s *System) Tracer() *trace.Tracer { return s.tracer }

// emitStats writes every process's end-of-run accounting into the trace so
// the analyzer can reconstruct the Figure 4/5 breakdowns; the sums agree
// exactly with AggregateStats.
func (s *System) emitStats() {
	t := s.tracer
	for _, p := range s.procs {
		now := p.Sim.Now()
		for _, cat := range Categories() {
			if v := p.stats.Time[cat]; v != 0 {
				t.Emit(trace.Event{T: now, Cat: "stats", Ev: "time", P: p.ID, S: cat.String(), A: v})
			}
		}
		for _, c := range Counters() {
			if v := p.stats.N[c]; v != 0 {
				t.Emit(trace.Event{T: now, Cat: "stats", Ev: "count", P: p.ID, S: c.String(), A: v})
			}
		}
	}
	// Per-link network totals (P is the sending node, not a process). The
	// timestamp is the furthest process clock — a property of the
	// simulated execution, identical across engines (the engines' notion
	// of "current scheduler time" is not).
	var now sim.Time
	for _, p := range s.procs {
		if t := p.Sim.Now(); t > now {
			now = t
		}
	}
	for node, ls := range s.Net.LinkStats() {
		for _, m := range []struct {
			name string
			v    int64
		}{{"sends", ls.Sends}, {"bytes", ls.Bytes}, {"drops", ls.Drops}, {"dups", ls.Dups}} {
			if m.v != 0 {
				t.Emit(trace.Event{T: now, Cat: "stats", Ev: "link", P: node, S: m.name, A: m.v})
			}
		}
	}
}

// starvedMiss is the engine's starve probe: it names the first process, and
// its lowest block, with a miss outstanding for longer than budget at now.
// It does not sort (mshrBlocks): it runs often enough for an allocation to
// show in the allocation tests.
func (s *System) starvedMiss(now, budget sim.Time) string {
	for _, p := range s.procs {
		starved := -1
		for blk, m := range p.mshr {
			if now-m.issued > budget && (starved < 0 || blk < starved) {
				starved = blk
			}
		}
		if m := p.mshr[starved]; m != nil {
			return fmt.Sprintf("%s has had a miss on block %d outstanding since t=%d (%v)", p, starved, m.issued, m)
		}
	}
	return ""
}

// String describes a miss for the diagnostics: whether it wants the block
// exclusive, whether its reply came, and the invalidation acks it has of
// those it waits for.
func (m *mshrEntry) String() string {
	return fmt.Sprintf("excl=%v,reply=%v,acks=%d/%d", m.wantExcl, m.haveReply, m.acksGot, m.acksWanted)
}

// mshrBlocks returns the blocks the process has a miss outstanding on,
// ascending.
func (p *Proc) mshrBlocks() []int {
	blks := make([]int, 0, len(p.mshr))
	for blk := range p.mshr {
		blks = append(blks, blk)
	}
	sort.Ints(blks)
	return blks
}

// dumpProtocolState describes protocol state for watchdog stall dumps: every
// process, whether it has exited or is in protocol code and the work it has
// open (Proc.openWork), then the work open elsewhere (System.openWork). It
// describes a run that is ending.
func (s *System) dumpProtocolState() string {
	out := "protocol state:"
	for _, p := range s.procs {
		out += "\n  " + p.String()
		if p.exited {
			out += " exited"
		}
		if p.inProtocol {
			out += " in-protocol"
		}
		out += p.openWork()
	}
	for _, w := range s.openWork() {
		out += "\n  " + w
	}
	return out
}

// QuiescenceError reports a run that ended with protocol work left over,
// one item of it per entry: a process's, or one open elsewhere.
type QuiescenceError struct{ Left []string }

func (e *QuiescenceError) Error() string {
	return "core: the run ended with work left: " + strings.Join(e.Left, "; ")
}

// quiescent returns a QuiescenceError listing the protocol work left open
// anywhere, nil if there is none.
func (s *System) quiescent() error {
	var left []string
	for _, p := range s.procs {
		if w := p.openWork(); w != "" {
			left = append(left, p.String()+w)
		}
	}
	if left = append(left, s.openWork()...); left == nil {
		return nil
	}
	return &QuiescenceError{Left: left}
}

// openWork describes the protocol work p has open, "" if none: its misses
// and the requests deferred behind them, the downgrade records it opened,
// the messages on its own queues by kind, and its live retransmit entries.
func (p *Proc) openWork() string {
	out := ""
	if p.outstanding > 0 {
		out += fmt.Sprintf(" outstanding=%d mshr=[", p.outstanding)
		for _, blk := range p.mshrBlocks() {
			out += fmt.Sprintf("%d(%v)", blk, p.mshr[blk])
		}
		out += "]"
	}
	for _, m := range p.deferredReqs {
		out += fmt.Sprintf(" deferred[%d]=%s:p%d", m.block, m.kind, m.reqProc)
	}
	for _, r := range p.mem.dgs {
		if r.opener == p.ID {
			out += fmt.Sprintf(" downgrade[%d]=%d", r.block, r.pending)
		}
	}
	if q := queued(p.replyQ); q != "" {
		out += " replyQ=" + q
	}
	if q := queued(p.reqQ); q != "" {
		out += " reqQ=" + q
	}
	unacked := 0
	for _, e := range p.retx {
		if !e.acked {
			unacked++
		}
	}
	if unacked > 0 {
		out += fmt.Sprintf(" unacked-sends=%d", unacked)
	}
	return out
}

// openWork lists the protocol work open outside the processes, one item
// each: the shared queues' messages by kind, the arrivals resequencers
// hold, the home records not at rest, and the MP locks held or queued for.
func (s *System) openWork() (left []string) {
	add := func(format string, args ...any) { left = append(left, fmt.Sprintf(format, args...)) }
	for i, c := range s.cpus {
		if q := queued(c.reqQ); q != "" {
			add("cpu%d sharedQ=%s", i, q)
		}
	}
	for a, mem := range s.agents {
		if q := queued(mem.reqQ); q != "" {
			add("agent%d agentQ=%s", a, q)
		}
	}
	held := 0
	for _, r := range s.reseq {
		if r != nil {
			held += len(r.held)
		}
	}
	if held > 0 {
		add("resequencers hold %d arrivals", held)
	}
	for _, blk := range s.blocks {
		if h := &s.homes[blk.id]; !s.blockQuiet(blk) {
			add("block %d: busy=%v owner=%d pending=%d queued=%d", blk.id, h.busy, h.owner, h.pendingOwner, len(h.queue))
		}
	}
	for _, lk := range s.locks {
		if lk.held || len(lk.waiters) > 0 {
			add("MP lock %d: held=%v queued=%v", lk.id, lk.held, lk.waiters)
		}
		for a, sl := range lk.slots {
			if sl.busy || len(sl.waiters) > 0 {
				add("MP lock %d agent%d slot: busy=%v queued=%v", lk.id, a, sl.busy, sl.waiters)
			}
		}
	}
	return left
}

// queued describes the messages on a queue by kind, "" if it has none.
func queued(b *queueBox) string {
	if b == nil || b.q.Len() == 0 {
		return ""
	}
	kinds := make([]int, len(msgKindNames))
	b.q.Each(func(m msg, _ sim.Time) { kinds[m.kind]++ })
	var out []string
	for k, n := range kinds {
		if n > 0 {
			out = append(out, fmt.Sprintf("%d %s", n, msgKind(k)))
		}
	}
	return "[" + strings.Join(out, ", ") + "]"
}
