package core

import (
	"fmt"
	"slices"

	"repro/internal/memchannel"
	"repro/internal/sim"
)

// ConsistencyModel selects how the protocol orders memory operations (§3.2).
type ConsistencyModel int

const (
	// ReleaseConsistent models the Alpha memory model: stores miss without
	// blocking, and memory barriers stall until all outstanding operations
	// complete ("RC" in Figure 4).
	ReleaseConsistent ConsistencyModel = iota
	// SequentiallyConsistent stalls on every store miss until all
	// invalidation acknowledgments have been received ("SC" in Figure 4);
	// supports binaries for strict architectures such as MIPS and x86.
	SequentiallyConsistent
)

func (m ConsistencyModel) String() string {
	if m == SequentiallyConsistent {
		return "SC"
	}
	return "RC"
}

// SharedBase is the lowest shared virtual address; addresses below it are
// private (static and stack data, never checked — §2.2).
const SharedBase uint64 = 1 << 32

// CostModel holds every instruction-count and latency constant of the
// simulation, calibrated to the paper's prototype (see DESIGN.md §3).
// All values are in cycles of the modeled 300 MHz processor.
type CostModel struct {
	LoadCheck       sim.Time // flag-technique load check fast path (§2.2)
	FullCheck       sim.Time // full state-table check ("about seven instructions")
	Poll            sim.Time // message poll, "three instructions" (§2.1)
	ProtocolEntry   sim.Time // entering/leaving in-line protocol code
	MsgSend         sim.Time // composing and posting one message
	MsgHandle       sim.Time // servicing one protocol message
	NodeFill        sim.Time // SMP: fill private table entry from shared table
	QueueLock       sim.Time // SMP: lock/unlock a shared message queue (§4.3.2)
	MBBase          sim.Time // memory-barrier protocol check, Base-Shasta (§6.2)
	MBSMP           sim.Time // memory-barrier protocol check, SMP-Shasta (§6.2)
	SyncLocal       sim.Time // one MP lock/barrier step in agent memory (see sync.go)
	DirectDowngrade sim.Time // directly editing another process's table (§4.3.4)
	DowngradeHandle sim.Time // servicing an explicit downgrade message
	LLSCExtra       sim.Time // in-line state save/branch around LL...SC (§3.1.2)

	// Scheduling.
	Quantum   sim.Time
	CtxSwitch sim.Time

	// Syscall base costs (standard application, Table 2, col 1).
	SyscallOpen     sim.Time
	SyscallReadBase sim.Time // fixed cost of a read()
	ReadPerByte     float64  // copy cost per byte of a read/write
	SyscallTrap     sim.Time // generic trap overhead for cheap calls
	ValidateRange   sim.Time // wrapper cost per argument range validated
	DiskAccess      sim.Time // cost of a (cold) disk access in clusterfs
}

// DefaultCostModel returns constants calibrated to the paper's cluster.
func DefaultCostModel() CostModel {
	return CostModel{
		LoadCheck:       3,
		FullCheck:       7,
		Poll:            3,
		ProtocolEntry:   96, // 0.32 us: base-Shasta MB check is one protocol call
		MsgSend:         260,
		MsgHandle:       750, // 2.5 us of handler work
		NodeFill:        180, // 0.6 us intra-node state upgrade
		QueueLock:       110,
		MBBase:          96,  // 0.32 us (§6.2)
		MBSMP:           504, // 1.68 us (§6.2)
		SyncLocal:       220,
		DirectDowngrade: 90,
		DowngradeHandle: 300,
		LLSCExtra:       6,
		Quantum:         sim.Cycles(3000), // 3 ms time slice
		CtxSwitch:       sim.Cycles(25),
		SyscallOpen:     sim.Cycles(58), // Table 2
		SyscallReadBase: sim.Cycles(11.4),
		ReadPerByte:     1.64, // cycles/byte: read(65536) ≈ 370 us (Table 2)
		SyscallTrap:     sim.Cycles(5),
		ValidateRange:   sim.Cycles(3),
		DiskAccess:      sim.Cycles(9000), // 9 ms
	}
}

// Config describes a Shasta cluster and protocol configuration.
type Config struct {
	Nodes       int
	CPUsPerNode int

	// LineSize is the fixed state-table granularity in bytes (§2.1;
	// typically 64 or 128). Must be a multiple of 8.
	LineSize int
	// SharedBytes is the size of the shared virtual region.
	SharedBytes int

	// SMP enables SMP-Shasta (§2.3): processes on a node share data at
	// hardware speed, with private state tables and downgrade messages.
	// When false the system is Base-Shasta: every process is its own
	// coherence agent, even within a node.
	SMP bool

	Consistency ConsistencyModel

	// FlagCheck enables the invalid-flag load-check optimization (§2.2).
	FlagCheck bool
	// PrefetchExclusive enables the prefetch before LL/SC loops (§3.1.2).
	PrefetchExclusive bool
	// DirectDowngrade enables direct editing of a descheduled process's
	// private state table (§4.3.4).
	DirectDowngrade bool
	// SharedQueues lets every process on a CPU service requests addressed
	// to any process on that CPU (§4.3.2). Replies are still private.
	SharedQueues bool
	// ProtocolProcs spawns one low-priority protocol process per CPU that
	// serves incoming requests, its CPU's and its agent's, when every
	// application process on the CPU is blocked, descheduled or done
	// (§4.3.2, the "general solution"). It has no program: it waits off its
	// CPU, as an exited process does, until a request is put on a queue it
	// serves.
	ProtocolProcs bool
	// EmulateLLSC forces the conservative lock-flag/lock-address emulation
	// of LL/SC instead of the optimized scheme (§3.1.2 footnote).
	EmulateLLSC bool
	// Checks disables all in-line check costs when false, modeling the
	// original un-instrumented binary (Table 3 baselines).
	Checks bool

	// PollInterval is the average spacing, in cycles, of loop back-edge
	// polls inserted by the rewriter, applied during Compute.
	PollInterval sim.Time

	Cost CostModel
	Net  memchannel.Config

	// Faults injects deterministic network faults (drop, duplicate,
	// reorder, partition, crash); see memchannel.FaultConfig and
	// memchannel.FaultProfile. Enabling faults forces ReliableDelivery.
	Faults memchannel.FaultConfig

	// ReliableDelivery runs the reliability sublayer (per-link sequence
	// numbers, duplicate suppression, ack/retransmit with exponential
	// backoff) under the coherence protocol. Off by default so fault-free
	// runs keep the paper's exact timing; forced on when Faults is set.
	ReliableDelivery bool

	// Protocol names the coherence backend ("dirinval", "tardis"); empty
	// selects "dirinval", the paper's directory-invalidation protocol.
	// ProtocolNames lists them.
	Protocol string

	// MaxTime aborts runs that exceed this simulated time (safety net).
	MaxTime sim.Time

	// WatchdogCycles is the stall-watchdog budget: if no process performs
	// charged work for this many simulated cycles the run fails with a
	// diagnostic dump (sim.StallError) instead of crawling toward MaxTime.
	// 0 selects the default budget; negative disables the watchdog.
	WatchdogCycles sim.Time

	// Seed makes workload randomness reproducible.
	Seed int64
}

// DefaultConfig returns the paper's standard configuration: four 4-CPU SMP
// nodes, 64-byte lines, SMP-Shasta, release consistency, all optimizations
// enabled.
func DefaultConfig() Config {
	return Config{
		Nodes:             4,
		CPUsPerNode:       4,
		LineSize:          64,
		SharedBytes:       4 << 20,
		SMP:               true,
		Consistency:       ReleaseConsistent,
		FlagCheck:         true,
		PrefetchExclusive: false, // paper default: off (evaluated separately)
		DirectDowngrade:   true,
		SharedQueues:      true,
		ProtocolProcs:     false,
		Checks:            true,
		PollInterval:      120,
		Cost:              DefaultCostModel(),
		Net:               memchannel.DefaultConfig(),
		Seed:              1,
	}
}

func (c *Config) validate() {
	if c.Nodes <= 0 || c.CPUsPerNode <= 0 {
		panic("core: topology must be positive")
	}
	if c.LineSize <= 0 || c.LineSize%8 != 0 {
		panic("core: LineSize must be a positive multiple of 8")
	}
	if c.SharedBytes%c.LineSize != 0 {
		panic("core: SharedBytes must be a multiple of LineSize")
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 120
	}
	if !c.SMP {
		// Shared queues and per-CPU protocol processes mutate node-level
		// agent state and so require the SMP protocol.
		c.SharedQueues = false
		c.ProtocolProcs = false
	}
	if c.Faults.Enabled() {
		c.ReliableDelivery = true
	}
	if c.Protocol == "" {
		c.Protocol = "dirinval"
	}
	if !slices.Contains(ProtocolNames(), c.Protocol) {
		panic(fmt.Sprintf("core: unknown protocol %q (have %v)", c.Protocol, ProtocolNames()))
	}
	if c.WatchdogCycles == 0 {
		// Default budget: far above any legitimate no-progress gap (protocol
		// polling rounds are ~100 cycles, quanta are ~1e6), far below the
		// MaxTime safety net.
		c.WatchdogCycles = 15_000_000
	}
}
