// Package clusteros extends operating-system services across the Shasta
// cluster (§4), making system calls work transparently as if all processes
// were on one machine:
//
//   - system call arguments referencing shared memory are validated through
//     the batch mechanism before the call is made (§4.1);
//   - process-management calls — fork, exit, wait, kill, getpid, pid_block,
//     pid_unblock — work across nodes with global process IDs (§4.2);
//   - shared-memory segments (shmget/shmat) are allocated from the global
//     shared region (§4.2);
//   - file system calls go to an NFS-style cluster file system (§4.2).
//
// Unlike cluster operating systems (Locus, Sprite, Solaris-MC), all of this
// is implemented by replacing system call routines in the application, not
// by modifying the kernel.
package clusteros

import (
	"fmt"

	"repro/internal/clusterfs"
	"repro/internal/core"
	"repro/internal/sim"
)

// Message tags for OS-level user messages.
const (
	tagChildExit = iota + 1
	tagSignal
	tagJoin
)

// OS is the cluster operating system layer for one Shasta system.
type OS struct {
	sys *core.System
	fs  *clusterfs.FS

	nextPID  int
	byPID    map[int]*PState
	byProc   map[int]*PState
	segments map[int]segment
	nextSeg  int

	// ForkCopyBytes is the amount of writable non-shared data (stack and
	// static areas) copied to a forked child (§4.2).
	ForkCopyBytes int
}

type segment struct {
	addr uint64
	size int
}

// PState is the per-process OS state.
type PState struct {
	PID      int
	Proc     *core.Proc
	Parent   int // parent PID, 0 for the initial process
	children map[int]bool
	// zombies are exited children not yet reaped by Wait.
	zombies []exitRecord
	blocked bool // in pid_block
	// unblockPending counts pid_unblocks that arrived while the process
	// was not blocked; the next pid_block consumes one instead of
	// sleeping (the kernel's semaphore-like semantics).
	unblockPending int
	signals        []int
	fds            map[int]*fd
	nextFD         int
	exited         bool
	status         int
}

type exitRecord struct {
	pid    int
	status int
}

type fd struct {
	path string
	off  int
}

// New creates the OS layer and installs its message handler. The OS signals
// and forks across nodes with no latency, which only strict global order
// runs exactly: build sys on one scheduling shard (core.WithOS, which Build
// applies, or Config.ProtocolProcs). On per-node shards the engine fails the
// run at the first such signal or fork.
func New(sys *core.System, fs *clusterfs.FS) *OS {
	os := &OS{
		sys:           sys,
		fs:            fs,
		nextPID:       100,
		byPID:         make(map[int]*PState),
		byProc:        make(map[int]*PState),
		segments:      make(map[int]segment),
		ForkCopyBytes: 256 << 10,
	}
	sys.SetUserHandler(os.handleMessage)
	return os
}

// FS returns the cluster file system.
func (os *OS) FS() *clusterfs.FS { return os.fs }

// Attach registers an already-spawned process with the OS, assigning a
// global PID. The initial processes of an application call this first.
func (os *OS) Attach(p *core.Proc) *PState {
	if st := os.byProc[p.ID]; st != nil {
		return st
	}
	os.nextPID++
	st := &PState{
		PID:      os.nextPID,
		Proc:     p,
		children: make(map[int]bool),
		fds:      make(map[int]*fd),
		nextFD:   3,
	}
	os.byPID[st.PID] = st
	os.byProc[p.ID] = st
	p.OSData = st
	return st
}

func (os *OS) state(p *core.Proc) *PState {
	st := os.byProc[p.ID]
	if st == nil {
		panic(fmt.Sprintf("clusteros: process %v never attached", p))
	}
	return st
}

// Getpid returns the global process ID (§4.2).
func (os *OS) Getpid(p *core.Proc) int {
	p.ChargeTime(core.CatTask, os.sys.Cfg.Cost.SyscallTrap)
	return os.state(p).PID
}

// Fork creates a copy of the calling process that runs body on the given
// CPU — possibly on another node (§4.2). The child gets a unique global
// PID; the parent's writable non-shared data (stack and static areas) is
// copied explicitly. The new process shares the Shasta shared region and
// protocol state. It returns the child's PID.
//
// As in the paper's implementation, the remote fork does not duplicate all
// process state (open file descriptors are not inherited).
func (os *OS) Fork(p *core.Proc, cpu int, body func(child *core.Proc)) int {
	parent := os.state(p)
	os.emitSyscall(p, "fork", int64(cpu))
	p.SyscallEnter()
	defer p.SyscallExit()
	p.Stats().N[core.CntForks]++
	cost := os.sys.Cfg.Cost.SyscallTrap +
		sim.Time(float64(os.ForkCopyBytes)*os.sys.Net.Config().IntraNodeCyclesPerByte)
	if os.sys.Eng.NodeOf(cpu) != p.Node() {
		// Copying the parent image to another node crosses the network.
		cost = os.sys.Cfg.Cost.SyscallTrap +
			sim.Time(float64(os.ForkCopyBytes)*os.sys.Net.Config().CyclesPerByte)
	}
	p.ChargeTime(core.CatTask, cost)

	os.nextPID++
	childPID := os.nextPID
	st := &PState{
		PID:      childPID,
		Parent:   parent.PID,
		children: make(map[int]bool),
		fds:      make(map[int]*fd),
		nextFD:   3,
	}
	os.byPID[childPID] = st
	child := os.sys.SpawnAt(fmt.Sprintf("pid%d", childPID), cpu, p.Now(), func(cp *core.Proc) {
		body(cp)
		os.exit(cp, 0)
	})
	st.Proc = child
	os.byProc[child.ID] = st
	child.OSData = st
	parent.children[childPID] = true
	return childPID
}

// Exit terminates the calling process with a status; information is sent
// to the parent so Wait works (§4.2). The process body should return right
// after calling Exit.
func (os *OS) Exit(p *core.Proc, status int) { os.exit(p, status) }

func (os *OS) exit(p *core.Proc, status int) {
	st := os.state(p)
	if st.exited {
		return
	}
	os.emitSyscall(p, "exit", int64(status))
	st.exited = true
	st.status = status
	if parent := os.byPID[st.Parent]; parent != nil && !parent.exited {
		p.SendUser(parent.Proc.ID, tagChildExit, exitRecord{pid: st.PID, status: status})
	}
}

// Wait blocks until a child exits and returns its PID and status (§4.2).
// It returns -1 if the process has no children outstanding.
func (os *OS) Wait(p *core.Proc) (pid, status int) {
	st := os.state(p)
	os.emitSyscall(p, "wait", 0)
	p.SyscallEnter()
	defer p.SyscallExit()
	p.ChargeTime(core.CatTask, os.sys.Cfg.Cost.SyscallTrap)
	if len(st.children) == 0 && len(st.zombies) == 0 {
		return -1, 0
	}
	for len(st.zombies) == 0 {
		os.blockInSyscall(p)
	}
	z := st.zombies[0]
	st.zombies = st.zombies[1:]
	delete(st.children, z.pid)
	return z.pid, z.status
}

// Kill sends a signal to another process anywhere on the cluster via a
// message (§4.2). Signals are delivered when the target checks with
// Sigpending or is woken from pid_block.
func (os *OS) Kill(p *core.Proc, pid, sig int) error {
	target := os.byPID[pid]
	if target == nil {
		return fmt.Errorf("clusteros: kill: no such pid %d", pid)
	}
	os.emitSyscall(p, "kill", int64(pid))
	p.ChargeTime(core.CatTask, os.sys.Cfg.Cost.SyscallTrap)
	p.SendUser(target.Proc.ID, tagSignal, sig)
	return nil
}

// Sigpending drains and returns pending signals for the calling process.
func (os *OS) Sigpending(p *core.Proc) []int {
	st := os.state(p)
	out := st.signals
	st.signals = nil
	return out
}

// PidBlock blocks the calling process until another process calls
// PidUnblock on it (§4.2); databases use this to wait for daemons.
func (os *OS) PidBlock(p *core.Proc) {
	st := os.state(p)
	os.emitSyscall(p, "pid_block", int64(st.PID))
	p.SyscallEnter()
	defer p.SyscallExit()
	p.ChargeTime(core.CatTask, os.sys.Cfg.Cost.SyscallTrap)
	if st.unblockPending > 0 {
		st.unblockPending--
		return
	}
	st.blocked = true
	for st.blocked {
		os.blockInSyscall(p)
	}
}

// PidUnblock wakes a process blocked in PidBlock (§4.2).
func (os *OS) PidUnblock(p *core.Proc, pid int) error {
	target := os.byPID[pid]
	if target == nil {
		return fmt.Errorf("clusteros: pid_unblock: no such pid %d", pid)
	}
	os.emitSyscall(p, "pid_unblock", int64(pid))
	p.ChargeTime(core.CatTask, os.sys.Cfg.Cost.SyscallTrap)
	wire := os.sys.Net.Deliver(p.Node(), target.Proc.Node(), 16, p.Now())
	if target.blocked {
		target.blocked = false
		target.Proc.Sim.NotifyAt(wire)
	} else {
		target.unblockPending++
	}
	return nil
}

// blockInSyscall parks the process in the kernel, releasing the CPU and
// accounting the time as blocked. While blocked, the process is outside
// application code, so direct downgrades may edit its state table (§4.3.4).
func (os *OS) blockInSyscall(p *core.Proc) {
	t0 := p.Now()
	p.Sim.Block()
	p.AccountWait(core.CatBlocked, p.Now()-t0)
}

// handleMessage applies an OS message to its target process's state (the
// servicing process may be any process on the target's CPU, or a protocol
// process, when the target is blocked — §4.3.2). The target is woken if it
// was waiting for the event.
func (os *OS) handleMessage(target *core.Proc, from int, tag int, payload any) {
	st := os.byProc[target.ID]
	if st == nil {
		return
	}
	switch tag {
	case tagChildExit:
		st.zombies = append(st.zombies, payload.(exitRecord))
		target.Sim.NotifyAt(target.Now())
	case tagSignal:
		st.signals = append(st.signals, payload.(int))
		target.Sim.NotifyAt(target.Now())
	case tagJoin:
		// A new process joined the group (§4.3.3); nothing to do beyond
		// the registration already performed by Join.
	}
}

// Join registers a late-starting process with an existing group, notifying
// the group leader via a signal-like message (§4.3.3) — how database server
// processes started by new clients join long-running daemons.
func (os *OS) Join(p *core.Proc, leaderPID int) *PState {
	st := os.Attach(p)
	if leader := os.byPID[leaderPID]; leader != nil {
		p.SendUser(leader.Proc.ID, tagJoin, st.PID)
	}
	return st
}

// Shmget creates a shared-memory segment of the given size in the global
// shared region and returns its ID (§4.2).
func (os *OS) Shmget(p *core.Proc, size int, opts core.AllocOptions) int {
	p.ChargeTime(core.CatTask, os.sys.Cfg.Cost.SyscallTrap)
	addr := os.sys.Alloc(size, opts)
	os.nextSeg++
	os.segments[os.nextSeg] = segment{addr: addr, size: size}
	return os.nextSeg
}

// Shmat attaches a segment and returns its address. Attaching at a caller-
// specified address is not supported, as in the paper (§4.2).
func (os *OS) Shmat(p *core.Proc, id int) (uint64, error) {
	p.ChargeTime(core.CatTask, os.sys.Cfg.Cost.SyscallTrap)
	seg, ok := os.segments[id]
	if !ok {
		return 0, fmt.Errorf("clusteros: shmat: no segment %d", id)
	}
	return seg.addr, nil
}

// SegSize returns the size of a segment.
func (os *OS) SegSize(id int) int { return os.segments[id].size }
