package clusteros

import (
	"strings"
	"testing"

	"repro/internal/clusterfs"
	"repro/internal/core"
	"repro/internal/sim"
)

func newOS(t *testing.T) (*core.System, *OS) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.SharedBytes = 512 << 10
	cfg.MaxTime = sim.Cycles(120e6)
	cfg.ProtocolProcs = true // daemons block in syscalls; someone must serve
	sys := core.Build(core.WithConfig(cfg))
	return sys, New(sys, clusterfs.New(cfg.Nodes))
}

func TestForkWaitAcrossNodes(t *testing.T) {
	sys, os := newOS(t)
	childRan := false
	var childNode int
	sys.Spawn("init", 0, func(p *core.Proc) {
		os.Attach(p)
		// Fork onto another node (§4.2).
		pid := os.Fork(p, sys.Eng.Config().CPUsPerNode, func(c *core.Proc) {
			childRan = true
			childNode = c.Node()
			c.Compute(5000)
		})
		if pid <= 0 {
			t.Errorf("fork returned %d", pid)
		}
		got, _ := os.Wait(p)
		if got != pid {
			t.Errorf("wait returned pid %d want %d", got, pid)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan || childNode != 1 {
		t.Fatalf("childRan=%v node=%d", childRan, childNode)
	}
}

func TestGlobalPIDsUnique(t *testing.T) {
	sys, os := newOS(t)
	pids := map[int]bool{}
	sys.Spawn("init", 0, func(p *core.Proc) {
		os.Attach(p)
		pids[os.Getpid(p)] = true
		for i := 0; i < 5; i++ {
			cpu := i % sys.Eng.NumCPUs()
			pid := os.Fork(p, cpu, func(c *core.Proc) {
				c.Compute(1000)
			})
			if pids[pid] {
				t.Errorf("duplicate pid %d", pid)
			}
			pids[pid] = true
		}
		for i := 0; i < 5; i++ {
			os.Wait(p)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPidBlockUnblock(t *testing.T) {
	sys, os := newOS(t)
	var daemonPID int
	woke := false
	sys.Spawn("init", 0, func(p *core.Proc) {
		os.Attach(p)
		daemonPID = os.Fork(p, sys.Eng.Config().CPUsPerNode, func(c *core.Proc) {
			os.PidBlock(c) // sleep until the server needs us
			woke = true
		})
		p.Compute(20000)
		if woke {
			t.Error("daemon woke before unblock")
		}
		os.PidUnblock(p, daemonPID)
		os.Wait(p)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if !woke {
		t.Fatal("daemon never woke")
	}
}

func TestKillSignalDelivery(t *testing.T) {
	sys, os := newOS(t)
	var got []int
	sys.Spawn("init", 0, func(p *core.Proc) {
		os.Attach(p)
		pid := os.Fork(p, 1, func(c *core.Proc) {
			for len(got) == 0 {
				c.Compute(500)
				got = append(got, os.Sigpending(c)...)
			}
		})
		p.Compute(5000)
		if err := os.Kill(p, pid, 15); err != nil {
			t.Error(err)
		}
		os.Wait(p)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 15 {
		t.Fatalf("signals=%v", got)
	}
}

func TestShmgetShmatSharing(t *testing.T) {
	sys, os := newOS(t)
	sys.Spawn("init", 0, func(p *core.Proc) {
		os.Attach(p)
		seg := os.Shmget(p, 4096, core.AllocOptions{Home: core.HomeAt(0)})
		addr, err := os.Shmat(p, seg)
		if err != nil {
			t.Error(err)
			return
		}
		p.Store(addr, 12345)
		p.MemBar()
		// Child on another node attaches the same segment and reads.
		os.Fork(p, sys.Eng.Config().CPUsPerNode, func(c *core.Proc) {
			caddr, err := os.Shmat(c, seg)
			if err != nil {
				t.Error(err)
				return
			}
			if v := c.Load(caddr); v != 12345 {
				t.Errorf("child read %d", v)
			}
		})
		os.Wait(p)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFileReadWriteWithValidation(t *testing.T) {
	sys, os := newOS(t)
	os.FS().Create("/data")
	sys.Spawn("init", 0, func(p *core.Proc) {
		os.Attach(p)
		buf := sys.Alloc(8192, core.AllocOptions{Home: core.HomeAt(0)})
		// Fill the shared buffer, write it out, read it back elsewhere.
		for i := 0; i < 1024; i++ {
			p.Store(buf+uint64(i*8), uint64(i)*7)
		}
		p.MemBar()
		fd, err := os.Open(p, "/data", 0)
		if err != nil {
			t.Error(err)
			return
		}
		if n, err := os.Write(p, fd, buf, 8192); n != 8192 || err != nil {
			t.Errorf("write n=%d err=%v", n, err)
		}
		dst := sys.Alloc(8192, core.AllocOptions{Home: core.HomeAt(0)})
		os.Seek(p, fd, 0)
		if n, err := os.Read(p, fd, dst, 8192); n != 8192 || err != nil {
			t.Errorf("read n=%d err=%v", n, err)
		}
		for i := 0; i < 1024; i++ {
			if v := p.Load(dst + uint64(i*8)); v != uint64(i)*7 {
				t.Errorf("dst[%d]=%d", i, v)
				break
			}
		}
		os.Close(p, fd)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if st := sys.AggregateStats(); st.SyscallValidations() < 2 {
		t.Fatalf("validations=%d", st.SyscallValidations())
	}
}

// TestValidationCostShape checks Table 2's shape: reads into shared memory
// cost more than the standard call, and SMP-Shasta costs more than Base.
func TestValidationCostShape(t *testing.T) {
	measure := func(smp, shared bool) float64 {
		cfg := core.DefaultConfig()
		cfg.SMP = smp
		cfg.SharedBytes = 512 << 10
		cfg.MaxTime = sim.Cycles(120e6)
		sys := core.Build(core.WithConfig(cfg))
		os := New(sys, clusterfs.New(cfg.Nodes))
		os.FS().Create("/t")
		var avg float64
		sys.Spawn("m", 0, func(p *core.Proc) {
			os.Attach(p)
			buf := sys.Alloc(8192, core.AllocOptions{Home: core.HomeAt(0)})
			fd, _ := os.Open(p, "/t", 0)
			seed := sys.Alloc(8192, core.AllocOptions{Home: core.HomeAt(0)})
			os.Write(p, fd, seed, 8192) // populate the file
			var total sim.Time
			const reps = 10
			for i := 0; i < reps; i++ {
				os.Seek(p, fd, 0)
				t0 := p.Now()
				if shared {
					os.Read(p, fd, buf, 8192)
				} else {
					os.Read(p, fd, 0, 8192) // private buffer: no validation
				}
				total += p.Now() - t0
			}
			avg = sim.Microseconds(total) / reps
		})
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return avg
	}
	std := measure(true, false)
	base := measure(false, true)
	smp := measure(true, true)
	if !(std < base && base < smp) {
		t.Fatalf("read(8192) std=%.1f base=%.1f smp=%.1f want std<base<smp (Table 2)", std, base, smp)
	}
	if std < 30 || std > 90 {
		t.Fatalf("standard read(8192) = %.1fus, want ~51us", std)
	}
}

func TestJoinGroup(t *testing.T) {
	sys, os := newOS(t)
	var leaderPID int
	joined := false
	sys.Spawn("leader", 0, func(p *core.Proc) {
		st := os.Attach(p)
		leaderPID = st.PID
		for !joined {
			p.Compute(500)
		}
	})
	sys.Spawn("late", 1, func(p *core.Proc) {
		p.Compute(10000)
		st := os.Join(p, leaderPID)
		if st.PID == leaderPID {
			t.Error("joiner got leader's pid")
		}
		joined = true
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCrossNodeForkNeedsOneShard: the OS layer's cross-node signals and
// forks take no simulated time, so a system whose nodes run in lookahead
// windows (no WithOS, no ProtocolProcs) cannot carry them. The run fails at
// the fork and names the cause; it must not hang or drift.
func TestCrossNodeForkNeedsOneShard(t *testing.T) {
	sys := core.Build()
	os := New(sys, clusterfs.New(sys.Cfg.Nodes))
	sys.Spawn("init", 0, func(p *core.Proc) {
		os.Attach(p)
		p.Compute(1000)
		os.Fork(p, sys.Eng.Config().CPUsPerNode, func(c *core.Proc) {})
		os.Wait(p)
	})
	if err := sys.Run(); err == nil || !strings.Contains(err.Error(), "less than the lookahead (1200)") {
		t.Errorf("fork onto another node of a %d-shard system: want an error naming the lookahead, got %v", sys.Eng.NumShards(), err)
	}
}
