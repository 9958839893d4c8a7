package core

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// A spin on a word cached in node memory against its node-mate's write. On
// 2x2, the writer and the spinner share node 0 and the remote process homes
// the word on node 1. The writer takes the word exclusive and stores 1;
// the spinner reads 1 and spins while it reads 1; then, at spinWriteAt plus an
// offset, the writer writes the word in one of three ways: a store, an
// LL/SC, or (the remote having stored 2 meanwhile) the flag fill of the
// node's copy when it serves the remote's forwarded exclusive request at a
// poll. A fourth way, a fill's data, is spinFillAt's.
const spinWriteAt = 16_000

// spinFillAt is the writer's write for a fourth way, on Tardis only: the
// writer and the spinner hold the word shared under a lease, the remote
// stores 2 (a Tardis store invalidates no leased copy), and the writer's
// exclusive prefetch installs the new data in node memory. It comes before
// the spinner's first poll tick, which would drop the copy first.
const spinFillAt = 9_000

type spinTie struct {
	got   uint64   // what the spin returned
	ended sim.Time // the spinner's clock when it did
	wrote sim.Time // the writer's clock at its write
	// In closed form: whether the write fell on a load instant of the spin,
	// and the spin's first two load instants a few cycles past the write.
	tie   bool
	loads []sim.Time
}

func spinTieRun(t *testing.T, proto, kind string, writerFirst bool, offset sim.Time, pollEach bool) spinTie {
	t.Helper()
	cfg := testConfig()
	cfg.Protocol = proto
	cfg.Nodes, cfg.CPUsPerNode = 2, 2
	cfg.PrefetchExclusive = kind == "fill"
	tr := trace.NewBuffer()
	s := Build(WithConfig(cfg), WithTrace(tr))
	s.pollEach = pollEach
	var addr uint64
	var r spinTie
	var writer, spinner *Proc
	spin := func(p *Proc) {
		p.ChargeTime(CatTask, 8_000)
		r.got = p.SpinWhile(addr, 320, p.Load(addr), true)
		r.ended = p.Now()
	}
	write := func(p *Proc) {
		if kind == "fill" {
			p.Load(addr)
		} else {
			p.Store(addr, 1)
			p.MemBar()
		}
		at := sim.Time(spinWriteAt)
		if kind == "fill" {
			at = spinFillAt
		}
		p.ChargeTime(CatTask, at+offset-p.Now())
		switch kind {
		case "store":
			p.Store(addr, 3)
		case "sc":
			p.LoadLocked(addr)
			p.StoreCond(addr, 3)
		case "fill":
			p.PrefetchExclusive(addr)
			p.MemBar()
		default:
			p.Poll()
		}
	}
	if writerFirst {
		writer, spinner = s.Spawn("writer", 0, write), s.Spawn("spinner", 1, spin)
	} else {
		spinner, writer = s.Spawn("spinner", 0, spin), s.Spawn("writer", 1, write)
	}
	remote := s.Spawn("remote", 2, func(p *Proc) {
		switch kind {
		case "flag fill":
			p.Compute(6_000)
			p.Store(addr, 2)
			p.MemBar()
		case "fill":
			p.Compute(6_000)
			p.Store(addr, 2)
			p.MemBar()
		}
	})
	s.onStorePerform = func(p *Proc, _, v uint64) {
		if p == writer && v == 3 {
			r.wrote = p.Now()
		}
	}
	addr = s.Alloc(64, AllocOptions{Home: HomeAt(remote.ID)})
	if err := s.Run(); err != nil {
		t.Fatalf("%s %s offset %d pollEach=%v: %v", proto, kind, offset, pollEach, err)
	}
	for _, ev := range tr.TakeBuffered() {
		if ev.Cat == "line" && ev.P == writer.ID && (kind == "flag fill" && ev.Ev == downgradeSiteNames[Invalid] ||
			kind == "fill" && strings.HasPrefix(ev.Ev, "finish:grant")) {
			r.wrote = ev.T
		}
	}
	if r.wrote == 0 {
		t.Fatalf("%s %s offset %d: the writer did not write", proto, kind, offset)
	}
	if !pollEach {
		r.tie = spinner.loadAt(spinner.firstLoad(r.wrote)) == r.wrote
		j := spinner.firstLoad(r.wrote + 3)
		r.loads = []sim.Time{spinner.loadAt(j), spinner.loadAt(j + 1)}
	}
	return r
}

// TestSpinSeesWriteOnLoadInstant slides the write one cycle at a time across
// two of the spinner's load instants, with the writer on the lower and on
// the higher CPU, on both backends (the fill on Tardis, where a leased copy
// outlives a remote store): what the spin returns and when must be
// what the loop of Loads and Computes gives. A load sees a write at its own
// instant only from the lower ID (sawWrite). The spin's schedule does not
// depend on the offset until the write, which moves with it cycle for
// cycle, so the run at offset 0 says which offsets land on a load.
func TestSpinSeesWriteOnLoadInstant(t *testing.T) {
	for _, proto := range ProtocolNames() {
		kinds := []string{"store", "sc", "flag fill"}
		if proto == "tardis" {
			kinds = append(kinds, "fill")
		}
		for _, kind := range kinds {
			for _, writerFirst := range []bool{true, false} {
				at0 := spinTieRun(t, proto, kind, writerFirst, 0, false)
				ties := 0
				for _, load := range at0.loads {
					for offset := load - at0.wrote - 2; offset <= load-at0.wrote+2; offset++ {
						want := spinTieRun(t, proto, kind, writerFirst, offset, true)
						got := spinTieRun(t, proto, kind, writerFirst, offset, false)
						if got.tie {
							ties++
						}
						if got.got != want.got || got.ended != want.ended {
							t.Errorf("%s %s writer first %v, write at %d: spin read %d at %d in closed form, %d at %d polling",
								proto, kind, writerFirst, got.wrote, got.got, got.ended, want.got, want.ended)
						}
					}
				}
				if ties != len(at0.loads) {
					t.Errorf("%s %s writer first %v: %d writes fell on a load instant, want %d", proto, kind, writerFirst, ties, len(at0.loads))
				}
			}
		}
	}
}
