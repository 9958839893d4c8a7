// Package cliflags registers the simulation flags shared by the Shasta
// command-line tools (shasta-run, shasta-bench, shasta-check), so that
// -engine, -workers, -fault-profile, -fault-seed, and -protocol are
// spelled, documented, and validated identically everywhere. Each tool
// registers the subset that applies to it and resolves the values into
// core build options through one code path.
package cliflags

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/load"
	"repro/internal/memchannel"
	"repro/internal/sim"
)

// Sim holds the shared simulation flag values.
type Sim struct {
	Engine       string
	Workers      int
	FaultProfile string
	FaultSeed    int64
	Protocol     string
}

// RegisterSim registers the full shared flag set on fs: -engine,
// -workers, -fault-profile, -fault-seed, and -protocol. Pass
// flag.CommandLine for tools that use the global flag set.
func RegisterSim(fs *flag.FlagSet) *Sim {
	s := &Sim{}
	fs.StringVar(&s.Engine, "engine", "seq",
		"simulation engine: seq (the built-in driver: one thread, per-node lookahead windows) or parallel (the same shards in rounds on a worker pool; identical output)")
	fs.IntVar(&s.Workers, "workers", 0,
		"parallel engine worker-pool size (0 = one per host core)")
	fs.StringVar(&s.FaultProfile, "fault-profile", "none",
		fmt.Sprintf("network fault profile: %v", memchannel.FaultProfiles()))
	fs.Int64Var(&s.FaultSeed, "fault-seed", 1,
		"seed for the deterministic fault schedule")
	RegisterProtocol(fs, &s.Protocol)
	return s
}

// RegisterProtocol registers just -protocol on fs, for tools (the model
// checker) that have no engine or network surface.
func RegisterProtocol(fs *flag.FlagSet, p *string) {
	fs.StringVar(p, "protocol", "dirinval",
		fmt.Sprintf("coherence protocol backend: %v", core.ProtocolNames()))
}

// RegisterProtocolSweep registers -protocol in its sweep form — a
// comma-separated backend list, or "all" — for tools that check every
// requested backend in one invocation (shasta-check).
func RegisterProtocolSweep(fs *flag.FlagSet) *string {
	return fs.String("protocol", "dirinval",
		fmt.Sprintf("comma-separated coherence backends to sweep, or \"all\": %v", core.ProtocolNames()))
}

// ParseProtocolList expands a sweep-form -protocol value into backend
// names, validating each against the registry.
func ParseProtocolList(s string) ([]string, error) {
	if s == "all" {
		return core.ProtocolNames(), nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if err := ValidateProtocol(p); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// ValidateProtocol rejects names absent from the backend registry.
func ValidateProtocol(p string) error {
	if p == "" {
		return nil
	}
	for _, n := range core.ProtocolNames() {
		if n == p {
			return nil
		}
	}
	return fmt.Errorf("unknown protocol %q (have %v)", p, core.ProtocolNames())
}

// Load holds the shared multi-tenant load-generator flag values.
type Load struct {
	Tenants   int
	Arrival   string
	LB        string
	Admission string
	SLO       int64
}

// RegisterLoad registers the shared load-generator flag set on fs:
// -tenants, -arrival, -lb, -admission, and -slo. Tools treat -tenants 0
// as "loadgen mode off".
func RegisterLoad(fs *flag.FlagSet) *Load {
	l := &Load{}
	fs.IntVar(&l.Tenants, "tenants", 0,
		"multi-tenant load: tenant count (0 = loadgen mode off)")
	fs.StringVar(&l.Arrival, "arrival", "mixed",
		"arrival process for every tenant: mixed (round-robin poisson/bursty/diurnal), poisson, bursty, or diurnal")
	fs.StringVar(&l.LB, "lb", "locality",
		"load-balancer placement policy: rr, least, or locality")
	fs.StringVar(&l.Admission, "admission", "none",
		"admission control under overload: none, queue, or shed")
	fs.Int64Var(&l.SLO, "slo", 0,
		"per-tenant latency SLO in simulated cycles (0 = the population default)")
	return l
}

// TenantSet resolves the flags into a tenant population: DefaultTenants
// seeded with seed at ratePerMCycle, with the -arrival and -slo overrides
// applied uniformly.
func (l *Load) TenantSet(seed int64, ratePerMCycle float64) ([]load.TenantConfig, error) {
	if l.Tenants <= 0 {
		return nil, fmt.Errorf("cliflags: -tenants must be positive, got %d", l.Tenants)
	}
	ts := load.DefaultTenants(l.Tenants, seed, ratePerMCycle)
	switch l.Arrival {
	case "mixed": // keep DefaultTenants' round-robin models
	case "poisson", "bursty", "diurnal":
		for i := range ts {
			ts[i].Arrival = l.Arrival
		}
	default:
		return nil, fmt.Errorf("cliflags: unknown arrival process %q (want mixed, poisson, bursty, or diurnal)", l.Arrival)
	}
	if l.SLO != 0 {
		for i := range ts {
			ts[i].SLOCycles = sim.Time(l.SLO)
		}
	}
	return ts, nil
}

// Config assembles the flags into a load.Config over the given arrival
// horizon, validating the policy and admission names through the same
// registries load.Run uses.
func (l *Load) Config(horizon sim.Time, seed int64, ratePerMCycle float64) (load.Config, error) {
	ts, err := l.TenantSet(seed, ratePerMCycle)
	if err != nil {
		return load.Config{}, err
	}
	if _, err := load.NewPolicy(l.LB); err != nil {
		return load.Config{}, err
	}
	switch l.Admission {
	case "none", "queue", "shed":
	default:
		return load.Config{}, fmt.Errorf("cliflags: unknown admission mode %q (want none, queue, or shed)", l.Admission)
	}
	return load.Config{
		Tenants:   ts,
		Horizon:   horizon,
		Policy:    l.LB,
		Admission: l.Admission,
	}, nil
}

// Options resolves the flag values into core build options: engine
// selection, fault injection (when a profile is enabled), and the
// coherence backend.
func (s *Sim) Options() ([]core.Option, error) {
	workers, err := experiments.ParseEngine(s.Engine, s.Workers)
	if err != nil {
		return nil, err
	}
	opts := experiments.EngineOptions(workers)
	fc, err := memchannel.FaultProfile(s.FaultProfile, s.FaultSeed)
	if err != nil {
		return nil, err
	}
	if fc.Enabled() {
		opts = append(opts, core.WithFaults(fc))
	}
	if err := ValidateProtocol(s.Protocol); err != nil {
		return nil, err
	}
	if s.Protocol != "" {
		opts = append(opts, core.WithProtocol(s.Protocol))
	}
	return opts, nil
}
