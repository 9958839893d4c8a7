package modelcheck

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// Model is a named, checkable protocol configuration: small programs
// over one or two coherence blocks, sized for exhaustive exploration.
type Model struct {
	Name        string
	Description string
	Cfg         core.ExpConfig
}

// WithConsistency returns a copy of the model under the given
// consistency model.
func (m Model) WithConsistency(c core.ConsistencyModel) Model {
	m.Cfg.Consistency = c
	return m
}

// WithProtocol returns a copy of the model running on the named
// coherence backend (see core.ProtocolNames).
func (m Model) WithProtocol(p string) Model {
	m.Cfg.Protocol = p
	return m
}

// Models returns the built-in model catalogue. Every model uses
// one-line blocks of two words; Homes[i] is the home process of block
// i, and words 2i, 2i+1 live on block i.
func Models() []Model {
	return []Model{
		{
			Name:        "2p1b",
			Description: "2 processes racing writes and reads on one block (exhaustive baseline)",
			Cfg: core.ExpConfig{
				Programs: [][]core.ExpOp{
					{{Kind: core.ExpWrite, Word: 0, Val: 1}, {Kind: core.ExpRead, Word: 0}},
					{{Kind: core.ExpWrite, Word: 0, Val: 2}, {Kind: core.ExpRead, Word: 0}},
				},
				Homes: []int{0},
			},
		},
		{
			Name:        "3p1b",
			Description: "3 processes (two writers, one double reader) on one block",
			Cfg: core.ExpConfig{
				Programs: [][]core.ExpOp{
					{{Kind: core.ExpWrite, Word: 0, Val: 1}, {Kind: core.ExpRead, Word: 0}},
					{{Kind: core.ExpWrite, Word: 0, Val: 2}, {Kind: core.ExpRead, Word: 0}},
					{{Kind: core.ExpRead, Word: 0}, {Kind: core.ExpRead, Word: 0}},
				},
				Homes: []int{0},
			},
		},
		{
			Name:        "2p2b",
			Description: "2 processes, 2 blocks, crossed writes and reads (exercises ownership transfer)",
			Cfg: core.ExpConfig{
				Programs: [][]core.ExpOp{
					{{Kind: core.ExpWrite, Word: 0, Val: 1}, {Kind: core.ExpRead, Word: 2}},
					{{Kind: core.ExpWrite, Word: 2, Val: 1}, {Kind: core.ExpRead, Word: 0}},
				},
				Homes: []int{0, 1},
			},
		},
		{
			Name:        "llsc",
			Description: "2 processes contending with LL/SC on one block (atomicity of successful SCs)",
			Cfg: core.ExpConfig{
				Programs: [][]core.ExpOp{
					{{Kind: core.ExpLL, Word: 0}, {Kind: core.ExpSC, Word: 0, Val: 1}},
					{{Kind: core.ExpLL, Word: 0}, {Kind: core.ExpSC, Word: 0, Val: 2}},
				},
				Homes: []int{0},
			},
		},
		{
			Name:        "mp",
			Description: "message-passing litmus: W x; W y || R y; R x (blocks homed at the opposite process)",
			Cfg: core.ExpConfig{
				Programs: [][]core.ExpOp{
					{{Kind: core.ExpWrite, Word: 0, Val: 1}, {Kind: core.ExpWrite, Word: 2, Val: 1}},
					{{Kind: core.ExpRead, Word: 2}, {Kind: core.ExpRead, Word: 0}},
				},
				Homes: []int{1, 0},
			},
		},
		{
			Name:        "sb",
			Description: "store-buffering litmus: W x; R y || W y; R x (blocks homed at the opposite process)",
			Cfg: core.ExpConfig{
				Programs: [][]core.ExpOp{
					{{Kind: core.ExpWrite, Word: 0, Val: 1}, {Kind: core.ExpRead, Word: 2}},
					{{Kind: core.ExpWrite, Word: 2, Val: 1}, {Kind: core.ExpRead, Word: 0}},
				},
				Homes: []int{1, 0},
			},
		},
		{
			Name:        "mig",
			Description: "migratory sharing: 2 processes read then write one block, a third reads it twice (a read granted exclusive, then given up unwritten)",
			Cfg: core.ExpConfig{
				Programs: [][]core.ExpOp{
					{{Kind: core.ExpRead, Word: 0}, {Kind: core.ExpWrite, Word: 0, Val: 1}},
					{{Kind: core.ExpRead, Word: 0}, {Kind: core.ExpWrite, Word: 0, Val: 2}},
					{{Kind: core.ExpRead, Word: 0}, {Kind: core.ExpRead, Word: 0}},
				},
				Homes: []int{0},
			},
		},
		{
			Name:        "mig-llsc",
			Description: "migratory sharing beside LL/SC: 2 processes read then write one block, a third LL/SCs it (a migratory grant to a read that absorbed an invalidation)",
			Cfg: core.ExpConfig{
				Programs: [][]core.ExpOp{
					{{Kind: core.ExpRead, Word: 0}, {Kind: core.ExpWrite, Word: 0, Val: 1}},
					{{Kind: core.ExpLL, Word: 0}, {Kind: core.ExpSC, Word: 0, Val: 2}},
					{{Kind: core.ExpRead, Word: 0}, {Kind: core.ExpWrite, Word: 0, Val: 3}},
				},
				Homes: []int{0},
			},
		},
		{
			Name:        "broken-upgrade",
			Description: "deliberately broken variant: the upgrade requester skips one InvalAck (must violate swmr)",
			Cfg: core.ExpConfig{
				Programs: [][]core.ExpOp{
					nil,
					{{Kind: core.ExpRead, Word: 0}, {Kind: core.ExpWrite, Word: 0, Val: 1}},
					{{Kind: core.ExpRead, Word: 0}},
				},
				Homes:  []int{0},
				Broken: true,
			},
		},
	}
}

// ModelByName looks up a built-in model.
func ModelByName(name string) (Model, error) {
	var names []string
	for _, m := range Models() {
		if m.Name == name {
			return m, nil
		}
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return Model{}, fmt.Errorf("unknown model %q (have %v)", name, names)
}
