// Package algo is the planner registry: the single source of truth for
// every gossip algorithm the portfolio ships. The public
// multigossip.Algorithm and the internal core.Algorithm are both type
// aliases of ID, so an algorithm's identity, canonical name, accepted
// spellings, capability flags and registered rounds bound live here and
// nowhere else — the two enums that used to be defined independently (and
// could silently desync as the portfolio grew) cannot drift apart any more.
//
// Builders do not live here: an entry's constructor needs graph, schedule
// and planner packages that sit above this one in the import graph, so the
// facade keeps a builder table keyed by ID and a test asserts the table
// covers the registry exactly.
package algo

import (
	"fmt"
	"sort"
	"strings"
)

// ID identifies a registered algorithm. The zero value is
// ConcurrentUpDown, the paper's contribution and the default everywhere.
type ID int

// The registered algorithms. Values are stable: they key the plan cache
// and the disk store, so appending is safe and reordering is not.
const (
	// ConcurrentUpDown is the paper's contribution: n + r rounds (Theorem 1).
	ConcurrentUpDown ID = iota
	// Simple is the baseline of Lemma 1: 2n + r - 3 rounds.
	Simple
	// Pipelined gossips by concurrent pipelined tree floods (no gather
	// phase), after De Florio & Blondia's pipelined gossiping.
	Pipelined
	// Algebraic is the randomized network-coded baseline after Haeupler:
	// seeded GF(2) coded packets, expected-rounds reporting.
	Algebraic
	// Weighted is the paper's Section 4 weighted gossiping via virtual
	// vertex chains, run with unit counts when selected as a plain planner:
	// the expansion is then the network itself, so the plan is
	// ConcurrentUpDown's.
	Weighted
	// Beep is the collision-constrained variant (Hounkanli & Pelc; Wu &
	// Chrobak): a transmission reaches every neighbour and a processor
	// hearing two transmitters in one round receives nothing.
	Beep

	numAlgorithms // sentinel: one past the last registered ID
)

// BoundParams feeds an entry's rounds-bound predicate. For weighted
// gossiping with non-unit counts, Messages and ExpandedRadius describe the
// chain expansion; every other entry sees Messages == N and
// ExpandedRadius == Radius.
type BoundParams struct {
	N              int // processors
	Radius         int // network radius
	Diameter       int // network diameter
	Messages       int // total messages (== N unless weighted)
	ExpandedRadius int // radius of the weighted chain expansion (== Radius otherwise)
}

// Info is one registry entry.
type Info struct {
	ID      ID
	Name    string   // canonical name, as reported and served
	Aliases []string // additional accepted lowercase spellings
	Summary string   // one-line description for docs and CLIs

	// Deterministic: the same topology always yields the same schedule.
	// False for seeded randomized entries, whose plans are reproducible
	// only together with their seed (the cache keys them by seed).
	Deterministic bool
	// Schedulable: the plan carries a concrete round-by-round transmission
	// schedule (Round, RoundAppend, include_rounds over the wire). False
	// for coded randomized entries, which report rounds but exchange
	// packets no Transmission can express.
	Schedulable bool
	// FaultExecutable: ExecuteWithFaults can replay the plan under
	// injected faults. Implies Schedulable.
	FaultExecutable bool
	// TreeBased: the plan communicates over the minimum-depth spanning
	// tree of Section 3.1, is a deterministic function of that tree, and
	// is servable by the disk store, which persists the packed tree.
	TreeBased bool
	// ImplicitBacked: rounds stream from the O(n) packed tree; the plan
	// never holds its Θ(n²) schedule.
	ImplicitBacked bool
	// ExactBound: Bound is the exact total time, not just an upper bound.
	ExactBound bool

	// Bound returns the registered inclusive rounds bound for an instance
	// with the given parameters; every plan the builder produces must
	// finish within it (the scenario matrix asserts this per cell).
	Bound func(p BoundParams) int
	// BoundName is the human-readable form of Bound, e.g. "n + r".
	BoundName string
}

// registry lists every algorithm, indexed by ID.
var registry = [numAlgorithms]Info{
	ConcurrentUpDown: {
		ID:            ConcurrentUpDown,
		Name:          "ConcurrentUpDown",
		Aliases:       []string{"cud"},
		Summary:       "the paper's Theorem 1 schedule: exactly n + r rounds",
		Deterministic: true, Schedulable: true, FaultExecutable: true,
		TreeBased: true, ImplicitBacked: true, ExactBound: true,
		Bound: func(p BoundParams) int {
			if p.N <= 1 {
				return 0
			}
			return p.N + p.Radius
		},
		BoundName: "n + r",
	},
	Simple: {
		ID:            Simple,
		Name:          "Simple",
		Summary:       "the Lemma 1 baseline: gather to the root, then pipelined broadcast",
		Deterministic: true, Schedulable: true, FaultExecutable: true,
		TreeBased: true, ExactBound: true,
		Bound: func(p BoundParams) int {
			if p.N <= 1 {
				return 0
			}
			return 2*p.N + p.Radius - 3
		},
		BoundName: "2n + r - 3",
	},
	Pipelined: {
		ID:            Pipelined,
		Name:          "Pipelined",
		Aliases:       []string{"pipelinedgossip", "flood"},
		Summary:       "concurrent pipelined tree floods (De Florio & Blondia), no gather phase",
		Deterministic: true, Schedulable: true, FaultExecutable: true,
		TreeBased: true,
		// Each flood travels at most the tree diameter (<= 2r) and label
		// arbitration delays a flood by at most one round per competing
		// message; the certified per-round progress guarantee caps the
		// schedule far below this in practice (the matrix records actuals).
		Bound: func(p BoundParams) int {
			if p.N <= 1 {
				return 0
			}
			return 2*p.N + 2*p.Radius
		},
		BoundName: "2n + 2r",
	},
	Algebraic: {
		ID:      Algebraic,
		Name:    "Algebraic",
		Aliases: []string{"algebraicgossip", "coded", "rlnc"},
		Summary: "Haeupler-style randomized GF(2) network-coded gossip; seeded, expected-rounds reporting",
		// Haeupler bounds algebraic gossip by O(n + diameter) with high
		// probability; the registered bound carries the constant the
		// seeded matrix runs must stay under.
		Bound: func(p BoundParams) int {
			if p.N <= 1 {
				return 0
			}
			return 8*(p.N+p.Diameter) + 64
		},
		BoundName: "8(n + D) + 64",
	},
	Weighted: {
		ID:            Weighted,
		Name:          "Weighted",
		Aliases:       []string{"weightedgossip"},
		Summary:       "Section 4 weighted gossiping via virtual-vertex chains (unit counts as a planner)",
		Deterministic: true, Schedulable: true, FaultExecutable: true,
		TreeBased: true, ImplicitBacked: true, ExactBound: true,
		// Theorem 1 on the chain expansion: N total messages + expanded
		// radius; with unit counts this collapses to n + r.
		Bound: func(p BoundParams) int {
			if p.N <= 1 {
				return 0
			}
			return p.Messages + p.ExpandedRadius
		},
		BoundName: "N + R (expanded)",
	},
	Beep: {
		ID:            Beep,
		Name:          "Beep",
		Aliases:       []string{"radio", "collision"},
		Summary:       "collision-constrained greedy: transmissions reach all neighbours, two transmitters collide",
		Deterministic: true, Schedulable: true, FaultExecutable: true,
		// The greedy planner certifies at least one innovative delivery
		// per round, so n(n-1) rounds is the guaranteed worst case; actual
		// schedules sit near n + O(r) (the matrix records them).
		Bound: func(p BoundParams) int {
			if p.N <= 1 {
				return 0
			}
			return p.N * (p.N - 1)
		},
		BoundName: "n(n-1)",
	},
}

// Registry returns every registered algorithm in ID order. The slice is
// freshly allocated; entries are value copies, safe to modify.
func Registry() []Info {
	out := make([]Info, numAlgorithms)
	copy(out, registry[:])
	return out
}

// ByID returns the entry for id. It panics on an unregistered ID — the
// registry is the closed set of algorithms this build ships.
func ByID(id ID) Info {
	if id < 0 || id >= numAlgorithms {
		panic(fmt.Sprintf("algo: unregistered algorithm ID %d", int(id)))
	}
	return registry[id]
}

// Registered reports whether id names a registered algorithm.
func Registered(id ID) bool { return id >= 0 && id < numAlgorithms }

// Lookup resolves a case-insensitive name or alias to its entry.
func Lookup(name string) (Info, bool) {
	want := strings.ToLower(strings.TrimSpace(name))
	for _, info := range registry {
		if strings.ToLower(info.Name) == want {
			return info, true
		}
		for _, a := range info.Aliases {
			if a == want {
				return info, true
			}
		}
	}
	return Info{}, false
}

// Names returns the canonical lowercase name of every registered
// algorithm, sorted — the hint every "unknown algorithm" error carries, so
// it can never go stale as the portfolio grows.
func Names() []string {
	out := make([]string, 0, numAlgorithms)
	for _, info := range registry {
		out = append(out, strings.ToLower(info.Name))
	}
	sort.Strings(out)
	return out
}

// String names the algorithm: the registry entry's canonical name, or
// "Algorithm(v)" for values outside the registry.
func (id ID) String() string {
	if Registered(id) {
		return registry[id].Name
	}
	return fmt.Sprintf("Algorithm(%d)", int(id))
}
