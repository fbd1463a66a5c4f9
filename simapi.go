package multigossip

import (
	"fmt"

	"multigossip/internal/sim"
)

// Distributed simulation: run the online ConcurrentUpDown protocol as n
// compact state machines over a sharded event-loop instead of replaying
// the precomputed schedule. Plan.Simulate drives internal/sim — each
// processor derives every transmission from its O(1) local labels and the
// messages it receives, so the run is a genuine distributed execution
// whose transmissions provably coincide with the offline construction
// (the differential battery in internal/sim and `make sim-smoke` gate
// exactly that). The engine's leaf fan-out folding and packed mailboxes
// take it to a million nodes on one machine; see cmd/simbench.

// LinkLatency assigns each spanning-tree link an integer delay in ticks
// for asynchronous simulation. Implementations must be pure and return
// values in [1, Max()]; the three provided models are deterministic per
// (seed, edge) so async runs reproduce exactly.
type LinkLatency = sim.Latency

// DeterministicLatency is the constant-delay model: every link takes d
// ticks (d < 1 clamps to 1).
func DeterministicLatency(d int) LinkLatency { return sim.Deterministic(d) }

// UniformLatency draws each link's delay uniformly from [1, max], hashed
// from (seed, edge).
func UniformLatency(max int, seed uint64) LinkLatency { return sim.Uniform(max, seed) }

// HeavyTailLatency draws each link's delay from a bounded Pareto(α=1) on
// [1, max]: most links fast, a heavy straggler tail.
func HeavyTailLatency(max int, seed uint64) LinkLatency { return sim.HeavyTail(max, seed) }

// SimReport summarises one simulated execution.
type SimReport struct {
	// CompleteAt is the tick at which the last (processor, message) pair
	// arrived. In synchronous mode this is exactly Plan.Rounds() = n + r,
	// the paper's bound, measured live rather than read off the plan.
	CompleteAt int
	// Deliveries is every point-to-point delivery, n(n-1) in total,
	// including those accounted arithmetically through folding.
	Deliveries int64
	// FoldedDeliveries is the subset of Deliveries absorbed by leaf
	// fan-out folding (0 when folding was off or inapplicable).
	FoldedDeliveries int64
	// Transmissions counts multicasts, the paper's unit of communication
	// cost.
	Transmissions int64
	// Events counts simulator work items (transmissions plus mailbox
	// entries applied) — the denominator of simbench's ns/node-event.
	Events int64
	// Shards is the number of mailbox shards the run used.
	Shards int
	// Async reports which engine ran.
	Async bool
}

type simConfig struct {
	o sim.Options
}

// SimOption configures Plan.Simulate.
type SimOption func(*simConfig)

// WithSimShards sets the number of mailbox shards / workers (default
// GOMAXPROCS, clamped to [1, n]).
func WithSimShards(s int) SimOption { return func(c *simConfig) { c.o.Shards = s } }

// WithSimObserver attaches a RoundObserver to the simulation: BeginRound/
// EndRound per tick, one Delivery per point-to-point delivery (original
// vertex ids, the same conventions as ExecuteTraced), wrapped in a
// "simulate" phase span. Attaching an observer disables leaf fan-out
// folding, since folded deliveries have no per-delivery events.
func WithSimObserver(o RoundObserver) SimOption { return func(c *simConfig) { c.o.Observer = o } }

// WithSimAsync switches to the asynchronous event-driven engine: no round
// barrier, every delivery charged its link's latency under l (nil means
// DeterministicLatency(1)), one transmission per processor per tick.
func WithSimAsync(l LinkLatency) SimOption {
	return func(c *simConfig) {
		c.o.Async = true
		c.o.Latency = l
	}
}

// WithSimMaxRounds caps the simulated ticks (<= 0 keeps the engine
// defaults). The engine fails fast with a stuck-vertex diagnostic on
// livelock regardless of the cap.
func WithSimMaxRounds(m int) SimOption { return func(c *simConfig) { c.o.MaxRounds = m } }

// Simulate executes the plan's gossip protocol as a distributed
// simulation: every processor is a compact state machine acting only on
// its local labels and incoming messages. It requires a ConcurrentUpDown
// plan: the sharded, async and observed modes exist only for that
// protocol (ExecuteDistributed also runs Simple's local rules). The
// synchronous engine's transmissions are identical to Plan.Round's
// schedule; the asynchronous engine delivers the same message multiset
// under per-link latencies. Safe for concurrent use on one Plan as long as
// any observer is.
func (p *Plan) Simulate(opts ...SimOption) (SimReport, error) {
	if p.algo != ConcurrentUpDown {
		return SimReport{}, fmt.Errorf("multigossip: Simulate requires a ConcurrentUpDown plan, not %v", p.algo)
	}
	var cfg simConfig
	for _, o := range opts {
		o(&cfg)
	}
	mode := "sync"
	if cfg.o.Async {
		mode = "async"
	}
	if ob := cfg.o.Observer; ob != nil {
		ob.BeginPhase("simulate", mode)
		defer ob.EndPhase("simulate")
	}
	res, err := sim.Run(p.imp.Topo(), cfg.o)
	if err != nil {
		return SimReport{}, err
	}
	return SimReport{
		CompleteAt:       res.CompleteAt,
		Deliveries:       res.Deliveries,
		FoldedDeliveries: res.Folded,
		Transmissions:    res.Sends,
		Events:           res.Events,
		Shards:           res.Shards,
		Async:            cfg.o.Async,
	}, nil
}
