package multigossip

import (
	"errors"

	"multigossip/internal/graph"
	"multigossip/internal/weighted"
)

// WeightedPlan is a schedule for the weighted gossiping problem of
// Section 4: processor v starts with counts[v] >= 1 messages and every
// message must reach every processor. It is a view over an ordinary Plan
// whose messages start at their owners rather than one per processor, plus
// the expanded round count. Like Plan it is immutable and safe to share
// between goroutines.
type WeightedPlan struct {
	plan           *Plan
	expandedRounds int
}

// PlanWeightedGossip solves weighted gossiping by the paper's chain
// splitting: each processor with l messages is expanded into a chain of l
// virtual processors, ConcurrentUpDown runs on the expansion, and the
// schedule is contracted back (the splitting is "mimicked"). The expanded
// schedule takes exactly N + R rounds for N total messages and expanded
// radius R (Theorem 1 on the expansion). Like PlanGossip it plans against
// a private snapshot of the topology, so it is safe to run concurrently
// with link churn.
func (nw *Network) PlanWeightedGossip(counts []int) (*WeightedPlan, error) {
	g := nw.snapshotGraph()
	wp, err := weighted.Gossip(g, counts)
	if err != nil {
		if errors.Is(err, graph.ErrDisconnected) {
			return nil, ErrDisconnected
		}
		return nil, err
	}
	// The Plan carries message owners only when some count exceeds 1, and
	// no tree views: the expansion's tree spans the virtual chain
	// processors too.
	p := &Plan{network: g, algo: Weighted, radius: wp.ExpandedRadius, sweep: wp.Sweep, sched: wp.Schedule}
	if wp.TotalMessages > g.N() {
		p.owners = wp.MsgOwner
	}
	return &WeightedPlan{plan: p, expandedRounds: wp.ExpandedRounds}, nil
}

// Rounds returns the contracted schedule's total communication time.
func (p *WeightedPlan) Rounds() int { return p.plan.Rounds() }

// TotalMessages returns the number of messages across all processors.
func (p *WeightedPlan) TotalMessages() int { return p.plan.sched.NMsg }

// ExpandedRounds returns the chain-expanded schedule's total time, which is
// exactly TotalMessages + ExpandedRadius by Theorem 1.
func (p *WeightedPlan) ExpandedRounds() int { return p.expandedRounds }

// ExpandedRadius returns the radius of the chain-expanded network.
func (p *WeightedPlan) ExpandedRadius() int { return p.plan.radius }

// MessageOwner returns the processor at which message m originates, or -1
// for a message id outside [0, TotalMessages).
func (p *WeightedPlan) MessageOwner(m int) int {
	switch {
	case m < 0 || m >= p.TotalMessages():
		return -1
	case p.plan.owners == nil:
		return m
	}
	return p.plan.owners[m]
}

// Round returns the transmissions of round t of the contracted schedule.
// Out-of-range rounds — negative or past the end — return nil, matching
// Plan.Round.
func (p *WeightedPlan) Round(t int) []Transmission { return p.plan.Round(t) }

// RoundAppend appends the transmissions of round t to dst and returns the
// extended slice — the allocation-free counterpart of Round, with the same
// scratch-reuse contract as Plan.RoundAppend. Out-of-range rounds append
// nothing.
func (p *WeightedPlan) RoundAppend(t int, dst []Transmission) []Transmission {
	return p.plan.RoundAppend(t, dst)
}

// TimetableOf renders processor v's rows of the contracted schedule. The
// contraction has no per-vertex tree role (chain-internal hops are
// mimicked away), so the flat send/receive view is used.
func (p *WeightedPlan) TimetableOf(v int) string { return p.plan.TimetableOf(v) }

// Verify re-validates the contracted schedule under the model with the
// weighted initial hold sets and checks completion.
func (p *WeightedPlan) Verify() error { return p.plan.Verify() }

// SizeBytes reports the plan's resident size — the plancache.Sizer
// contract for the weighted cache tier: the contracted schedule and the
// message owners. The expanded schedule is not retained.
func (p *WeightedPlan) SizeBytes() int64 { return p.plan.SizeBytes() }

// ExecuteWithFaults replays the weighted plan under injected faults and
// runs the self-healing loop exactly as Plan.ExecuteWithFaults does, from
// the weighted initial hold sets; coverage fractions are over
// Processors() x TotalMessages() pairs.
func (p *WeightedPlan) ExecuteWithFaults(opts ...FaultOption) (FaultReport, error) {
	return p.plan.ExecuteWithFaults(opts...)
}
