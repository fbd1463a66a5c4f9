package multigossip

import (
	"fmt"
	"math/rand"

	"multigossip/internal/baseline"
	"multigossip/internal/core"
	"multigossip/internal/graph"
	"multigossip/internal/schedule"
	"multigossip/internal/search"
)

// Model selects the communication model for the schedule searchers.
type Model int

const (
	// MulticastModel is the paper's model (multicast send, single receive).
	MulticastModel Model = iota
	// TelephoneModel restricts every transmission to one destination.
	TelephoneModel
)

func (m Model) internal() search.Model {
	if m == TelephoneModel {
		return search.Telephone
	}
	return search.Multicast
}

// OptimalRounds computes the exact minimum gossip time on a small network
// (at most 16 processors; practical for about 6) by branch and bound,
// deepening up to maxRounds. It returns maxRounds+1 when the optimum
// exceeds the cap. This is how the repository certifies the paper's Fig. 1
// and Fig. 3 optimality claims.
func (nw *Network) OptimalRounds(model Model, maxRounds int) (int, error) {
	opt, _, err := search.Exact(nw.snapshotGraph(), model.internal(), maxRounds, 0)
	return opt, err
}

// GreedyRounds searches for a short gossip schedule with a seeded
// randomized greedy (restarts attempts) and returns the best round count
// found — an upper bound on the optimum that matches it on small dense
// networks such as the Petersen graph.
func (nw *Network) GreedyRounds(model Model, seed int64, restarts int) (int, error) {
	g := nw.snapshotGraph()
	s, err := search.Greedy(g, model.internal(), rand.New(rand.NewSource(seed)), restarts)
	if err != nil {
		return 0, err
	}
	if _, err := schedule.CheckGossip(g, s); err != nil {
		return 0, fmt.Errorf("multigossip: greedy produced an invalid schedule: %w", err)
	}
	return s.Time(), nil
}

// HamiltonianCircuit searches for a Hamiltonian circuit (bounded
// backtracking) and returns it in visiting order, or ok=false when none
// was found within the budget.
func (nw *Network) HamiltonianCircuit() (circuit []int, ok bool) {
	return graph.HamiltonianCircuit(nw.snapshotGraph(), 0)
}

// PlanRingRotation builds the Fig. 1 rotation schedule along a Hamiltonian
// circuit of the network: n - 1 rounds, which meets the trivial lower
// bound. The circuit must visit every processor once using network links.
func (nw *Network) PlanRingRotation(circuit []int) (*RotationPlan, error) {
	g := nw.snapshotGraph()
	s, err := baseline.RingRotation(g, circuit)
	if err != nil {
		return nil, err
	}
	return &RotationPlan{network: g, sched: s}, nil
}

// RotationPlan is an optimal ring-rotation gossip schedule.
type RotationPlan struct {
	network *graph.Graph
	sched   *schedule.Schedule
}

// Rounds returns the rotation schedule's total communication time (n - 1).
func (p *RotationPlan) Rounds() int { return p.sched.Time() }

// Verify re-validates the schedule and completion.
func (p *RotationPlan) Verify() error {
	_, err := schedule.CheckGossip(p.network, p.sched)
	return err
}

// PlanPetersenTelephone returns the explicit 9-round telephone-model
// gossip schedule on the Petersen graph (PetersenGraph() vertex layout),
// certifying the paper's Fig. 2 claim that the n - 1 bound is attainable
// there even without multicasting. The schedule is optimal: every
// processor receives a new message in every round.
func PlanPetersenTelephone() (*RotationPlan, error) {
	s, err := baseline.PetersenNineRounds()
	if err != nil {
		return nil, err
	}
	return &RotationPlan{network: PetersenGraph().g, sched: s}, nil
}

// PlanOptimalLine builds the provably optimal gossip schedule for the
// straight line with n = 2m+1 processors: n + r - 1 rounds, one better
// than PlanGossip's uniform n + r. It implements the non-uniform
// alternating-subtree protocol the paper's Section 4 sketches (see
// core.BuildLineOptimal for the closed form). The schedule is defined on
// Line(2m+1) vertex numbering.
func PlanOptimalLine(m int) (*RotationPlan, error) {
	s, err := core.BuildLineOptimal(m)
	if err != nil {
		return nil, err
	}
	return &RotationPlan{network: Line(2*m + 1).g, sched: s}, nil
}
