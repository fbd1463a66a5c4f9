// Package weighted implements the weighted gossiping extension of
// Section 4: every processor v starts with count_v >= 1 messages and all
// messages must reach all processors. Following the paper, a processor
// with l messages is replaced by a chain of l virtual processors, the
// standard pipeline runs on the expanded network, and the splitting is then
// "mimicked": chain-internal transmissions collapse into no-ops, leaving a
// schedule in which every real processor still sends at most one message
// and receives at most one message per round.
package weighted

import (
	"fmt"

	"multigossip/internal/core"
	"multigossip/internal/graph"
	"multigossip/internal/schedule"
)

// Plan is the outcome of weighted gossiping on a network.
type Plan struct {
	// Schedule is the contracted schedule on the original n processors,
	// with NMsg = total message count; message m originates at MsgOwner[m].
	Schedule *schedule.Schedule
	// ExpandedRounds is the total time of the ConcurrentUpDown schedule on
	// the chain-expanded network, TotalMessages + ExpandedRadius by
	// Theorem 1. That schedule is streamed into the contraction, never
	// stored: it is Θ(N²) for N total messages.
	ExpandedRounds int
	// ExpandedGraph is the chain-expanded network.
	ExpandedGraph *graph.Graph
	// MsgOwner maps each message to the real processor owning it initially.
	MsgOwner []int
	// TotalMessages is the sum of all counts.
	TotalMessages int
	// ExpandedRadius is the radius of the expanded network.
	ExpandedRadius int
	// Sweep records the root-sweep work of the expanded network's
	// minimum-depth spanning tree.
	Sweep graph.SweepStats
}

// InitialHolds returns the hold sets of the contracted instance: processor
// v holds exactly its own messages.
func (p *Plan) InitialHolds() []*schedule.Bitset { return OwnerHolds(p.Schedule.N, p.MsgOwner) }

// OwnerHolds returns n hold sets over len(owner) messages in which
// processor v holds exactly the messages m with owner[m] == v.
func OwnerHolds(n int, owner []int) []*schedule.Bitset {
	holds := make([]*schedule.Bitset, n)
	for v := range holds {
		holds[v] = schedule.NewBitset(len(owner))
	}
	for m, v := range owner {
		holds[v].Set(m)
	}
	return holds
}

// Gossip solves weighted gossiping on connected network g where processor v
// initially holds counts[v] messages. It expands each processor into a
// chain, runs the paper's ConcurrentUpDown pipeline on the expansion
// (total time N + R for N total messages and expanded radius R), and
// contracts the schedule back to the real processors. The expanded
// schedule is read round by round from the implicit plan's cursor, so
// planning holds O(N) expansion state plus the contracted schedule.
func Gossip(g *graph.Graph, counts []int) (*Plan, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("weighted: empty network")
	}
	if len(counts) != n {
		return nil, fmt.Errorf("weighted: %d counts for %d processors", len(counts), n)
	}
	total := 0
	for v, c := range counts {
		if c < 1 {
			return nil, fmt.Errorf("weighted: processor %d has count %d, need >= 1", v, c)
		}
		total += c
	}

	// Expansion: real processors keep ids 0..n-1; the extra chain vertices
	// of processor v are appended afterwards, each linked to its
	// predecessor in the chain. Message ids equal expanded vertex ids.
	expanded := graph.New(total)
	owner := make([]int, total)
	for v := 0; v < n; v++ {
		owner[v] = v
	}
	for _, e := range g.Edges() {
		expanded.AddEdge(e.U, e.V)
	}
	next := n
	for v := 0; v < n; v++ {
		prev := v
		for c := 1; c < counts[v]; c++ {
			expanded.AddEdge(prev, next)
			owner[next] = v
			prev = next
			next++
		}
	}

	imp, sweep, err := core.GossipImplicit(expanded)
	if err != nil {
		return nil, fmt.Errorf("weighted: expanded pipeline: %w", err)
	}

	// Contraction: keep only transmissions from a real processor, filtered
	// to real destinations; everything chain-internal is mimicked (the real
	// processor already holds its whole message set). The cursor emits
	// original (expanded) vertex ids, in the materialised builder's order.
	contracted := schedule.NewWithMessages(n, total)
	cur := imp.Cursor()
	var round []schedule.Transmission
	var dests []int
	for t := 0; t < imp.Rounds(); t++ {
		round = cur.RoundAppend(t, round[:0])
		for _, tx := range round {
			if tx.From >= n {
				continue
			}
			dests = dests[:0]
			for _, d := range tx.To {
				if d < n {
					dests = append(dests, d)
				}
			}
			if len(dests) > 0 {
				contracted.AddSend(t, tx.Msg, tx.From, dests...)
			}
		}
	}
	// Drop trailing rounds that only served virtual chains.
	for len(contracted.Rounds) > 0 && len(contracted.Rounds[len(contracted.Rounds)-1]) == 0 {
		contracted.Rounds = contracted.Rounds[:len(contracted.Rounds)-1]
	}

	return &Plan{
		Schedule:       contracted,
		ExpandedRounds: imp.Rounds(),
		ExpandedGraph:  expanded,
		MsgOwner:       owner,
		TotalMessages:  total,
		ExpandedRadius: imp.Height(),
		Sweep:          sweep,
	}, nil
}
