package multigossip

import (
	"encoding/json"
	"fmt"

	"multigossip/internal/collectives"
	"multigossip/internal/graph"
	"multigossip/internal/mmc"
	"multigossip/internal/schedule"
)

// The collective operations sit on the same tree machinery as gossiping
// and cover the applications the paper cites (sorting, matrix
// multiplication, DFT, linear solvers): Gather funnels all messages to one
// processor, Scatter distributes personalised messages from one processor,
// and PlanMulticasts schedules the general multimessage multicasting
// problem that gossiping is the all-destinations special case of.

// GatherPlan is an all-to-one accumulation schedule.
type GatherPlan struct {
	network *graph.Graph
	sched   *schedule.Schedule
	target  int
}

// PlanGather builds a schedule delivering every processor's message to
// dst in exactly n - 1 rounds (optimal: dst receives one per round).
func (nw *Network) PlanGather(dst int) (*GatherPlan, error) {
	g := nw.snapshotGraph()
	s, err := collectives.Gather(g, dst)
	if err != nil {
		return nil, err
	}
	return &GatherPlan{network: g, sched: s, target: dst}, nil
}

// Rounds returns the gather's total communication time.
func (p *GatherPlan) Rounds() int { return p.sched.Time() }

// Verify re-validates the schedule and that the target holds everything.
func (p *GatherPlan) Verify() error { return collectives.VerifyGather(p.network, p.sched, p.target) }

// ScatterPlan is a one-to-all personalised distribution schedule.
type ScatterPlan struct {
	network *graph.Graph
	sched   *schedule.Schedule
	source  int
}

// PlanScatter builds a schedule by which src delivers a distinct message
// to every processor (message m goes to processor m) in exactly n - 1
// rounds, the time reversal of the gather.
func (nw *Network) PlanScatter(src int) (*ScatterPlan, error) {
	g := nw.snapshotGraph()
	s, err := collectives.Scatter(g, src)
	if err != nil {
		return nil, err
	}
	return &ScatterPlan{network: g, sched: s, source: src}, nil
}

// Rounds returns the scatter's total communication time.
func (p *ScatterPlan) Rounds() int { return p.sched.Time() }

// Verify re-validates the schedule and per-destination delivery.
func (p *ScatterPlan) Verify() error { return collectives.VerifyScatter(p.network, p.sched, p.source) }

// Multicast is one demand of a multimessage multicasting instance:
// the message held by Origin must reach every processor in Dests.
type Multicast struct {
	Origin int
	Dests  []int
}

// MulticastPlan is a schedule for a batch of multicasts with forwarding.
type MulticastPlan struct {
	inst  *mmc.Instance
	sched *schedule.Schedule
}

// PlanMulticasts schedules an arbitrary batch of multicast demands under
// the same communication model (greedy BFS-tree routing with round
// packing). Gossiping is the special case where every processor multicasts
// to everyone; use PlanGossip for that case — it is provably n + r.
func (nw *Network) PlanMulticasts(batch []Multicast) (*MulticastPlan, error) {
	msgs := make([]mmc.Message, len(batch))
	for i, b := range batch {
		msgs[i] = mmc.Message{Origin: b.Origin, Dests: append([]int(nil), b.Dests...)}
	}
	inst := &mmc.Instance{G: nw.snapshotGraph(), Msgs: msgs}
	s, err := mmc.Schedule(inst, 0)
	if err != nil {
		return nil, err
	}
	return &MulticastPlan{inst: inst, sched: s}, nil
}

// Rounds returns the batch schedule's total communication time.
func (p *MulticastPlan) Rounds() int { return p.sched.Time() }

// LowerBound returns a cheap lower bound for the batch (receive
// bottlenecks and distances).
func (p *MulticastPlan) LowerBound() int { return mmc.LowerBound(p.inst) }

// Verify re-validates the schedule and every demanded delivery.
func (p *MulticastPlan) Verify() error { return mmc.Verify(p.inst, p.sched) }

// MarshalJSON exports the gossip plan's schedule in the library's stable
// JSON shape (versioned flat transmission list), for external tooling.
func (p *Plan) MarshalJSON() ([]byte, error) {
	if !p.Schedulable() {
		return nil, p.errNoSchedule()
	}
	return json.Marshal(schedule.Collect(p.source()))
}

// ScheduleJSON renders the plan's schedule as JSON text.
func (p *Plan) ScheduleJSON() (string, error) {
	data, err := json.Marshal(p)
	if err != nil {
		return "", fmt.Errorf("multigossip: encoding schedule: %w", err)
	}
	return string(data), nil
}
