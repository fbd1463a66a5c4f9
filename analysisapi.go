package multigossip

import (
	"fmt"
	"math/rand"
	"time"

	"multigossip/internal/async"
	"multigossip/internal/baseline"
	"multigossip/internal/fault"
	"multigossip/internal/graph"
	"multigossip/internal/pipeline"
	"multigossip/internal/schedule"
)

// KPortPlan is a gossip schedule under the k-port extension: each
// processor may receive up to Ports messages per round (the paper's model
// is Ports = 1).
type KPortPlan struct {
	network *Network
	sched   *schedule.Schedule
	ports   int
}

// PlanKPortGossip builds a greedy gossip schedule in which every processor
// may receive up to ports messages per round, relaxing the model's
// one-receive rule; the receive lower bound becomes ceil((n-1)/ports).
// With ports = 1 prefer PlanGossip, whose ConcurrentUpDown schedule is
// provably n + r.
func (nw *Network) PlanKPortGossip(ports int) (*KPortPlan, error) {
	s, err := baseline.KPortGossip(nw.g, ports, 0)
	if err != nil {
		return nil, err
	}
	return &KPortPlan{network: nw, sched: s, ports: ports}, nil
}

// Rounds returns the schedule's total communication time.
func (p *KPortPlan) Rounds() int { return p.sched.Time() }

// Ports returns the receive capacity the plan was built for.
func (p *KPortPlan) Ports() int { return p.ports }

// Verify re-validates the schedule under the k-port model and checks
// completion.
func (p *KPortPlan) Verify() error {
	res, err := schedule.Run(p.network.g, p.sched, schedule.Options{RecvPorts: p.ports})
	if err != nil {
		return err
	}
	for v, h := range res.Holds {
		if !h.Full() {
			return fmt.Errorf("multigossip: processor %d incomplete", v)
		}
	}
	return nil
}

// SweepStats reports how much of an n-root BFS sweep the parallel pruned
// engine actually ran. Roots is the number of candidate roots (= number of
// processors); Seeds the sequential double-sweep traversals that bootstrap
// the pruning bounds; Completed the traversals run to completion (seeds
// included); Pruned the roots skipped outright by an eccentricity lower
// bound; ShortCircuited the traversals abandoned once they provably lost:
// deeper than the best tree height already found or, for the minimum-depth
// tree, as deep as it for a root numbered above that tree's root, which
// loses the tie. An abandoned traversal still tightens the lower bounds
// that prune other roots. Workers is the size of the worker pool.
// A traversal is counted the same whether it ran alone or as one lane of a
// 64-root bit-parallel pass. Completed + Pruned + ShortCircuited == Roots,
// so Pruned + ShortCircuited over Roots is the fraction of the paper's
// O(nm) construction the engine avoided.
type SweepStats struct {
	Roots          int
	Seeds          int
	Completed      int
	Pruned         int
	ShortCircuited int
	Workers        int
	// Elapsed is the wall-clock duration of the sweep.
	Elapsed time.Duration
}

func sweepStatsFrom(s graph.SweepStats) SweepStats {
	return SweepStats{
		Roots:          s.Roots,
		Seeds:          s.Seeds,
		Completed:      s.Completed,
		Pruned:         s.Pruned,
		ShortCircuited: s.ShortCircuited,
		Workers:        s.Workers,
		Elapsed:        s.Elapsed,
	}
}

// TreeSweepStats reports the sweep-engine counters for this plan's
// Section 3.1 minimum-depth spanning tree construction — the dominant cost
// of PlanGossip.
func (p *Plan) TreeSweepStats() SweepStats { return sweepStatsFrom(p.sweep) }

// MetricSweepStats reports the counters of the cached full metric sweep
// behind Radius/Diameter/Center/Eccentricities, computing it first if no
// metric has been asked for yet. The network must be connected.
func (nw *Network) MetricSweepStats() SweepStats {
	return sweepStatsFrom(nw.sweepMetrics().Stats)
}

// Analysis tooling on plans: what the schedule costs on real hardware, how
// fragile its optimality is, and how fast it can be repeated.

// Criticality reports the plan's single-drop fragility: the fraction of
// point-to-point deliveries whose loss would leave gossiping incomplete.
// For ConcurrentUpDown plans this is 1.0 — meeting the n + r bound means
// every delivery is load-bearing — while Simple plans retain slack from
// their redundant deliveries. O(deliveries²); intended for small and
// medium networks.
func (p *Plan) Criticality() (critical, deliveries int, err error) {
	if !p.Schedulable() {
		return 0, 0, p.errNoSchedule()
	}
	rep, err := fault.Criticality(p.network, schedule.Collect(p.source()))
	if err != nil {
		return 0, 0, err
	}
	return rep.Critical, rep.Deliveries, nil
}

// CoverageUnderLoss estimates the mean fraction of (processor, message)
// pairs still delivered when each transmission is independently lost with
// probability loss, with full fault propagation (a processor that never
// received a message silently skips relaying it).
func (p *Plan) CoverageUnderLoss(loss float64, trials int, seed int64) (float64, error) {
	if !p.Schedulable() {
		return 0, p.errNoSchedule()
	}
	return fault.RandomLoss(p.network, p.source(), loss, trials, rand.New(rand.NewSource(seed)))
}

// EstimateMakespan prices the plan on barrier-synchronised hardware: each
// round costs the slowest of its transmissions, drawn uniformly from
// [base, base+jitter] time units, plus the barrier overhead; trials runs
// are averaged. Round counts are what the paper optimises; this converts
// them to wall-clock under a simple latency model.
func (p *Plan) EstimateMakespan(base, jitter, barrier float64, trials int, seed int64) (float64, error) {
	if !p.Schedulable() {
		return 0, p.errNoSchedule()
	}
	res, err := async.Makespan(p.source(), async.UniformJitter{Base: base, Jitter: jitter},
		barrier, trials, rand.New(rand.NewSource(seed)))
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// MinRepeatPeriod returns the smallest round offset at which back-to-back
// executions of the plan compose validly — the steady-state period of
// repeated gossiping. It always lies between n-1 (receive capacity) and
// the plan's latency.
func (p *Plan) MinRepeatPeriod() (int, error) {
	if !p.Schedulable() {
		return 0, p.errNoSchedule()
	}
	s := schedule.Collect(p.source())
	period, err := pipeline.MinPeriod(p.network, s, 3, s.Time()+1)
	if err != nil {
		return 0, err
	}
	if period > s.Time() {
		return 0, fmt.Errorf("multigossip: no feasible repeat period up to the latency (internal error)")
	}
	return period, nil
}
