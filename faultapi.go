package multigossip

import (
	"fmt"

	"multigossip/internal/fault"
	"multigossip/internal/obs"
	"multigossip/internal/repair"
	"multigossip/internal/schedule"
)

// FaultReport summarises one faulty execution of a plan and the repair
// rounds that followed it.
type FaultReport struct {
	// Coverage is the fraction of (processor, message) pairs delivered by
	// the scheduled rounds alone, with full fault propagation.
	Coverage float64
	// FinalCoverage is the fraction held after repair (equal to Coverage
	// when repair is disabled or nothing was missing).
	FinalCoverage float64
	// Dropped counts deliveries lost in flight, in the scheduled and the
	// repair rounds together. Deliveries a faulty upstream prevented from
	// being sent at all are not counted — they were never in flight.
	Dropped int
	// Repaired counts the (processor, message) pairs the repair rounds
	// restored.
	Repaired int
	// ScheduleRounds is the length of the original plan, RepairRounds the
	// extra rounds repair executed, and TotalRounds their sum.
	ScheduleRounds int
	RepairRounds   int
	TotalRounds    int
	// RepairIterations is the number of plan-execute-remeasure iterations
	// the repair engine ran; each executes at most the network diameter
	// rounds.
	RepairIterations int
	// Complete reports whether every processor holds every message at the
	// end.
	Complete bool

	// ReachableCoverage is the fraction of reachable pairs held at the
	// end: a missing pair counts as reachable when its message still has a
	// holder in the destination's component of the survivor network (the
	// network minus quarantined links and down processors). 1.0 means the
	// execution is complete up to reachability — under a partition that is
	// the best any recovery can achieve. With repair disabled it equals
	// Coverage.
	ReachableCoverage float64
	// Unreachable lists the missing pairs beyond the reachable ceiling,
	// ordered by (Processor, Message). Empty unless a permanent fault
	// partitioned the survivor network.
	Unreachable []Pair
	// QuarantinedLinks and DownProcessors are the permanent faults the
	// repair engine diagnosed and amputated from the survivor network,
	// ordered. Both are empty with repair disabled.
	QuarantinedLinks []Link
	DownProcessors   []int
	// Components is the number of connected components of the final
	// survivor network (a down processor is its own singleton); values
	// above 1 mean the execution degraded gracefully under partition.
	// Zero when repair is disabled.
	Components int
	// Stalled reports that repair gave up early: iterations stopped making
	// progress on reachable pairs with nothing left to quarantine.
	Stalled bool

	// ProgressCurve is the per-round holds-coverage curve of the whole
	// execution, scheduled and repair rounds together under absolute round
	// indices. Each point carries the round's delivery stats and the
	// cumulative fraction of (processor, message) pairs held after it. It is
	// always collected, with or without WithObserver.
	ProgressCurve []RoundProgress
}

// Pair is one (processor, message) pair of the gossip problem: Processor
// should learn Message.
type Pair struct {
	Processor, Message int
}

// Link is an undirected network link between processors U and V.
type Link struct {
	U, V int
}

type faultConfig struct {
	injectors  fault.Compose
	repair     bool
	maxIters   int
	quarantine int
	observer   obs.RoundObserver
	validation error
}

// FaultOption configures ExecuteWithFaults.
type FaultOption func(*faultConfig)

// WithDroppedDelivery marks one delivery of the plan as lost in flight: the
// destination dest of transmission index tx in round round (the indices of
// Plan.Round). Repeat the option to drop several deliveries.
func WithDroppedDelivery(round, tx, dest int) FaultOption {
	return func(c *faultConfig) {
		if round < 0 || tx < 0 || dest < 0 {
			c.validation = fmt.Errorf("multigossip: negative delivery coordinates (%d, %d, %d)", round, tx, dest)
			return
		}
		c.injectors = append(c.injectors, fault.DropSet{{Round: round, Tx: tx, Dest: dest}: true})
	}
}

// WithLinkLoss loses every delivery independently with the given
// probability — the Bernoulli lossy-link model. Decisions are derived from
// the seed by hashing, so a run is deterministic and repair retries of the
// same link in later rounds draw fresh coins.
func WithLinkLoss(p float64, seed int64) FaultOption {
	return func(c *faultConfig) {
		if !(p >= 0 && p <= 1) { // also rejects NaN, which would never drop
			c.validation = fmt.Errorf("multigossip: loss probability %v out of [0,1]", p)
			return
		}
		c.injectors = append(c.injectors, fault.LinkLoss{P: p, Seed: seed})
	}
}

// WithCrashWindow crashes processor proc for rounds from <= t < to: it
// neither sends nor receives in the window, keeps what it already held, and
// rejoins afterwards. Rounds are numbered across the whole execution, so a
// window reaching past the schedule length crashes the processor during
// repair too.
func WithCrashWindow(proc, from, to int) FaultOption {
	return func(c *faultConfig) {
		if proc < 0 {
			c.validation = fmt.Errorf("multigossip: negative crash processor %d", proc)
			return
		}
		if from < 0 || to < from {
			c.validation = fmt.Errorf("multigossip: bad crash window [%d, %d)", from, to)
			return
		}
		c.injectors = append(c.injectors, fault.CrashWindow{Proc: proc, From: from, To: to})
	}
}

// WithCrashStop crashes processor proc permanently from round from on: it
// neither sends nor receives from that round forward and never rejoins —
// the classic crash-stop model. The repair engine detects the silence,
// quarantines the processor out of the survivor network, and completes the
// gossip for the live partition; the report's DownProcessors, Unreachable
// and ReachableCoverage describe the degradation.
func WithCrashStop(proc, from int) FaultOption {
	return func(c *faultConfig) {
		if proc < 0 {
			c.validation = fmt.Errorf("multigossip: negative crash processor %d", proc)
			return
		}
		if from < 0 {
			c.validation = fmt.Errorf("multigossip: negative crash round %d", from)
			return
		}
		c.injectors = append(c.injectors, fault.CrashStop(proc, from))
	}
}

// WithDeadLink severs the network link between processors u and v
// permanently: every delivery across it, in either direction and in both
// the scheduled and the repair rounds, is lost. The repair engine
// quarantines the link after repeated failures and replans over the
// surviving topology, routing around it when the network remains connected
// and degrading to the reachable ceiling when it does not. The link must
// exist in the plan's network.
func WithDeadLink(u, v int) FaultOption {
	return func(c *faultConfig) {
		if u < 0 || v < 0 || u == v {
			c.validation = fmt.Errorf("multigossip: bad dead link (%d, %d)", u, v)
			return
		}
		c.injectors = append(c.injectors, fault.DeadLink{U: u, V: v})
	}
}

// WithQuarantineThreshold sets how many consecutive failed repair
// iterations a link or processor survives before the repair engine
// quarantines it as permanently faulty (default
// repair.DefaultQuarantineThreshold). Lower values amputate faster but
// risk quarantining a merely lossy link; higher values tolerate longer
// fault bursts at the cost of more wasted iterations.
func WithQuarantineThreshold(k int) FaultOption {
	return func(c *faultConfig) {
		if k < 1 {
			c.validation = fmt.Errorf("multigossip: quarantine threshold %d < 1", k)
			return
		}
		c.quarantine = k
	}
}

// WithObserver attaches a RoundObserver to the execution: it receives
// "schedule" and "repair" phase spans, BeginRound/EndRound with aggregated
// stats for every round (repair rounds under absolute indices continuing
// the schedule's), one Delivery event per scheduled delivery with its
// outcome, and RepairIteration/Quarantine events from the repair engine.
// Repeated options stack: every observer receives every event. Combine
// with NewTracer or InstrumentMetrics for ready-made sinks.
func WithObserver(o RoundObserver) FaultOption {
	return func(c *faultConfig) { c.observer = obs.Multi(c.observer, o) }
}

// WithoutRepair disables the repair engine: the report describes the raw
// degradation of the schedule under the injected faults.
func WithoutRepair() FaultOption {
	return func(c *faultConfig) { c.repair = false }
}

// WithRepairBudget bounds the repair engine's retry loop to at most iters
// plan-execute iterations (default repair.DefaultMaxIterations). Each
// iteration appends at most the network diameter rounds.
func WithRepairBudget(iters int) FaultOption {
	return func(c *faultConfig) {
		if iters < 1 {
			c.validation = fmt.Errorf("multigossip: repair budget %d < 1", iters)
			return
		}
		c.maxIters = iters
	}
}

// ExecuteWithFaults replays the plan under injected faults — explicit
// delivery drops, Bernoulli link loss, processor crash windows, permanent
// dead links and crash-stop processors — with full fault propagation: a
// processor that never received a message silently skips its scheduled
// relays of it. It then runs the self-healing loop: compute the residual
// deficit (which processors miss which messages), greedily synthesize
// repair rounds that respect the communication model over any network link
// (one multicast per sender and at most one receive per processor per
// round), execute them under the same fault model, and iterate while
// messages are still missing, up to the repair budget. Every synthesized
// repair batch is re-validated against the model rules before it runs.
//
// Transient faults are ridden out by retrying. Permanent faults are
// detected by suspicion tracking — consecutive failed delivery attempts
// per link and per processor — and quarantined (see
// WithQuarantineThreshold), after which repair replans over the survivor
// network. When quarantine partitions the network, the loop terminates
// once every still-reachable pair is delivered and the report records the
// degradation: ReachableCoverage, Unreachable, QuarantinedLinks,
// DownProcessors and Components.
//
// The returned report gives coverage before and after repair, the
// dropped and repaired delivery counts, and the rounds spent. With no
// options the execution is fault-free and the report is trivially
// complete. The zero-redundancy ConcurrentUpDown schedule loses coverage
// under any fault (see Plan.Criticality); this is the closed-loop
// counterpart that wins it back.
func (p *Plan) ExecuteWithFaults(opts ...FaultOption) (FaultReport, error) {
	if !p.Schedulable() {
		return FaultReport{}, p.errNoSchedule()
	}
	return p.executeWithFaults(p.source(), opts)
}

// executeWithFaults runs ExecuteWithFaults over the plan's rounds as read
// from s.
func (p *Plan) executeWithFaults(s schedule.Source, opts []FaultOption) (FaultReport, error) {
	cfg := faultConfig{repair: true}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.validation != nil {
		return FaultReport{}, cfg.validation
	}
	var inj fault.Injector
	if len(cfg.injectors) > 0 {
		inj = cfg.injectors
	}
	n := p.network.N()
	for _, c := range cfg.injectors {
		switch f := c.(type) {
		case fault.CrashWindow:
			if f.Proc >= n {
				return FaultReport{}, fmt.Errorf("multigossip: crash processor %d out of range [0,%d)", f.Proc, n)
			}
		case fault.DeadLink:
			if f.U >= n || f.V >= n {
				return FaultReport{}, fmt.Errorf("multigossip: dead link (%d, %d) out of range [0,%d)", f.U, f.V, n)
			}
			if !p.network.HasEdge(f.U, f.V) {
				return FaultReport{}, fmt.Errorf("multigossip: dead link (%d, %d) is not a network link", f.U, f.V)
			}
		}
	}
	start, msgs := p.startHolds()
	progress := obs.NewProgressCollector(msgs, n*msgs)
	ro := obs.Multi(cfg.observer, progress)
	ro.BeginPhase("schedule", p.algo.String())
	holds, dropped, err := fault.ExecuteTraced(p.network, s, inj, start, 0, nil, ro)
	ro.EndPhase("schedule")
	if err != nil {
		return FaultReport{}, err
	}
	rep := FaultReport{
		Coverage:       fault.Coverage(holds),
		ScheduleRounds: s.Time(),
		Dropped:        dropped,
	}
	if !cfg.repair {
		rep.FinalCoverage = rep.Coverage
		rep.ReachableCoverage = rep.Coverage
		rep.TotalRounds = rep.ScheduleRounds
		rep.Complete = repair.MissingPairs(holds) == 0
		rep.ProgressCurve = progress.Curve()
		return rep, nil
	}
	ro.BeginPhase("repair", "")
	out, err := repair.Run(p.network, holds, repair.Options{
		MaxIterations:       cfg.maxIters,
		Injector:            inj,
		RoundOffset:         s.Time(),
		Validate:            true,
		QuarantineThreshold: cfg.quarantine,
		Observer:            ro,
	})
	ro.EndPhase("repair")
	if err != nil {
		return FaultReport{}, err
	}
	rep.Dropped += out.Dropped
	rep.Repaired = out.Repaired
	rep.RepairRounds = out.Rounds
	rep.RepairIterations = out.Iterations
	rep.TotalRounds = rep.ScheduleRounds + out.Rounds
	rep.FinalCoverage = fault.Coverage(out.Holds)
	rep.Complete = out.Complete
	rep.ReachableCoverage = out.ReachableCoverage
	for _, pr := range out.Unreachable {
		rep.Unreachable = append(rep.Unreachable, Pair{Processor: pr.Processor, Message: pr.Message})
	}
	for _, e := range out.QuarantinedLinks {
		rep.QuarantinedLinks = append(rep.QuarantinedLinks, Link{U: e.U, V: e.V})
	}
	rep.DownProcessors = out.DownProcessors
	rep.Components = out.Components
	rep.Stalled = out.Stalled
	rep.ProgressCurve = progress.Curve()
	return rep, nil
}
