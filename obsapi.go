package multigossip

import (
	"multigossip/internal/obs"
	"multigossip/internal/schedule"
)

// Observability: watch a plan execute round by round instead of reading a
// post-hoc report. Attach a RoundObserver to Plan.ExecuteTraced or to
// ExecuteWithFaults (via WithObserver) and it receives structured events —
// phases, rounds with aggregated stats, individual delivery outcomes,
// repair iterations, quarantines — as the execution advances. The package
// ships three sinks: NewTracer (Chrome trace_event timelines for
// chrome://tracing and Perfetto), NewMetrics + InstrumentMetrics
// (Prometheus-style counters and histograms), and the progress curves every
// FaultReport now carries. Custom sinks embed NopObserver and override the
// events they care about; MultiObserver fans events out to several sinks.
//
// Observation is engineered to be free when unused: executors skip all
// emission behind one nil check, so an untraced Execute path is unchanged,
// and the provided sinks record per-delivery events through atomics only.

// RoundObserver receives structured events from an observed execution. See
// the internal obs package for the event contract; implementations must be
// safe for concurrent use when shared across executions, and Delivery is
// the hot path (once per point-to-point delivery).
type RoundObserver = obs.RoundObserver

// RoundStats aggregates the fate of one executed round's deliveries.
type RoundStats = obs.RoundStats

// RepairStats describes one plan-execute-remeasure repair iteration.
type RepairStats = obs.RepairStats

// DeliveryOutcome classifies what happened to one scheduled delivery.
type DeliveryOutcome = obs.Outcome

// Delivery outcomes, in the order executors decide them.
const (
	// Delivered: the message arrived and entered the hold set.
	Delivered = obs.Delivered
	// LostInFlight: a fault injector dropped the delivery on the link.
	LostInFlight = obs.LostInFlight
	// ReceiverDown: sent, but the receiver was crashed.
	ReceiverDown = obs.ReceiverDown
	// SenderDown: skipped entirely because the sender was crashed.
	SenderDown = obs.SenderDown
	// SenderMissing: skipped because the sender never received the message.
	SenderMissing = obs.SenderMissing
	// Superseded: arrived after another delivery already won the round.
	Superseded = obs.Superseded
)

// NopObserver is an embeddable no-op RoundObserver: embed it to implement
// only the events a custom sink cares about.
type NopObserver = obs.Nop

// MultiObserver combines observers into one that fans every event out in
// order. Nil entries are dropped; it returns nil when nothing remains, so
// the executors' fast path still applies.
func MultiObserver(observers ...RoundObserver) RoundObserver {
	return obs.Multi(observers...)
}

// RoundProgress is one point of an execution's per-round progress curve.
type RoundProgress = obs.RoundProgress

// Tracer is a RoundObserver that records a timeline of phases, rounds,
// repair iterations and quarantines, exported with WriteChromeTrace in the
// Chrome trace_event JSON format (chrome://tracing, Perfetto). Safe for
// concurrent use; per-delivery events cost one atomic add.
type Tracer = obs.Tracer

// NewTracer returns an empty Tracer whose clock starts now.
func NewTracer() *Tracer { return obs.NewTracer() }

// Metrics is an atomic metrics registry: named counters, gauges and
// fixed-bucket histograms with a point-in-time Snapshot and a
// Prometheus-text WritePrometheus dump.
type Metrics = obs.Registry

// MetricsCounter is the handle Metrics.Counter returns: a monotonically
// increasing counter recorded through atomics.
type MetricsCounter = obs.Counter

// MetricsGauge is the handle Metrics.Gauge returns.
type MetricsGauge = obs.Gauge

// MetricsHistogram is the handle Metrics.Histogram returns: a fixed-bucket
// histogram with an implicit +Inf bucket.
type MetricsHistogram = obs.Histogram

// MetricsSnapshot is a point-in-time copy of every metric in a Metrics
// registry.
type MetricsSnapshot = obs.Snapshot

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// InstrumentMetrics returns a RoundObserver that records execution events
// into m under gossip_* metric names: per-round and per-outcome delivery
// counters, repair dynamics, and a per-round delivered histogram.
func InstrumentMetrics(m *Metrics) RoundObserver { return obs.Instrument(m) }

// TraceReport summarises one observed fault-free execution.
type TraceReport struct {
	// Rounds is the number of rounds executed (= Plan.Rounds()).
	Rounds int
	// Deliveries is the total number of point-to-point deliveries made.
	Deliveries int
	// WastedDeliveries counts deliveries of already-held messages (zero for
	// ConcurrentUpDown, positive for Simple).
	WastedDeliveries int
	// CompleteAt is the earliest round after which every processor held
	// every message.
	CompleteAt int
	// ProgressCurve is the per-round holds-coverage curve: how the fraction
	// of (processor, message) pairs held grew round by round.
	ProgressCurve []RoundProgress
}

// ExecuteTraced replays the plan fault-free under full model validation
// with the observer attached: the observer receives a "schedule" phase
// span, BeginRound/EndRound for every round with aggregated stats, and one
// Delivered event per delivery. A nil observer is allowed — the report's
// progress curve is still collected. The same Plan may be traced
// concurrently from several goroutines as long as the observer is safe for
// concurrent use.
func (p *Plan) ExecuteTraced(observer RoundObserver) (TraceReport, error) {
	if !p.Schedulable() {
		return TraceReport{}, p.errNoSchedule()
	}
	n := p.network.N()
	progress := obs.NewProgressCollector(n, n*n)
	ro := obs.Multi(observer, progress)
	ro.BeginPhase("schedule", p.algo.String())
	res, err := schedule.Run(p.network, p.source(), schedule.Options{Observer: ro})
	ro.EndPhase("schedule")
	if err != nil {
		return TraceReport{}, err
	}
	curve := progress.Curve()
	deliveries := 0
	for _, r := range curve {
		deliveries += r.Delivered
	}
	return TraceReport{
		Rounds:           p.Rounds(),
		Deliveries:       deliveries,
		WastedDeliveries: res.WastedDeliveries,
		CompleteAt:       res.CompleteAt,
		ProgressCurve:    curve,
	}, nil
}
