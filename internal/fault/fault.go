// Package fault analyses schedule robustness under message loss. The
// paper's model is lossless, and ConcurrentUpDown exploits that fully: it
// has zero wasted deliveries, so every single delivery is load-bearing.
// Algorithm Simple, by contrast, re-delivers messages into subtrees that
// already hold them; those "wasted" deliveries act as redundancy. This
// package quantifies the trade-off: a lenient executor propagates the
// consequences of dropped deliveries (a processor that never received a
// message silently skips its scheduled relays of it), and the analyses
// report coverage and single-drop criticality.
//
// Faults are described by Injectors — deterministic models deciding which
// deliveries are lost in flight and which processors are crashed in which
// rounds. Four models are provided: DropSet (an explicit per-delivery drop
// map), LinkLoss (i.i.d. Bernoulli loss per delivery, decided by a seeded
// hash so the same delivery always meets the same fate), CrashWindow (a
// fail-silent processor outage over a round interval, open-ended via
// CrashStop), and DeadLink (a permanently severed link). The first two are
// transient — retrying eventually succeeds; the last two, when unbounded,
// are permanent and must be handled as topology changes, which package
// repair does by quarantining them and replanning over the survivor
// subgraph. Package repair consumes the hold sets this package produces
// and synthesizes the rounds that close the residual deficit.
package fault

import (
	"fmt"
	"math"
	"math/rand"

	"multigossip/internal/graph"
	"multigossip/internal/obs"
	"multigossip/internal/schedule"
)

// DeliveryID identifies one point-to-point delivery of a schedule: the
// destination Dest of transmission index Tx in round Round.
type DeliveryID struct {
	Round, Tx, Dest int
}

// Injector is a deterministic fault model. Execution asks it, for every
// delivery, whether that delivery is lost in flight, and, for every
// (round, processor) pair, whether the processor is crashed for the round
// (neither sending nor receiving, but retaining its memory). Rounds are
// absolute indices: repair rounds appended after a T-round schedule are
// asked about rounds T, T+1, ... so one injector spans an entire
// execute-repair pipeline. Implementations must be pure functions of their
// arguments — the engine may ask about the same delivery more than once,
// and skips asking a model whose answer is provably false (see compile).
type Injector interface {
	// Drop reports whether the delivery of msg from processor from to
	// processor to, sent as transmission index tx of (absolute) round t, is
	// lost in flight.
	Drop(t, tx, from, to, msg int) bool
	// Down reports whether processor p is crashed during (absolute) round t.
	Down(t, p int) bool
}

// DropSet is the explicit fault model: exactly the listed deliveries of the
// main schedule are lost. It never crashes processors. Repair rounds are
// unaffected (their round indices lie beyond the schedule, where the set
// has no entries), matching its use for single-drop criticality probes.
type DropSet map[DeliveryID]bool

// Drop implements Injector.
func (d DropSet) Drop(t, tx, _, to, _ int) bool { return d[DeliveryID{t, tx, to}] }

// Down implements Injector.
func (DropSet) Down(int, int) bool { return false }

// LinkLoss is the Bernoulli lossy-link model: every delivery is lost
// independently with probability P. The decision is a pure hash of
// (Seed, round, sender, receiver, message) — not of the transmission
// index — so it is deterministic, independent of execution order, and a
// retry of the same (sender, receiver, message) link use in a later round
// draws a fresh coin while a replay of the identical round reproduces the
// identical faults.
type LinkLoss struct {
	P    float64
	Seed int64
}

// Drop implements Injector.
func (l LinkLoss) Drop(t, _, from, to, msg int) bool {
	if l.P <= 0 {
		return false
	}
	if l.P >= 1 {
		return true
	}
	x := mix64(uint64(l.Seed) ^ mix64(uint64(t)+1))
	x = mix64(x ^ mix64(uint64(from)+1))
	x = mix64(x ^ mix64(uint64(to)+1))
	x = mix64(x ^ mix64(uint64(msg)+1))
	// 53 uniform mantissa bits, the same construction math/rand uses.
	return float64(x>>11)/(1<<53) < l.P
}

// Down implements Injector.
func (LinkLoss) Down(int, int) bool { return false }

// mix64 is the splitmix64 finalizer, a cheap high-quality bijective mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// CrashWindow is a fail-silent processor outage: Proc neither sends nor
// receives during rounds From <= t < To, keeps the messages it already
// held, and rejoins afterwards. A window ending at Forever never closes —
// the crash-stop model (see CrashStop).
type CrashWindow struct {
	Proc, From, To int
}

// Drop implements Injector.
func (CrashWindow) Drop(int, int, int, int, int) bool { return false }

// Down implements Injector.
func (c CrashWindow) Down(t, p int) bool { return p == c.Proc && t >= c.From && t < c.To }

// Forever is the open upper bound of a CrashWindow: a window reaching it
// never closes, turning the transient outage into a permanent fault.
const Forever = math.MaxInt

// CrashStop returns the crash-stop fault model: processor proc fails
// silently at round from and never rejoins. Unlike a bounded CrashWindow,
// no retry budget can out-wait it — recovery must treat the processor as
// removed from the topology (package repair quarantines it).
func CrashStop(proc, from int) CrashWindow {
	return CrashWindow{Proc: proc, From: from, To: Forever}
}

// DeadLink is a permanent bidirectional link failure: every delivery
// crossing the link {U, V}, in either direction and in every round
// (scheduled and repair alike), is lost in flight. Unlike LinkLoss, no
// retry can succeed — recovery must route around the link (package repair
// quarantines it after repeated failures).
type DeadLink struct {
	U, V int
}

// Drop implements Injector.
func (l DeadLink) Drop(_, _, from, to, _ int) bool {
	return (from == l.U && to == l.V) || (from == l.V && to == l.U)
}

// Down implements Injector.
func (DeadLink) Down(int, int) bool { return false }

// Compose unions fault models: a delivery is dropped, or a processor down,
// when any component model says so.
type Compose []Injector

// Drop implements Injector.
func (cs Compose) Drop(t, tx, from, to, msg int) bool {
	for _, c := range cs {
		if c.Drop(t, tx, from, to, msg) {
			return true
		}
	}
	return false
}

// Down implements Injector.
func (cs Compose) Down(t, p int) bool {
	for _, c := range cs {
		if c.Down(t, p) {
			return true
		}
	}
	return false
}

// DeliveryOutcome classifies what happened to one scheduled delivery, as
// reported to an Observer. It is an alias of the canonical obs.Outcome, so
// fault observers and obs.RoundObserver sinks share one enumeration.
type DeliveryOutcome = obs.Outcome

const (
	// Delivered: the message arrived and was absorbed into the hold set.
	Delivered = obs.Delivered
	// LostInFlight: the injector dropped the delivery on the link.
	LostInFlight = obs.LostInFlight
	// ReceiverDown: the transmission was sent but the receiver was crashed.
	ReceiverDown = obs.ReceiverDown
	// SenderDown: the whole transmission was skipped because the sender was
	// crashed; nothing entered the link.
	SenderDown = obs.SenderDown
	// SenderMissing: the transmission was skipped because the sender never
	// received the message (upstream fault propagation); nothing entered
	// the link, and the failure is not attributable to it.
	SenderMissing = obs.SenderMissing
	// Superseded: the message arrived but the receiver had already accepted
	// another delivery this round (possible only downstream of faults or in
	// hand-built schedules); the later arrival is discarded.
	Superseded = obs.Superseded
)

// Observer receives the fate of every scheduled delivery during an observed
// execution: the absolute round, the endpoints, the message, and the
// outcome. Package repair uses it to attribute repeated failures to links
// and processors (suspicion) without peeking inside the injector.
type Observer func(absRound, from, to, msg int, outcome DeliveryOutcome)

// ExecuteInjected is the general lenient executor. Scheduled transmissions
// of messages the sender does not hold — or whose sender is crashed — are
// skipped (the fault has propagated), deliveries the injector drops or
// whose receiver is crashed are lost in flight, and same-round receiver
// conflicts (possible only after upstream faults or in hand-built
// schedules) discard the later message rather than erroring.
//
// initial gives the starting hold sets (cloned, not modified); nil means
// the basic gossiping instance — processor p holds exactly message p —
// which requires NMsg == N. roundOffset is added to every round index
// before the injector is consulted, so repair rounds appended after a
// T-round schedule run with offset T and see absolute round numbers.
//
// It returns the final hold sets and the number of deliveries lost in
// flight (skipped transmissions send nothing, so their deliveries are not
// counted as drops).
func ExecuteInjected(g *graph.Graph, s schedule.Source, inj Injector, initial []*schedule.Bitset, roundOffset int) (holds []*schedule.Bitset, dropped int, err error) {
	return ExecuteTraced(g, s, inj, initial, roundOffset, nil, nil)
}

// ExecuteObserved is ExecuteInjected with a per-delivery Observer: watch
// (if non-nil) is called once for every destination of every scheduled
// transmission with the outcome of that delivery. Execution semantics and
// return values are identical to ExecuteInjected.
func ExecuteObserved(g *graph.Graph, s schedule.Source, inj Injector, initial []*schedule.Bitset, roundOffset int, watch Observer) (holds []*schedule.Bitset, dropped int, err error) {
	return ExecuteTraced(g, s, inj, initial, roundOffset, watch, nil)
}

// ExecuteTraced is the fully observed executor: watch (if non-nil) receives
// the per-delivery outcomes as in ExecuteObserved, and ro (if non-nil)
// receives the structured round events of the observability layer —
// BeginRound/EndRound with aggregated RoundStats and the same per-delivery
// outcomes via Delivery; an ro that is exactly an *obs.ProgressCollector,
// which ignores Delivery, gets only the round events. Both observers see
// absolute round indices (roundOffset added). With both nil the executor
// takes the untraced fast path; ExecuteInjected and ExecuteObserved
// delegate here. It reads s once, round by round in order, so a streamed
// Source is never materialised. The returned hold sets share one word
// slab (schedule.NewBitsets), and inj is compiled once per call into a
// form whose LinkLoss coins cost two hash mixes per delivery and whose
// provably-false Drop and Down members are never asked.
func ExecuteTraced(g *graph.Graph, s schedule.Source, inj Injector, initial []*schedule.Bitset, roundOffset int, watch Observer, ro obs.RoundObserver) (holds []*schedule.Bitset, dropped int, err error) {
	n, nmsg := s.Processors(), s.Messages()
	if g.N() != n {
		return nil, 0, fmt.Errorf("fault: graph has %d processors, schedule %d", g.N(), n)
	}
	if initial == nil {
		if nmsg != n {
			return nil, 0, fmt.Errorf("fault: lenient executor supports the basic instance only")
		}
		holds = schedule.NewBitsets(n, nmsg)
		for v, h := range holds {
			h.Set(v)
		}
	} else {
		if len(initial) != n {
			return nil, 0, fmt.Errorf("fault: %d initial hold sets for %d processors", len(initial), n)
		}
		for v, h := range initial {
			if h.Len() != nmsg {
				return nil, 0, fmt.Errorf("fault: initial hold set %d sized %d, want %d", v, h.Len(), nmsg)
			}
		}
		holds = schedule.CloneAll(initial)
	}
	ci := compile(inj, max(n, nmsg))
	received := make([]int, n) // round of last receive, -1 otherwise
	for i := range received {
		received[i] = -1
	}
	// perDelivery is the observer that takes Delivery events: ro, unless
	// ro is the progress collector alone, which folds only EndRound and
	// would turn every delivery into a wasted call.
	perDelivery := ro
	if _, ok := ro.(*obs.ProgressCollector); ok {
		perDelivery = nil
	}
	// report fans one delivery outcome out to both observers; skipped is
	// the SenderDown/SenderMissing case, where the whole destination set is
	// reported at once.
	report := func(abs, from, to, msg int, outcome DeliveryOutcome) {
		if watch != nil {
			watch(abs, from, to, msg, outcome)
		}
		if perDelivery != nil {
			perDelivery.Delivery(abs, from, to, msg, outcome)
		}
	}
	observed := watch != nil || perDelivery != nil
	type delivery struct{ msg, to int }
	var (
		round    []schedule.Transmission
		arriving []delivery
	)
	for t := 0; t < s.Time(); t++ {
		round = s.RoundAppend(t, round[:0])
		arriving = arriving[:0]
		abs := roundOffset + t
		if ro != nil {
			ro.BeginRound(abs)
		}
		if ci != nil {
			ci.beginRound(abs)
		}
		var stats obs.RoundStats
		for txIdx, tx := range round {
			if ci != nil && ci.down(abs, tx.From) {
				stats.Skipped += len(tx.To)
				if observed {
					for _, d := range tx.To {
						report(abs, tx.From, d, tx.Msg, SenderDown)
					}
				}
				continue // crashed sender: nothing leaves it
			}
			if !holds[tx.From].Has(tx.Msg) {
				stats.Skipped += len(tx.To)
				if observed {
					for _, d := range tx.To {
						report(abs, tx.From, d, tx.Msg, SenderMissing)
					}
				}
				continue // fault propagation: nothing to send
			}
			if ci != nil {
				ci.beginTx(tx.From)
			}
			for _, d := range tx.To {
				if ci != nil {
					if ci.drop(abs, txIdx, tx.From, d, tx.Msg) {
						dropped++
						stats.Dropped++
						if observed {
							report(abs, tx.From, d, tx.Msg, LostInFlight)
						}
						continue
					}
					if ci.down(abs, d) {
						dropped++
						stats.Dropped++
						if observed {
							report(abs, tx.From, d, tx.Msg, ReceiverDown)
						}
						continue
					}
				}
				if received[d] == t {
					stats.Superseded++
					if observed {
						report(abs, tx.From, d, tx.Msg, Superseded)
					}
					continue // conflict after upstream faults: discard
				}
				received[d] = t
				arriving = append(arriving, delivery{tx.Msg, d})
				stats.Delivered++
				if observed {
					report(abs, tx.From, d, tx.Msg, Delivered)
				}
			}
		}
		for _, a := range arriving {
			if ro != nil && !holds[a.to].Has(a.msg) {
				stats.NewPairs++
			}
			holds[a.to].Set(a.msg)
		}
		if ro != nil {
			ro.EndRound(abs, stats)
		}
	}
	return holds, dropped, nil
}

// Coverage returns the fraction of (processor, message) pairs present in
// the hold sets.
func Coverage(holds []*schedule.Bitset) float64 {
	if len(holds) == 0 {
		return 0
	}
	got := 0
	for _, h := range holds {
		got += h.Count()
	}
	return float64(got) / float64(len(holds)*holds[0].Len())
}

// Execute runs s on g leniently with the listed deliveries lost in flight;
// see ExecuteInjected for the execution semantics. It returns per-processor
// hold sets and the achieved coverage: the fraction of (processor, message)
// pairs held at the end.
func Execute(g *graph.Graph, s schedule.Source, dropped map[DeliveryID]bool) (holds []*schedule.Bitset, coverage float64, err error) {
	holds, _, err = ExecuteInjected(g, s, DropSet(dropped), nil, 0)
	if err != nil {
		return nil, 0, err
	}
	return holds, Coverage(holds), nil
}

// CriticalityReport summarises a single-drop sweep.
type CriticalityReport struct {
	Deliveries int     // total deliveries in the schedule
	Critical   int     // drops that leave gossiping incomplete
	Fraction   float64 // Critical / Deliveries
}

// Criticality drops every delivery of s in turn and reports how many are
// critical (their loss leaves some processor without some message). For
// ConcurrentUpDown the fraction is 1: optimal schedules carry no slack.
func Criticality(g *graph.Graph, s *schedule.Schedule) (CriticalityReport, error) {
	rep := CriticalityReport{}
	for t, round := range s.Rounds {
		for txIdx, tx := range round {
			for _, d := range tx.To {
				rep.Deliveries++
				holds, _, err := Execute(g, s, map[DeliveryID]bool{{t, txIdx, d}: true})
				if err != nil {
					return rep, err
				}
				for _, h := range holds {
					if !h.Full() {
						rep.Critical++
						break
					}
				}
			}
		}
	}
	if rep.Deliveries > 0 {
		rep.Fraction = float64(rep.Critical) / float64(rep.Deliveries)
	}
	return rep, nil
}

// RandomLoss drops each delivery independently with probability p over the
// given number of trials and returns the mean coverage — the degradation
// curve of the schedule under lossy links. Each trial reads s twice in
// round order: once to draw the drops, once to execute.
func RandomLoss(g *graph.Graph, s schedule.Source, p float64, trials int, rng *rand.Rand) (meanCoverage float64, err error) {
	if !(p >= 0 && p <= 1) { // also rejects NaN
		return 0, fmt.Errorf("fault: loss probability %v out of [0,1]", p)
	}
	if trials < 1 {
		return 0, fmt.Errorf("fault: need at least one trial")
	}
	sum := 0.0
	var round []schedule.Transmission
	for trial := 0; trial < trials; trial++ {
		dropped := make(map[DeliveryID]bool)
		for t := 0; t < s.Time(); t++ {
			round = s.RoundAppend(t, round[:0])
			for txIdx, tx := range round {
				for _, d := range tx.To {
					if rng.Float64() < p {
						dropped[DeliveryID{t, txIdx, d}] = true
					}
				}
			}
		}
		_, cov, err := Execute(g, s, dropped)
		if err != nil {
			return 0, err
		}
		sum += cov
	}
	return sum / float64(trials), nil
}
