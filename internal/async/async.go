// Package async estimates wall-clock makespan when a schedule executes on
// hardware with non-uniform link latencies. The paper's machines (the
// Meiko CS-2, wireless sensors) synchronise rounds with software barriers:
// a round cannot close until its slowest transmission lands, so the
// makespan is the sum over rounds of the slowest active link plus the
// barrier overhead. Under latency jitter, schedules with fewer rounds
// (ConcurrentUpDown's n + r) win proportionally over longer ones (Simple's
// 2n + r - 3) — and the gap widens with jitter because every extra round
// samples another max-of-k latency.
package async

import (
	"fmt"
	"math/rand"

	"multigossip/internal/schedule"
)

// LatencyModel draws per-transmission latencies. Implementations must be
// deterministic given their rng.
type LatencyModel interface {
	// Latency returns the time units transmission tx takes in round t.
	Latency(t int, tx schedule.Transmission, rng *rand.Rand) float64
}

// UniformJitter draws latencies uniformly from [Base, Base+Jitter].
type UniformJitter struct {
	Base   float64
	Jitter float64
}

// Latency implements LatencyModel.
func (u UniformJitter) Latency(_ int, _ schedule.Transmission, rng *rand.Rand) float64 {
	return u.Base + u.Jitter*rng.Float64()
}

// DegreeProportional models multicast cost growing with fanout (for
// networks whose multicast is implemented as a pipelined unicast tree):
// latency Base + PerDest * |To| + jitter.
type DegreeProportional struct {
	Base    float64
	PerDest float64
	Jitter  float64
}

// Latency implements LatencyModel.
func (d DegreeProportional) Latency(_ int, tx schedule.Transmission, rng *rand.Rand) float64 {
	return d.Base + d.PerDest*float64(len(tx.To)) + d.Jitter*rng.Float64()
}

// Result is a makespan estimate.
type Result struct {
	Makespan     float64 // total simulated time units
	Rounds       int     // schedule rounds (incl. idle rounds, which cost Barrier)
	MeanRound    float64 // Makespan / Rounds
	SlowestRound float64 // the single worst round
}

// Makespan simulates barrier-synchronised execution of s: each round costs
// the maximum latency among its transmissions (or zero for an idle round)
// plus the fixed barrier overhead. trials runs are averaged, each reading s
// once in round order.
func Makespan(s schedule.Source, model LatencyModel, barrier float64, trials int, rng *rand.Rand) (Result, error) {
	if model == nil {
		return Result{}, fmt.Errorf("async: nil latency model")
	}
	if trials < 1 {
		return Result{}, fmt.Errorf("async: need at least one trial")
	}
	if barrier < 0 {
		return Result{}, fmt.Errorf("async: negative barrier cost")
	}
	var total, worst float64
	var round []schedule.Transmission
	for trial := 0; trial < trials; trial++ {
		for t := 0; t < s.Time(); t++ {
			round = s.RoundAppend(t, round[:0])
			slowest := 0.0
			for _, tx := range round {
				if l := model.Latency(t, tx, rng); l > slowest {
					slowest = l
				}
			}
			cost := slowest + barrier
			total += cost
			if cost > worst {
				worst = cost
			}
		}
	}
	mean := total / float64(trials)
	res := Result{Makespan: mean, Rounds: s.Time(), SlowestRound: worst}
	if s.Time() > 0 {
		res.MeanRound = mean / float64(s.Time())
	}
	return res, nil
}
