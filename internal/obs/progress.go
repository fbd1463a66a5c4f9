package obs

import "sync"

// RoundProgress is one point of an execution's per-round progress curve.
type RoundProgress struct {
	// Round is the absolute round index.
	Round int
	// Delivered, Dropped, Skipped, Superseded and NewPairs are the round's
	// delivery stats (see RoundStats).
	Delivered, Dropped, Skipped, Superseded, NewPairs int
	// Held is the cumulative number of (processor, message) pairs held
	// after the round, and Coverage its fraction of all pairs.
	Held     int
	Coverage float64
}

// ProgressCollector is a RoundObserver that folds EndRound events into a
// per-round holds-coverage progress curve — the per-round progress signal
// the algebraic-gossip literature analyses gossip through. It ignores
// per-delivery events entirely, and fault.ExecuteTraced sends none to an
// observer that is exactly a *ProgressCollector, so attaching it alone
// costs O(rounds), not O(deliveries).
type ProgressCollector struct {
	Nop
	mu          sync.Mutex
	initialHeld int
	totalPairs  int
	rounds      []RoundProgress // indexed by absolute round
	seen        []bool
}

// NewProgressCollector returns a collector for an execution that starts
// with initialHeld pairs already held out of totalPairs (the basic gossip
// instance starts with n of n² pairs: every processor holds its own
// message).
func NewProgressCollector(initialHeld, totalPairs int) *ProgressCollector {
	return &ProgressCollector{initialHeld: initialHeld, totalPairs: totalPairs}
}

// EndRound implements RoundObserver. Stats for the same absolute round
// accumulate, so a collector spanning schedule and repair phases merges
// re-executions of a round index rather than losing them.
func (c *ProgressCollector) EndRound(absRound int, stats RoundStats) {
	if absRound < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.rounds) <= absRound {
		c.rounds = append(c.rounds, RoundProgress{Round: len(c.rounds)})
		c.seen = append(c.seen, false)
	}
	r := &c.rounds[absRound]
	r.Delivered += stats.Delivered
	r.Dropped += stats.Dropped
	r.Skipped += stats.Skipped
	r.Superseded += stats.Superseded
	r.NewPairs += stats.NewPairs
	c.seen[absRound] = true
}

// Curve returns the progress curve: one entry per observed round in round
// order, with cumulative Held and Coverage filled in. Rounds never
// observed (possible when an observer is attached mid-pipeline) are
// omitted.
func (c *ProgressCollector) Curve() []RoundProgress {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]RoundProgress, 0, len(c.rounds))
	held := c.initialHeld
	for i, r := range c.rounds {
		if !c.seen[i] {
			continue
		}
		held += r.NewPairs
		r.Held = held
		if c.totalPairs > 0 {
			r.Coverage = float64(held) / float64(c.totalPairs)
		}
		out = append(out, r)
	}
	return out
}
