package schedule

import (
	"fmt"

	"multigossip/internal/graph"
	"multigossip/internal/obs"
)

// Options configure validation and simulation.
type Options struct {
	// Initial gives each processor's starting hold set. When nil, processor
	// p holds exactly message p, the basic gossiping instance (requires
	// NMsg == N). The slices are not modified.
	Initial []*Bitset
	// RequireUseful, when set, rejects any delivery of a message the
	// destination already holds. The paper's model permits such deliveries
	// (algorithm Simple makes them); ConcurrentUpDown never should, and its
	// tests turn this on as a strictness probe.
	RequireUseful bool
	// RecvPorts is the number of messages a processor may receive per
	// round. Zero means 1, the paper's model; larger values validate the
	// k-port extension studied in experiment E27.
	RecvPorts int
	// Observer, when non-nil, receives BeginRound/EndRound events (with
	// aggregated RoundStats) and per-delivery Delivered events as the
	// simulation advances — the fault-free side of the observability layer.
	// Round indices are the schedule's own (no offset).
	Observer obs.RoundObserver
}

// Result reports the outcome of simulating a schedule.
type Result struct {
	Holds            []*Bitset // final hold set per processor
	WastedDeliveries int       // deliveries of already-held messages
	CompleteAt       int       // earliest time every processor holds all messages, or -1
}

// Run validates s against the communication model on network g and
// simulates the hold sets. It enforces, for every round:
//
//  1. each processor sends at most one message (distinct senders),
//  2. each processor receives at most one message (disjoint destination sets),
//  3. every destination is adjacent to its sender in g,
//  4. the sender holds the message at send time, where the hold set at time
//     t already includes the message received at time t (receive happens
//     before send within a time unit).
//
// On success it returns the final hold sets and statistics; the first
// violation aborts with a descriptive error naming the round.
func Run(g *graph.Graph, s Source, opts Options) (*Result, error) {
	n, nmsg := s.Processors(), s.Messages()
	if g.N() != n {
		return nil, fmt.Errorf("schedule: graph has %d processors, schedule %d", g.N(), n)
	}
	holds, err := initialHolds(n, nmsg, opts.Initial)
	if err != nil {
		return nil, err
	}
	res := &Result{Holds: holds, CompleteAt: -1}
	if allFull(holds) {
		res.CompleteAt = 0
	}
	ports := opts.RecvPorts
	if ports <= 0 {
		ports = 1
	}
	sentBy := make([]int, n) // round when the processor last sent, -1 if not
	recvBy := make([]int, n) // round when the processor last received
	recvCount := make([]int, n)
	for i := range sentBy {
		sentBy[i] = -1
		recvBy[i] = -1
	}
	ro := opts.Observer
	var round []Transmission
	for t := 0; t < s.Time(); t++ {
		round = s.RoundAppend(t, round[:0])
		if ro != nil {
			ro.BeginRound(t)
		}
		var stats obs.RoundStats
		// Check the round before applying its deliveries: sends at time t
		// use hold sets that already absorbed deliveries from round t-1.
		for _, tx := range round {
			if tx.From < 0 || tx.From >= n {
				return nil, fmt.Errorf("schedule: round %d: sender %d out of range", t, tx.From)
			}
			if tx.Msg < 0 || tx.Msg >= nmsg {
				return nil, fmt.Errorf("schedule: round %d: message %d out of range", t, tx.Msg)
			}
			if sentBy[tx.From] == t {
				return nil, fmt.Errorf("schedule: round %d: processor %d sends twice", t, tx.From)
			}
			sentBy[tx.From] = t
			if !holds[tx.From].Has(tx.Msg) {
				return nil, fmt.Errorf("schedule: round %d: processor %d sends message %d it does not hold", t, tx.From, tx.Msg)
			}
			if len(tx.To) == 0 {
				return nil, fmt.Errorf("schedule: round %d: processor %d multicast with empty destination set", t, tx.From)
			}
			for _, d := range tx.To {
				if d < 0 || d >= n {
					return nil, fmt.Errorf("schedule: round %d: destination %d out of range", t, d)
				}
				if d == tx.From {
					return nil, fmt.Errorf("schedule: round %d: processor %d sends to itself", t, d)
				}
				if !g.HasEdge(tx.From, d) {
					return nil, fmt.Errorf("schedule: round %d: no link %d-%d in the network", t, tx.From, d)
				}
				if recvBy[d] != t {
					recvBy[d] = t
					recvCount[d] = 0
				}
				recvCount[d]++
				if recvCount[d] > ports {
					if ports == 1 {
						return nil, fmt.Errorf("schedule: round %d: processor %d receives two messages", t, d)
					}
					return nil, fmt.Errorf("schedule: round %d: processor %d exceeds %d receive ports", t, d, ports)
				}
				if holds[d].Has(tx.Msg) {
					res.WastedDeliveries++
					if opts.RequireUseful {
						return nil, fmt.Errorf("schedule: round %d: processor %d already holds message %d", t, d, tx.Msg)
					}
				}
			}
		}
		// Apply deliveries: messages sent at round t are held from time t+1.
		for _, tx := range round {
			for _, d := range tx.To {
				if ro != nil {
					if !holds[d].Has(tx.Msg) {
						stats.NewPairs++
					}
					stats.Delivered++
					ro.Delivery(t, tx.From, d, tx.Msg, obs.Delivered)
				}
				holds[d].Set(tx.Msg)
			}
		}
		if ro != nil {
			ro.EndRound(t, stats)
		}
		if res.CompleteAt == -1 && allFull(holds) {
			res.CompleteAt = t + 1
		}
	}
	return res, nil
}

func initialHolds(n, nmsg int, initial []*Bitset) ([]*Bitset, error) {
	holds := make([]*Bitset, n)
	if initial == nil {
		if nmsg != n {
			return nil, fmt.Errorf("schedule: default initial holds need NMsg == N, got %d != %d", nmsg, n)
		}
		for p := range holds {
			holds[p] = NewBitset(nmsg)
			holds[p].Set(p)
		}
		return holds, nil
	}
	if len(initial) != n {
		return nil, fmt.Errorf("schedule: %d initial hold sets for %d processors", len(initial), n)
	}
	for p, h := range initial {
		if h.Len() != nmsg {
			return nil, fmt.Errorf("schedule: initial hold set %d sized %d, want %d", p, h.Len(), nmsg)
		}
		holds[p] = h.Clone()
	}
	return holds, nil
}

func allFull(holds []*Bitset) bool {
	for _, h := range holds {
		if !h.Full() {
			return false
		}
	}
	return true
}

// CheckGossip validates s on g and verifies that it solves the basic
// gossiping problem: after the last round every processor holds all n
// messages. It returns the simulation result on success.
func CheckGossip(g *graph.Graph, s Source) (*Result, error) { return CheckGossipFrom(g, s, nil) }

// CheckGossipFrom is CheckGossip from the given starting hold sets (nil
// for the basic instance; see Options.Initial): after the last round every
// processor must hold every message.
func CheckGossipFrom(g *graph.Graph, s Source, initial []*Bitset) (*Result, error) {
	res, err := Run(g, s, Options{Initial: initial})
	if err != nil {
		return nil, err
	}
	for p, h := range res.Holds {
		if !h.Full() {
			return nil, fmt.Errorf("schedule: incomplete gossip: processor %d is missing messages %v", p, h.Missing())
		}
	}
	return res, nil
}
