// Package schedule defines the communication model of the paper and the
// machinery around it: communication rounds and schedules, a validator that
// enforces the two multicast rules, a hold-set simulator that checks
// completion, per-vertex timetable views matching the paper's Tables 1-4,
// and aggregate statistics.
//
// A message sent during round t (said to be "sent at time t") is received
// at time t+1. Receives happen before sends within a time unit, so a
// message received at time t may be forwarded during round t.
package schedule

import (
	"fmt"
	"sort"
)

// Transmission is one tuple (m, l, D) of a communication round: processor
// From multicasts message Msg to the destination set To.
type Transmission struct {
	Msg  int   // message label (= originating processor in the basic problem)
	From int   // sending processor
	To   []int // destination processors, sorted, non-empty
}

// Round is the set of transmissions sharing a time unit.
type Round []Transmission

// Schedule is a sequence of communication rounds over n processors and
// nmsg messages. Round t holds the transmissions sent at time t.
type Schedule struct {
	N      int // processors
	NMsg   int // messages (== N in the basic gossiping problem)
	Rounds []Round
}

// Source is a schedule read round by round: the form the validator and the
// fault executor consume, so a plan can stream its rounds from a compact
// encoding instead of materialising them. Consumers read rounds 0..Time()-1
// in order with one recycled buffer; implementations must still answer any
// round correctly.
type Source interface {
	Processors() int
	Messages() int
	Time() int
	// RoundAppend appends the transmissions of round t to dst and returns
	// the extended slice; out-of-range rounds append nothing. The appended
	// To slices may alias the source's storage and are read-only; the source
	// may reuse the To slices in dst's spare capacity, so one buffer must
	// serve one Source.
	RoundAppend(t int, dst []Transmission) []Transmission
}

// Processors returns the number of processors; it implements Source.
func (s *Schedule) Processors() int { return s.N }

// Messages returns the number of messages; it implements Source.
func (s *Schedule) Messages() int { return s.NMsg }

// RoundAppend appends round t to dst, sharing the schedule's destination
// slices; it implements Source.
func (s *Schedule) RoundAppend(t int, dst []Transmission) []Transmission {
	if t < 0 || t >= len(s.Rounds) {
		return dst
	}
	return append(dst, s.Rounds[t]...)
}

// New returns an empty schedule for n processors and n messages.
func New(n int) *Schedule { return &Schedule{N: n, NMsg: n} }

// NewWithMessages returns an empty schedule for n processors and nmsg
// messages (used by the weighted-gossiping contraction).
func NewWithMessages(n, nmsg int) *Schedule { return &Schedule{N: n, NMsg: nmsg} }

// Time returns the total communication time: the number of rounds, i.e.
// one past the latest time at which there is a communication (a message
// sent at round T-1 arrives at time T).
func (s *Schedule) Time() int { return len(s.Rounds) }

// AddSend records that processor from multicasts msg to the destinations
// during round t, growing the schedule as needed. Destinations are stored
// sorted. It panics on an empty destination set so silent no-ops cannot
// hide scheduling bugs.
func (s *Schedule) AddSend(t, msg, from int, to ...int) {
	if len(to) == 0 {
		panic(fmt.Sprintf("schedule: empty destination set at t=%d msg=%d from=%d", t, msg, from))
	}
	for len(s.Rounds) <= t {
		s.Rounds = append(s.Rounds, nil)
	}
	dests := append([]int(nil), to...)
	// The schedule builders emit destinations in nearly sorted order, so a
	// sortedness check avoids the sort in the common case (this path runs
	// Θ(n²) times per schedule).
	for i := 1; i < len(dests); i++ {
		if dests[i-1] > dests[i] {
			sort.Ints(dests)
			break
		}
	}
	s.Rounds[t] = append(s.Rounds[t], Transmission{Msg: msg, From: from, To: dests})
}

// Transmissions returns the total number of multicast transmissions.
func (s *Schedule) Transmissions() int {
	total := 0
	for _, r := range s.Rounds {
		total += len(r)
	}
	return total
}

// Deliveries returns the total number of point-to-point message deliveries
// (each destination of each transmission counts once).
func (s *Schedule) Deliveries() int {
	total := 0
	for _, r := range s.Rounds {
		for _, tx := range r {
			total += len(tx.To)
		}
	}
	return total
}

// Clone returns a deep copy, used by the failure-injection tests to corrupt
// schedules without destroying the original.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{N: s.N, NMsg: s.NMsg, Rounds: make([]Round, len(s.Rounds))}
	for t, r := range s.Rounds {
		c.Rounds[t] = make(Round, len(r))
		for i, tx := range r {
			c.Rounds[t][i] = Transmission{Msg: tx.Msg, From: tx.From, To: append([]int(nil), tx.To...)}
		}
	}
	return c
}

// Normalize sorts each round's transmissions by sender, giving schedules a
// canonical form for comparison in tests (offline vs online runs).
func (s *Schedule) Normalize() {
	for _, r := range s.Rounds {
		sort.Slice(r, func(i, j int) bool { return r[i].From < r[j].From })
	}
}

// Equal reports whether two normalized schedules are identical.
func (s *Schedule) Equal(o *Schedule) bool {
	if s.N != o.N || s.NMsg != o.NMsg || len(s.Rounds) != len(o.Rounds) {
		return false
	}
	for t := range s.Rounds {
		if len(s.Rounds[t]) != len(o.Rounds[t]) {
			return false
		}
		for i := range s.Rounds[t] {
			a, b := s.Rounds[t][i], o.Rounds[t][i]
			if a.Msg != b.Msg || a.From != b.From || len(a.To) != len(b.To) {
				return false
			}
			for j := range a.To {
				if a.To[j] != b.To[j] {
					return false
				}
			}
		}
	}
	return true
}

// String renders one line per round: "t=3: 5->{1,2}:m4  7->{0}:m6".
func (s *Schedule) String() string {
	out := fmt.Sprintf("schedule{n=%d, time=%d}\n", s.N, s.Time())
	for t, r := range s.Rounds {
		out += fmt.Sprintf("t=%d:", t)
		for _, tx := range r {
			out += fmt.Sprintf(" %d->%v:m%d", tx.From, tx.To, tx.Msg)
		}
		out += "\n"
	}
	return out
}
