package schedule

import "fmt"

// Stats aggregates the measurable properties of a schedule that the
// experiment harness reports alongside the total communication time.
type Stats struct {
	Time            int     // total communication time (rounds)
	Transmissions   int     // multicast send operations
	Deliveries      int     // point-to-point message deliveries
	MaxFanout       int     // largest multicast destination set
	AvgFanout       float64 // deliveries / transmissions
	SendSlotsUsed   int     // (processor, round) pairs with a send
	RecvSlotsUsed   int     // (processor, round) pairs with a receive
	SendUtilization float64 // SendSlotsUsed / (N * Time)
	RecvUtilization float64 // RecvSlotsUsed / (N * Time)
}

// Measure computes Stats from the schedule alone (no validation), reading
// its rounds once in order.
func Measure(s Source) Stats {
	st := Stats{Time: s.Time()}
	var round []Transmission
	for t := 0; t < st.Time; t++ {
		round = s.RoundAppend(t, round[:0])
		st.Transmissions += len(round)
		st.SendSlotsUsed += len(round)
		for _, tx := range round {
			st.Deliveries += len(tx.To)
			st.RecvSlotsUsed += len(tx.To)
			if len(tx.To) > st.MaxFanout {
				st.MaxFanout = len(tx.To)
			}
		}
	}
	if st.Transmissions > 0 {
		st.AvgFanout = float64(st.Deliveries) / float64(st.Transmissions)
	}
	if slots := s.Processors() * st.Time; slots > 0 {
		st.SendUtilization = float64(st.SendSlotsUsed) / float64(slots)
		st.RecvUtilization = float64(st.RecvSlotsUsed) / float64(slots)
	}
	return st
}

// String renders the stats on one line.
func (st Stats) String() string {
	return fmt.Sprintf("time=%d tx=%d deliveries=%d maxFanout=%d avgFanout=%.2f sendUtil=%.2f recvUtil=%.2f",
		st.Time, st.Transmissions, st.Deliveries, st.MaxFanout, st.AvgFanout, st.SendUtilization, st.RecvUtilization)
}
