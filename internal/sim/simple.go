package sim

import (
	"fmt"

	"multigossip/internal/implicit"
	"multigossip/internal/schedule"
)

// RunSimple executes algorithm Simple (Lemma 1) over the packed topology
// from each processor's local rules, synchronously on one shard. A
// non-root vertex at level k relays each m of its interval [i..j] to its
// parent at time m - k; m must be its own message or have arrived from a
// child that round. The root (label 0) multicasts m to its children at
// time n - 2 + m and must already hold m. An inner vertex forwards each
// parent arrival to its children in the round it lands. The run fails on
// a receive conflict, on a vertex that must both relay up and forward down
// in one round, and on any vertex that ends incomplete. Arrivals from each
// direction come in increasing message order, so one int per direction
// proves them distinct. Simple re-delivers messages a subtree already
// holds, so CompleteAt is the last delivery's time, 2n + height - 3. sink
// (optional) sees every round with Run's RoundSink conventions.
func RunSimple(t implicit.Topo, sink RoundSink) (Result, error) {
	res := Result{Shards: 1}
	n := int32(t.N)
	if n <= 1 {
		return res, nil
	}
	last := 2*n - 3 // the root's final multicast
	maxR := 2*n + int32(t.Height) + 8
	// The most recent arrival, the last message from a child and from the
	// parent, and the count of distinct foreign messages held.
	recvRound, recvMsg, recvPar := make([]int32, n), make([]int32, n), make([]bool, n)
	upLast, downLast, held := make([]int32, n), make([]int32, n), make([]int32, n)
	for v := int32(0); v < n; v++ {
		recvRound[v], upLast[v], downLast[v] = -1, v, -1
	}
	rootHeld := schedule.NewBitset(t.N)
	orig := func(v int32) int32 { return t.VertexOf[v] }
	type arrival struct {
		dest, msg  int32
		fromParent bool
	}
	var cur, nxt []arrival
	var round []schedule.Transmission
	var tos []int
	emit := func(v, m int32, dests []int32, fromParent bool) {
		if len(dests) == 0 {
			return
		}
		from := len(tos)
		for _, d := range dests {
			nxt = append(nxt, arrival{d, m, fromParent})
			tos = append(tos, int(d))
		}
		round = append(round, schedule.Transmission{Msg: int(m), From: int(v), To: tos[from:len(tos):len(tos)]})
		res.Sends++
		res.Events++
	}
	for tt := int32(0); ; tt++ {
		if tt > maxR {
			return res, fmt.Errorf("sim: Simple exceeded %d rounds (n=%d height=%d expects %d)",
				maxR, n, t.Height, last+int32(t.Height))
		}
		for _, a := range cur {
			d, m := a.dest, a.msg
			if recvRound[d] == tt {
				return res, fmt.Errorf("sim: vertex %d receives two messages at time %d (%d and %d)",
					orig(d), tt, orig(recvMsg[d]), orig(m))
			}
			recvRound[d], recvMsg[d], recvPar[d] = tt, m, a.fromParent
			res.Deliveries++
			res.Events++
			res.CompleteAt = int(tt)
			if a.fromParent {
				if m <= downLast[d] {
					return res, fmt.Errorf("sim: vertex %d received message %d from its parent after message %d at time %d",
						orig(d), orig(m), orig(downLast[d]), tt)
				}
				downLast[d] = m
				if m < d || m > t.Hi[d] {
					held[d]++
				}
				continue
			}
			if m <= upLast[d] || m > t.Hi[d] {
				return res, fmt.Errorf("sim: vertex %d received message %d from a child at time %d out of subtree order",
					orig(d), orig(m), tt)
			}
			upLast[d] = m
			held[d]++
			if d == 0 {
				rootHeld.Set(int(m))
			}
		}
		cur, round, tos = cur[:0], round[:0], tos[:0]
		for v := int32(0); v < n; v++ {
			k := t.Level[v]
			up := t.Parent[v] >= 0 && tt >= v-k && tt <= t.Hi[v]-k
			down := t.Hi[v] != v && recvRound[v] == tt && recvPar[v]
			switch {
			case up && down:
				return res, fmt.Errorf("sim: vertex %d must both relay message %d up and forward message %d down at time %d",
					orig(v), orig(tt+k), orig(recvMsg[v]), tt)
			case up:
				m := tt + k
				if m != v && (recvRound[v] != tt || recvPar[v] || recvMsg[v] != m) {
					return res, fmt.Errorf("sim: vertex %d expected message %d from a child at time %d",
						orig(v), orig(m), tt)
				}
				emit(v, m, t.Parent[v:v+1], false)
			case down:
				emit(v, recvMsg[v], t.Kids(v), true)
			case v == 0 && tt >= n-2 && tt <= last:
				m := tt - (n - 2)
				if m != 0 && !rootHeld.Has(int(m)) {
					return res, fmt.Errorf("sim: the root multicasts message %d at time %d before holding it", orig(m), tt)
				}
				emit(v, m, t.Kids(v), true)
			}
		}
		if sink != nil {
			if err := sink(int(tt), round); err != nil {
				return res, err
			}
		}
		if len(nxt) == 0 && tt >= last {
			break
		}
		cur, nxt = nxt, cur
	}
	for v := int32(0); v < n; v++ {
		if held[v] != n-1 {
			return res, fmt.Errorf("sim: vertex %d holds %d of %d foreign messages at completion", orig(v), held[v], n-1)
		}
	}
	return res, nil
}
