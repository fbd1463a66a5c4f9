package sim

import (
	"fmt"
	"sort"

	"multigossip/internal/implicit"
	"multigossip/internal/obs"
	"multigossip/internal/schedule"
)

// Async mode drops the paper's round barrier: links have integer latencies
// drawn from Options.Latency, every node owns one transmitter that sends
// at most one multicast per tick (pending transmissions queue FIFO), and
// receives are unconstrained — simultaneous arrivals on different links
// are legal, unlike the sync model's receive-at-most-one rule. Under this
// model the fixed timetable of ConcurrentUpDown is meaningless (it
// encodes the barrier), so nodes run the protocol's data-driven core
// instead: on learning a message they flood it along the tree away from
// its sender — up to the parent and down to every child except the
// subtree it came from. On a tree this delivers every (processor,
// message) pair exactly once, so the sync and async runs move the same
// message multiset; what changes is the completion time, which the tests
// bound by n + 2r + maxLatency·height.
//
// The engine is a single-threaded calendar queue: a wheel of
// maxLatency+2 buckets holds arrival and departure events, ticks advance
// one by one, and within a tick arrivals are applied before departures so
// a message learned at t can depart at t (the receive-before-send order
// the sync engine also uses). Everything is deterministic for a given
// (topology, latency, seed).

// asyncTx packs one queued transmission: msg | toParent | withKids |
// excluded child + 1.
const (
	atMsgMask  = (1 << 31) - 1
	atToParent = uint64(1) << 31
	atWithKids = uint64(1) << 32
)

func packTx(m int32, toParent, withKids bool, excl int32) uint64 {
	tx := uint64(uint32(m))
	if toParent {
		tx |= atToParent
	}
	if withKids {
		tx |= atWithKids
	}
	return tx | uint64(uint32(excl+1))<<33
}

type asyncEngine struct {
	t   implicit.Topo
	n   int32
	o   Options
	lat Latency

	held     []int32
	latPar   []int32 // latency of the link to the parent
	queues   [][]uint64
	qhead    []int32
	nextFree []int32
	pendDep  []bool

	wheelArr [][]uint64 // arrivals by tick % W
	wheelDep [][]int32  // departures by tick % W
	W        int
	pending  int64 // scheduled but unprocessed events

	seen []uint64 // CheckDupes: (v, m) hold bitset

	delivered int64
	target    int64
	sends     int64
	destCnt   int64 // per-tick
	events    int64

	rec []schedule.Transmission
}

func runAsync(t implicit.Topo, o Options) (Result, error) {
	if t.N <= 1 {
		return Result{Shards: 1}, nil
	}
	lat := o.Latency
	if lat == nil {
		lat = Deterministic(1)
	}
	if lat.Max() < 1 {
		return Result{}, fmt.Errorf("sim: latency model reports Max() = %d < 1", lat.Max())
	}
	n := int32(t.N)
	if o.CheckDupes && n > 4096 {
		return Result{}, fmt.Errorf("sim: CheckDupes costs n² bits; n=%d exceeds the 4096 testing limit", n)
	}
	e := &asyncEngine{
		t: t, n: n, o: o, lat: lat,
		held:     make([]int32, n),
		latPar:   make([]int32, n),
		queues:   make([][]uint64, n),
		qhead:    make([]int32, n),
		nextFree: make([]int32, n),
		pendDep:  make([]bool, n),
		W:        int(lat.Max()) + 2,
		target:   int64(n) * int64(n-1),
	}
	for v := int32(0); v < n; v++ {
		if p := t.Parent[v]; p >= 0 {
			l := lat.Link(p, v)
			if l < 1 || l > lat.Max() {
				return Result{}, fmt.Errorf("sim: latency model returned %d for link (%d,%d), outside [1, %d]", l, p, v, lat.Max())
			}
			e.latPar[v] = l
		}
	}
	e.wheelArr = make([][]uint64, e.W)
	e.wheelDep = make([][]int32, e.W)
	if o.CheckDupes {
		e.seen = make([]uint64, (int64(n)*int64(n)+63)/64)
	}
	return e.run()
}

func (e *asyncEngine) orig(v int32) int32 { return e.t.VertexOf[v] }

// enqueue appends a transmission to v's FIFO and schedules its departure
// if the transmitter is idle.
func (e *asyncEngine) enqueue(v int32, tx uint64, now int) {
	e.queues[v] = append(e.queues[v], tx)
	if !e.pendDep[v] {
		dep := now
		if nf := int(e.nextFree[v]); nf > dep {
			dep = nf
		}
		e.wheelDep[dep%e.W] = append(e.wheelDep[dep%e.W], v)
		e.pendDep[v] = true
		e.pending++
	}
}

// arrive applies one delivery at tick t and queues the flood-forward.
func (e *asyncEngine) arrive(d, m int32, fromParent bool, t int) error {
	if e.seen != nil {
		bit := int64(d)*int64(e.n) + int64(m)
		if e.seen[bit>>6]&(1<<(bit&63)) != 0 {
			return fmt.Errorf("sim: vertex %d received message %d twice (second at tick %d)",
				e.orig(d), e.orig(m), t)
		}
		e.seen[bit>>6] |= 1 << (bit & 63)
	}
	e.held[d]++
	e.delivered++
	e.events++
	if fromParent {
		if m >= d && m <= e.t.Hi[d] {
			return fmt.Errorf("sim: vertex %d received its own subtree's message %d from its parent at tick %d",
				e.orig(d), e.orig(m), t)
		}
		if !e.t.Leaf(d) {
			e.enqueue(d, packTx(m, false, true, -1), t)
		}
		return nil
	}
	if m <= d || m > e.t.Hi[d] {
		return fmt.Errorf("sim: vertex %d received non-subtree message %d from a child at tick %d",
			e.orig(d), e.orig(m), t)
	}
	sender := e.t.Owner(d, m)
	toParent := e.t.Parent[d] >= 0
	onlyKid := e.t.ChildStart[d+1]-e.t.ChildStart[d] == 1
	if toParent || !onlyKid {
		e.enqueue(d, packTx(m, toParent, !onlyKid, sender), t)
	}
	return nil
}

// depart pops v's queue head and multicasts it, charging each destination
// its link latency.
func (e *asyncEngine) depart(v int32, t int) {
	q := e.queues[v]
	tx := q[e.qhead[v]]
	e.qhead[v]++
	if int(e.qhead[v]) == len(q) {
		e.queues[v] = q[:0]
		e.qhead[v] = 0
	}
	m := int32(tx & atMsgMask)
	excl := int32(tx>>33) - 1
	obsv := e.o.Observer
	sink := e.o.Sink != nil
	var recTo []int
	dests := 0
	if tx&atToParent != 0 {
		p := e.t.Parent[v]
		e.scheduleArrival(p, m, false, t+int(e.latPar[v]))
		dests++
		if obsv != nil {
			obsv.Delivery(t, int(e.orig(v)), int(e.orig(p)), int(e.orig(m)), obs.Delivered)
		}
		if sink {
			recTo = append(recTo, int(p))
		}
	}
	if tx&atWithKids != 0 {
		for _, c := range e.t.Kids(v) {
			if c == excl {
				continue
			}
			l := e.lat.Link(v, c)
			if l < 1 || l > e.lat.Max() {
				panic(fmt.Sprintf("sim: latency model returned %d for link (%d,%d)", l, v, c))
			}
			e.scheduleArrival(c, m, true, t+int(l))
			dests++
			if obsv != nil {
				obsv.Delivery(t, int(e.orig(v)), int(e.orig(c)), int(e.orig(m)), obs.Delivered)
			}
			if sink {
				recTo = append(recTo, int(c))
			}
		}
	}
	e.sends++
	e.events++
	e.destCnt += int64(dests)
	if sink {
		e.rec = append(e.rec, schedule.Transmission{Msg: int(m), From: int(v), To: recTo})
	}
	e.nextFree[v] = int32(t + 1)
	if int(e.qhead[v]) < len(e.queues[v]) {
		e.wheelDep[(t+1)%e.W] = append(e.wheelDep[(t+1)%e.W], v)
		e.pending++
	} else {
		e.pendDep[v] = false
	}
}

func (e *asyncEngine) scheduleArrival(d, m int32, fromParent bool, at int) {
	pm := uint64(uint32(d)) | uint64(uint32(m))<<32
	if fromParent {
		pm |= pmFromPar
	}
	e.wheelArr[at%e.W] = append(e.wheelArr[at%e.W], pm)
	e.pending++
}

func (e *asyncEngine) run() (Result, error) {
	n, h, maxLat := e.t.N, e.t.Height, int(e.lat.Max())
	maxT := e.o.MaxRounds
	if maxT <= 0 {
		maxT = 2*(n+2*h+maxLat*(h+1)) + 32
	}
	res := func(completeAt int) Result {
		return Result{
			CompleteAt: completeAt, Deliveries: e.delivered,
			Sends: e.sends, Events: e.events, Shards: 1,
		}
	}
	obsv := e.o.Observer

	// Tick 0: every node offers its own message to the tree — the root
	// downward, everyone else upward and (internal nodes) downward too.
	for v := int32(0); v < e.n; v++ {
		toParent := e.t.Parent[v] >= 0
		withKids := !e.t.Leaf(v)
		e.enqueue(v, packTx(v, toParent, withKids, -1), 0)
	}

	for t := 0; ; t++ {
		if t > maxT {
			return res(t), fmt.Errorf("sim: async run exceeded %d ticks (n=%d height=%d maxLatency=%d); %s",
				maxT, n, h, maxLat, e.stuckAsync())
		}
		if e.pending == 0 {
			return res(t), fmt.Errorf("sim: async livelock at tick %d: no events pending; %s", t, e.stuckAsync())
		}
		if obsv != nil {
			obsv.BeginRound(t)
		}
		slot := t % e.W
		arr := e.wheelArr[slot]
		for _, pm := range arr {
			e.pending--
			if err := e.arrive(int32(pm&pmDestMask), int32(pm>>32), pm&pmFromPar != 0, t); err != nil {
				return res(t), err
			}
		}
		e.wheelArr[slot] = arr[:0]
		done := e.delivered >= e.target
		// Departures may be appended to this very slot by the arrivals
		// above (learn at t, send at t) — index the slice live.
		for idx := 0; idx < len(e.wheelDep[slot]); idx++ {
			e.pending--
			e.depart(e.wheelDep[slot][idx], t)
		}
		e.wheelDep[slot] = e.wheelDep[slot][:0]
		if e.o.Sink != nil && len(e.rec) > 0 {
			sort.Slice(e.rec, func(a, b int) bool { return e.rec[a].From < e.rec[b].From })
			if err := e.o.Sink(t, e.rec); err != nil {
				return res(t), err
			}
			e.rec = e.rec[:0]
		}
		if obsv != nil {
			obsv.EndRound(t, obs.RoundStats{Delivered: int(e.destCnt), NewPairs: int(e.destCnt)})
		}
		e.destCnt = 0
		if done {
			if e.delivered > e.target {
				return res(t), fmt.Errorf("sim: %d async deliveries exceed the %d (processor, message) pairs", e.delivered, e.target)
			}
			if e.pending != 0 {
				return res(t), fmt.Errorf("sim: %d events still pending at async completion — a duplicate delivery is in flight", e.pending)
			}
			for v := int32(0); v < e.n; v++ {
				if e.held[v] != e.n-1 {
					return res(t), fmt.Errorf("sim: vertex %d holds %d of %d foreign messages at async completion",
						e.orig(v), e.held[v], e.n-1)
				}
			}
			return res(t), nil
		}
	}
}

func (e *asyncEngine) stuckAsync() string {
	var ids []int32
	total := 0
	for v := int32(0); v < e.n; v++ {
		if e.held[v] < e.n-1 {
			total++
			if len(ids) < 8 {
				ids = append(ids, e.orig(v))
			}
		}
	}
	return fmt.Sprintf("%d of %d processors incomplete (e.g. vertices %v)", total, e.n, ids)
}
