// Package sim is the sharded event-loop simulator for the paper's online
// ConcurrentUpDown protocol (Section 4), and the repo's only online
// engine. It runs each processor as a compact state machine of a few
// int32s directly over internal/implicit's packed topology arrays, and
// moves messages through double-buffered, shard-to-shard batched
// mailboxes. That brings n = 10⁶ processors within reach of one machine
// and lets the n + r completion bound of Theorem 1 be observed on a live
// message-passing execution rather than proved about a materialised
// schedule. RunSimple (simple.go) runs algorithm Simple's local rules the
// same way, synchronously on one shard.
//
// Faithfulness. The engine is a real simulation, not a closed-form
// replay: a processor's only inputs are its (i, j, k, w, n) tuple and the
// messages that actually arrive in its mailbox. Every data dependency of
// the protocol is asserted as it is consumed — a b-message relay checks
// that the message arrived from the owning child in that very round, the
// l-message hold checks the lip arrived at time 1, o-message forwards are
// decided purely on receipt (steps D1/D2) — so a missing or mistimed
// transmission surfaces as a diagnostic naming the vertex, never as
// silently-correct output. Receive conflicts (two arrivals in one round)
// and livelock (nothing in flight, nothing scheduled, processors
// incomplete) fail fast the same way.
//
// Sync mode runs the paper's synchronous rounds: each round is a drain
// phase (apply last round's sends) and a send phase (evaluate every
// processor whose activation window covers the round), with the shard
// workers barrier-synchronised between phases and each (source shard,
// destination shard) mailbox bucket written by exactly one worker per
// phase. Async mode (async.go) drops the barrier entirely and drives the
// same per-node logic from a calendar queue under per-link latencies.
//
// Leaf fan-out folding. In the multicasting model a single transmission
// may carry a message to thousands of leaf children; simulating each of
// those deliveries as a mailbox entry is exactly the Θ(n²) cost the
// implicit plan representation avoided. When no per-delivery consumer is
// attached (no Observer, no Sink), the engine folds the leaf portion of a
// multicast into one mailbox entry that increments a per-parent broadcast
// counter at the correct arrival round; leaves have no sends that depend
// on o-message contents (they only absorb), so their held counts are
// recoverable arithmetically and the fold is behaviour-preserving. The
// differential tests assert fold-on and fold-off runs agree on every
// count and on the completion round.
package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"multigossip/internal/implicit"
	"multigossip/internal/obs"
	"multigossip/internal/schedule"
)

// FoldMode controls leaf fan-out folding.
type FoldMode int

const (
	// FoldAuto folds leaf fan-out whenever no per-delivery consumer
	// (Observer, Sink) is attached and the run is synchronous.
	FoldAuto FoldMode = iota
	// FoldOff simulates every point-to-point delivery individually.
	FoldOff
)

// RoundSink receives the transmissions of each completed round, in
// canonical labels, ordered by sender, destination sets sorted. The slice
// is reused between rounds: consumers must copy what they keep. A non-nil
// error aborts the run.
type RoundSink func(t int, round []schedule.Transmission) error

// Options configures a simulation run.
type Options struct {
	// Shards is the number of mailbox shards / workers. <= 0 means
	// GOMAXPROCS. Clamped to [1, n].
	Shards int
	// Observer receives BeginRound/Delivery/EndRound events (original
	// vertex ids, same conventions as schedule.Run). Disables folding
	// under FoldAuto.
	Observer obs.RoundObserver
	// Sink receives each round's transmissions (canonical labels) as the
	// run progresses — the memory-light differential hook. Disables
	// folding under FoldAuto.
	Sink RoundSink
	// MaxRounds caps the run; <= 0 means n + height + 8 in sync mode and
	// a latency-scaled default in async mode.
	MaxRounds int
	// Fold controls leaf fan-out folding (sync mode only).
	Fold FoldMode
	// Async switches to the event-driven engine: no round barrier, each
	// delivery charged its link's latency, one send per node per tick.
	Async bool
	// Latency is the per-link delay model for async mode (default
	// Deterministic(1)). Ignored in sync mode.
	Latency Latency
	// CheckDupes (async) tracks per-node hold bitsets to assert no
	// message is delivered twice to one node. Costs O(n²) bits: small-n
	// testing and fuzzing only.
	CheckDupes bool
}

// Result summarises a completed simulation.
type Result struct {
	// CompleteAt is the time at which the last (processor, message) pair
	// was delivered — the live measurement of the paper's n + r bound in
	// sync mode.
	CompleteAt int
	// Deliveries counts every point-to-point delivery, including those
	// accounted arithmetically through folding.
	Deliveries int64
	// Folded is the subset of Deliveries absorbed by leaf fan-out
	// folding (0 when folding is off).
	Folded int64
	// Sends counts transmissions (multicasts), the paper's unit of
	// communication cost.
	Sends int64
	// Events counts simulator work items — transmissions emitted plus
	// mailbox entries applied — the denominator of ns/node-event.
	Events int64
	// Shards is the shard count the run actually used.
	Shards int
	// Fold reports whether leaf fan-out folding was active.
	Fold bool
}

// Mailbox entries are packed uint64s. A point delivery carries
// dest | fromParent | msg; a fold entry carries the multicasting parent
// and the excluded leaf child (+1, 0 for none) and credits every leaf
// child's held count at drain time.
const (
	pmDestMask = (1 << 31) - 1
	pmFromPar  = uint64(1) << 31
	pmFold     = uint64(1) << 63
)

// Run simulates the online ConcurrentUpDown protocol over the packed
// topology. It validates Options, dispatches to the sync or async engine,
// and verifies on completion that every processor holds all n messages.
func Run(t implicit.Topo, o Options) (Result, error) {
	if t.N > pmDestMask {
		return Result{}, fmt.Errorf("sim: n=%d exceeds the packed-state limit %d", t.N, pmDestMask)
	}
	if o.Async {
		return runAsync(t, o)
	}
	if t.N <= 1 {
		return Result{Shards: 1}, nil
	}
	e := newEngine(t, o)
	return e.run()
}

type engine struct {
	t    implicit.Topo
	n    int32
	o    Options
	fold bool

	S         int
	shardSize int32

	// Per-node protocol state, written only by the owning shard.
	held      []int32    // messages received (own message excluded)
	recvRound []int32    // round of the most recent arrival (-1 initially)
	recvMsg   []int32    // message of the most recent arrival
	recvPar   []bool     // most recent arrival came from the parent
	hasL      []bool     // the l-message (i+1) has arrived
	delayed   [][2]int32 // D2 captures awaiting release (-1 empty)

	// Activation windows: the closed round interval in which a node can
	// emit. winStart < 0 means the node never emits from a window (leaf
	// with w = 1: its only send is the t = 0 lip).
	winStart []int32
	winEnd   []int32

	// Folding state: leafKids counts leaf children; intKidStart/intKids
	// is the CSR of internal children; aggBcast[v] counts folded
	// multicasts by parent v; aggExcl[c] counts folds that excluded leaf
	// c. A leaf's effective held count is
	// held + aggBcast[parent] - aggExcl[self].
	leafKids    []int32
	intKidStart []int32
	intKids     []int32
	aggBcast    []int32
	aggExcl     []int32

	workers []*simWorker
	// cur/nxt[src][dst] are the double-buffered mailbox buckets: the send
	// phase of round t appends to nxt, the drain phase of round t+1
	// consumes cur; the driver swaps between rounds.
	cur, nxt [][][]uint64

	delivered  int64
	target     int64
	sends      int64
	events     int64
	folded     int64
	completeAt int

	merged []schedule.Transmission
}

type simWorker struct {
	e      *engine
	id     int
	lo, hi int32 // owned node range [lo, hi)

	byStart []int32 // windowed nodes sorted by winStart
	ptr     int
	active  []int32
	lips    []int32 // non-root w = 1 nodes: one-shot sends at t = 0
	fwd     []int32 // nodes that must forward this round's o-arrival
	rec     []schedule.Transmission

	applied int64 // per-round: deliveries applied in drain (incl. fold credits)
	ents    int64 // per-round: mailbox entries processed in drain
	sent    int64 // per-round: transmissions emitted in send
	destCnt int64 // per-round: destinations covered in send
	folded  int64
	err     error
}

func newEngine(t implicit.Topo, o Options) *engine {
	n := int32(t.N)
	e := &engine{
		t:         t,
		n:         n,
		o:         o,
		held:      make([]int32, n),
		recvRound: make([]int32, n),
		recvMsg:   make([]int32, n),
		recvPar:   make([]bool, n),
		hasL:      make([]bool, n),
		delayed:   make([][2]int32, n),
		winStart:  make([]int32, n),
		winEnd:    make([]int32, n),
		target:    int64(n) * int64(n-1),
	}
	e.fold = o.Fold == FoldAuto && o.Observer == nil && o.Sink == nil

	S := o.Shards
	if S <= 0 {
		S = runtime.GOMAXPROCS(0)
	}
	if S > int(n) {
		S = int(n)
	}
	e.S = S
	e.shardSize = (n + int32(S) - 1) / int32(S)

	for v := int32(0); v < n; v++ {
		e.recvRound[v] = -1
		e.delayed[v] = [2]int32{-1, -1}
		i, j, k := v, t.Hi[v], t.Level[v]
		switch {
		case i != j: // internal (includes the root for n >= 2)
			e.winStart[v], e.winEnd[v] = i-k, j-k+2
		case e.t.Lip(v) == 0: // leaf, single up-send at i-k
			e.winStart[v], e.winEnd[v] = i-k, i-k
		default: // leaf with w = 1: only the t = 0 lip
			e.winStart[v] = -1
		}
	}
	if e.fold {
		e.leafKids = make([]int32, n)
		e.aggBcast = make([]int32, n)
		e.aggExcl = make([]int32, n)
		e.intKidStart = make([]int32, n+1)
		total := int32(0)
		for v := int32(0); v < n; v++ {
			e.intKidStart[v] = total
			for _, c := range e.t.Kids(v) {
				if e.t.Leaf(c) {
					e.leafKids[v]++
				} else {
					total++
				}
			}
		}
		e.intKidStart[n] = total
		e.intKids = make([]int32, total)
		total = 0
		for v := int32(0); v < n; v++ {
			for _, c := range e.t.Kids(v) {
				if !e.t.Leaf(c) {
					e.intKids[total] = c
					total++
				}
			}
		}
	}

	e.cur = make([][][]uint64, S)
	e.nxt = make([][][]uint64, S)
	for s := 0; s < S; s++ {
		e.cur[s] = make([][]uint64, S)
		e.nxt[s] = make([][]uint64, S)
	}
	e.workers = make([]*simWorker, S)
	for s := 0; s < S; s++ {
		w := &simWorker{e: e, id: s, lo: int32(s) * e.shardSize}
		w.hi = w.lo + e.shardSize
		if w.hi > n {
			w.hi = n
		}
		for v := w.lo; v < w.hi; v++ {
			if e.winStart[v] >= 0 {
				w.byStart = append(w.byStart, v)
			}
			if e.t.Lip(v) == 1 && t.Parent[v] >= 0 {
				w.lips = append(w.lips, v)
			}
		}
		sort.Slice(w.byStart, func(a, b int) bool {
			return e.winStart[w.byStart[a]] < e.winStart[w.byStart[b]]
		})
		e.workers[s] = w
	}
	return e
}

func (e *engine) orig(v int32) int32 { return e.t.VertexOf[v] }

// phase runs f on every worker, inline when single-sharded.
func (e *engine) phase(f func(w *simWorker)) {
	if e.S == 1 {
		f(e.workers[0])
		return
	}
	var wg sync.WaitGroup
	for _, w := range e.workers {
		wg.Add(1)
		go func(w *simWorker) {
			defer wg.Done()
			f(w)
		}(w)
	}
	wg.Wait()
}

func (e *engine) workerErr() error {
	for _, w := range e.workers {
		if w.err != nil {
			return w.err
		}
	}
	return nil
}

// run is the sync-mode driver: drain, completion check, send, swap.
func (e *engine) run() (Result, error) {
	maxR := e.o.MaxRounds
	if maxR <= 0 {
		maxR = e.t.N + e.t.Height + 8
	}
	res := func() Result {
		return Result{
			CompleteAt: e.completeAt, Deliveries: e.delivered,
			Folded: e.folded, Sends: e.sends, Events: e.events,
			Shards: e.S, Fold: e.fold,
		}
	}
	obsv := e.o.Observer
	for t := 0; ; t++ {
		if t > maxR {
			return res(), fmt.Errorf("sim: exceeded %d rounds (n=%d height=%d expects %d); %s",
				maxR, e.t.N, e.t.Height, e.t.N+e.t.Height, e.stuck())
		}
		e.phase(func(w *simWorker) { w.drain(t) })
		if err := e.workerErr(); err != nil {
			return res(), err
		}
		for _, w := range e.workers {
			e.delivered += w.applied
			e.events += w.ents
			w.applied, w.ents = 0, 0
		}
		if e.delivered >= e.target {
			if e.delivered > e.target {
				return res(), fmt.Errorf("sim: %d deliveries exceed the %d (processor, message) pairs — a message was delivered twice", e.delivered, e.target)
			}
			for _, w := range e.workers {
				if len(w.fwd) > 0 {
					return res(), fmt.Errorf("sim: vertex %d still forwarding after full coverage at time %d",
						e.orig(w.fwd[0]), t)
				}
			}
			e.completeAt = t
			if err := e.verifyHeld(); err != nil {
				return res(), err
			}
			return res(), nil
		}
		if obsv != nil {
			obsv.BeginRound(t)
		}
		e.phase(func(w *simWorker) { w.send(t) })
		if err := e.workerErr(); err != nil {
			return res(), err
		}
		var sent, destCnt int64
		for _, w := range e.workers {
			sent += w.sent
			destCnt += w.destCnt
			e.sends += w.sent
			e.events += w.sent
			e.folded += w.folded
			w.sent, w.destCnt, w.folded = 0, 0, 0
		}
		if e.o.Sink != nil {
			if err := e.flushSink(t); err != nil {
				return res(), err
			}
		}
		if obsv != nil {
			obsv.EndRound(t, obs.RoundStats{Delivered: int(destCnt), NewPairs: int(destCnt)})
		}
		e.cur, e.nxt = e.nxt, e.cur
		if sent == 0 {
			// Nothing in flight. If no activation window is open either,
			// the only way forward is a window that opens later; with none
			// left the ensemble is livelocked — diagnose now rather than
			// spinning to the round cap.
			activeAny := false
			for _, w := range e.workers {
				if len(w.active) > 0 {
					activeAny = true
					break
				}
			}
			if !activeAny {
				next := e.nextActivation()
				if next < 0 {
					return res(), fmt.Errorf("sim: livelock at round %d: nothing in flight and no sends scheduled; %s", t, e.stuck())
				}
				if int(next) > t+1 {
					t = int(next) - 1 // skip the provably idle rounds
				}
			}
		}
	}
}

// nextActivation returns the earliest unopened window start, or -1.
func (e *engine) nextActivation() int32 {
	next := int32(-1)
	for _, w := range e.workers {
		if w.ptr < len(w.byStart) {
			s := e.winStart[w.byStart[w.ptr]]
			if next < 0 || s < next {
				next = s
			}
		}
	}
	return next
}

// effHeld is the number of messages v has received, fold-adjusted.
func (e *engine) effHeld(v int32) int32 {
	h := e.held[v]
	if e.fold && e.t.Leaf(v) {
		if p := e.t.Parent[v]; p >= 0 {
			h += e.aggBcast[p]
		}
		h -= e.aggExcl[v]
	}
	return h
}

// stuck summarises incomplete processors for diagnostics.
func (e *engine) stuck() string {
	var ids []int32
	total := 0
	for v := int32(0); v < e.n; v++ {
		if e.effHeld(v) < e.n-1 {
			total++
			if len(ids) < 8 {
				ids = append(ids, e.orig(v))
			}
		}
	}
	return fmt.Sprintf("%d of %d processors incomplete (e.g. vertices %v)", total, e.n, ids)
}

// verifyHeld asserts full gossip: every processor received all n-1 other
// messages (fold-adjusted).
func (e *engine) verifyHeld() error {
	for v := int32(0); v < e.n; v++ {
		if h := e.effHeld(v); h != e.n-1 {
			return fmt.Errorf("sim: vertex %d holds %d of %d foreign messages at completion", e.orig(v), h, e.n-1)
		}
	}
	return nil
}

// flushSink merges the per-worker transmission records of one round
// (sorting each worker's slice by sender keeps the concatenation globally
// sorted, since worker node ranges are ascending) and hands them to the
// sink.
func (e *engine) flushSink(t int) error {
	e.merged = e.merged[:0]
	for _, w := range e.workers {
		if len(w.rec) > 1 {
			sort.Slice(w.rec, func(a, b int) bool { return w.rec[a].From < w.rec[b].From })
		}
		e.merged = append(e.merged, w.rec...)
		w.rec = w.rec[:0]
	}
	return e.o.Sink(t, e.merged)
}

// drain applies every mailbox entry addressed to this worker's shard:
// the arrivals of time t. This is the receive side of the protocol —
// conflict detection, D2 capture, D1 forward marking, l-message latching.
func (w *simWorker) drain(t int) {
	e := w.e
	t32 := int32(t)
	for s := 0; s < e.S; s++ {
		bucket := e.cur[s][w.id]
		for _, pm := range bucket {
			w.ents++
			if pm&pmFold != 0 {
				v := int32(pm & pmDestMask)
				cnt := e.leafKids[v]
				if ex := int32(pm>>32&pmDestMask) - 1; ex >= 0 {
					e.aggExcl[ex]++
					cnt--
				}
				e.aggBcast[v]++
				w.applied += int64(cnt)
				continue
			}
			d := int32(pm & pmDestMask)
			m := int32(pm >> 32)
			fromPar := pm&pmFromPar != 0
			if e.recvRound[d] == t32 {
				w.err = fmt.Errorf("sim: vertex %d receives two messages at time %d (%d and %d)",
					e.orig(d), t, e.recvMsg[d], m)
				return
			}
			e.recvRound[d], e.recvMsg[d], e.recvPar[d] = t32, m, fromPar
			e.held[d]++
			w.applied++
			i, k := d, e.t.Level[d]
			if fromPar {
				if m >= d && m <= e.t.Hi[d] {
					w.err = fmt.Errorf("sim: vertex %d received its own subtree's message %d from its parent at time %d",
						e.orig(d), e.orig(m), t)
					return
				}
				if e.t.Leaf(d) {
					continue // leaves absorb; nothing to forward
				}
				if i != k && (t32 == i-k || t32 == i-k+1) {
					// D2: the two D3-busy opening slots capture arrivals
					// for release at j-k+1 and j-k+2, in arrival order.
					dl := &e.delayed[d]
					if dl[0] < 0 {
						dl[0] = m
					} else if dl[1] < 0 {
						dl[1] = m
					} else {
						w.err = fmt.Errorf("sim: vertex %d captured a third o-message (%d) at time %d",
							e.orig(d), e.orig(m), t)
						return
					}
					continue
				}
				w.fwd = append(w.fwd, d) // D1: forward this very round
			} else {
				if m <= d || m > e.t.Hi[d] {
					w.err = fmt.Errorf("sim: vertex %d received non-subtree message %d from a child at time %d",
						e.orig(d), e.orig(m), t)
					return
				}
				if m == d+1 {
					e.hasL[d] = true // the early l-message, held until i+1-k
				}
			}
		}
		e.cur[s][w.id] = bucket[:0]
	}
}

// windowWouldEmit reports whether v's own schedule emits at round t —
// used to detect the (protocol-impossible) collision of a D1 forward with
// a scheduled send.
func (e *engine) windowWouldEmit(v int32, t32 int32) bool {
	if e.winStart[v] < 0 || t32 < e.winStart[v] || t32 > e.winEnd[v] {
		return false
	}
	if e.t.Leaf(v) {
		return true // single-slot up-send
	}
	i, j, k := v, e.t.Hi[v], e.t.Level[v]
	switch {
	case t32 <= j-k:
		return t32+k != i || i != k
	case t32 == j-k+1:
		return i == k || e.delayed[v][0] >= 0
	default:
		return e.delayed[v][1] >= 0
	}
}

// send evaluates round t for every node whose window is open, plus the
// t = 0 lips and the D1 forwards collected by this round's drain.
func (w *simWorker) send(t int) {
	e := w.e
	t32 := int32(t)
	for w.ptr < len(w.byStart) && e.winStart[w.byStart[w.ptr]] <= t32 {
		w.active = append(w.active, w.byStart[w.ptr])
		w.ptr++
	}
	if t == 0 {
		for _, v := range w.lips {
			w.emit(t, v, v, true, false, -1) // U3: the lip-message at time 0
		}
	}
	for _, v := range w.fwd {
		if e.windowWouldEmit(v, t32) {
			w.err = fmt.Errorf("sim: vertex %d must both forward o-message %d and emit its scheduled send at time %d",
				e.orig(v), e.orig(e.recvMsg[v]), t)
			return
		}
		w.emit(t, v, e.recvMsg[v], false, true, -1)
	}
	w.fwd = w.fwd[:0]
	for idx := 0; idx < len(w.active); {
		v := w.active[idx]
		if t32 > e.winEnd[v] {
			last := len(w.active) - 1
			w.active[idx] = w.active[last]
			w.active = w.active[:last]
			continue
		}
		i, j, k := v, e.t.Hi[v], e.t.Level[v]
		if e.t.Leaf(v) {
			w.emit(t, v, v, true, false, -1) // U4: the leaf's own message
			idx++
			continue
		}
		switch {
		case t32 <= j-k:
			m := t32 + k
			switch {
			case m == i:
				if i != k {
					// D3 merged with U4: v's own message goes down to all
					// children and (w = 0) up to the parent in one multicast.
					w.emit(t, v, m, e.t.Lip(v) == 0 && e.t.Parent[v] >= 0, true, -1)
				}
				// i == k: the s-message is relocated to j-k+1 (D3).
			case m == i+1:
				// The l-message: it arrived at time 1 from the first
				// child's lip and was held locally until now.
				if !e.hasL[v] {
					w.err = fmt.Errorf("sim: vertex %d never received its l-message %d needed at time %d",
						e.orig(v), e.orig(m), t)
					return
				}
				w.emit(t, v, m, e.t.Parent[v] >= 0, true, i+1)
			default:
				// A b-message relay: it must have arrived from the owning
				// child in this very round — the protocol's tightest data
				// dependency, asserted, not assumed.
				if e.recvRound[v] != t32 || e.recvMsg[v] != m || e.recvPar[v] {
					w.err = fmt.Errorf("sim: vertex %d expected message %d from a child at time %d (last arrival: message %d at time %d)",
						e.orig(v), e.orig(m), t, e.recvMsg[v], e.recvRound[v])
					return
				}
				w.emit(t, v, m, e.t.Parent[v] >= 0, true, e.t.Owner(v, m))
			}
		case t32 == j-k+1:
			if i == k {
				// The relocated s-message — at the root, "message 0 at
				// time n".
				w.emit(t, v, i, false, true, -1)
			} else if e.delayed[v][0] >= 0 {
				w.emit(t, v, e.delayed[v][0], false, true, -1)
			}
		default: // j-k+2
			if e.delayed[v][1] >= 0 {
				w.emit(t, v, e.delayed[v][1], false, true, -1)
			}
		}
		idx++
	}
}

// emit issues one multicast from v at round t: optionally to the parent,
// and (withKids) to the children minus excl, folding the leaf portion
// when enabled. An empty destination set (b-message owned by an only
// child) emits nothing, matching the offline builder.
func (w *simWorker) emit(t int, v, m int32, toParent, withKids bool, excl int32) {
	e := w.e
	obsv := e.o.Observer
	sink := e.o.Sink != nil
	var recTo []int
	dests := 0
	if p := e.t.Parent[v]; toParent && p >= 0 {
		e.push(w.id, p, m, false)
		dests++
		if obsv != nil {
			obsv.Delivery(t, int(e.orig(v)), int(e.orig(p)), int(e.orig(m)), obs.Delivered)
		}
		if sink {
			recTo = append(recTo, int(p))
		}
	}
	if withKids && !e.t.Leaf(v) {
		if e.fold {
			fex := int32(-1)
			cnt := e.leafKids[v]
			if excl >= 0 && e.t.Leaf(excl) {
				fex = excl
				cnt--
			}
			if cnt > 0 {
				e.nxt[w.id][int(v)/int(e.shardSize)] = append(e.nxt[w.id][int(v)/int(e.shardSize)],
					pmFold|uint64(uint32(v))|uint64(uint32(fex+1))<<32)
				w.folded += int64(cnt)
				dests += int(cnt)
			}
			for _, c := range e.intKids[e.intKidStart[v]:e.intKidStart[v+1]] {
				if c != excl {
					e.push(w.id, c, m, true)
					dests++
				}
			}
		} else {
			for _, c := range e.t.Kids(v) {
				if c == excl {
					continue
				}
				e.push(w.id, c, m, true)
				dests++
				if obsv != nil {
					obsv.Delivery(t, int(e.orig(v)), int(e.orig(c)), int(e.orig(m)), obs.Delivered)
				}
				if sink {
					recTo = append(recTo, int(c))
				}
			}
		}
	}
	if dests == 0 {
		return
	}
	w.sent++
	w.destCnt += int64(dests)
	if sink {
		w.rec = append(w.rec, schedule.Transmission{Msg: int(m), From: int(v), To: recTo})
	}
}

// push appends one point delivery to the destination shard's mailbox.
func (e *engine) push(from int, dest, m int32, fromParent bool) {
	s := int(dest) / int(e.shardSize)
	pm := uint64(uint32(dest)) | uint64(uint32(m))<<32
	if fromParent {
		pm |= pmFromPar
	}
	e.nxt[from][s] = append(e.nxt[from][s], pm)
}
