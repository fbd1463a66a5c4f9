package implicit

import (
	"fmt"
	"sort"

	"multigossip/internal/schedule"
)

// unresolved marks a D2 capture slot that a seek skipped over: the capture
// is taken from the closed form when the release slot is reached.
const unresolved = -2

// Cursor enumerates a plan's rounds for O(internal vertices + deliveries)
// work per round read in order. It keeps the state of the paper's online
// variant (Section 4) over the packed arrays: the message each internal
// vertex receives from its parent this round, and the at most two arrivals
// it holds back under rule D2. A read of any other round seeks: every
// internal vertex's arrival is set from the closed form (O(h) per vertex
// at worst), captures whose slots lie before the target are marked
// unresolved and taken from the closed form at their release slot, and
// the round is then stepped as usual. Output is bit-identical to the
// materialised schedule, transmission order included. A Cursor implements
// schedule.Source. Not safe for concurrent use; take one cursor per pass.
type Cursor struct {
	p *Plan
	t int // the round the next in-order read emits

	// in[v] is the message internal vertex v receives from its parent at
	// time t and out[v] the one at t+1, -1 for none; leaves are never
	// written. held[2v], held[2v+1] are v's D2 captures in arrival order.
	in, out, held []int32

	// internal lists the non-leaf vertices ascending. A leaf sends exactly
	// once, its own message up at time 0 (w = 1) or i-k (w = 0), so
	// leaves[leafStart[t]:leafStart[t+1]] are the leaves sending at t.
	// Testing every leaf every round instead made a full pass 1.5x slower
	// on a random tree and 3.6x on a star at n = 4096.
	internal, leaves, leafStart []int32

	// kidIDs[childStart[v]:childStart[v+1]] are v's children in original
	// ids, sorted, so destination sets come out sorted without a sort.
	kidIDs []int
}

// Cursor returns a cursor positioned at round 0. Construction is O(n log n)
// for the sorted child ids; the cursor holds O(n) words.
func (p *Plan) Cursor() *Cursor {
	tp := &p.topo
	n := tp.N
	c := &Cursor{
		p:         p,
		in:        make([]int32, n),
		out:       make([]int32, n),
		held:      make([]int32, 2*n),
		leafStart: make([]int32, p.Rounds()+2),
		kidIDs:    make([]int, len(tp.Children)),
	}
	for i, ch := range tp.Children {
		c.kidIDs[i] = int(tp.VertexOf[ch])
	}
	for v := int32(0); v < int32(n); v++ {
		sort.Ints(c.kidIDs[tp.ChildStart[v]:tp.ChildStart[v+1]])
		if !tp.Leaf(v) {
			c.internal = append(c.internal, v)
		} else if tp.Parent[v] >= 0 {
			c.leafStart[c.leafTime(v)+1]++
		}
	}
	for t := 1; t < len(c.leafStart); t++ {
		c.leafStart[t] += c.leafStart[t-1]
	}
	c.leaves = make([]int32, c.leafStart[len(c.leafStart)-1])
	fill := append([]int32(nil), c.leafStart...)
	for v := int32(0); v < int32(n); v++ {
		if tp.Leaf(v) && tp.Parent[v] >= 0 {
			t := c.leafTime(v)
			c.leaves[fill[t]] = v
			fill[t]++
		}
	}
	c.seek(0)
	return c
}

func (c *Cursor) leafTime(v int32) int32 {
	if c.p.topo.Lip(v) == 1 {
		return 0
	}
	return v - c.p.topo.Level[v]
}

// seek positions the cursor at round t. seek(0) is a rewind: every arrival
// and capture is empty.
func (c *Cursor) seek(t int) {
	tp := &c.p.topo
	c.t = t
	for _, v := range c.internal {
		k := tp.Level[v]
		bLo, bHi := int(v-k), int(tp.Hi[v]-k)
		in, held := int32(-1), int32(-1)
		if v != k && t > bLo {
			held = unresolved
		}
		// Inside its b-region a vertex reads its arrival only to capture
		// it at i-k, so the closed-form walk is skipped there.
		if t < bLo || t > bHi || (t == bLo && v != k) {
			in = c.p.arrivalAt(v, t)
		}
		c.in[v], c.out[v] = in, -1
		c.held[2*v], c.held[2*v+1] = held, held
	}
}

// Processors implements schedule.Source.
func (c *Cursor) Processors() int { return c.p.topo.N }

// Messages implements schedule.Source.
func (c *Cursor) Messages() int { return c.p.topo.N }

// Time implements schedule.Source.
func (c *Cursor) Time() int { return c.p.Rounds() }

// RoundAppend appends the transmissions of round t to dst with the layout
// and buffer-reuse contract of Plan.RoundAppend; it implements
// schedule.Source. A read of round t leaves the cursor at t+1, so reading
// on in order never seeks again.
func (c *Cursor) RoundAppend(t int, dst []schedule.Transmission) []schedule.Transmission {
	if t < 0 || t >= c.p.Rounds() {
		return dst
	}
	if t != c.t {
		c.seek(t)
	}
	leaves := c.leaves[c.leafStart[t]:c.leafStart[t+1]]
	for _, v := range c.internal {
		for len(leaves) > 0 && leaves[0] < v {
			dst = c.emit(dst, leaves[0], leaves[0], true, false)
			leaves = leaves[1:]
		}
		dst = c.step(dst, v, t)
	}
	for _, v := range leaves {
		dst = c.emit(dst, v, v, true, false)
	}
	c.in, c.out = c.out, c.in
	c.t++
	return dst
}

// step evaluates internal vertex v at round t: the U3/U4 up-send from the
// closed form, and the down-send from D3 or from the arrival and held
// state, exactly as downSendAt resolves them. It records the arrivals
// v's down-send causes at t+1.
func (c *Cursor) step(dst []schedule.Transmission, v int32, t int) []schedule.Transmission {
	tp := &c.p.topo
	i, j, k := v, tp.Hi[v], tp.Level[v]
	bLo, bHi := int(i-k), int(j-k)
	in := c.in[v]
	c.in[v] = -1
	down := int32(-1)
	switch {
	case t >= bLo && t <= bHi:
		if m := int32(t) + k; m != i || i != k {
			down = m
		}
		if i != k && in != -1 && t <= bLo+1 { // D2 capture
			if c.held[2*v] == -1 {
				c.held[2*v] = in
			} else {
				c.held[2*v+1] = in
			}
		}
	case i == k:
		down = in
		if t == bHi+1 {
			down = i // relocated s-message
		}
	case in != -1:
		down = in // D1
	case t == bHi+1 || t == bHi+2:
		if c.held[2*v] == unresolved {
			q := c.p.captured(v)
			copy(c.held[2*v:], q[:])
		}
		down = c.held[2*int(v)+t-bHi-1] // D2 release
	}
	up := c.p.upSendAt(v, t)
	if up != -1 && down != -1 && up != down {
		panic(fmt.Sprintf("implicit: vertex %d emits %d and %d at %d", v, up, down, t))
	}
	if down == -1 {
		if up == -1 {
			return dst
		}
		return c.emit(dst, v, up, true, false)
	}
	for _, ch := range tp.Kids(v) {
		if !tp.Leaf(ch) && (down < ch || down > tp.Hi[ch]) {
			c.out[ch] = down
		}
	}
	return c.emit(dst, v, down, up != -1, true)
}

// emit appends v's multicast of msg to its parent (up) and to its children
// except the owner of msg (down), reusing the To slice of dst's spare slot.
// A down-only send whose owner is the only child has no destination and
// emits nothing. emit writes nothing but dst, so a pooled cursor can be
// returned before the caller reads the round.
func (c *Cursor) emit(dst []schedule.Transmission, v, msg int32, up, down bool) []schedule.Transmission {
	tp := &c.p.topo
	var dests []int
	if len(dst) < cap(dst) {
		dests = dst[len(dst) : len(dst)+1][0].To[:0]
	}
	par := -1
	if up {
		par = int(tp.VertexOf[tp.Parent[v]])
	}
	if down {
		skip := -1
		if ow := tp.Owner(v, msg); ow != -1 {
			skip = int(tp.VertexOf[ow])
		}
		for _, id := range c.kidIDs[tp.ChildStart[v]:tp.ChildStart[v+1]] {
			if id == skip {
				continue
			}
			if par >= 0 && par < id {
				dests = append(dests, par)
				par = -1
			}
			dests = append(dests, id)
		}
	}
	if par >= 0 {
		dests = append(dests, par)
	}
	if len(dests) == 0 {
		return dst
	}
	return append(dst, schedule.Transmission{Msg: int(tp.VertexOf[msg]), From: int(tp.VertexOf[v]), To: dests})
}

// Summary aggregates one full enumeration of a plan (see Summarize).
type Summary struct {
	Rounds        int
	Transmissions int
	Deliveries    int
	MaxFanout     int
}

// Summarize drains a cursor over the whole schedule and checks, in O(n)
// memory, the invariants counting can prove: every processor sends and
// receives at most once per round, only over tree edges, and receives
// exactly n-1 messages in total. It does not track hold sets, which cost
// n² bits (schedule.Run's job); the differential tests bridge the gap.
func (p *Plan) Summarize() (Summary, error) {
	tp := &p.topo
	n := tp.N
	sum := Summary{Rounds: p.Rounds()}
	recvCount := make([]int, n)
	lastSent := make([]int, n)
	lastRecv := make([]int, n)
	for v := range lastSent {
		lastSent[v], lastRecv[v] = -1, -1
	}
	c := p.Cursor()
	var round []schedule.Transmission
	for t := 0; t < sum.Rounds; t++ {
		round = c.RoundAppend(t, round[:0])
		for _, tx := range round {
			if lastSent[tx.From] == t {
				return sum, fmt.Errorf("implicit: vertex %d sends twice at %d", tx.From, t)
			}
			lastSent[tx.From] = t
			sum.Transmissions++
			sum.MaxFanout = max(sum.MaxFanout, len(tx.To))
			from := tp.LabelOf[tx.From]
			for _, d := range tx.To {
				if to := tp.LabelOf[d]; tp.Parent[from] != to && tp.Parent[to] != from {
					return sum, fmt.Errorf("implicit: %d-%d is not a tree edge", tx.From, d)
				}
				if lastRecv[d] == t {
					return sum, fmt.Errorf("implicit: vertex %d receives twice at %d", d, t)
				}
				lastRecv[d] = t
				recvCount[d]++
				sum.Deliveries++
			}
		}
	}
	for v, got := range recvCount {
		if n >= 2 && got != n-1 {
			return sum, fmt.Errorf("implicit: vertex %d received %d messages, want %d", v, got, n-1)
		}
	}
	return sum, nil
}
