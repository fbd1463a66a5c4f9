package implicit

import (
	"fmt"
	"sort"

	"multigossip/internal/schedule"
)

// Cursor enumerates a plan's rounds in time order for O(internal vertices +
// deliveries) work per round, against O(n·h) for the closed form. It keeps
// the state of the paper's online variant (Section 4) over the packed
// arrays: the message each internal vertex receives from its parent this
// round, and the at most two arrivals it holds back under rule D2. Output
// is bit-identical to RoundAppend, transmission order included. A Cursor
// implements schedule.Source: an in-order read advances the cursor, a read
// of round 0 rewinds it, and any other read falls back to the closed form,
// so every access pattern returns the right round. Not safe for concurrent
// use; take one cursor per pass.
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
	n := p.n
	c := &Cursor{
		p:         p,
		in:        make([]int32, n),
		out:       make([]int32, n),
		held:      make([]int32, 2*n),
		leafStart: make([]int32, p.Rounds()+2),
		kidIDs:    make([]int, len(p.children)),
	}
	for i, ch := range p.children {
		c.kidIDs[i] = int(p.vertexOf[ch])
	}
	for v := int32(0); v < int32(n); v++ {
		sort.Ints(c.kidIDs[p.childStart[v]:p.childStart[v+1]])
		if !p.isLeaf(v) {
			c.internal = append(c.internal, v)
		} else if p.parent[v] >= 0 {
			c.leafStart[c.leafTime(v)+1]++
		}
	}
	for t := 1; t < len(c.leafStart); t++ {
		c.leafStart[t] += c.leafStart[t-1]
	}
	c.leaves = make([]int32, c.leafStart[len(c.leafStart)-1])
	fill := append([]int32(nil), c.leafStart...)
	for v := int32(0); v < int32(n); v++ {
		if p.isLeaf(v) && p.parent[v] >= 0 {
			t := c.leafTime(v)
			c.leaves[fill[t]] = v
			fill[t]++
		}
	}
	c.rewind()
	return c
}

func (c *Cursor) leafTime(v int32) int32 {
	if c.p.w(v) == 1 {
		return 0
	}
	return v - c.p.level[v]
}

func (c *Cursor) rewind() {
	c.t = 0
	for _, s := range [][]int32{c.in, c.out, c.held} {
		for i := range s {
			s[i] = -1
		}
	}
}

// Processors implements schedule.Source.
func (c *Cursor) Processors() int { return c.p.n }

// Messages implements schedule.Source.
func (c *Cursor) Messages() int { return c.p.n }

// Time implements schedule.Source.
func (c *Cursor) Time() int { return c.p.Rounds() }

// RoundAppend appends the transmissions of round t to dst with the layout
// and buffer-reuse contract of Plan.RoundAppend; it implements
// schedule.Source.
func (c *Cursor) RoundAppend(t int, dst []schedule.Transmission) []schedule.Transmission {
	if t == 0 && c.t != 0 {
		c.rewind()
	}
	if t != c.t || t >= c.p.Rounds() {
		return c.p.RoundAppend(t, dst)
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
	p := c.p
	i, j, k := v, p.hi[v], p.level[v]
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
		down = c.held[2*int(v)+t-bHi-1] // D2 release
	}
	up := p.upSendAt(v, t)
	if up != -1 && down != -1 && up != down {
		panic(fmt.Sprintf("implicit: vertex %d emits %d and %d at %d", v, up, down, t))
	}
	if down == -1 {
		if up == -1 {
			return dst
		}
		return c.emit(dst, v, up, true, false)
	}
	for _, ch := range p.kids(v) {
		if !p.isLeaf(ch) && (down < ch || down > p.hi[ch]) {
			c.out[ch] = down
		}
	}
	return c.emit(dst, v, down, up != -1, true)
}

// emit appends v's multicast of msg to its parent (up) and to its children
// except the owner of msg (down), reusing the To slice of dst's spare slot.
// A down-only send whose owner is the only child has no destination and
// emits nothing.
func (c *Cursor) emit(dst []schedule.Transmission, v, msg int32, up, down bool) []schedule.Transmission {
	p := c.p
	var dests []int
	if len(dst) < cap(dst) {
		dests = dst[len(dst) : len(dst)+1][0].To[:0]
	}
	par := -1
	if up {
		par = int(p.vertexOf[p.parent[v]])
	}
	if down {
		skip := -1
		if ow := p.owner(v, msg); ow != -1 {
			skip = int(p.vertexOf[ow])
		}
		for _, id := range c.kidIDs[p.childStart[v]:p.childStart[v+1]] {
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
	return append(dst, schedule.Transmission{Msg: int(p.vertexOf[msg]), From: int(p.vertexOf[v]), To: dests})
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
	n := p.n
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
			from := p.labelOf[tx.From]
			for _, d := range tx.To {
				if to := p.labelOf[d]; p.parent[from] != to && p.parent[to] != from {
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
