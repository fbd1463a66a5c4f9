// Package implicit is the O(n)-word representation of a ConcurrentUpDown
// plan. A materialised schedule.Schedule is a Θ(n²) object — every
// processor receives n-1 messages — but the paper's construction is
// closed-form per vertex: every transmission of ConcurrentUpDown is
// determined by the tuple (i, j, k, w, n) of the sending vertex plus the
// same tuples along its ancestor path (PAPER.md U1-U4 / D1-D3). This
// package stores exactly that — the DFS preorder intervals, levels, lip
// bits and parent/child structure of the labelled minimum-depth tree, in
// packed int32 form (Topo) — and answers rounds and per-vertex timetables
// on demand, with zero materialisation.
//
// Query model. Cursor is the one round emitter. It keeps the state of the
// paper's online variant (Section 4) — the message each internal vertex
// receives from its parent and its at most two D2 captures — and steps it
// forward for O(internal vertices + deliveries) work per round. A read out
// of order seeks: it sets every internal vertex's arrival from the closed
// form and resolves D2 captures that lie behind the target when they are
// released. Plan.RoundAppend reads through a pooled cursor.
//
// The closed forms evaluate one vertex at one time. Propagate-Up sends
// (U3/U4) and Propagate-Down b-message sends (D3, with its i = k leftmost
// relocation) are direct formulas; D1/D2 o-message forwarding recurses on
// what the parent sent at time t-1, one O(1) step per level, until the
// query lands in an ancestor's closed-form region or falls off the
// schedule. They seed seeks and serve Timetable; they never emit a round.
//
// Equivalence with the materialising builder (core.BuildConcurrentUpDown)
// is bit-exact and enforced by differential tests, property tests over the
// named topologies, and the FuzzImplicitRound harness.
package implicit

import (
	"sync"

	"multigossip/internal/schedule"
	"multigossip/internal/spantree"
)

// Plan is a compact, immutable ConcurrentUpDown plan: O(n) words total,
// the packed tree plus a pool of cursors. It is safe for concurrent use;
// RoundAppend draws a cursor per call, so it must not be copied.
type Plan struct {
	topo Topo

	// cursors holds the cursors RoundAppend reads through. They are scratch:
	// not counted in SizeBytes, and reclaimed by the GC like any pool entry.
	cursors sync.Pool
}

// Topo is the packed canonical-space tree of a plan, indexed by DFS label.
// Hi[v] closes the subtree interval [v, Hi[v]]; Level[v] is k; Parent[v]
// is -1 at the root. ChildStart/Children is the CSR of the child lists
// (sorted, which in canonical space means consecutive subtree intervals).
// LipBits[v>>6]>>(v&63)&1 is w, the lip bit: v is its parent's first child
// (v == parent+1). VertexOf maps a canonical label to its original vertex
// id and LabelOf is the inverse; message m originates at VertexOf[m]. A
// Topo taken from a plan aliases its storage: callers must not mutate it.
type Topo struct {
	N      int
	Height int

	Hi         []int32
	Level      []int32
	Parent     []int32
	ChildStart []int32
	Children   []int32
	LipBits    []uint64
	VertexOf   []int32
	LabelOf    []int32
}

// newTopo allocates every array of an n-vertex topology except Children.
func newTopo(n, height int) Topo {
	return Topo{
		N:          n,
		Height:     height,
		Hi:         make([]int32, n),
		Level:      make([]int32, n),
		Parent:     make([]int32, n),
		ChildStart: make([]int32, n+1),
		LipBits:    make([]uint64, (n+63)/64),
		VertexOf:   make([]int32, n),
		LabelOf:    make([]int32, n),
	}
}

// Lip returns w, the lip bit of canonical vertex v (0 or 1).
func (t *Topo) Lip(v int32) int32 { return int32(t.LipBits[v>>6] >> (uint(v) & 63) & 1) }

// Leaf reports whether canonical vertex v has no children.
func (t *Topo) Leaf(v int32) bool { return t.Hi[v] == v }

// Kids returns the canonical child list of v, ascending (shared; do not
// mutate).
func (t *Topo) Kids(v int32) []int32 { return t.Children[t.ChildStart[v]:t.ChildStart[v+1]] }

// Owner returns the child of v whose subtree interval holds message m, or
// -1 when none does (m == v, m outside v's interval, or no children).
func (t *Topo) Owner(v, m int32) int32 {
	if m <= v || m > t.Hi[v] {
		return -1
	}
	kids := t.Kids(v)
	if len(kids) == 0 {
		return -1
	}
	lo, hi := 0, len(kids)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if kids[mid] <= m {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return kids[lo]
}

// New builds the compact plan from a DFS-labelled minimum-depth tree.
func New(l *spantree.Labeled) *Plan {
	n := l.N()
	p := &Plan{topo: newTopo(n, l.T.Height)}
	t := &p.topo
	for v := 0; v < n; v++ {
		t.Hi[v] = int32(l.Hi[v])
		t.Level[v] = int32(l.T.Level[v])
		t.Parent[v] = int32(l.T.Parent[v])
		t.VertexOf[v] = int32(l.VertexOf[v])
		t.LabelOf[l.VertexOf[v]] = int32(v)
		if l.LipCount(v) == 1 {
			t.LipBits[v>>6] |= 1 << (v & 63)
		}
	}
	kids := 0
	for v := 0; v < n; v++ {
		t.ChildStart[v] = int32(kids)
		kids += len(l.T.Children[v])
	}
	t.ChildStart[n] = int32(kids)
	t.Children = make([]int32, 0, kids)
	for v := 0; v < n; v++ {
		for _, c := range l.T.Children[v] {
			t.Children = append(t.Children, int32(c))
		}
	}
	return p
}

// Topo returns the packed-array view of the plan. O(1): no copying.
func (p *Plan) Topo() Topo { return p.topo }

// N returns the number of processors (= messages).
func (p *Plan) N() int { return p.topo.N }

// Height returns the labelled tree's height (= network radius).
func (p *Plan) Height() int { return p.topo.Height }

// Rounds returns the total communication time: n + height for n >= 2
// (Theorem 1), 0 for trivial plans.
func (p *Plan) Rounds() int {
	if p.topo.N <= 1 {
		return 0
	}
	return p.topo.N + p.topo.Height
}

// SizeBytes reports the plan's resident size: the packed arrays plus the
// struct header. This is the honest per-entry footprint the plan cache
// charges for implicit-backed plans.
func (p *Plan) SizeBytes() int64 {
	t := &p.topo
	b := int64(0)
	b += int64(len(t.Hi)+len(t.Level)+len(t.Parent)) * 4
	b += int64(len(t.ChildStart)+len(t.Children)) * 4
	b += int64(len(t.VertexOf)+len(t.LabelOf)) * 4
	b += int64(len(t.LipBits)) * 8
	b += 16 + 9*24 // ints + slice headers
	return b
}

// upSendAt evaluates Propagate-Up (U3/U4) at vertex v and time t: the
// message v sends to its parent, or -1. Each non-root vertex sends its
// lip-message i at time 0 (when w = 1) and every remaining b-message m in
// [i+w .. j] at time m - k.
func (p *Plan) upSendAt(v int32, t int) int32 {
	tp := &p.topo
	if tp.Parent[v] < 0 {
		return -1
	}
	i, j, k, w := v, tp.Hi[v], tp.Level[v], tp.Lip(v)
	if w == 1 && t == 0 {
		return i
	}
	m := int32(t) + k
	if m >= i+w && m <= j {
		return m
	}
	return -1
}

// downSendAt evaluates Propagate-Down (D1-D3) at vertex v and time t: the
// message v multicasts toward its children, or -1. Leaves never send down.
//
// The b-message schedule (D3) is local: message m in [i..j] goes out at
// time m - k, except that on the leftmost DFS path (i == k) the s-message
// i is relocated to time j - k + 1 — at the root this is the paper's
// "message 0 at time n". Arrivals at the D3-busy slots i-k and i-k+1 are
// held and re-emitted at j-k+1 and j-k+2 in arrival order (D2). At any
// other time v forwards what it receives (D1), which is what its parent
// sent one round earlier unless v's subtree owns it. The walk climbs the
// ancestor chain, one O(1) step per level and one round earlier per hop,
// until a local rule decides; only the chain vertex below that ancestor
// can own its message, since a forwarded message lies outside the
// forwarder's subtree.
func (p *Plan) downSendAt(v int32, t int) int32 {
	tp := &p.topo
	if tp.Leaf(v) {
		return -1
	}
	below := int32(-1) // the chain vertex under v once the walk has climbed
	for ; t >= 0; t-- {
		i, j, k := v, tp.Hi[v], tp.Level[v]
		bLo, bHi := int(i-k), int(j-k)
		var m int32
		switch {
		case t >= bLo && t <= bHi:
			// i == k at t == i-k: the s-message is relocated; nothing else
			// can occupy this slot (the paper guarantees no o-message
			// arrives while the leftmost path is in its opening round).
			if m = int32(t) + k; m == i && i == k {
				m = -1
			}
		case i == k && t == bHi+1:
			m = i // relocated s-message (root: message 0 at time n)
		case i != k && (t == bHi+1 || t == bHi+2):
			// D1 takes the slot when an arrival lands; otherwise D2
			// releases the captures.
			if m = p.arrivalAt(v, t); m == -1 {
				m = p.captured(v)[t-(bHi+1)]
			}
		case tp.Parent[v] < 0:
			return -1
		default:
			below, v = v, tp.Parent[v]
			continue
		}
		if below >= 0 && m >= below && m <= tp.Hi[below] {
			return -1
		}
		return m
	}
	return -1
}

// captured returns the o-messages v holds back under D2 — its arrivals at
// i-k and i-k+1 — in arrival order, -1 padded.
func (p *Plan) captured(v int32) [2]int32 {
	bLo := int(v - p.topo.Level[v])
	queue := [2]int32{-1, -1}
	qn := 0
	for _, t := range [2]int{bLo, bLo + 1} {
		if m := p.arrivalAt(v, t); m != -1 {
			queue[qn] = m
			qn++
		}
	}
	return queue
}

// arrivalAt returns the o-message v receives from its parent at time t, or
// -1: the parent's down-send of round t-1, unless that message belongs to
// v's own subtree (D3 excludes the owner child from the destination set).
func (p *Plan) arrivalAt(v int32, t int) int32 {
	par := p.topo.Parent[v]
	if par < 0 || t <= 0 {
		return -1
	}
	m := p.downSendAt(par, t-1)
	if m == -1 || (m >= v && m <= p.topo.Hi[v]) {
		return -1
	}
	return m
}

// RoundAppend appends the transmissions of round t to dst (in the
// network's original identifiers, destination sets sorted, transmissions
// ordered by canonical sender) and returns the extended slice. The layout
// is bit-identical to the materialised schedule's round t. Out-of-range
// rounds append nothing. Like append, RoundAppend treats dst's spare
// capacity as scratch — including the To slices of elements beyond
// len(dst), which it overwrites in place — so looping with dst = dst[:0]
// between rounds reuses every allocation.
//
// It reads through a cursor drawn from the plan's pool, so a caller that
// asks for consecutive rounds pays the cursor's in-order step and any other
// read pays one seek. Once a cursor is pooled the call allocates nothing
// of its own. Safe for concurrent use.
func (p *Plan) RoundAppend(t int, dst []schedule.Transmission) []schedule.Transmission {
	if t < 0 || t >= p.Rounds() {
		return dst
	}
	c, _ := p.cursors.Get().(*Cursor)
	if c == nil {
		c = p.Cursor()
	}
	dst = c.RoundAppend(t, dst)
	p.cursors.Put(c)
	return dst
}

// Timetable renders the per-vertex view of original vertex v in the layout
// of the paper's Tables 1-4, bit-identical to schedule.VertexView over the
// materialised schedule. Cost is O(rounds) closed-form evaluations — no
// other vertex's transmissions are computed.
func (p *Plan) Timetable(v int) *schedule.VertexTimetable {
	rounds := p.Rounds()
	rows := rounds + 1
	vt := &schedule.VertexTimetable{
		Vertex:     v,
		RecvParent: filled(rows, schedule.NoMessage),
		RecvChild:  filled(rows, schedule.NoMessage),
		SendParent: filled(rows, schedule.NoMessage),
		SendChild:  filled(rows, schedule.NoMessage),
	}
	tp := &p.topo
	if tp.N <= 1 {
		return vt
	}
	c := tp.LabelOf[v]
	i, j, k := c, tp.Hi[c], tp.Level[c]

	// Sends to the parent: U3/U4 directly.
	if tp.Parent[c] >= 0 {
		w := tp.Lip(c)
		if w == 1 {
			vt.SendParent[0] = int(tp.VertexOf[i])
		}
		for m := i + w; m <= j; m++ {
			vt.SendParent[int(m-k)] = int(tp.VertexOf[m])
		}
	}

	// Receives from the children (the paper's Propagate-Up receive rules):
	// the l-message i+1 arrives at time 1 from the first child's lip send,
	// and each r-message m in [i+2 .. j] arrives at time m - k from the
	// child owning m.
	if !tp.Leaf(c) {
		vt.RecvChild[1] = int(tp.VertexOf[i+1])
		for m := i + 2; m <= j; m++ {
			vt.RecvChild[int(m-k)] = int(tp.VertexOf[m])
		}
	}

	// Sends toward the children and receives from the parent: evaluate the
	// Propagate-Down formulas round by round. A b-message owned by an only
	// child has an empty owner-excluded destination set — no transmission
	// happens (unless merged with an up-send, which never adds a child
	// destination), so the SendChild row stays empty there.
	if !tp.Leaf(c) {
		onlyChild := len(tp.Kids(c)) == 1
		for t := 0; t < rounds; t++ {
			if m := p.downSendAt(c, t); m != -1 {
				if onlyChild && tp.Owner(c, m) != -1 {
					continue
				}
				vt.SendChild[t] = int(tp.VertexOf[m])
			}
		}
	}
	if tp.Parent[c] >= 0 {
		for t := 1; t <= rounds; t++ {
			if m := p.arrivalAt(c, t); m != -1 {
				vt.RecvParent[t] = int(tp.VertexOf[m])
			}
		}
	}
	return vt
}

func filled(n, x int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = x
	}
	return s
}

// Labeled reconstructs the DFS-labelled tree (canonical tree plus the
// original-id mapping) from the packed arrays — the input New was built
// from, byte for byte. It exists so lazy materialisation and the
// distributed executor can run without the plan retaining the pointerful
// spantree structures; cost is O(n) and the result is freshly allocated.
func (p *Plan) Labeled() *spantree.Labeled {
	tp := &p.topo
	n := tp.N
	parent := make([]int, n)
	for v := 0; v < n; v++ {
		parent[v] = int(tp.Parent[v])
	}
	l := &spantree.Labeled{
		T:        spantree.MustFromParents(parent),
		VertexOf: make([]int, n),
		LabelOf:  make([]int, n),
		Hi:       make([]int, n),
	}
	for v := 0; v < n; v++ {
		l.VertexOf[v] = int(tp.VertexOf[v])
		l.LabelOf[tp.VertexOf[v]] = v
		l.Hi[v] = int(tp.Hi[v])
	}
	return l
}

// OriginalTree reconstructs the minimum-depth spanning tree in the
// network's original vertex identifiers.
func (p *Plan) OriginalTree() *spantree.Tree {
	tp := &p.topo
	parent := make([]int, tp.N)
	for c := range parent {
		if tp.Parent[c] < 0 {
			parent[tp.VertexOf[c]] = -1
		} else {
			parent[tp.VertexOf[c]] = int(tp.VertexOf[tp.Parent[c]])
		}
	}
	return spantree.MustFromParents(parent)
}
