// Package implicit is the O(n)-word representation of a ConcurrentUpDown
// plan. A materialised schedule.Schedule is a Θ(n²) object — every
// processor receives n-1 messages — but the paper's construction is
// closed-form per vertex: every transmission of ConcurrentUpDown is
// determined by the tuple (i, j, k, w, n) of the sending vertex plus the
// same tuples along its ancestor path (PAPER.md U1-U4 / D1-D3). This
// package stores exactly that — the DFS preorder intervals, levels, lip
// bits and parent/child structure of the labelled minimum-depth tree, in
// packed int32 form — and answers Round(t) and per-vertex timetables by
// evaluating the send/receive formulas on demand, with zero
// materialisation.
//
// Query model. Propagate-Up sends (U3/U4) and Propagate-Down b-message
// sends (D3, with its i = k leftmost relocation) are direct formulas. The
// only non-local rule is D1/D2 o-message forwarding: what v forwards at
// time t is what its parent sent at time t-1, minus the messages of v's
// own subtree, with arrivals at times i-k and i-k+1 held back to j-k+1
// and j-k+2. downSendAt resolves that by walking up the ancestor chain —
// one O(1) step per level, decreasing the queried time by one per hop —
// until the query lands in an ancestor's closed-form region or falls off
// the schedule. A random-access round therefore costs up to O(n·h), which
// dominates on deep trees (rings, paths). Cursor serves the in-order pass
// that replays and verification need without the walk: it carries each
// vertex's arrival and D2 captures forward from the previous round.
//
// Equivalence with the materialising builder (core.BuildConcurrentUpDown)
// is bit-exact and enforced by differential tests, property tests over the
// named topologies, and the FuzzImplicitRound harness.
package implicit

import (
	"fmt"
	"sort"

	"multigossip/internal/schedule"
	"multigossip/internal/spantree"
)

// Plan is a compact, immutable ConcurrentUpDown plan: O(n) words total.
// All slices are index-by-canonical-DFS-label; the vertexOf/labelOf pair
// translates to and from the network's original identifiers. Safe for
// concurrent use (no mutable state; all queries are pure).
type Plan struct {
	n      int
	height int

	// Canonical-space tree structure, packed. hi[v] closes the subtree
	// interval [v, hi[v]]; level[v] is k; parent[v] is -1 at the root.
	// childStart/children is the CSR of the child lists (sorted, which in
	// canonical space means consecutive subtree intervals).
	hi         []int32
	level      []int32
	parent     []int32
	childStart []int32
	children   []int32

	// lip[v>>6]>>(v&63)&1 is w, the lip bit: v is its parent's first child
	// (v == parent+1 in canonical space). Derivable from parent, but it is
	// the w of the paper's tuple and costs n/64 words to keep explicit.
	lip []uint64

	// vertexOf maps canonical label -> original vertex id; labelOf is the
	// inverse. Message m originates at original vertex vertexOf[m].
	vertexOf []int32
	labelOf  []int32
}

// New builds the compact plan from a DFS-labelled minimum-depth tree.
func New(l *spantree.Labeled) *Plan {
	n := l.N()
	p := &Plan{
		n:          n,
		height:     l.T.Height,
		hi:         make([]int32, n),
		level:      make([]int32, n),
		parent:     make([]int32, n),
		childStart: make([]int32, n+1),
		lip:        make([]uint64, (n+63)/64),
		vertexOf:   make([]int32, n),
		labelOf:    make([]int32, n),
	}
	for v := 0; v < n; v++ {
		p.hi[v] = int32(l.Hi[v])
		p.level[v] = int32(l.T.Level[v])
		p.parent[v] = int32(l.T.Parent[v])
		p.vertexOf[v] = int32(l.VertexOf[v])
		p.labelOf[l.VertexOf[v]] = int32(v)
		if l.LipCount(v) == 1 {
			p.lip[v>>6] |= 1 << (v & 63)
		}
	}
	kids := 0
	for v := 0; v < n; v++ {
		p.childStart[v] = int32(kids)
		kids += len(l.T.Children[v])
	}
	p.childStart[n] = int32(kids)
	p.children = make([]int32, kids)
	for v := 0; v < n; v++ {
		copy(p.children[p.childStart[v]:], int32s(l.T.Children[v]))
	}
	return p
}

func int32s(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}

// Topo is a read-only view of the plan's packed canonical-space arrays,
// for engines (the sharded simulator) that evaluate the protocol directly
// over the int32 layout without re-deriving it from pointerful spantree
// structures. All slices alias the plan's storage: callers must not
// mutate them. Hi[v] closes the subtree interval [v, Hi[v]]; Level[v] is
// k; Parent[v] is -1 at the root; ChildStart/Children is the CSR child
// list; Lip[v>>6]>>(v&63)&1 is the w bit; VertexOf/LabelOf translate
// between canonical labels and original vertex ids.
type Topo struct {
	N      int
	Height int

	Hi         []int32
	Level      []int32
	Parent     []int32
	ChildStart []int32
	Children   []int32
	Lip        []uint64
	VertexOf   []int32
	LabelOf    []int32
}

// Topo returns the packed-array view of the plan. O(1): no copying.
func (p *Plan) Topo() Topo {
	return Topo{
		N:          p.n,
		Height:     p.height,
		Hi:         p.hi,
		Level:      p.level,
		Parent:     p.parent,
		ChildStart: p.childStart,
		Children:   p.children,
		Lip:        p.lip,
		VertexOf:   p.vertexOf,
		LabelOf:    p.labelOf,
	}
}

// N returns the number of processors (= messages).
func (p *Plan) N() int { return p.n }

// Height returns the labelled tree's height (= network radius).
func (p *Plan) Height() int { return p.height }

// Rounds returns the total communication time: n + height for n >= 2
// (Theorem 1), 0 for trivial plans.
func (p *Plan) Rounds() int {
	if p.n <= 1 {
		return 0
	}
	return p.n + p.height
}

// SizeBytes reports the plan's resident size: the packed arrays plus the
// struct header. This is the honest per-entry footprint the plan cache
// charges for implicit-backed plans.
func (p *Plan) SizeBytes() int64 {
	b := int64(0)
	b += int64(len(p.hi)+len(p.level)+len(p.parent)) * 4
	b += int64(len(p.childStart)+len(p.children)) * 4
	b += int64(len(p.vertexOf)+len(p.labelOf)) * 4
	b += int64(len(p.lip)) * 8
	b += 16 + 9*24 // ints + slice headers
	return b
}

// w returns the lip count of canonical vertex v (0 or 1).
func (p *Plan) w(v int32) int32 {
	return int32(p.lip[v>>6] >> (uint(v) & 63) & 1)
}

func (p *Plan) isLeaf(v int32) bool { return p.hi[v] == v }

// kids returns the canonical child list of v (shared slice; do not mutate).
func (p *Plan) kids(v int32) []int32 {
	return p.children[p.childStart[v]:p.childStart[v+1]]
}

// owner returns the child of v whose subtree interval holds message m, or
// -1 when none does (m == v or m outside v's interval).
func (p *Plan) owner(v, m int32) int32 {
	if m <= v || m > p.hi[v] {
		return -1
	}
	kids := p.kids(v)
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

// upSendAt evaluates Propagate-Up (U3/U4) at vertex v and time t: the
// message v sends to its parent, or -1. Each non-root vertex sends its
// lip-message i at time 0 (when w = 1) and every remaining b-message m in
// [i+w .. j] at time m - k.
func (p *Plan) upSendAt(v int32, t int) int32 {
	if p.parent[v] < 0 {
		return -1
	}
	i, j, k, w := v, p.hi[v], p.level[v], p.w(v)
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
// "message 0 at time n". o-message forwarding (D1/D2) recurses on what the
// parent sent one round earlier; arrivals at the D3-busy slots i-k and
// i-k+1 are held and re-emitted at j-k+1 and j-k+2 in arrival order.
func (p *Plan) downSendAt(v int32, t int) int32 {
	if t < 0 || p.isLeaf(v) {
		return -1
	}
	i, j, k := v, p.hi[v], p.level[v]
	bLo, bHi := int(i-k), int(j-k)
	if t >= bLo && t <= bHi {
		m := int32(t) + k
		if m != i || i != k {
			return m
		}
		// i == k at t == i-k: the s-message is relocated below; nothing
		// else can occupy this slot (the paper guarantees no o-message
		// arrives while the leftmost path is in its opening round).
		return -1
	}
	if i == k {
		if t == bHi+1 {
			return i // relocated s-message (root: message 0 at time n)
		}
		// Leftmost-path vertices never capture arrivals, so everything
		// else is a plain pass-through forward.
		return p.arrivalAt(v, t)
	}
	if in := p.arrivalAt(v, t); in != -1 {
		// D1: an o-message received at time t is forwarded at time t. The
		// capture slots i-k and i-k+1 lie inside the b-region and were
		// returned above, so any arrival seen here forwards immediately.
		return in
	}
	if t == bHi+1 || t == bHi+2 {
		// D2: release the messages captured at i-k and i-k+1, in arrival
		// order, at j-k+1 and j-k+2.
		first := p.arrivalAt(v, bLo)
		second := p.arrivalAt(v, bLo+1)
		queue := [2]int32{-1, -1}
		qn := 0
		if first != -1 {
			queue[qn] = first
			qn++
		}
		if second != -1 {
			queue[qn] = second
			qn++
		}
		return queue[t-(bHi+1)]
	}
	return -1
}

// arrivalAt returns the o-message v receives from its parent at time t, or
// -1: the parent's down-send of round t-1, unless that message belongs to
// v's own subtree (D3 excludes the owner child from the destination set).
func (p *Plan) arrivalAt(v int32, t int) int32 {
	par := p.parent[v]
	if par < 0 || t <= 0 {
		return -1
	}
	m := p.downSendAt(par, t-1)
	if m == -1 || (m >= v && m <= p.hi[v]) {
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
func (p *Plan) RoundAppend(t int, dst []schedule.Transmission) []schedule.Transmission {
	if t < 0 || t >= p.Rounds() {
		return dst
	}
	for v := int32(0); v < int32(p.n); v++ {
		up := p.upSendAt(v, t)
		down := int32(-1)
		if !p.isLeaf(v) {
			down = p.downSendAt(v, t)
		}
		msg := up
		if down != -1 {
			if msg != -1 && msg != down {
				panic(fmt.Sprintf("implicit: vertex %d emits %d and %d at %d", v, msg, down, t))
			}
			msg = down
		}
		if msg == -1 {
			continue
		}
		var to []int32
		if down != -1 {
			kids := p.kids(v)
			if ow := p.owner(v, msg); ow != -1 {
				to = make([]int32, 0, len(kids))
				for _, c := range kids {
					if c != ow {
						to = append(to, c)
					}
				}
			} else {
				to = kids
			}
		}
		if up == -1 && len(to) == 0 {
			continue // b-message owned by an only child: empty multicast
		}
		// Reuse the destination slice of the spare slot dst is about to
		// grow into, so a caller recycling its buffer (dst = dst[:0]
		// between rounds) reaches zero steady-state allocations.
		var dests []int
		if len(dst) < cap(dst) {
			dests = dst[len(dst) : len(dst)+1][0].To[:0]
		}
		if cap(dests) < len(to)+1 {
			dests = make([]int, 0, len(to)+1)
		}
		if up != -1 {
			dests = append(dests, int(p.vertexOf[p.parent[v]]))
		}
		for _, c := range to {
			dests = append(dests, int(p.vertexOf[c]))
		}
		sort.Ints(dests)
		dst = append(dst, schedule.Transmission{
			Msg:  int(p.vertexOf[msg]),
			From: int(p.vertexOf[v]),
			To:   dests,
		})
	}
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
	if p.n <= 1 {
		return vt
	}
	c := p.labelOf[v]
	i, j, k := c, p.hi[c], p.level[c]

	// Sends to the parent: U3/U4 directly.
	if p.parent[c] >= 0 {
		w := p.w(c)
		if w == 1 {
			vt.SendParent[0] = int(p.vertexOf[i])
		}
		for m := i + w; m <= j; m++ {
			vt.SendParent[int(m-k)] = int(p.vertexOf[m])
		}
	}

	// Receives from the children (the paper's Propagate-Up receive rules):
	// the l-message i+1 arrives at time 1 from the first child's lip send,
	// and each r-message m in [i+2 .. j] arrives at time m - k from the
	// child owning m.
	if !p.isLeaf(c) {
		vt.RecvChild[1] = int(p.vertexOf[i+1])
		for m := i + 2; m <= j; m++ {
			vt.RecvChild[int(m-k)] = int(p.vertexOf[m])
		}
	}

	// Sends toward the children and receives from the parent: evaluate the
	// Propagate-Down formulas round by round. A b-message owned by an only
	// child has an empty owner-excluded destination set — no transmission
	// happens (unless merged with an up-send, which never adds a child
	// destination), so the SendChild row stays empty there.
	if !p.isLeaf(c) {
		onlyChild := p.childStart[c+1]-p.childStart[c] == 1
		for t := 0; t < rounds; t++ {
			if m := p.downSendAt(c, t); m != -1 {
				if onlyChild && p.owner(c, m) != -1 {
					continue
				}
				vt.SendChild[t] = int(p.vertexOf[m])
			}
		}
	}
	if p.parent[c] >= 0 {
		for t := 1; t <= rounds; t++ {
			if m := p.arrivalAt(c, t); m != -1 {
				vt.RecvParent[t] = int(p.vertexOf[m])
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
	n := p.n
	parent := make([]int, n)
	for v := 0; v < n; v++ {
		parent[v] = int(p.parent[v])
	}
	l := &spantree.Labeled{
		T:        spantree.MustFromParents(parent),
		VertexOf: make([]int, n),
		LabelOf:  make([]int, n),
		Hi:       make([]int, n),
	}
	for v := 0; v < n; v++ {
		l.VertexOf[v] = int(p.vertexOf[v])
		l.LabelOf[p.vertexOf[v]] = v
		l.Hi[v] = int(p.hi[v])
	}
	return l
}

// OriginalTree reconstructs the minimum-depth spanning tree in the
// network's original vertex identifiers.
func (p *Plan) OriginalTree() *spantree.Tree {
	n := p.n
	parent := make([]int, n)
	for c := 0; c < n; c++ {
		if p.parent[c] < 0 {
			parent[p.vertexOf[c]] = -1
		} else {
			parent[p.vertexOf[c]] = int(p.vertexOf[p.parent[c]])
		}
	}
	return spantree.MustFromParents(parent)
}
