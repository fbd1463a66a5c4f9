package multigossip

import (
	"multigossip/internal/implicit"
	"multigossip/internal/spantree"
)

// StreamSummary reports a streamed gossip plan: the schedule was generated
// and verified round by round in O(n) memory, never materialised.
type StreamSummary struct {
	Processors    int
	TreeHeight    int // n + TreeHeight rounds total
	Rounds        int
	Transmissions int
	Deliveries    int
	MaxFanout     int
	// ExactTree reports that the spanning tree height is proven equal to
	// the network radius. It is always true for the exhaustive
	// construction (whose height is the radius by definition). For the
	// approximate construction the proof is cheap, not exhaustive: the
	// height is compared against the cached metric sweep when one exists,
	// and otherwise against the double-sweep radius lower bound
	// ceil(d(u,w)/2) — so an approximate tree that happens to be exact may
	// still report false when neither cheap certificate applies.
	ExactTree bool
}

// GossipStreamSummary plans gossiping without materialising the Θ(n²)
// schedule: it builds a spanning tree, streams the ConcurrentUpDown rounds
// through an implicit.Cursor with O(n) state, and count-verifies the
// invariants (single send/receive per round, tree edges only, exactly n-1
// receives everywhere, n + height rounds). With approxTree the tree comes
// from the O(m) double-sweep (exact on tree networks, height within
// [r, 2r] in general) instead of the paper's O(mn) exhaustive
// construction — the right trade at n in the tens of thousands, where the
// exhaustive construction is the bottleneck.
func (nw *Network) GossipStreamSummary(approxTree bool) (StreamSummary, error) {
	var (
		tr  *spantree.Tree
		err error
	)
	if approxTree {
		tr, err = spantree.ApproxMinDepth(nw.g)
	} else {
		tr, err = spantree.MinDepth(nw.g)
	}
	if err != nil {
		return StreamSummary{}, err
	}
	sum, err := implicit.New(spantree.Label(tr)).Summarize()
	if err != nil {
		return StreamSummary{}, err
	}
	out := StreamSummary{
		Processors:    nw.g.N(),
		TreeHeight:    tr.Height,
		Rounds:        sum.Rounds,
		Transmissions: sum.Transmissions,
		Deliveries:    sum.Deliveries,
		MaxFanout:     sum.MaxFanout,
		ExactTree:     !approxTree || nw.provenRadius(tr.Height),
	}
	return out, nil
}

// provenRadius reports whether height is provably the network radius
// without paying for a full metric sweep: it compares against the cached
// sweep when one exists, and otherwise checks height against the O(m)
// double-sweep radius lower bound (a BFS-tree height is always >= the
// radius, so meeting a lower bound proves equality). The network must be
// connected.
func (nw *Network) provenRadius(height int) bool {
	nw.mu.Lock()
	cached := nw.metrics
	nw.mu.Unlock()
	if cached != nil {
		return height == cached.Radius
	}
	// Double sweep: the farthest vertex u from 0, then the farthest w from
	// u. d(u, w) lower-bounds the diameter, and radius >= ceil(diameter/2).
	dist0 := nw.g.BFS(0)
	u := 0
	for v, d := range dist0 {
		if d > dist0[u] {
			u = v
		}
	}
	distU := nw.g.BFS(u)
	dw := 0
	for _, d := range distU {
		if d > dw {
			dw = d
		}
	}
	return height <= (dw+1)/2
}
