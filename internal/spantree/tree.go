// Package spantree implements Section 3.1 of the paper: rooted spanning
// trees, the minimum-depth spanning tree obtained from n BFS traversals,
// and the DFS preorder message labelling of Section 3.2 together with the
// per-vertex message taxonomy (s/l/r-messages, lip/rip-messages) that the
// ConcurrentUpDown schedule is built from.
package spantree

import (
	"fmt"
	"sort"

	"multigossip/internal/graph"
)

// Tree is a rooted tree over vertices 0..n-1.
type Tree struct {
	Root     int
	Parent   []int   // Parent[v] = parent of v, -1 for the root
	Children [][]int // Children[v], sorted ascending
	Level    []int   // Level[v] = depth of v; Level[Root] = 0
	Height   int     // max level; the r of the n + r bound when minimum-depth
}

// FromParents builds a Tree from a parent array (root marked by -1).
// It validates that the array encodes exactly one root and a single
// connected acyclic structure.
func FromParents(parent []int) (*Tree, error) {
	n := len(parent)
	if n == 0 {
		return nil, fmt.Errorf("spantree: empty parent array")
	}
	t := &Tree{
		Root:     -1,
		Parent:   append([]int(nil), parent...),
		Children: make([][]int, n),
		Level:    make([]int, n),
	}
	for v, p := range parent {
		switch {
		case p == -1:
			if t.Root != -1 {
				return nil, fmt.Errorf("spantree: multiple roots %d and %d", t.Root, v)
			}
			t.Root = v
		case p < 0 || p >= n:
			return nil, fmt.Errorf("spantree: vertex %d has out-of-range parent %d", v, p)
		case p == v:
			return nil, fmt.Errorf("spantree: vertex %d is its own parent", v)
		default:
			t.Children[p] = append(t.Children[p], v)
		}
	}
	if t.Root == -1 {
		return nil, fmt.Errorf("spantree: no root (no parent == -1)")
	}
	for v := range t.Children {
		sort.Ints(t.Children[v])
	}
	// Compute levels by BFS from the root; count reached vertices to detect
	// cycles / disconnected parts.
	for i := range t.Level {
		t.Level[i] = -1
	}
	t.Level[t.Root] = 0
	queue := []int{t.Root}
	reached := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		reached++
		if t.Level[u] > t.Height {
			t.Height = t.Level[u]
		}
		for _, c := range t.Children[u] {
			t.Level[c] = t.Level[u] + 1
			queue = append(queue, c)
		}
	}
	if reached != n {
		return nil, fmt.Errorf("spantree: parent array reaches %d of %d vertices (cycle or disconnection)", reached, n)
	}
	return t, nil
}

// MustFromParents is FromParents for known-good inputs; it panics on error.
func MustFromParents(parent []int) *Tree {
	t, err := FromParents(parent)
	if err != nil {
		panic(err)
	}
	return t
}

// N returns the number of vertices.
func (t *Tree) N() int { return len(t.Parent) }

// IsLeaf reports whether v has no children.
func (t *Tree) IsLeaf(v int) bool { return len(t.Children[v]) == 0 }

// Graph returns the tree as an undirected graph (the tree network on which
// all communications are carried out).
func (t *Tree) Graph() *graph.Graph {
	g := graph.New(t.N())
	for v, p := range t.Parent {
		if p >= 0 {
			g.AddEdge(v, p)
		}
	}
	return g
}

// BFSTree returns the shortest-path spanning tree of g rooted at root, with
// deterministic lowest-numbered-parent tie-breaking. Its height equals the
// eccentricity of root. g must be connected.
func BFSTree(g *graph.Graph, root int) (*Tree, error) {
	parent, dist := g.BFSParents(root)
	for v, d := range dist {
		if d == graph.Unreachable {
			return nil, fmt.Errorf("spantree: vertex %d unreachable from root %d", v, root)
		}
	}
	return FromParents(parent)
}

// MinDepth constructs a minimum-depth spanning tree of g with the result
// the paper's Section 3.1 prescribes: of the n BFS trees, the one of least
// height, ties broken toward the lowest-numbered root. The n-root search
// runs on the pruned parallel sweep engine (graph.Sweep with SweepCenter,
// which proves only the lowest-numbered center) instead of the naive
// sequential loop, but the returned tree — root, parent array, height — is
// bit-identical to the naive construction (asserted by differential
// tests). The height of the result equals the radius of g. g must be
// connected and non-empty.
func MinDepth(g *graph.Graph) (*Tree, error) {
	t, _, err := MinDepthWithStats(g)
	return t, err
}

// MinDepthWithStats is MinDepth, additionally reporting how much work the
// sweep engine did (roots completed, pruned, short-circuited) for
// observability.
func MinDepthWithStats(g *graph.Graph) (*Tree, graph.SweepStats, error) {
	if g.N() == 0 {
		return nil, graph.SweepStats{}, fmt.Errorf("spantree: empty graph")
	}
	res, err := g.Sweep(graph.SweepCenter)
	if err != nil {
		return nil, graph.SweepStats{}, fmt.Errorf("spantree: %w", err)
	}
	t, err := BFSTree(g, res.Center)
	if err != nil {
		return nil, graph.SweepStats{}, err
	}
	return t, res.Stats, nil
}

// ApproxMinDepth constructs a low-depth spanning tree in O(m) time with
// three BFS traversals (the classic double sweep): find the farthest
// vertex u from vertex 0, the farthest vertex w from u, and root the tree
// at the midpoint of the u-w path. On trees this is exact — the midpoint
// of a longest path is a center, so the height equals the radius. On
// general graphs the height lies in [radius, 2*radius] (any root satisfies
// that), usually much closer to the radius than a random root. Use this
// instead of MinDepth when n is large enough that the paper's O(mn)
// construction is the bottleneck.
func ApproxMinDepth(g *graph.Graph) (*Tree, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("spantree: empty graph")
	}
	dist0 := g.BFS(0)
	u, du := 0, 0
	for v, d := range dist0 {
		if d == graph.Unreachable {
			return nil, fmt.Errorf("spantree: vertex %d unreachable from 0", v)
		}
		if d > du {
			u, du = v, d
		}
	}
	parent, distU := g.BFSParents(u)
	w, dw := u, 0
	for v, d := range distU {
		if d > dw {
			w, dw = v, d
		}
	}
	// Walk half the u-w path back from w to its midpoint.
	mid := w
	for step := 0; step < dw/2; step++ {
		mid = parent[mid]
	}
	return BFSTree(g, mid)
}
