package graph

// This file implements the distance machinery the paper relies on:
// breadth-first search, eccentricities, and the derived radius, diameter
// and center. The minimum-depth spanning tree of Section 3.1 is built from
// n BFS traversals (see package spantree); here we provide the raw
// traversal plus the metric helpers.

// Unreachable is the distance reported for vertices in a different
// connected component.
const Unreachable = -1

// BFS returns the distance (number of edges on a shortest path) from src to
// every vertex, with Unreachable for vertices not connected to src.
func (g *Graph) BFS(src int) []int {
	g.check(src)
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	queue := make([]int, 0, g.N())
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] == Unreachable {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// BFSParents runs BFS from src and returns, for every vertex, its parent on
// a shortest path tree rooted at src (the parent is the vertex from which it
// was first discovered; src and unreachable vertices get parent -1).
// Ties are broken toward the lowest-numbered parent because adjacency lists
// are sorted, which makes tree construction deterministic.
func (g *Graph) BFSParents(src int) (parent, dist []int) {
	g.check(src)
	n := g.N()
	parent = make([]int, n)
	dist = make([]int, n)
	for i := range dist {
		parent[i] = -1
		dist[i] = Unreachable
	}
	dist[src] = 0
	queue := make([]int, 0, n)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] == Unreachable {
				dist[v] = dist[u] + 1
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return parent, dist
}

// Reachable reports whether v can be reached from u, by a BFS from u that
// exits as soon as it discovers v. Used by Network.RemoveLink to decide
// whether deleting {u, v} split the component the edge lived in: the
// endpoints were connected through the edge, so they stay connected after
// its removal exactly when some alternative u-v path survives.
func (g *Graph) Reachable(u, v int) bool {
	g.check(u)
	g.check(v)
	if u == v {
		return true
	}
	seen := make([]bool, g.N())
	seen[u] = true
	queue := make([]int, 0, g.N())
	queue = append(queue, u)
	for head := 0; head < len(queue); head++ {
		for _, w := range g.adj[queue[head]] {
			if w == v {
				return true
			}
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return false
}

// IsConnected reports whether the graph is connected. The empty graph and
// the single-vertex graph are connected.
func (g *Graph) IsConnected() bool {
	if g.N() <= 1 {
		return true
	}
	dist := g.BFS(0)
	for _, d := range dist {
		if d == Unreachable {
			return false
		}
	}
	return true
}

// Components returns the connected components as slices of vertices,
// ordered by their smallest vertex. Each lists its vertices in
// breadth-first order from that smallest vertex, neighbours in adjacency
// order, so it is not sorted: edges {0,2},{2,1} give [[0 2 1]]. Seeded
// generators (RandomConnected) depend on this order.
func (g *Graph) Components() [][]int {
	n := g.N()
	seen := make([]bool, n)
	var comps [][]int
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		queue := []int{s}
		seen[s] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for _, v := range g.adj[u] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// ComponentLabels labels every vertex with its connected component,
// numbering the components 0, 1, ... in the order Components lists them
// (by smallest vertex), and returns the labels and the component count.
// It allocates the label slice and one queue, not a slice per component.
func (g *Graph) ComponentLabels() (label []int, count int) {
	n := g.N()
	label = make([]int, n)
	for v := range label {
		label[v] = -1
	}
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if label[s] >= 0 {
			continue
		}
		label[s] = count
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			for _, v := range g.adj[queue[head]] {
				if label[v] < 0 {
					label[v] = count
					queue = append(queue, v)
				}
			}
		}
		count++
	}
	return label, count
}

// Eccentricity returns the greatest distance from v to any vertex.
// It panics if the graph is disconnected, because eccentricity is undefined
// there and every algorithm in this module requires connectivity.
func (g *Graph) Eccentricity(v int) int {
	dist := g.BFS(v)
	ecc := 0
	for _, d := range dist {
		if d == Unreachable {
			panic("graph: eccentricity undefined on a disconnected graph")
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// mustSweep runs a sweep and converts disconnection into the documented
// panic the metric methods share.
func (g *Graph) mustSweep(mode SweepMode) *SweepResult {
	res, err := g.Sweep(mode)
	if err != nil {
		panic("graph: eccentricity undefined on a disconnected graph")
	}
	return res
}

// Eccentricities returns the eccentricity of every vertex. The n BFS
// traversals run on the parallel sweep engine (see Sweep); the naive O(nm)
// loop over Eccentricity is retained only as the test oracle. It panics on
// disconnected graphs.
func (g *Graph) Eccentricities() []int {
	if g.N() == 0 {
		return make([]int, 0)
	}
	return g.mustSweep(SweepAll).Ecc
}

// Radius returns the minimum eccentricity, i.e. the least r such that some
// vertex reaches every vertex within r edges. This is the r of the paper's
// n + r bound. It runs on the pruned parallel sweep (Sweep with
// SweepCenter).
func (g *Graph) Radius() int {
	r, _ := g.RadiusCenter()
	return r
}

// Diameter returns the maximum eccentricity, via a full parallel sweep.
func (g *Graph) Diameter() int {
	if g.N() == 0 {
		return 0
	}
	return g.mustSweep(SweepAll).Diameter
}

// RadiusCenter returns the radius together with the lowest-numbered center
// vertex (a vertex achieving the radius), via the pruned parallel sweep in
// SweepCenter mode, which proves only that one center.
func (g *Graph) RadiusCenter() (radius, center int) {
	if g.N() == 0 {
		return 0, -1
	}
	res := g.mustSweep(SweepCenter)
	return res.Radius, res.Center
}

// Center returns all vertices of minimum eccentricity, sorted, via the
// pruned parallel sweep.
func (g *Graph) Center() []int {
	if g.N() == 0 {
		return nil
	}
	return append([]int(nil), g.mustSweep(SweepMin).Centers...)
}
