package main

import (
	"math/rand"

	mg "multigossip"
	"multigossip/internal/graph"
)

// topo is one generated input topology: an edge list over n processors.
// The benchmark builds every input with its own generators from its seed,
// so a later change to the library's topology constructors cannot change
// what the benchmark measures.
type topo struct {
	family string
	n      int
	edges  [][2]int
	// radius is the graph radius where the family gives it in closed form,
	// and -1 where it must be computed (randomGraph, randomTree).
	radius int
}

func ring(n int) topo {
	t := topo{family: "ring", n: n, radius: n / 2}
	for i := 0; i < n; i++ {
		t.edges = append(t.edges, [2]int{i, (i + 1) % n})
	}
	return t
}

func grid(rows, cols int) topo {
	t := topo{family: "grid", n: rows * cols, radius: rows/2 + cols/2}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c+1 < cols {
				t.edges = append(t.edges, [2]int{v, v + 1})
			}
			if r+1 < rows {
				t.edges = append(t.edges, [2]int{v, v + cols})
			}
		}
	}
	return t
}

func torus(rows, cols int) topo {
	t := topo{family: "torus", n: rows * cols, radius: rows/2 + cols/2}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			t.edges = append(t.edges, [2]int{v, r*cols + (c+1)%cols}, [2]int{v, ((r+1)%rows)*cols + c})
		}
	}
	return t
}

// randomTree returns a uniformly random labelled tree, decoded from a random
// Prüfer sequence in linear time.
func randomTree(rng *rand.Rand, n int) topo {
	t := topo{family: "tree", n: n, radius: -1}
	if n < 2 {
		return t
	}
	seq := make([]int, n-2)
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for i := range seq {
		seq[i] = rng.Intn(n)
		degree[seq[i]]++
	}
	ptr := 0
	for degree[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for _, v := range seq {
		t.edges = append(t.edges, [2]int{leaf, v})
		degree[v]--
		if degree[v] == 1 && v < ptr {
			leaf = v
			continue
		}
		ptr++
		for degree[ptr] != 1 {
			ptr++
		}
		leaf = ptr
	}
	t.edges = append(t.edges, [2]int{leaf, n - 1})
	return t
}

// randomGraph returns a connected random graph with average degree about
// deg: a random recursive spanning tree over a shuffled vertex order, plus
// uniformly random extra links.
func randomGraph(rng *rand.Rand, n int, deg float64) topo {
	t := topo{family: "random", n: n, radius: -1}
	seen := make(map[[2]int]bool)
	link := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		if u != v && !seen[[2]int{u, v}] {
			seen[[2]int{u, v}] = true
			t.edges = append(t.edges, [2]int{u, v})
		}
	}
	order := rng.Perm(n)
	for i := 1; i < n; i++ {
		link(order[i], order[rng.Intn(i)])
	}
	want := int(deg * float64(n) / 2)
	for len(t.edges) < want {
		link(rng.Intn(n), rng.Intn(n))
	}
	return t
}

// relabel returns t with its processors renamed by a random permutation:
// the same structure and cost, but a distinct labelled topology (and so a
// distinct fingerprint) for every draw.
func (t topo) relabel(rng *rand.Rand) topo {
	perm := rng.Perm(t.n)
	out := topo{family: t.family, n: t.n, edges: make([][2]int, len(t.edges)), radius: t.radius}
	for i, e := range t.edges {
		out.edges[i] = [2]int{perm[e[0]], perm[e[1]]}
	}
	return out
}

// bfsRadius returns the graph radius, the least eccentricity over all
// vertices, from a breadth-first search out of every vertex: O(n·m), so the
// checks run it outside the timed region and only where the family gives
// no closed form.
func (t topo) bfsRadius() int {
	start := make([]int, t.n+1)
	for _, e := range t.edges {
		start[e[0]+1]++
		start[e[1]+1]++
	}
	for v := 0; v < t.n; v++ {
		start[v+1] += start[v]
	}
	adj := make([]int, start[t.n])
	fill := append([]int(nil), start[:t.n]...)
	for _, e := range t.edges {
		adj[fill[e[0]]], fill[e[0]] = e[1], fill[e[0]]+1
		adj[fill[e[1]]], fill[e[1]] = e[0], fill[e[1]]+1
	}
	dist := make([]int, t.n)
	queue := make([]int, t.n)
	radius := t.n
	for src := 0; src < t.n; src++ {
		for v := range dist {
			dist[v] = -1
		}
		dist[src], queue[0] = 0, src
		ecc := 0
		for head, tail := 0, 1; head < tail && ecc < radius; head++ {
			u := queue[head]
			ecc = dist[u]
			for _, v := range adj[start[u]:start[u+1]] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue[tail] = v
					tail++
				}
			}
		}
		radius = min(radius, ecc)
	}
	return radius
}

func (t topo) network() *mg.Network {
	nw := mg.NewNetwork(t.n)
	for _, e := range t.edges {
		nw.AddLink(e[0], e[1])
	}
	return nw
}

// graph builds the library's internal graph for the traced runs, which call
// the layers below the public facade directly.
func (t topo) graph() *graph.Graph {
	g := graph.New(t.n)
	for _, e := range t.edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}
