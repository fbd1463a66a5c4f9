package graph

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func TestNewAndCounts(t *testing.T) {
	g := New(5)
	if g.N() != 5 {
		t.Fatalf("N() = %d, want 5", g.N())
	}
	if g.M() != 0 {
		t.Fatalf("M() = %d, want 0", g.M())
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 1) // duplicate must be a no-op
	if g.M() != 2 {
		t.Fatalf("M() = %d after adds, want 2", g.M())
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddEdgeSelfLoopPanics(t *testing.T) {
	g := New(3)
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge(1,1) did not panic")
		}
	}()
	g.AddEdge(1, 1)
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	g := New(3)
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge(0,3) did not panic")
		}
	}()
	g.AddEdge(0, 3)
}

func TestHasEdgeAndNeighbors(t *testing.T) {
	g := New(4)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	g.AddEdge(2, 1)
	if !g.HasEdge(0, 2) || !g.HasEdge(2, 0) {
		t.Error("HasEdge must be symmetric")
	}
	if g.HasEdge(0, 1) {
		t.Error("HasEdge reports absent edge")
	}
	nbrs := g.Neighbors(2)
	want := []int{0, 1, 3}
	if len(nbrs) != len(want) {
		t.Fatalf("Neighbors(2) = %v, want %v", nbrs, want)
	}
	for i := range want {
		if nbrs[i] != want[i] {
			t.Fatalf("Neighbors(2) = %v, want sorted %v", nbrs, want)
		}
	}
	if g.Degree(2) != 3 || g.Degree(0) != 1 {
		t.Errorf("degrees wrong: deg(2)=%d deg(0)=%d", g.Degree(2), g.Degree(0))
	}
}

func TestEdgesOrderedOnce(t *testing.T) {
	g := Cycle(4)
	edges := g.Edges()
	want := []Edge{{0, 1}, {0, 3}, {1, 2}, {2, 3}}
	if len(edges) != len(want) {
		t.Fatalf("Edges() = %v, want %v", edges, want)
	}
	for i, e := range want {
		if edges[i] != e {
			t.Fatalf("Edges()[%d] = %v, want %v", i, edges[i], e)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Path(4)
	c := g.Clone()
	c.AddEdge(0, 3)
	if g.HasEdge(0, 3) {
		t.Fatal("mutating clone affected original")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	g := New(3)
	g.adj[0] = []int{1} // hand-corrupted: 1 does not list 0
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted asymmetric adjacency")
	}
}

func TestValidateCatchesUnsorted(t *testing.T) {
	g := New(3)
	g.adj[0] = []int{2, 1}
	g.adj[1] = []int{0}
	g.adj[2] = []int{0}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted unsorted adjacency")
	}
}

func TestBFSDistancesOnPath(t *testing.T) {
	g := Path(5)
	dist := g.BFS(0)
	for v, d := range dist {
		if d != v {
			t.Errorf("dist(0,%d) = %d, want %d", v, d, v)
		}
	}
	dist = g.BFS(2)
	want := []int{2, 1, 0, 1, 2}
	for v := range want {
		if dist[v] != want[v] {
			t.Errorf("dist(2,%d) = %d, want %d", v, dist[v], want[v])
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	dist := g.BFS(0)
	if dist[2] != Unreachable {
		t.Fatalf("dist to isolated vertex = %d, want Unreachable", dist[2])
	}
	if g.IsConnected() {
		t.Fatal("IsConnected true on disconnected graph")
	}
}

func TestBFSParentsDeterministic(t *testing.T) {
	// Diamond: 0-1, 0-2, 1-3, 2-3. BFS from 0 must pick parent 1 for 3
	// (lowest-numbered first discovery).
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	parent, dist := g.BFSParents(0)
	if parent[3] != 1 {
		t.Errorf("parent[3] = %d, want 1", parent[3])
	}
	if parent[0] != -1 || dist[0] != 0 {
		t.Errorf("root parent/dist = %d/%d, want -1/0", parent[0], dist[0])
	}
	if dist[3] != 2 {
		t.Errorf("dist[3] = %d, want 2", dist[3])
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("Components() found %d, want 3: %v", len(comps), comps)
	}
	if len(comps[0]) != 2 || len(comps[1]) != 3 || len(comps[2]) != 1 {
		t.Fatalf("component sizes wrong: %v", comps)
	}
}

func TestRadiusDiameterCenter(t *testing.T) {
	cases := []struct {
		name     string
		g        *Graph
		radius   int
		diameter int
		center   []int
	}{
		{"P5", Path(5), 2, 4, []int{2}},
		{"P4", Path(4), 2, 3, []int{1, 2}},
		{"C6", Cycle(6), 3, 3, []int{0, 1, 2, 3, 4, 5}},
		{"K4", Complete(4), 1, 1, []int{0, 1, 2, 3}},
		{"Star8", Star(8), 1, 2, []int{0}},
		{"Petersen", Petersen(), 2, 2, nil},
		{"K1", New(1), 0, 0, []int{0}},
	}
	for _, c := range cases {
		if r := c.g.Radius(); r != c.radius {
			t.Errorf("%s: radius = %d, want %d", c.name, r, c.radius)
		}
		if d := c.g.Diameter(); d != c.diameter {
			t.Errorf("%s: diameter = %d, want %d", c.name, d, c.diameter)
		}
		if c.center != nil {
			got := c.g.Center()
			if len(got) != len(c.center) {
				t.Errorf("%s: center = %v, want %v", c.name, got, c.center)
				continue
			}
			for i := range got {
				if got[i] != c.center[i] {
					t.Errorf("%s: center = %v, want %v", c.name, got, c.center)
					break
				}
			}
		}
	}
}

func TestEccentricityDisconnectedPanics(t *testing.T) {
	g := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Eccentricity on disconnected graph did not panic")
		}
	}()
	g.Eccentricity(0)
}

func TestOddPathRadius(t *testing.T) {
	// The paper's lower-bound instance: line with n = 2m+1 has radius m.
	for m := 1; m <= 10; m++ {
		n := 2*m + 1
		if r := Path(n).Radius(); r != m {
			t.Errorf("Path(%d): radius = %d, want %d", n, r, m)
		}
	}
}

func TestGenerators(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		n, m int
	}{
		{"Path(1)", Path(1), 1, 0},
		{"Path(6)", Path(6), 6, 5},
		{"Cycle(5)", Cycle(5), 5, 5},
		{"Star(5)", Star(5), 5, 4},
		{"Complete(5)", Complete(5), 5, 10},
		{"K23", CompleteBipartite(2, 3), 5, 6},
		{"Grid(3,4)", Grid(3, 4), 12, 17},
		{"Torus(3,3)", Torus(3, 3), 9, 18},
		{"Q3", Hypercube(3), 8, 12},
		{"Q0", Hypercube(0), 1, 0},
		{"Bin15", KAryTree(15, 2), 15, 14},
		{"Cat(3,2)", Caterpillar(3, 2), 9, 8},
		{"Wheel(6)", Wheel(6), 6, 10},
		{"Spider(3,2)", Spider(3, 2), 7, 6},
	}
	for _, c := range cases {
		if c.g.N() != c.n || c.g.M() != c.m {
			t.Errorf("%s: n=%d m=%d, want n=%d m=%d", c.name, c.g.N(), c.g.M(), c.n, c.m)
		}
		if err := c.g.Validate(); err != nil {
			t.Errorf("%s: invalid: %v", c.name, err)
		}
		if !c.g.IsConnected() {
			t.Errorf("%s: not connected", c.name)
		}
	}
}

func TestHypercubeStructure(t *testing.T) {
	g := Hypercube(4)
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("Q4: degree(%d) = %d, want 4", v, g.Degree(v))
		}
	}
	if g.Diameter() != 4 {
		t.Fatalf("Q4: diameter = %d, want 4", g.Diameter())
	}
}

func TestDeBruijn(t *testing.T) {
	g := DeBruijn(4)
	if g.N() != 16 {
		t.Fatalf("B(2,4): n = %d, want 16", g.N())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("B(2,4) invalid: %v", err)
	}
	if !g.IsConnected() {
		t.Fatal("B(2,4) disconnected")
	}
	if d := g.Diameter(); d > 4 {
		t.Fatalf("B(2,4): diameter = %d, want <= 4", d)
	}
}

func TestPetersenProperties(t *testing.T) {
	g := Petersen()
	if g.N() != 10 || g.M() != 15 {
		t.Fatalf("Petersen: n=%d m=%d, want 10, 15", g.N(), g.M())
	}
	for v := 0; v < 10; v++ {
		if g.Degree(v) != 3 {
			t.Fatalf("Petersen: degree(%d) = %d, want 3 (3-regular)", v, g.Degree(v))
		}
	}
	if g.Diameter() != 2 || g.Radius() != 2 {
		t.Fatalf("Petersen: radius/diameter = %d/%d, want 2/2", g.Radius(), g.Diameter())
	}
	// Girth 5: no triangles or 4-cycles. Check no two adjacent vertices
	// share a neighbour (no triangle) and no two non-adjacent vertices
	// share two neighbours (no 4-cycle).
	common := func(u, v int) int {
		c := 0
		for _, x := range g.Neighbors(u) {
			if g.HasEdge(x, v) {
				c++
			}
		}
		return c
	}
	for u := 0; u < 10; u++ {
		for v := u + 1; v < 10; v++ {
			c := common(u, v)
			if g.HasEdge(u, v) && c != 0 {
				t.Fatalf("Petersen: triangle through %d-%d", u, v)
			}
			if !g.HasEdge(u, v) && c != 1 {
				t.Fatalf("Petersen: %d,%d share %d neighbours, want 1", u, v, c)
			}
		}
	}
}

func TestN3StandInNotHamiltonian(t *testing.T) {
	// K_{2,3} is bipartite with unequal sides, hence non-Hamiltonian: a
	// Hamiltonian circuit alternates sides, requiring equal side sizes.
	g := N3StandIn()
	if g.N() != 5 || g.M() != 6 {
		t.Fatalf("N3 stand-in: n=%d m=%d, want 5, 6", g.N(), g.M())
	}
	// Verify bipartition {0,1} vs {2,3,4}: no intra-side edges.
	for _, e := range g.Edges() {
		uSide := e.U < 2
		vSide := e.V < 2
		if uSide == vSide {
			t.Fatalf("N3 stand-in: intra-side edge %v", e)
		}
	}
}

func TestFig4ContainsFig5Tree(t *testing.T) {
	g := Fig4()
	parents := Fig5TreeParents()
	if g.N() != 16 || len(parents) != 16 {
		t.Fatalf("Fig4/Fig5 sizes wrong: %d, %d", g.N(), len(parents))
	}
	for v, p := range parents {
		if p >= 0 && !g.HasEdge(v, p) {
			t.Errorf("Fig4 missing tree edge %d-%d", v, p)
		}
	}
	if r := g.Radius(); r != 3 {
		t.Errorf("Fig4: radius = %d, want 3", r)
	}
	if _, c := g.RadiusCenter(); c != 0 {
		t.Errorf("Fig4: lowest center = %d, want 0", c)
	}
}

func TestRandomConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range []float64{0, 0.05, 0.3, 1} {
		for _, n := range []int{1, 2, 7, 40} {
			g := RandomConnected(rng, n, p)
			if g.N() != n {
				t.Fatalf("RandomConnected(n=%d): N=%d", n, g.N())
			}
			if !g.IsConnected() {
				t.Fatalf("RandomConnected(n=%d, p=%v) disconnected", n, p)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("RandomConnected invalid: %v", err)
			}
		}
	}
	if g := RandomConnected(rng, 5, 1); g.M() != 10 {
		t.Errorf("RandomConnected(p=1) not complete: m=%d", g.M())
	}
}

func TestRandomTree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 3, 10, 64} {
		g := RandomTree(rng, n)
		if g.N() != n || g.M() != max(0, n-1) {
			t.Fatalf("RandomTree(%d): n=%d m=%d", n, g.N(), g.M())
		}
		if !g.IsConnected() {
			t.Fatalf("RandomTree(%d) disconnected", n)
		}
	}
}

func TestRandomGeometricConnectedAndValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 5, 30, 100} {
		g := RandomGeometric(rng, n, 0.18)
		if !g.IsConnected() {
			t.Fatalf("RandomGeometric(%d) disconnected after repair", n)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("RandomGeometric invalid: %v", err)
		}
	}
}

func TestPruferDecodeKnown(t *testing.T) {
	// Sequence [3,3] encodes the star centered at 3 on 4 vertices.
	g := PruferDecode([]int{3, 3})
	if g.M() != 3 || g.Degree(3) != 3 {
		t.Fatalf("PruferDecode([3,3]) = %v, want star at 3", g)
	}
	// Sequence [1,2] encodes the path 0-1-2-3.
	g = PruferDecode([]int{1, 2})
	for _, e := range []Edge{{0, 1}, {1, 2}, {2, 3}} {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("PruferDecode([1,2]) missing %v: %v", e, g)
		}
	}
}

func TestAllTreesCounts(t *testing.T) {
	// Cayley's formula: n^(n-2) labelled trees.
	for n, want := range map[int]int{1: 1, 2: 1, 3: 3, 4: 16, 5: 125, 6: 1296} {
		count := 0
		AllTrees(n, func(g *Graph) bool {
			count++
			if g.N() != n || g.M() != max(0, n-1) || !g.IsConnected() {
				t.Fatalf("AllTrees(%d) produced non-tree %v", n, g)
			}
			return true
		})
		if count != want {
			t.Errorf("AllTrees(%d) enumerated %d, want %d", n, count, want)
		}
	}
}

func TestAllTreesEarlyStop(t *testing.T) {
	count := 0
	AllTrees(5, func(*Graph) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop after %d trees, want 10", count)
	}
}

func TestDOT(t *testing.T) {
	g := Path(3)
	dot := g.DOT("P3", map[int]string{0: "root"})
	for _, want := range []string{"graph P3 {", "0 -- 1;", "1 -- 2;", `0 [label="root"];`} {
		if !contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestGraphString(t *testing.T) {
	g := Path(3)
	s := g.String()
	if s != "graph{n=3 m=2: 0-1 1-2}" {
		t.Fatalf("String() = %q", s)
	}
}

func TestN1IsEightRing(t *testing.T) {
	g := N1()
	if g.N() != 8 || g.M() != 8 {
		t.Fatalf("N1: n=%d m=%d, want an 8-ring", g.N(), g.M())
	}
	for v := 0; v < 8; v++ {
		if !g.HasEdge(v, (v+1)%8) {
			t.Fatalf("N1 missing ring edge %d-%d", v, (v+1)%8)
		}
	}
}

// naiveComponentDiameter is the all-pairs oracle for ComponentDiameter: a
// BFS from every vertex, folding the largest distance each one reaches.
func naiveComponentDiameter(g *Graph) int {
	diam := 0
	for v := 0; v < g.N(); v++ {
		for _, d := range g.BFS(v) {
			diam = max(diam, d)
		}
	}
	return diam
}

// crashStop returns g without processor p's links, the way a repair run's
// survivor graph isolates a crash-stopped processor.
func crashStop(g *Graph, p int) *Graph {
	out := New(g.N())
	for _, e := range g.Edges() {
		if e.U != p && e.V != p {
			out.AddEdge(e.U, e.V)
		}
	}
	return out
}

// TestComponentDiameter holds the pruned parallel ComponentDiameter to the
// all-pairs oracle, with one worker and with four, on the shapes only a
// disconnected graph has: isolated vertices, components of different
// diameters, and crash-stop survivor graphs. (TestSweepBatteryMatchesNaive
// checks the sweep battery's connected graphs against the naive diameter.)
func TestComponentDiameter(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(25))
	// Two components: a 5-path (diameter 4) and a triangle (diameter 1).
	split := New(8)
	for v := 0; v < 4; v++ {
		split.AddEdge(v, v+1)
	}
	split.AddEdge(5, 6)
	split.AddEdge(6, 7)
	split.AddEdge(5, 7)
	cases := []struct {
		name string
		g    *Graph
		want int // -1: take the oracle's answer
	}{
		{"empty", New(0), 0},
		{"singleton", New(1), 0},
		{"isolated", New(4), 0},
		{"path", Path(6), 5},
		{"cycle", Cycle(8), 4},
		{"path+triangle", split, 4},
		{"path+triangle relabelled", relabel(rng, split), 4},
		{"grid12x12 crash", relabel(rng, crashStop(Grid(12, 12), 40)), -1},
		{"path40 crash", relabel(rng, crashStop(Path(40), 13)), 25},
		{"torus8x8 crash", relabel(rng, crashStop(Torus(8, 8), 0)), -1},
		{"random300 crash", crashStop(RandomConnected(rng, 300, 0.02), 7), -1},
	}
	for _, c := range cases {
		want := naiveComponentDiameter(c.g)
		if c.want >= 0 && want != c.want {
			t.Fatalf("%s: oracle says %d, want %d", c.name, want, c.want)
		}
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			if got := c.g.ComponentDiameter(); got != want {
				t.Errorf("%s procs=%d: ComponentDiameter() = %d, want %d", c.name, procs, got, want)
			}
		}
	}
}

// TestComponentDiameterPrunesGrid pins the upper-bound pruning: on a
// relabelled 16 x 16 grid a few traversals bound every other vertex's
// eccentricity by the diameter found.
func TestComponentDiameterPrunesGrid(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	g := relabel(rand.New(rand.NewSource(16)), Grid(16, 16))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		diam, traversals, _ := g.componentDiameter()
		if diam != 30 {
			t.Fatalf("procs=%d: diameter %d, want 30", procs, diam)
		}
		if traversals > 16 {
			t.Errorf("procs=%d: %d traversals, want at most 16 of 256", procs, traversals)
		}
	}
}

// TestComponentDiameterLanePath holds the lane path of ComponentDiameter
// to the all-pairs oracle, with one worker and with four: on the replay
// classes (the random ones take lanes, the ring, grid and torus stay
// scalar) and on disconnected survivor-style graphs that take lanes —
// shallow random components beside isolated vertices, a crash-stopped
// vertex 0 (so the first traversal sees a lone vertex), and more roots
// than one worker's lane batch spread over several components.
func TestComponentDiameterLanePath(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(64))
	// Three random components of different sizes and two isolated
	// vertices, interleaved by a relabelling.
	parts := New(300)
	off := 0
	for _, size := range []int{150, 90, 58} {
		part := RandomConnected(rng, size, 8.0/float64(size))
		for _, e := range part.Edges() {
			parts.AddEdge(off+e.U, off+e.V)
		}
		off += size
	}
	cases := []struct {
		name  string
		g     *Graph
		laned bool
	}{
		{"components+isolated", relabel(rng, parts), true},
		{"random256 crash0", crashStop(RandomConnected(rng, 256, 6.0/256), 0), true},
		{"random200 crash17", crashStop(RandomConnected(rng, 200, 10.0/200), 17), true},
		{"two vertices", crashStop(Complete(3), 2), true},
	}
	for _, tc := range replayClasses() {
		cases = append(cases, struct {
			name  string
			g     *Graph
			laned bool
		}{tc.name, tc.g, strings.HasPrefix(tc.name, "random")})
	}
	for _, c := range cases {
		want := naiveComponentDiameter(c.g)
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			diam, _, laned := c.g.componentDiameter()
			if diam != want {
				t.Errorf("%s procs=%d: ComponentDiameter() = %d, want %d", c.name, procs, diam, want)
			}
			if laned != c.laned {
				t.Errorf("%s procs=%d: lane path %v, want %v", c.name, procs, laned, c.laned)
			}
		}
	}
}
