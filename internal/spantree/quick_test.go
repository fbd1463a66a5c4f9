package spantree

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"multigossip/internal/graph"
)

// TestQuickLabelInvariants: the DFS labelling of any rooted random tree
// satisfies all structural invariants checked by Verify, plus the facts
// the feasibility proofs use: label >= level everywhere, contiguous child
// intervals, and the lip-message characterisation (exactly the first child
// of each vertex carries one).
func TestQuickLabelInvariants(t *testing.T) {
	prop := func(seed int64, rawN, rawRoot uint8) bool {
		n := 1 + int(rawN)%64
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomTree(rng, n)
		tr, err := BFSTree(g, int(rawRoot)%n)
		if err != nil {
			return false
		}
		l := Label(tr)
		if l.Verify() != nil {
			return false
		}
		// Lip-count: the number of lip-messages across the tree equals the
		// number of non-leaf vertices (each contributes exactly one first
		// child).
		lips, nonLeaves := 0, 0
		for v := 0; v < n; v++ {
			lips += l.LipCount(v)
			if !l.T.IsLeaf(v) {
				nonLeaves++
			}
		}
		return lips == nonLeaves
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMinDepthNeverWorseThanAnyRoot: the minimum-depth tree's height
// is a lower bound over all BFS tree heights, and equals the radius.
func TestQuickMinDepthNeverWorseThanAnyRoot(t *testing.T) {
	prop := func(seed int64, rawN, rawP uint8) bool {
		n := 1 + int(rawN)%24
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(rng, n, float64(rawP)/255)
		tr, err := MinDepth(g)
		if err != nil {
			return false
		}
		if tr.Height != g.Radius() {
			return false
		}
		for root := 0; root < n; root++ {
			bt, err := BFSTree(g, root)
			if err != nil || bt.Height < tr.Height {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// naiveMinDepth is the paper's literal Section 3.1 loop — a BFS tree from
// every root, keeping the first one of least height — retained as the
// reference implementation the sweep-engine construction must match bit
// for bit.
func naiveMinDepth(g *graph.Graph) (*Tree, error) {
	var best *Tree
	for root := 0; root < g.N(); root++ {
		t, err := BFSTree(g, root)
		if err != nil {
			return nil, err
		}
		if best == nil || t.Height < best.Height {
			best = t
		}
	}
	return best, nil
}

// TestQuickMinDepthBitIdenticalToNaive: the pruned parallel sweep behind
// MinDepth returns exactly the tree of the naive n-BFS loop — same root,
// same parent array, same height — on random connected graphs.
func TestQuickMinDepthBitIdenticalToNaive(t *testing.T) {
	prop := func(seed int64, rawN, rawP uint8) bool {
		n := 1 + int(rawN)%40
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(rng, n, float64(rawP)/255)
		want, err := naiveMinDepth(g)
		if err != nil {
			return false
		}
		got, err := MinDepth(g)
		if err != nil {
			return false
		}
		if got.Root != want.Root || got.Height != want.Height {
			return false
		}
		for v := range want.Parent {
			if got.Parent[v] != want.Parent[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickApproxMinDepthBounds: the doc-comment claims of ApproxMinDepth,
// property-tested — on arbitrary random connected graphs the double-sweep
// tree height lies in [radius, 2*radius] (with the n = 1 radius-0 corner
// handled), and on random trees it is exactly the radius.
func TestQuickApproxMinDepthBounds(t *testing.T) {
	prop := func(seed int64, rawN, rawP uint8) bool {
		n := 1 + int(rawN)%48
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(rng, n, float64(rawP)/255)
		tr, err := ApproxMinDepth(g)
		if err != nil {
			return false
		}
		r := g.Radius()
		if tr.Height < r || tr.Height > 2*r {
			return false
		}
		tree := graph.RandomTree(rng, n)
		tt, err := ApproxMinDepth(tree)
		if err != nil {
			return false
		}
		return tt.Height == tree.Radius()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestMinDepthStatsObservability: the engine reports a coherent account of
// the work the construction did.
func TestMinDepthStatsObservability(t *testing.T) {
	g := graph.Grid(12, 12)
	tr, stats, err := MinDepthWithStats(g)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height != g.Radius() {
		t.Fatalf("height %d != radius %d", tr.Height, g.Radius())
	}
	if stats.Roots != g.N() || stats.Completed+stats.Pruned+stats.ShortCircuited != stats.Roots {
		t.Fatalf("incoherent stats %+v", stats)
	}
	if stats.Pruned+stats.ShortCircuited == 0 {
		t.Fatalf("no pruning on a 12x12 grid: %+v", stats)
	}
}

// TestQuickFromParentsRejectsOrAccepts: FromParents on arbitrary parent
// arrays never panics; when it accepts, the result is a consistent rooted
// tree (levels increase by one along parent edges, the children lists
// invert the parent array, and height is the max level).
func TestQuickFromParentsRejectsOrAccepts(t *testing.T) {
	prop := func(raw []int8) bool {
		if len(raw) == 0 {
			raw = []int8{-1}
		}
		if len(raw) > 32 {
			raw = raw[:32]
		}
		parents := make([]int, len(raw))
		for i, x := range raw {
			parents[i] = int(x)%(len(raw)+1) - 1 // in [-1, len-1]
		}
		tr, err := FromParents(parents)
		if err != nil {
			return true
		}
		maxLevel := 0
		childCount := 0
		for v := 0; v < tr.N(); v++ {
			if tr.Level[v] > maxLevel {
				maxLevel = tr.Level[v]
			}
			childCount += len(tr.Children[v])
			for _, c := range tr.Children[v] {
				if tr.Parent[c] != v || tr.Level[c] != tr.Level[v]+1 {
					return false
				}
			}
		}
		return tr.Height == maxLevel && childCount == tr.N()-1 && tr.Level[tr.Root] == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// relabel returns g with its vertices renamed by a random permutation, so
// that index order carries no trace of the generator's layout.
func relabel(rng *rand.Rand, g *graph.Graph) *graph.Graph {
	perm := rng.Perm(g.N())
	out := graph.New(g.N())
	for _, e := range g.Edges() {
		out.AddEdge(perm[e.U], perm[e.V])
	}
	return out
}

// TestMinDepthBatteryBitIdenticalToNaive holds MinDepth to the naive n-BFS
// loop at sizes the quick property never reaches — random graphs at three
// densities and up to n = 4096 (the 64-lane sweep kernel with hundreds of
// candidate roots), relabelled cycles, tori and grids, trees, hypercubes,
// complete graphs, stars, wheels, Petersen and n in {1, 2} — with one
// worker and with four: same root, same height, same parent array.
func TestMinDepthBatteryBitIdenticalToNaive(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(21))
	graphs := map[string]*graph.Graph{
		"cycle301":    relabel(rng, graph.Cycle(301)),
		"cycle512":    relabel(rng, graph.Cycle(512)),
		"torus16x24":  relabel(rng, graph.Torus(16, 24)),
		"grid20x33":   relabel(rng, graph.Grid(20, 33)),
		"tree2000":    graph.RandomTree(rng, 2000),
		"hypercube10": relabel(rng, graph.Hypercube(10)),
		"complete200": graph.Complete(200),
		"star300":     relabel(rng, graph.Star(300)),
		"wheel200":    relabel(rng, graph.Wheel(200)),
		"petersen":    graph.Petersen(),
		"single":      graph.New(1),
		"K2":          graph.Complete(2),
	}
	for _, n := range []int{130, 1000} {
		for _, deg := range []int{4, 8, 16} {
			graphs[fmt.Sprintf("random%d/deg%d", n, deg)] = graph.RandomConnected(rng, n, float64(deg)/float64(n))
		}
	}
	// The naive loop builds n trees of n vertices each, so the larger sizes
	// get one density each; at degree 16 nearly every vertex is a center.
	graphs["random2048/deg8"] = graph.RandomConnected(rng, 2048, 8.0/2048)
	graphs["random4096/deg16"] = graph.RandomConnected(rng, 4096, 16.0/4096)
	for name, g := range graphs {
		want, err := naiveMinDepth(g)
		if err != nil {
			t.Fatalf("%s: naive: %v", name, err)
		}
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			got, err := MinDepth(g)
			if err != nil {
				t.Fatalf("%s procs=%d: %v", name, procs, err)
			}
			if got.Root != want.Root || got.Height != want.Height {
				t.Fatalf("%s procs=%d: root %d height %d, want root %d height %d",
					name, procs, got.Root, got.Height, want.Root, want.Height)
			}
			for v := range want.Parent {
				if got.Parent[v] != want.Parent[v] {
					t.Fatalf("%s procs=%d: parent[%d] = %d, want %d", name, procs, v, got.Parent[v], want.Parent[v])
				}
			}
		}
	}
}
