package implicit_test

import (
	"math/rand"
	"reflect"
	"testing"

	"multigossip/internal/core"
	"multigossip/internal/graph"
	"multigossip/internal/implicit"
	"multigossip/internal/schedule"
	"multigossip/internal/spantree"
)

// oracle materialises the ConcurrentUpDown schedule for the same tree in
// original vertex identifiers — the ground truth every implicit query must
// match bit for bit.
func oracle(l *spantree.Labeled) *schedule.Schedule {
	return core.RemapToOriginal(core.BuildConcurrentUpDown(l), l)
}

// assertEquivalent checks every query of the implicit plan against the
// materialised schedule: round count, every round's transmission list, and
// every vertex's timetable rows.
func assertEquivalent(t *testing.T, name string, tree *spantree.Tree) {
	t.Helper()
	l := spantree.Label(tree)
	if err := l.Verify(); err != nil {
		t.Fatalf("%s: bad labelling: %v", name, err)
	}
	p := implicit.New(l)
	s := oracle(l)
	origTree := treeInOriginalIDs(l)

	if got, want := p.Rounds(), s.Time(); got != want {
		t.Fatalf("%s: Rounds() = %d, schedule time = %d", name, got, want)
	}
	if got, want := p.N(), tree.N(); got != want {
		t.Fatalf("%s: N() = %d, want %d", name, got, want)
	}
	if got, want := p.Height(), tree.Height; got != want {
		t.Fatalf("%s: Height() = %d, want %d", name, got, want)
	}

	// In order, then in a seeded shuffle: every read of the second pass
	// seeks the plan's pooled cursor.
	order := rand.New(rand.NewSource(int64(p.N()))).Perm(p.Rounds())
	for r := 0; r < 2*p.Rounds(); r++ {
		time := r
		if r >= p.Rounds() {
			time = order[r-p.Rounds()]
		}
		got := p.RoundAppend(time, nil)
		want := s.Rounds[time]
		if len(got) != len(want) {
			t.Fatalf("%s: round %d has %d transmissions, want %d\ngot  %v\nwant %v",
				name, time, len(got), len(want), got, want)
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Msg != w.Msg || g.From != w.From || !reflect.DeepEqual(g.To, w.To) {
				t.Fatalf("%s: round %d transmission %d = %v, want %v", name, time, i, g, w)
			}
		}
	}
	// Out-of-range rounds are empty and leave dst untouched.
	if got := p.RoundAppend(p.Rounds(), nil); len(got) != 0 {
		t.Fatalf("%s: RoundAppend past the end returned %v", name, got)
	}
	if got := p.RoundAppend(-1, nil); len(got) != 0 {
		t.Fatalf("%s: RoundAppend(-1) returned %v", name, got)
	}
	assertCursor(t, name, p, s)

	for v := 0; v < tree.N(); v++ {
		got := p.Timetable(v)
		want := schedule.VertexView(s, origTree, v)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: timetable of vertex %d differs\ngot  %+v\nwant %+v", name, v, got, want)
		}
	}
}

// treeInOriginalIDs rebuilds the labelled tree in original vertex ids, the
// form VertexView expects alongside the remapped schedule.
func treeInOriginalIDs(l *spantree.Labeled) *spantree.Tree {
	n := l.N()
	parent := make([]int, n)
	for c := 0; c < n; c++ {
		if p := l.T.Parent[c]; p == -1 {
			parent[l.VertexOf[c]] = -1
		} else {
			parent[l.VertexOf[c]] = l.VertexOf[p]
		}
	}
	return spantree.MustFromParents(parent)
}

// chain returns the path 0-1-2-...-(n-1) rooted at 0: every vertex lies on
// the leftmost DFS path, so the i = k relocation applies at every level.
func chain(n int) *spantree.Tree {
	parent := make([]int, n)
	parent[0] = -1
	for v := 1; v < n; v++ {
		parent[v] = v - 1
	}
	return spantree.MustFromParents(parent)
}

// star returns the root-with-all-leaves tree on n vertices.
func star(n int) *spantree.Tree {
	parent := make([]int, n)
	parent[0] = -1
	for v := 1; v < n; v++ {
		parent[v] = 0
	}
	return spantree.MustFromParents(parent)
}

// randomTree returns a random tree on n vertices whose vertex ids are a
// random permutation, so canonical labels differ from original ids and the
// remapping paths are exercised.
func randomTree(rng *rand.Rand, n int) *spantree.Tree {
	perm := rng.Perm(n)
	parent := make([]int, n)
	parent[perm[0]] = -1
	for i := 1; i < n; i++ {
		parent[perm[i]] = perm[rng.Intn(i)]
	}
	return spantree.MustFromParents(parent)
}

func TestTwoVertexTree(t *testing.T) {
	assertEquivalent(t, "two-vertex", chain(2))
}

func TestSingleVertexTree(t *testing.T) {
	tree := chain(1)
	p := implicit.New(spantree.Label(tree))
	if p.Rounds() != 0 {
		t.Fatalf("single vertex: Rounds() = %d, want 0", p.Rounds())
	}
	if got := p.RoundAppend(0, nil); len(got) != 0 {
		t.Fatalf("single vertex: RoundAppend(0) = %v", got)
	}
	if c := p.Cursor(); c.Time() != 0 || len(c.RoundAppend(0, nil)) != 0 {
		t.Fatal("single vertex: cursor emitted a round")
	}
	if sum, err := p.Summarize(); err != nil || sum != (implicit.Summary{}) {
		t.Fatalf("single vertex: Summarize() = %+v, %v", sum, err)
	}
	vt := p.Timetable(0)
	for _, row := range [][]int{vt.RecvParent, vt.RecvChild, vt.SendParent, vt.SendChild} {
		if len(row) != 1 || row[0] != schedule.NoMessage {
			t.Fatalf("single vertex: non-empty timetable %+v", vt)
		}
	}
}

func TestChains(t *testing.T) {
	for n := 2; n <= 14; n++ {
		assertEquivalent(t, "chain", chain(n))
	}
}

func TestStars(t *testing.T) {
	for n := 2; n <= 14; n++ {
		assertEquivalent(t, "star", star(n))
	}
}

func TestFig5Tree(t *testing.T) {
	assertEquivalent(t, "fig5", spantree.MustFromParents(graph.Fig5TreeParents()))
}

// TestBroomTrees exercises mixed shapes: a chain whose last vertex fans out
// into leaves (deep leftmost path feeding captures below) and its mirror
// (a star whose last leaf continues into a chain).
func TestBroomTrees(t *testing.T) {
	for handle := 1; handle <= 5; handle++ {
		for brush := 1; brush <= 5; brush++ {
			n := handle + brush
			parent := make([]int, n)
			parent[0] = -1
			for v := 1; v < handle; v++ {
				parent[v] = v - 1
			}
			for v := handle; v < n; v++ {
				parent[v] = handle - 1
			}
			assertEquivalent(t, "broom", spantree.MustFromParents(parent))
		}
	}
}

func TestRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(60)
		assertEquivalent(t, "random", randomTree(rng, n))
	}
}

func TestRandomTreesLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		assertEquivalent(t, "random-large", randomTree(rng, 150+rng.Intn(100)))
	}
}

func TestNamedGraphTopologies(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"fig4":      graph.Fig4(),
		"petersen":  graph.Petersen(),
		"path16":    graph.Path(16),
		"cycle17":   graph.Cycle(17),
		"star16":    graph.Star(16),
		"complete9": graph.Complete(9),
		"grid5x6":   graph.Grid(5, 6),
		"hypercube": graph.Hypercube(4),
	}
	for name, g := range graphs {
		tree, err := spantree.MinDepth(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertEquivalent(t, name, tree)
	}
}

func TestLabeledReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		tree := randomTree(rng, 2+rng.Intn(80))
		l := spantree.Label(tree)
		p := implicit.New(l)

		got := p.Labeled()
		if err := got.Verify(); err != nil {
			t.Fatalf("reconstructed labelling invalid: %v", err)
		}
		if !reflect.DeepEqual(got.VertexOf, l.VertexOf) ||
			!reflect.DeepEqual(got.LabelOf, l.LabelOf) ||
			!reflect.DeepEqual(got.Hi, l.Hi) ||
			!reflect.DeepEqual(got.T.Parent, l.T.Parent) {
			t.Fatalf("reconstructed labelling differs from input")
		}

		origTree := p.OriginalTree()
		if !reflect.DeepEqual(origTree.Parent, tree.Parent) {
			t.Fatalf("reconstructed original tree differs: %v vs %v", origTree.Parent, tree.Parent)
		}
		if origTree.Height != tree.Height || origTree.Root != tree.Root {
			t.Fatalf("reconstructed original tree shape differs")
		}
	}
}

func TestSizeBytesIsLinear(t *testing.T) {
	for _, n := range []int{16, 256, 4096} {
		p := implicit.New(spantree.Label(chain(n)))
		got := p.SizeBytes()
		// 7 int32 arrays of ~n entries plus the lip bitset and headers.
		lo, hi := int64(28*n), int64(32*n+512)
		if got < lo || got > hi {
			t.Fatalf("n=%d: SizeBytes() = %d, want within [%d, %d]", n, got, lo, hi)
		}
	}
}

func TestRoundAppendReusesBuffer(t *testing.T) {
	p := implicit.New(spantree.Label(star(16)))
	buf := make([]schedule.Transmission, 0, 64)
	for time := 0; time < p.Rounds(); time++ {
		buf = buf[:0]
		buf = p.RoundAppend(time, buf)
		if cap(buf) > 64 {
			// Star rounds hold at most two transmissions; the buffer must
			// never be reallocated.
			t.Fatalf("round %d grew the buffer to cap %d", time, cap(buf))
		}
	}
}
