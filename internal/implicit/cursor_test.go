package implicit_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"multigossip/internal/graph"
	"multigossip/internal/implicit"
	"multigossip/internal/schedule"
	"multigossip/internal/spantree"
)

// assertCursor drains a cursor through the schedule.Source interface and
// requires every round, transmission order included, to equal the oracle's.
// One recycled buffer serves every read, so destination-slice reuse is
// exercised. The access pattern is: the whole schedule in order, then a
// forward prefix, a backward jump into the middle (a seek), the rest in
// order, and finally a rewind to round 0 and a second full in-order pass.
func assertCursor(t *testing.T, name string, p *implicit.Plan, s *schedule.Schedule) {
	t.Helper()
	var src schedule.Source = p.Cursor()
	if src.Time() != s.Time() || src.Processors() != s.N || src.Messages() != s.NMsg {
		t.Fatalf("%s: cursor shape (%d, %d, %d) != schedule (%d, %d, %d)",
			name, src.Processors(), src.Messages(), src.Time(), s.N, s.NMsg, s.Time())
	}
	rounds := s.Time()
	var order []int
	for r := 0; r < rounds; r++ {
		order = append(order, r)
	}
	for r := 0; r < rounds*2/3; r++ {
		order = append(order, r)
	}
	for r := rounds / 3; r <= rounds; r++ {
		order = append(order, r)
	}
	for r := 0; r < rounds; r++ {
		order = append(order, r)
	}
	var buf []schedule.Transmission
	for _, r := range order {
		buf = src.RoundAppend(r, buf[:0])
		var want []schedule.Transmission
		if r < rounds {
			want = s.Rounds[r]
		}
		if len(buf) != len(want) || (len(want) > 0 && !reflect.DeepEqual(buf, want)) {
			t.Fatalf("%s: cursor round %d:\ngot  %v\nwant %v", name, r, buf, want)
		}
	}
}

// TestCursorExhaustiveSmallTrees compares the cursor with the oracle on
// every tree with at most six vertices, rooted at every vertex.
func TestCursorExhaustiveSmallTrees(t *testing.T) {
	for n := 2; n <= 6; n++ {
		graph.AllTrees(n, func(g *graph.Graph) bool {
			for root := 0; root < n; root++ {
				tree, err := spantree.BFSTree(g, root)
				if err != nil {
					t.Fatal(err)
				}
				l := spantree.Label(tree)
				assertCursor(t, fmt.Sprintf("n=%d root=%d %v", n, root, g), implicit.New(l), oracle(l))
			}
			return true
		})
	}
}

// TestCursorRandomGraphsAndTrees covers the sizes where assertEquivalent's
// per-vertex timetables are too slow: seeded random connected graphs and
// random trees up to n = 512.
func TestCursorRandomGraphsAndTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{64, 200, 512} {
		g := graph.RandomConnected(rng, n, 4/float64(n))
		tree, err := spantree.MinDepth(g)
		if err != nil {
			t.Fatal(err)
		}
		for name, tr := range map[string]*spantree.Tree{"graph": tree, "tree": randomTree(rng, n)} {
			l := spantree.Label(tr)
			assertCursor(t, fmt.Sprintf("random %s n=%d", name, n), implicit.New(l), oracle(l))
		}
	}
}

// TestCursorIsValidSource feeds the cursor, as a schedule.Source, straight
// into the strict quadratic validator.
func TestCursorIsValidSource(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	tree := randomTree(rng, 60)
	p := implicit.New(spantree.Label(tree))
	if _, err := schedule.Run(tree.Graph(), p.Cursor(), schedule.Options{RequireUseful: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := schedule.CheckGossip(tree.Graph(), p.Cursor()); err != nil {
		t.Fatal(err)
	}
}

// TestSummarize checks the O(n)-memory count verification: n + height
// rounds and n(n-1) deliveries, at sizes up to one whose materialised
// schedule would hold ~6x10^7 delivery entries.
func TestSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	sizes := []int{2, 10, 100, 500, 8000}
	if testing.Short() {
		sizes = sizes[:4]
	}
	for _, n := range sizes {
		tree := randomTree(rng, n)
		sum, err := implicit.New(spantree.Label(tree)).Summarize()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if sum.Rounds != n+tree.Height || sum.Deliveries != n*(n-1) {
			t.Fatalf("n=%d: %+v, want %d rounds and %d deliveries", n, sum, n+tree.Height, n*(n-1))
		}
		if sum.Transmissions <= 0 || sum.Transmissions > sum.Deliveries || sum.MaxFanout < 1 {
			t.Fatalf("n=%d: inconsistent counts %+v", n, sum)
		}
	}
}

// TestRoundAppendSharedPlan has eight goroutines read one plan through
// RoundAppend, each in its own shuffled order, against the oracle. Under
// -race it shows the pooled cursors are never shared between readers.
func TestRoundAppendSharedPlan(t *testing.T) {
	l := spantree.Label(randomTree(rand.New(rand.NewSource(8)), 120))
	p, s := implicit.New(l), oracle(l)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []schedule.Transmission
			for _, r := range rand.New(rand.NewSource(int64(w))).Perm(p.Rounds()) {
				buf = p.RoundAppend(r, buf[:0])
				if want := []schedule.Transmission(s.Rounds[r]); !reflect.DeepEqual(buf, want) {
					t.Errorf("reader %d round %d:\ngot  %v\nwant %v", w, r, buf, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
