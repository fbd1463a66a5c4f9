package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// naiveMetrics folds the per-vertex Eccentricity oracle exactly the way the
// pre-engine implementations did: the reference the sweep must match bit
// for bit.
func naiveMetrics(g *Graph) (ecc []int, radius, diameter int, centers []int) {
	n := g.N()
	ecc = make([]int, n)
	radius, diameter = -1, 0
	for v := 0; v < n; v++ {
		ecc[v] = g.Eccentricity(v)
		if radius == -1 || ecc[v] < radius {
			radius = ecc[v]
		}
		if ecc[v] > diameter {
			diameter = ecc[v]
		}
	}
	for v, e := range ecc {
		if e == radius {
			centers = append(centers, v)
		}
	}
	return ecc, radius, diameter, centers
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSweepAllMatchesNaiveOnNamedTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	graphs := map[string]*Graph{
		"single":    New(1),
		"K2":        Complete(2),
		"path9":     Path(9),
		"cycle10":   Cycle(10),
		"cycle11":   Cycle(11),
		"star12":    Star(12),
		"complete6": Complete(6),
		"grid":      Grid(5, 7),
		"torus":     Torus(4, 6),
		"hypercube": Hypercube(4),
		"petersen":  Petersen(),
		"fig4":      Fig4(),
		"wheel":     Wheel(9),
		"spider":    Spider(5, 4),
		"random":    RandomConnected(rng, 40, 0.08),
		"geo":       RandomGeometric(rng, 50, 0.2),
	}
	for name, g := range graphs {
		wantEcc, wantR, wantD, wantCenters := naiveMetrics(g)
		all, err := g.Sweep(SweepAll)
		if err != nil {
			t.Fatalf("%s: SweepAll: %v", name, err)
		}
		if !equalInts(all.Ecc, wantEcc) {
			t.Errorf("%s: SweepAll ecc = %v, want %v", name, all.Ecc, wantEcc)
		}
		if all.Radius != wantR || all.Diameter != wantD || all.Center != wantCenters[0] {
			t.Errorf("%s: SweepAll r/D/c = %d/%d/%d, want %d/%d/%d",
				name, all.Radius, all.Diameter, all.Center, wantR, wantD, wantCenters[0])
		}
		if !equalInts(all.Centers, wantCenters) {
			t.Errorf("%s: SweepAll centers = %v, want %v", name, all.Centers, wantCenters)
		}
		min, err := g.Sweep(SweepMin)
		if err != nil {
			t.Fatalf("%s: SweepMin: %v", name, err)
		}
		if min.Radius != wantR || min.Center != wantCenters[0] {
			t.Errorf("%s: SweepMin r/c = %d/%d, want %d/%d", name, min.Radius, min.Center, wantR, wantCenters[0])
		}
		if !equalInts(min.Centers, wantCenters) {
			t.Errorf("%s: SweepMin centers = %v, want %v", name, min.Centers, wantCenters)
		}
		if min.Diameter != -1 {
			t.Errorf("%s: SweepMin diameter = %d, want -1 (not computed)", name, min.Diameter)
		}
		// Every eccentricity a pruned sweep does report must be exact.
		for v, e := range min.Ecc {
			if e >= 0 && e != wantEcc[v] {
				t.Errorf("%s: SweepMin ecc[%d] = %d, want %d", name, v, e, wantEcc[v])
			}
		}
	}
}

// TestQuickSweepMatchesNaive is the differential property test: on random
// connected graphs both sweep modes agree exactly with the naive n-BFS
// fold, including the deterministic lowest-vertex center despite the
// parallel traversal order.
func TestQuickSweepMatchesNaive(t *testing.T) {
	prop := func(seed int64, rawN, rawP uint8) bool {
		n := 1 + int(rawN)%48
		g := RandomConnected(rand.New(rand.NewSource(seed)), n, float64(rawP)/255)
		wantEcc, wantR, wantD, wantCenters := naiveMetrics(g)
		all, err := g.Sweep(SweepAll)
		if err != nil || !equalInts(all.Ecc, wantEcc) || all.Diameter != wantD {
			return false
		}
		min, err := g.Sweep(SweepMin)
		if err != nil || min.Radius != wantR || min.Center != wantCenters[0] {
			return false
		}
		return equalInts(min.Centers, wantCenters)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// relabel returns g with its vertices renamed by a random permutation, so
// that index order, which the sweep hands roots out in, carries no trace of
// the generator's layout.
func relabel(rng *rand.Rand, g *Graph) *Graph {
	perm := rng.Perm(g.N())
	out := New(g.N())
	for _, e := range g.Edges() {
		out.AddEdge(perm[e.U], perm[e.V])
	}
	return out
}

type sweepCase struct {
	name string
	g    *Graph
}

// sweepBattery is the large-n differential input set: random graphs at
// three densities up to n = 4096, which run on the 64-lane kernel with
// hundreds of candidate roots, relabelled narrow families (cycles, tori,
// grids) and trees on the scalar path, and the extremal shapes — complete
// graphs, stars and wheels, where every root or one hub is a center.
func sweepBattery() []sweepCase {
	rng := rand.New(rand.NewSource(21))
	var cs []sweepCase
	add := func(name string, g *Graph) { cs = append(cs, sweepCase{name, g}) }
	for _, n := range []int{130, 1000, 4096} {
		for _, deg := range []int{4, 8, 16} {
			add(fmt.Sprintf("random%d/deg%d", n, deg), RandomConnected(rng, n, float64(deg)/float64(n)))
		}
	}
	add("cycle301", relabel(rng, Cycle(301)))
	add("cycle512", relabel(rng, Cycle(512)))
	add("torus16x24", relabel(rng, Torus(16, 24)))
	add("grid20x33", relabel(rng, Grid(20, 33)))
	add("grid3x400", relabel(rng, Grid(3, 400)))
	add("tree2000", RandomTree(rng, 2000))
	add("hypercube8", relabel(rng, Hypercube(8)))
	add("hypercube10", relabel(rng, Hypercube(10)))
	add("complete200", Complete(200))
	add("star300", relabel(rng, Star(300)))
	add("wheel200", relabel(rng, Wheel(200)))
	add("petersen", Petersen())
	add("single", New(1))
	add("K2", Complete(2))
	return cs
}

// TestSweepBatteryMatchesNaive holds both minimum-seeking modes to the
// naive n-BFS fold on the large-n battery, with one worker and with four:
// Radius and Center exactly, Centers exactly (only Center in SweepCenter
// mode), and every eccentricity a sweep reports. It also checks that the
// battery reaches both the lane kernel, with more than two passes' worth of
// candidate roots, and the scalar path.
func TestSweepBatteryMatchesNaive(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var wide, narrow, manyCandidates int
	for _, tc := range sweepBattery() {
		g := tc.g
		wantEcc, wantR, _, wantCenters := naiveMetrics(g)
		isWide := g.N()/(wantEcc[0]+1) >= laneMinWidth
		if isWide {
			wide++
		} else {
			narrow++
		}
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			for _, mode := range []SweepMode{SweepMin, SweepCenter} {
				res, err := g.Sweep(mode)
				if err != nil {
					t.Fatalf("%s procs=%d mode %d: %v", tc.name, procs, mode, err)
				}
				want := wantCenters
				if mode == SweepCenter {
					want = wantCenters[:1]
				}
				if res.Radius != wantR || res.Center != wantCenters[0] || !equalInts(res.Centers, want) {
					t.Errorf("%s procs=%d mode %d: r=%d center=%d centers=%v, want r=%d center=%d centers=%v",
						tc.name, procs, mode, res.Radius, res.Center, res.Centers, wantR, wantCenters[0], want)
				}
				for v, e := range res.Ecc {
					if e >= 0 && e != wantEcc[v] {
						t.Errorf("%s procs=%d mode %d: ecc[%d] = %d, want %d", tc.name, procs, mode, v, e, wantEcc[v])
					}
				}
				s := res.Stats
				if isWide && s.Completed+s.ShortCircuited-s.Seeds > 128 {
					manyCandidates++
				}
			}
		}
	}
	if wide == 0 || narrow == 0 || manyCandidates == 0 {
		t.Fatalf("battery misses a path: %d wide and %d narrow graphs, %d lane sweeps over 128 candidates",
			wide, narrow, manyCandidates)
	}
}

func TestSweepAccounting(t *testing.T) {
	// Every root is accounted for exactly once: the seed phase visits
	// distinct roots (counted inside Completed via Seeds), and the parallel
	// phase resolves each remaining root as completed, pruned, or
	// short-circuited.
	rng := rand.New(rand.NewSource(9))
	for _, g := range []*Graph{Grid(16, 16), Cycle(200), RandomConnected(rng, 300, 0.03), RandomConnected(rng, 1000, 0.01), New(1)} {
		for _, mode := range []SweepMode{SweepAll, SweepMin, SweepCenter} {
			res, err := g.Sweep(mode)
			if err != nil {
				t.Fatal(err)
			}
			s := res.Stats
			if s.Roots != g.N() || s.Workers < 1 || s.Seeds < 1 || s.Completed < s.Seeds {
				t.Fatalf("implausible stats %+v", s)
			}
			if got := s.Completed + s.Pruned + s.ShortCircuited; got != s.Roots {
				t.Fatalf("mode %d: accounting %+v: covered %d roots, want %d", mode, s, got, s.Roots)
			}
			if mode == SweepAll && (s.Pruned != 0 || s.ShortCircuited != 0) {
				t.Fatalf("SweepAll pruned work: %+v", s)
			}
			known := 0
			for _, e := range res.Ecc {
				if e >= 0 {
					known++
				}
			}
			if known != s.Completed {
				t.Fatalf("mode %d: %d exact eccentricities but %d completed traversals", mode, known, s.Completed)
			}
		}
	}
}

func TestSweepPruningFiresOnGrid(t *testing.T) {
	// On a grid eccentricities vary widely (center ~ r, corners ~ 2r), so
	// the lower-bound prune and the early exit must both save real work.
	res, err := Grid(32, 32).Sweep(SweepMin)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Pruned+res.Stats.ShortCircuited == 0 {
		t.Fatalf("no pruning on a 32x32 grid: %+v", res.Stats)
	}
	if res.Radius != 32 { // per axis: min over i of max(i, 31-i) = 16
		t.Fatalf("grid radius = %d, want 32", res.Radius)
	}
}

func TestSweepDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	for _, mode := range []SweepMode{SweepAll, SweepMin, SweepCenter} {
		_, err := g.Sweep(mode)
		if err == nil {
			t.Fatalf("mode %d accepted a disconnected graph", mode)
		}
		if !errors.Is(err, ErrDisconnected) {
			t.Fatalf("mode %d error %v does not wrap ErrDisconnected", mode, err)
		}
	}
}

func TestSweepEmptyAndUnknownMode(t *testing.T) {
	if _, err := New(0).Sweep(SweepAll); err == nil {
		t.Fatal("accepted empty graph")
	}
	if _, err := New(3).Sweep(SweepMode(99)); err == nil {
		t.Fatal("accepted unknown mode")
	}
}

func TestSweepScratchReuseAndEpochWrap(t *testing.T) {
	// One scratch must serve many traversals, including across the uint32
	// epoch wrap, without leaking visitation state between them.
	g := Grid(4, 4)
	c := newCSR(g)
	sc := newSweepScratch(g.N())
	want := make([]int32, g.N())
	for v := 0; v < g.N(); v++ {
		want[v] = int32(g.Eccentricity(v))
	}
	sc.epoch = ^uint32(0) - 3 // wrap mid-run
	for iter := 0; iter < 8; iter++ {
		for v := 0; v < g.N(); v++ {
			ecc, reached, ok := sc.bfs(c, int32(v), noCutoff)
			if !ok || reached != g.N() || ecc != want[v] {
				t.Fatalf("iter %d root %d: ecc=%d reached=%d ok=%v, want ecc %d", iter, v, ecc, reached, ok, want[v])
			}
		}
	}
}

// BenchmarkSweepTraversalSteadyState measures the raw engine traversal with
// a warm scratch: the steady state every sweep reaches after its workers
// allocate their buffers. Must report 0 allocs/op.
func BenchmarkSweepTraversalSteadyState(b *testing.B) {
	g := RandomConnected(rand.New(rand.NewSource(1)), 4096, 8.0/4096)
	c := newCSR(g)
	sc := newSweepScratch(g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, reached, ok := sc.bfs(c, int32(i%g.N()), noCutoff); !ok || reached != g.N() {
			b.Fatal("traversal failed")
		}
	}
}

func TestSweepEarlyExitCutoff(t *testing.T) {
	// On a path, a BFS from the endpoint with the radius as cutoff must be
	// abandoned (ecc(end) = n-1 > r), while the midpoint completes.
	g := Path(9)
	c := newCSR(g)
	sc := newSweepScratch(g.N())
	if _, _, ok := sc.bfs(c, 0, 4); ok {
		t.Fatal("endpoint traversal not abandoned at cutoff 4")
	}
	if ecc, _, ok := sc.bfs(c, 4, 4); !ok || ecc != 4 {
		t.Fatalf("midpoint traversal: ecc=%d ok=%v, want 4 true", ecc, ok)
	}
}
