package multigossip_test

// The benchmark harness regenerates every experiment of the reproduction
// (one benchmark per figure/table/bound of the paper — see DESIGN.md's
// experiment index) and additionally measures the asymptotic cost of each
// pipeline stage. Run everything with:
//
//	go test -bench=. -benchmem .
//
// Experiment benchmarks execute the corresponding expt.Suite entry per
// iteration and fail the run if an experiment stops reproducing; stage
// benchmarks time tree construction, labelling, both schedule builders,
// validation, and the distributed executor across sizes.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"multigossip"
	"multigossip/internal/baseline"
	"multigossip/internal/core"
	"multigossip/internal/expt"
	"multigossip/internal/graph"
	"multigossip/internal/implicit"
	"multigossip/internal/schedule"
	"multigossip/internal/spantree"
)

// benchExperiment runs one experiment per iteration, asserting reproduction.
func benchExperiment(b *testing.B, run func(*expt.Suite) *expt.Table) {
	b.Helper()
	suite := expt.NewSuite()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if table := run(suite); !table.Pass {
			b.Fatalf("%s stopped reproducing:\n%s", table.ID, table.Markdown())
		}
	}
}

func BenchmarkE1RingRotation(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E1RingRotation)
}

func BenchmarkE2Petersen(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E2Petersen)
}

func BenchmarkE3Separation(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E3Separation)
}

func BenchmarkE4TreeConstruction(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E4TreeConstruction)
}

func BenchmarkE5Table1(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E5Table1)
}

func BenchmarkE6Table2(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E6Table2)
}

func BenchmarkE7Table3(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E7Table3)
}

func BenchmarkE8Table4(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E8Table4)
}

func BenchmarkE9SimpleBound(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E9SimpleBound)
}

func BenchmarkE10CUDBound(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E10CUDBound)
}

func BenchmarkE11OddLine(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E11OddLine)
}

func BenchmarkE12ApproxRatio(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E12ApproxRatio)
}

func BenchmarkE13Broadcast(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E13Broadcast)
}

func BenchmarkE14TelephoneSeparation(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E14TelephoneSeparation)
}

func BenchmarkE15MinDepthTree(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E15MinDepthTree)
}

func BenchmarkE16Weighted(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E16Weighted)
}

func BenchmarkE17Online(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E17Online)
}

func BenchmarkE18Comparative(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E18Comparative)
}

func BenchmarkE19LineOptimal(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E19LineOptimal)
}

func BenchmarkE20RootAblation(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E20RootAblation)
}

func BenchmarkE21Fragility(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E21Fragility)
}

func BenchmarkE22FanoutSweep(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E22FanoutSweep)
}

func BenchmarkE23OptimalityGap(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E23OptimalityGap)
}

func BenchmarkE24BarrierMakespan(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E24BarrierMakespan)
}

func BenchmarkE25PipelineThroughput(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E25PipelineThroughput)
}

func BenchmarkE26Randomized(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E26Randomized)
}

func BenchmarkE27KPortSweep(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E27KPortSweep)
}

func BenchmarkE28MillionNodeSim(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E28MillionNodeSim)
}

func BenchmarkE29Portfolio(b *testing.B) {
	benchExperiment(b, (*expt.Suite).E29Portfolio)
}

// --- pipeline stage benchmarks ---

// randomLabeledTree builds a labelled random tree of n vertices.
func randomLabeledTree(b *testing.B, n int) *spantree.Labeled {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	g := graph.RandomTree(rng, n)
	tr, err := spantree.BFSTree(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	return spantree.Label(tr)
}

func BenchmarkStageMinDepthTree(b *testing.B) {
	// The O(mn) step of Section 3.1: n BFS traversals.
	for _, n := range []int{64, 128, 256} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := graph.RandomConnected(rng, n, 0.05)
		b.Run(fmt.Sprintf("n=%d/m=%d", n, g.M()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := spantree.MinDepth(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStageDFSLabel(b *testing.B) {
	for _, n := range []int{1024, 8192, 65536} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := graph.RandomTree(rng, n)
		tr, err := spantree.BFSTree(g, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				spantree.Label(tr)
			}
		})
	}
}

func BenchmarkStageBuildConcurrentUpDown(b *testing.B) {
	// The O(n) schedule construction per vertex; the whole build is O(n^2)
	// in emitted transmissions (each of n messages crosses each level once).
	for _, n := range []int{128, 512, 1024} {
		l := randomLabeledTree(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.BuildConcurrentUpDown(l)
			}
		})
	}
}

func BenchmarkStageBuildSimple(b *testing.B) {
	for _, n := range []int{128, 512, 1024} {
		l := randomLabeledTree(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.BuildSimple(l)
			}
		})
	}
}

func BenchmarkStageGreedyUpDown(b *testing.B) {
	for _, n := range []int{256, 1024} {
		l := randomLabeledTree(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := baseline.GreedyUpDown(l); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStageValidate(b *testing.B) {
	for _, n := range []int{256, 1024} {
		l := randomLabeledTree(b, n)
		s := core.BuildConcurrentUpDown(l)
		g := l.T.Graph()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := schedule.CheckGossip(g, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStageTelephoneGossip(b *testing.B) {
	for _, n := range []int{32, 64} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := graph.RandomConnected(rng, n, 0.1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := baseline.TelephoneGossip(g, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStageEndToEnd(b *testing.B) {
	// Full pipeline on a random connected graph: min-depth tree + label +
	// build, amortised over many gossip executions in practice.
	for _, n := range []int{64, 128} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := graph.RandomConnected(rng, n, 0.08)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Gossip(g, core.ConcurrentUpDown); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- sweep engine benchmarks (see BENCH_sweep.json, cmd/sweepbench) ---

// sweepBenchGraph builds the three sweep benchmark topologies: a ring (all
// eccentricities tie, the engine's worst case), a square grid (widely
// varying eccentricities, pruning's best case), and a sparse random graph
// with average degree ~8 (small diameter, where early exit is weak but the
// engine's CSR layout and allocation-free traversals still pay).
func sweepBenchGraph(kind string, n int) *graph.Graph {
	switch kind {
	case "ring":
		return graph.Cycle(n)
	case "grid":
		side := int(math.Sqrt(float64(n)))
		return graph.Grid(side, side)
	case "random":
		rng := rand.New(rand.NewSource(int64(n)))
		return graph.RandomConnected(rng, n, 8/float64(n))
	default:
		panic("unknown sweep benchmark topology " + kind)
	}
}

var sweepBenchSizes = []int{256, 1024, 4096}

// naiveMinDepthSweep is the paper's literal O(nm) Section 3.1 loop, the
// sequential-naive baseline the engine is measured against.
func naiveMinDepthSweep(g *graph.Graph) (*spantree.Tree, error) {
	var best *spantree.Tree
	for root := 0; root < g.N(); root++ {
		t, err := spantree.BFSTree(g, root)
		if err != nil {
			return nil, err
		}
		if best == nil || t.Height < best.Height {
			best = t
		}
	}
	return best, nil
}

func BenchmarkSweepMinDepthNaive(b *testing.B) {
	for _, kind := range []string{"ring", "grid", "random"} {
		for _, n := range sweepBenchSizes {
			g := sweepBenchGraph(kind, n)
			b.Run(fmt.Sprintf("%s/n=%d", kind, g.N()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := naiveMinDepthSweep(g); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkSweepMinDepthPruned(b *testing.B) {
	for _, kind := range []string{"ring", "grid", "random"} {
		for _, n := range sweepBenchSizes {
			g := sweepBenchGraph(kind, n)
			b.Run(fmt.Sprintf("%s/n=%d", kind, g.N()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tr, stats, err := spantree.MinDepthWithStats(g)
					if err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						traversals := stats.Completed + stats.ShortCircuited
						b.ReportMetric(float64(traversals), "traversals")
						_ = tr
					}
				}
			})
		}
	}
}

func BenchmarkSweepEccentricitiesAll(b *testing.B) {
	// The unpruned full sweep behind Eccentricities/Diameter: n exact
	// traversals fanned over the worker pool on the CSR layout.
	for _, n := range sweepBenchSizes {
		g := sweepBenchGraph("random", n)
		b.Run(fmt.Sprintf("random/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.Sweep(graph.SweepAll); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStageStreamGenerator(b *testing.B) {
	// O(n)-memory cursor enumeration of the full schedule with count
	// verification; reported per schedule.
	for _, n := range []int{1024, 4096} {
		p := implicit.New(randomLabeledTree(b, n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Summarize(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// repairBenchNetwork renames g's vertices by a seeded permutation, so the
// planner and the diameter bound see no trace of the generator's layout,
// and wraps it as a Network.
func repairBenchNetwork(g *graph.Graph, seed int64) *multigossip.Network {
	perm := rand.New(rand.NewSource(seed)).Perm(g.N())
	nw := multigossip.NewNetwork(g.N())
	for _, e := range g.Edges() {
		nw.AddLink(perm[e.U], perm[e.V])
	}
	return nw
}

// stageRepairCase is one input of BenchmarkStageRepair and
// TestExecuteWithFaultsAllocs. maxAllocs is the allocation ceiling of one
// ExecuteWithFaults at 1% loss: a fifth of what the executor, the
// validator and the repair loop allocated when they still cloned every
// hold set separately and relabelled components every iteration (10.5 k,
// 6.6 k and 7.6 k).
type stageRepairCase struct {
	name      string
	g         *graph.Graph
	maxAllocs float64
}

func stageRepairCases() []stageRepairCase {
	return []stageRepairCase{
		{"ring/n=256", graph.Cycle(256), 2100},
		{"grid/16x16", graph.Grid(16, 16), 1320},
		{"random/n=256/deg=6", graph.RandomConnected(rand.New(rand.NewSource(256)), 256, 6.0/256), 1520},
	}
}

// TestExecuteWithFaultsAllocs holds one lossy replay with repair under its
// allocation ceiling, so hold sets cloned one by one or labels recomputed
// per iteration cannot creep back.
func TestExecuteWithFaultsAllocs(t *testing.T) {
	for _, c := range stageRepairCases() {
		p, err := repairBenchNetwork(c.g, 1).PlanGossip()
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := p.ExecuteWithFaults(multigossip.WithLinkLoss(0.01, seed)); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > c.maxAllocs {
				t.Errorf("%s seed %d: %.0f allocations per ExecuteWithFaults, ceiling %.0f", c.name, seed, allocs, c.maxAllocs)
			}
		}
	}
}

func BenchmarkStageRepair(b *testing.B) {
	// ExecuteWithFaults at 1% link loss with the default repair: the
	// streamed schedule under the injector, then the repair loop's
	// plan-validate-execute iterations and its diameter caps.
	for _, c := range stageRepairCases() {
		p, err := repairBenchNetwork(c.g, 1).PlanGossip()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := p.ExecuteWithFaults(multigossip.WithLinkLoss(0.01, int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Complete {
					b.Fatalf("1%% loss not repaired: final coverage %v", rep.FinalCoverage)
				}
			}
		})
	}
}
