// Command sweepbench measures the BFS sweep engine against the paper's
// sequential-naive Section 3.1 construction and records the comparison in a
// machine-readable perf record (BENCH_sweep.json by default).
//
// For every topology in {ring, grid, random} and every size in -sizes, at
// GOMAXPROCS 1 and at runtime.NumCPU() (cliutil.ForEachGOMAXPROCS), it
// times the naive loop (a BFS spanning tree from every root, kept if
// shallower) and the pruned parallel sweep behind spantree.MinDepth, and
// reports the engine's observability counters: traversals completed, roots
// pruned by eccentricity lower bounds, traversals short-circuited by the
// best-height cutoff, and the steady-state allocations per traversal of the
// full (unpruned) sweep.
//
// With -trace the run also writes a Chrome trace_event JSON timeline
// (chrome://tracing, Perfetto): one phase span per timed benchmark stage,
// annotated with the measured ns/op and the sweep counters.
//
//	go run ./cmd/sweepbench -out BENCH_sweep.json -trace sweep.trace.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"multigossip/internal/cliutil"
	"multigossip/internal/graph"
	"multigossip/internal/obs"
	"multigossip/internal/spantree"
)

type record struct {
	Topology            string  `json:"topology"`
	GoMaxProcs          int     `json:"gomaxprocs"`
	N                   int     `json:"n"`
	M                   int     `json:"m"`
	Radius              int     `json:"radius"`
	NaiveNsOp           int64   `json:"naive_ns_op"`
	PrunedNsOp          int64   `json:"pruned_ns_op"`
	Speedup             float64 `json:"speedup"`
	SeedTraversals      int     `json:"seed_traversals"`
	RootsCompleted      int     `json:"roots_completed"`
	RootsPruned         int     `json:"roots_pruned"`
	RootsShortCircuited int     `json:"roots_short_circuited"`
	Workers             int     `json:"workers"`
	AllocsPerTraversal  float64 `json:"allocs_per_traversal_full_sweep"`
	SweepElapsedNs      int64   `json:"sweep_elapsed_ns"`
}

type report struct {
	cliutil.Env
	Cases []record `json:"cases"`
}

// naiveMinDepth is the pre-engine O(nm) reference construction.
func naiveMinDepth(g *graph.Graph) *spantree.Tree {
	var best *spantree.Tree
	for root := 0; root < g.N(); root++ {
		t, err := spantree.BFSTree(g, root)
		if err != nil {
			panic(err)
		}
		if best == nil || t.Height < best.Height {
			best = t
		}
	}
	return best
}

func measure(kind string, n int, tracer *obs.Tracer) record {
	g := cliutil.BenchGraph(kind, n)
	span := func(stage string, f func()) {
		if tracer != nil {
			name := fmt.Sprintf("%s %s n=%d procs=%d", stage, kind, n, runtime.GOMAXPROCS(0))
			tracer.BeginPhase(name, "")
			defer tracer.EndPhase(name)
		}
		f()
	}
	var naive, pruned, full testing.BenchmarkResult
	span("naive", func() {
		naive = testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				naiveMinDepth(g)
			}
		})
	})
	var stats graph.SweepStats
	var height, naiveHeight int
	span("pruned", func() {
		pruned = testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr, s, err := spantree.MinDepthWithStats(g)
				if err != nil {
					panic(err)
				}
				stats, height = s, tr.Height
			}
		})
	})
	if naiveHeight = naiveMinDepth(g).Height; naiveHeight != height {
		panic(fmt.Sprintf("%s n=%d: pruned height %d != naive height %d", kind, n, height, naiveHeight))
	}
	// Steady-state allocation cost per traversal, measured on the full
	// unpruned sweep where every root runs to completion: total allocations
	// of a sweep divided by its n traversals, so the O(1)-per-sweep setup
	// (CSR + per-worker scratch) amortises out and the per-traversal cost
	// shows as ~0.
	var fullCompleted int
	span("full", func() {
		full = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := g.Sweep(graph.SweepAll)
				if err != nil {
					panic(err)
				}
				fullCompleted = res.Stats.Completed
			}
		})
	})
	return record{
		Topology:            kind,
		GoMaxProcs:          runtime.GOMAXPROCS(0),
		N:                   g.N(),
		M:                   g.M(),
		Radius:              height,
		NaiveNsOp:           naive.NsPerOp(),
		PrunedNsOp:          pruned.NsPerOp(),
		Speedup:             float64(naive.NsPerOp()) / float64(pruned.NsPerOp()),
		SeedTraversals:      stats.Seeds,
		RootsCompleted:      stats.Completed,
		RootsPruned:         stats.Pruned,
		RootsShortCircuited: stats.ShortCircuited,
		Workers:             stats.Workers,
		AllocsPerTraversal:  float64(full.AllocsPerOp()) / float64(fullCompleted),
		SweepElapsedNs:      stats.Elapsed.Nanoseconds(),
	}
}

func main() {
	out := flag.String("out", "BENCH_sweep.json", "output path for the perf record")
	sizes := flag.String("sizes", "256,1024,4096", "comma-separated vertex counts")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON timeline of the benchmark stages to this path")
	flag.Parse()

	ns, err := cliutil.ParseSizes(*sizes, 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweepbench: %v\n", err)
		os.Exit(2)
	}

	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer()
	}

	rep := report{Env: cliutil.NewEnv("cmd/sweepbench",
		"spantree.MinDepth: sequential-naive n-BFS loop vs parallel pruned sweep engine")}
	fmt.Printf("%-8s %6s %7s %5s %14s %14s %8s %10s %8s %8s %8s\n",
		"topology", "n", "m", "procs", "naive ns/op", "pruned ns/op", "speedup", "completed", "pruned", "short", "allocs/t")
	for _, kind := range []string{"ring", "grid", "random"} {
		for _, n := range ns {
			cliutil.ForEachGOMAXPROCS(func() {
				r := measure(kind, n, tracer)
				rep.Cases = append(rep.Cases, r)
				fmt.Printf("%-8s %6d %7d %5d %14d %14d %7.2fx %10d %8d %8d %8.4f\n",
					r.Topology, r.N, r.M, r.GoMaxProcs, r.NaiveNsOp, r.PrunedNsOp, r.Speedup,
					r.RootsCompleted, r.RootsPruned, r.RootsShortCircuited, r.AllocsPerTraversal)
			})
		}
	}

	if err := cliutil.WriteRecord(*out, rep); err != nil {
		fmt.Fprintf(os.Stderr, "sweepbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)

	if tracer != nil {
		if err := cliutil.WriteFileFunc(*tracePath, tracer.WriteChromeTrace); err != nil {
			fmt.Fprintf(os.Stderr, "sweepbench: -trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *tracePath)
	}
}
