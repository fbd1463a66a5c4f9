// Command matrixbench runs the algorithm portfolio through a unified
// scenario matrix — every registered algorithm × topology × fault model ×
// size — and records the outcome in a machine-readable perf record
// (BENCH_matrix.json by default).
//
// Every cell is asserted against the algorithm's registered rounds bound:
// the planned schedule (or, for randomized coded gossip, the realized run)
// must finish within Bound(n, radius, diameter, ...) or the tool exits
// non-zero. Fault-free cells additionally re-verify the plan under the
// model; lossy cells execute the plan with link loss and self-healing
// repair and require completion. The matrix is the repo's standing
// evidence that every entry in the registry actually plans, verifies and
// survives faults on every topology class — not just the pair of
// algorithms the seed shipped with.
//
//	go run ./cmd/matrixbench -out BENCH_matrix.json
//	go run ./cmd/matrixbench -smoke
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"multigossip"
	"multigossip/internal/algebraic"
	"multigossip/internal/algo"
	"multigossip/internal/cliutil"
	"multigossip/internal/graph"
)

const (
	lossRate  = 0.1
	faultSeed = 42
	algoSeed  = 7
)

type cell struct {
	Algorithm   string `json:"algorithm"`
	Topology    string `json:"topology"`
	FaultModel  string `json:"fault_model"`
	N           int    `json:"n"`
	M           int    `json:"m"`
	Radius      int    `json:"radius"`
	Diameter    int    `json:"diameter"`
	Rounds      int    `json:"rounds"`
	Bound       int    `json:"bound"`
	BoundName   string `json:"bound_name"`
	WithinBound bool   `json:"within_bound"`
	Verified    bool   `json:"verified"`
	// Fault-model columns: zero-valued for the fault-free model.
	Coverage      float64 `json:"coverage,omitempty"`
	FinalCoverage float64 `json:"final_coverage,omitempty"`
	RepairRounds  int     `json:"repair_rounds,omitempty"`
	TotalRounds   int     `json:"total_rounds,omitempty"`
	Complete      bool    `json:"complete"`
	PlanMillis    float64 `json:"plan_millis"`
}

type report struct {
	cliutil.Env
	LossRate    float64  `json:"loss_rate"`
	Algorithms  []string `json:"algorithms"`
	Topologies  []string `json:"topologies"`
	FaultModels []string `json:"fault_models"`
	Sizes       []int    `json:"sizes"`
	Cells       []cell   `json:"cells"`
}

// buildPair constructs the same topology twice: once as the library-facing
// Network (what a serving process plans against) and once as the internal
// graph (what the coded-gossip simulator consumes for lossy cells). The
// random topology retries seeds until connected so every cell is plannable.
func buildPair(kind string, n int) (*multigossip.Network, *graph.Graph) {
	var g *graph.Graph
	switch kind {
	case "ring":
		g = graph.Cycle(n)
	case "grid":
		side := int(math.Sqrt(float64(n)))
		g = graph.Grid(side, side)
	case "random":
		rng := rand.New(rand.NewSource(int64(n)))
		g = graph.RandomConnected(rng, n, 4/float64(n))
	default:
		panic("unknown topology " + kind)
	}
	nw := multigossip.NewNetwork(g.N())
	for _, e := range g.Edges() {
		nw.AddLink(e.U, e.V)
	}
	return nw, g
}

// run evaluates one matrix cell and asserts its rounds bound.
func run(info multigossip.AlgorithmInfo, kind, fm string, n int) (cell, error) {
	nw, g := buildPair(kind, n)
	begin := time.Now()
	plan, err := nw.PlanGossip(
		multigossip.WithAlgorithm(info.ID), multigossip.WithSeed(algoSeed))
	planMS := float64(time.Since(begin).Microseconds()) / 1000
	if err != nil {
		return cell{}, fmt.Errorf("%s/%s/n=%d: plan: %w", info.Name, kind, n, err)
	}
	c := cell{
		Algorithm:  info.Name,
		Topology:   kind,
		FaultModel: fm,
		N:          nw.Processors(),
		M:          nw.Links(),
		Radius:     nw.Radius(),
		Diameter:   nw.Diameter(),
		Rounds:     plan.Rounds(),
		BoundName:  info.BoundName,
		PlanMillis: planMS,
	}
	c.Bound = info.Bound(multigossip.AlgorithmBoundParams{
		N: c.N, Radius: plan.Radius(), Diameter: c.Diameter,
		Messages: c.N, ExpandedRadius: plan.Radius(),
	})
	c.WithinBound = c.Rounds <= c.Bound
	if !c.WithinBound {
		return c, fmt.Errorf("%s/%s/%s/n=%d: %d rounds exceeds %s bound %d",
			info.Name, kind, fm, n, c.Rounds, c.BoundName, c.Bound)
	}
	switch fm {
	case "none":
		if err := plan.Verify(); err != nil {
			return c, fmt.Errorf("%s/%s/n=%d: verify: %w", info.Name, kind, n, err)
		}
		c.Verified, c.Complete = true, true
	case "loss":
		if !info.FaultExecutable {
			// Coded gossip has no transmission schedule to inject faults
			// into; its loss cell reruns the simulator with lossy links and
			// holds the realized run to the same registered bound.
			res, err := algebraic.Run(g, algebraic.Options{Seed: algoSeed, LossRate: lossRate})
			if err != nil {
				return c, fmt.Errorf("%s/%s/n=%d: lossy run: %w", info.Name, kind, n, err)
			}
			c.Rounds, c.TotalRounds = res.Rounds, res.Rounds
			c.Coverage, c.FinalCoverage = 1, 1
			c.WithinBound = c.Rounds <= c.Bound
			c.Verified, c.Complete = true, true
			if !c.WithinBound {
				return c, fmt.Errorf("%s/%s/loss/n=%d: %d realized rounds exceeds bound %d",
					info.Name, kind, n, c.Rounds, c.Bound)
			}
			return c, nil
		}
		rep, err := plan.ExecuteWithFaults(multigossip.WithLinkLoss(lossRate, faultSeed))
		if err != nil {
			return c, fmt.Errorf("%s/%s/n=%d: execute: %w", info.Name, kind, n, err)
		}
		c.Coverage, c.FinalCoverage = rep.Coverage, rep.FinalCoverage
		c.RepairRounds, c.TotalRounds = rep.RepairRounds, rep.TotalRounds
		c.Verified, c.Complete = true, rep.Complete
		if !rep.Complete {
			return c, fmt.Errorf("%s/%s/loss/n=%d: repair did not complete (final coverage %.4f)",
				info.Name, kind, n, rep.FinalCoverage)
		}
	default:
		return c, fmt.Errorf("unknown fault model %q", fm)
	}
	return c, nil
}

func main() {
	out := flag.String("out", "BENCH_matrix.json", "output path for the perf record")
	sizes := flag.String("sizes", "16,36,64", "comma-separated processor counts (squares keep the grid square)")
	smoke := flag.Bool("smoke", false, "small sizes (9,16 unless -sizes is set); asserts every cell and writes no record")
	flag.Parse()

	if *smoke && *sizes == "16,36,64" {
		*sizes = "9,16"
	}
	ns, err := cliutil.ParseSizes(*sizes, 4)
	if err != nil {
		fmt.Fprintf(os.Stderr, "matrixbench: %v\n", err)
		os.Exit(2)
	}

	topologies := []string{"ring", "grid", "random"}
	faultModels := []string{"none", "loss"}
	infos := multigossip.Algorithms()

	rep := report{
		Env:         cliutil.NewEnv("cmd/matrixbench", "algorithm portfolio scenario matrix: registered rounds-bound assertion per cell"),
		LossRate:    lossRate,
		Topologies:  topologies,
		FaultModels: faultModels,
		Sizes:       ns,
	}
	for _, info := range infos {
		rep.Algorithms = append(rep.Algorithms, info.Name)
	}

	fmt.Printf("%-16s %-7s %-5s %5s %7s %7s %9s %6s\n",
		"algorithm", "topo", "fault", "n", "rounds", "bound", "complete", "ms")
	failed := 0
	for _, info := range infos {
		for _, kind := range topologies {
			for _, fm := range faultModels {
				for _, n := range ns {
					c, err := run(info, kind, fm, n)
					if err != nil {
						fmt.Fprintf(os.Stderr, "matrixbench: FAIL %v\n", err)
						failed++
					}
					rep.Cells = append(rep.Cells, c)
					fmt.Printf("%-16s %-7s %-5s %5d %7d %7d %9t %6.1f\n",
						c.Algorithm, c.Topology, c.FaultModel, c.N, c.Rounds, c.Bound, c.Complete, c.PlanMillis)
				}
			}
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "matrixbench: %d cell(s) failed their assertion\n", failed)
		os.Exit(1)
	}
	fmt.Printf("matrix: %d algorithms x %d topologies x %d fault models x %d sizes = %d cells, all within bounds\n",
		len(infos), len(topologies), len(faultModels), len(ns), len(rep.Cells))

	if *smoke {
		// Smoke mode only asserts; the checked-in record comes from the
		// full run (make matrix-record).
		return
	}
	// Consistency check: the registry, the matrix and the library agree on
	// the algorithm count (paranoia against a half-registered entry).
	if len(infos) != len(algo.Registry()) {
		fmt.Fprintln(os.Stderr, "matrixbench: facade and registry disagree on algorithm count")
		os.Exit(1)
	}
	if err := cliutil.WriteRecord(*out, rep); err != nil {
		fmt.Fprintf(os.Stderr, "matrixbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}
