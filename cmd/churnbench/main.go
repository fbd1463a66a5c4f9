// Command churnbench measures the dynamic-topology layer and records the
// result in a machine-readable perf record (BENCH_churn.json by default).
//
// The headline number is patch turnaround: the wall time from a RemoveLink
// that severs a spanning-tree edge to holding a valid repaired plan again,
// compared against the cold rebuild the same mutation would have cost
// before the churn layer existed. The patch path runs GraftTree plus an
// O(n) re-derivation and a structural validation; the cold path repeats
// the O(nm) metric sweep. For every topology in {ring, random} and size in
// -sizes the bench probes shuffled edges until it has collected -samples
// grafted removals (re-adding the link after each probe, which restores
// the cached original plan bit-identically via the XOR fingerprint), and
// reports the median and minimum of both paths plus the outcome histogram
// the probing saw. Every case runs at GOMAXPROCS 1 and at runtime.NumCPU()
// (the cold rebuild's sweep runs on a worker pool; the patch path does
// not). With -min-speedup > 0 the bench fails unless the median
// cold/patch ratio on the largest random case clears the floor at every
// GOMAXPROCS — the acceptance gate for the churn layer.
//
// The record also carries a deterministic hysteresis trace: on a wheel
// (hub + rim ring), a spoke that was removed and re-added inside the flap
// window and then removed again degrades the grafted tree past the quality
// bound, and the planner must suppress the rebuild (serving the valid,
// degraded plan); the identical sequence with the clock advanced past the
// window must rebuild. Both outcomes are asserted, not just recorded.
//
//	go run ./cmd/churnbench -out BENCH_churn.json
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"multigossip"
	"multigossip/internal/cliutil"
	"multigossip/internal/graph"
)

type caseRecord struct {
	Topology      string  `json:"topology"`
	GoMaxProcs    int     `json:"gomaxprocs"`
	N             int     `json:"n"`
	M             int     `json:"m"`
	Radius        int     `json:"radius"`
	ColdMedianNs  int64   `json:"cold_median_ns"`
	ColdMinNs     int64   `json:"cold_min_ns"`
	PatchMedianNs int64   `json:"patch_median_ns"`
	PatchMinNs    int64   `json:"patch_min_ns"`
	Speedup       float64 `json:"speedup"`
	GraftSamples  int     `json:"graft_samples"`
	ReusedProbes  int     `json:"reused_probes"`
	RebuiltProbes int     `json:"rebuilt_probes"`
}

type hysteresisRecord struct {
	N              int    `json:"n"`
	WindowMS       int64  `json:"window_ms"`
	FlapOutcome    string `json:"flap_outcome"`
	FlapRadius     int    `json:"flap_radius"`
	QuietOutcome   string `json:"quiet_outcome"`
	QuietRadius    int    `json:"quiet_radius"`
	QualityBaseRad int    `json:"quality_base_radius"`
}

type report struct {
	cliutil.Env
	Cases      []caseRecord     `json:"cases"`
	Hysteresis hysteresisRecord `json:"hysteresis"`
}

func networkFrom(g *graph.Graph) *multigossip.Network {
	nw := multigossip.NewNetwork(g.N())
	for _, e := range g.Edges() {
		nw.AddLink(e.U, e.V)
	}
	return nw
}

func median(ns []int64) int64 {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return ns[len(ns)/2]
}

func minOf(ns []int64) int64 {
	m := ns[0]
	for _, v := range ns[1:] {
		m = min(m, v)
	}
	return m
}

// measure probes shuffled edges of one topology until it has `samples`
// grafted removals, timing each RemoveLink end to end, and times cold
// rebuilds of the same planner for the baseline.
func measure(kind string, n, samples int) (caseRecord, error) {
	g := cliutil.BenchGraph(kind, n)
	nw := networkFrom(g)
	cache := multigossip.NewPlanCache()
	dp, err := multigossip.NewDynamicPlanner(nw, multigossip.WithPlanCache(cache))
	if err != nil {
		return caseRecord{}, err
	}
	rec := caseRecord{Topology: kind, GoMaxProcs: runtime.GOMAXPROCS(0), N: g.N(), M: g.M(), Radius: dp.Plan().Radius()}

	edges := g.Edges()
	rng := rand.New(rand.NewSource(int64(n) + 1))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })

	var patch []int64
	for _, e := range edges {
		if len(patch) >= samples {
			break
		}
		start := time.Now()
		outcome, err := dp.RemoveLink(e.U, e.V)
		dur := time.Since(start).Nanoseconds()
		if err != nil {
			continue // a bridge: the removal was refused, nothing to restore
		}
		switch outcome {
		case multigossip.PatchGrafted:
			patch = append(patch, dur)
			rec.GraftSamples++
		case multigossip.PatchReused:
			rec.ReusedProbes++
		case multigossip.PatchRebuilt:
			rec.RebuiltProbes++
		}
		// Re-adding restores the original fingerprint, so the planner
		// serves the cached original plan again and the next probe starts
		// from the same baseline.
		if _, err := dp.AddLink(e.U, e.V); err != nil {
			return rec, err
		}
	}
	if len(patch) == 0 {
		return rec, fmt.Errorf("%s n=%d: no grafted removal in %d edges", kind, n, len(edges))
	}

	cold := make([]int64, 0, 3)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := dp.Rebuild(); err != nil {
			return rec, err
		}
		cold = append(cold, time.Since(start).Nanoseconds())
	}

	rec.ColdMedianNs, rec.ColdMinNs = median(cold), minOf(cold)
	rec.PatchMedianNs, rec.PatchMinNs = median(patch), minOf(patch)
	rec.Speedup = float64(rec.ColdMedianNs) / float64(rec.PatchMedianNs)
	return rec, nil
}

// wheelNetwork is hub 0 spoked to every rim vertex 1..n-1, rim closed into
// a ring: radius 1, and a removed spoke grafts through the rim.
func wheelNetwork(n int) *multigossip.Network {
	nw := multigossip.NewNetwork(n)
	for i := 1; i < n; i++ {
		nw.AddLink(0, i)
		if i > 1 {
			nw.AddLink(i-1, i)
		}
	}
	nw.AddLink(n-1, 1)
	return nw
}

// hysteresis runs the deterministic flap trace twice — once inside the
// window, once with the clock advanced past it — and requires suppression
// in the first run and a rebuild in the second.
func hysteresis() (hysteresisRecord, error) {
	const n = 1024
	const window = time.Second
	run := func(quiet bool) (multigossip.PatchOutcome, int, error) {
		now := time.Unix(0, 0)
		dp, err := multigossip.NewDynamicPlanner(wheelNetwork(n),
			multigossip.WithFlapWindow(window),
			multigossip.WithClock(func() time.Time { return now }))
		if err != nil {
			return 0, 0, err
		}
		// Heat the flap detector on spoke {0, 4}: remove, re-add.
		if o, err := dp.RemoveLink(0, 4); err != nil || o != multigossip.PatchGrafted {
			return o, 0, fmt.Errorf("flap heat remove: outcome %v, err %w", o, err)
		}
		now = now.Add(window / 10)
		if _, err := dp.AddLink(0, 4); err != nil {
			return 0, 0, err
		}
		// Settle back to the pristine spoke tree so {0, 4} is a tree edge
		// again, then deepen rim vertex 5's attachment so the next graft of
		// {0, 4} hangs a two-vertex chain and breaks the quality bound.
		if _, err := dp.Rebuild(); err != nil {
			return 0, 0, err
		}
		if o, err := dp.RemoveLink(0, 5); err != nil || o != multigossip.PatchGrafted {
			return o, 0, fmt.Errorf("rim deepen remove: outcome %v, err %w", o, err)
		}
		now = now.Add(window / 10)
		if quiet {
			now = now.Add(2 * window)
		}
		outcome, err := dp.RemoveLink(0, 4)
		return outcome, dp.Plan().Radius(), err
	}
	flap, flapRadius, err := run(false)
	if err != nil {
		return hysteresisRecord{}, err
	}
	if flap != multigossip.PatchSuppressed {
		return hysteresisRecord{}, fmt.Errorf("flapping quality breach: outcome %v, want suppressed", flap)
	}
	quietOutcome, quietRadius, err := run(true)
	if err != nil {
		return hysteresisRecord{}, err
	}
	if quietOutcome != multigossip.PatchRebuilt {
		return hysteresisRecord{}, fmt.Errorf("quiet quality breach: outcome %v, want rebuilt", quietOutcome)
	}
	return hysteresisRecord{
		N:              n,
		WindowMS:       window.Milliseconds(),
		FlapOutcome:    flap.String(),
		FlapRadius:     flapRadius,
		QuietOutcome:   quietOutcome.String(),
		QuietRadius:    quietRadius,
		QualityBaseRad: 1,
	}, nil
}

func main() {
	out := flag.String("out", "BENCH_churn.json", "output path for the perf record")
	sizes := flag.String("sizes", "1024,4096", "comma-separated vertex counts")
	samples := flag.Int("samples", 16, "grafted-removal samples per case")
	minSpeedup := flag.Float64("min-speedup", 10, "required cold/patch median ratio on the largest random case (0 disables)")
	flag.Parse()

	ns, err := cliutil.ParseSizes(*sizes, 4)
	if err != nil {
		fmt.Fprintf(os.Stderr, "churnbench: -sizes: %v\n", err)
		os.Exit(2)
	}
	rep := report{Env: cliutil.NewEnv("cmd/churnbench",
		"patch turnaround (GraftTree + O(n) re-derivation) vs cold rebuild (O(nm) sweep) under topology churn, plus the flap-hysteresis trace")}
	fmt.Printf("%-8s %7s %8s %5s %14s %14s %9s %8s %8s %8s\n",
		"topology", "n", "m", "procs", "cold med", "patch med", "speedup", "grafts", "reused", "rebuilt")
	var largestRandom []caseRecord // the largest random case at each GOMAXPROCS
	for _, kind := range []string{"ring", "random"} {
		for _, n := range ns {
			largestRandom = largestRandom[:0]
			cliutil.ForEachGOMAXPROCS(func() {
				rec, err := measure(kind, n, *samples)
				if err != nil {
					fmt.Fprintf(os.Stderr, "churnbench: %v\n", err)
					os.Exit(1)
				}
				rep.Cases = append(rep.Cases, rec)
				fmt.Printf("%-8s %7d %8d %5d %14s %14s %8.1fx %8d %8d %8d\n",
					rec.Topology, rec.N, rec.M, rec.GoMaxProcs,
					time.Duration(rec.ColdMedianNs), time.Duration(rec.PatchMedianNs),
					rec.Speedup, rec.GraftSamples, rec.ReusedProbes, rec.RebuiltProbes)
				largestRandom = append(largestRandom, rec)
			})
		}
	}

	h, err := hysteresis()
	if err != nil {
		fmt.Fprintf(os.Stderr, "churnbench: hysteresis: %v\n", err)
		os.Exit(1)
	}
	rep.Hysteresis = h
	fmt.Printf("hysteresis: flapping spoke -> %s (radius %d), quiet spoke -> %s (radius %d)\n",
		h.FlapOutcome, h.FlapRadius, h.QuietOutcome, h.QuietRadius)

	for _, rec := range largestRandom {
		if *minSpeedup > 0 && rec.Speedup < *minSpeedup {
			fmt.Fprintf(os.Stderr, "churnbench: random n=%d patch speedup %.1fx at GOMAXPROCS %d fell below the %.0fx floor\n",
				rec.N, rec.Speedup, rec.GoMaxProcs, *minSpeedup)
			os.Exit(1)
		}
	}

	if err := cliutil.WriteRecord(*out, rep); err != nil {
		fmt.Fprintf(os.Stderr, "churnbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}
