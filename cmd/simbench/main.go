// Command simbench measures the sharded event-loop simulator (internal/sim)
// and records the result in a machine-readable perf record (BENCH_sim.json
// by default).
//
// The benchmark runs the online ConcurrentUpDown protocol as n compact
// state machines — no goroutine per node, no materialised schedule — and
// reports rounds/sec and ns/node-event for each case:
//
//   - million-node sync runs (star and a 1000-ary tree) with leaf fan-out
//     folding, the configuration that makes n = 10⁶ tractable on one
//     machine: leaf deliveries are accounted arithmetically, so simulator
//     work scales with internal-node traffic instead of n(n-1);
//   - exact (fold-off) sync runs on seeded random recursive trees, where
//     every one of the n(n-1) point deliveries is individually simulated;
//   - async event-driven runs under a uniform per-link latency model.
//
// With -smoke the command runs the CI differential gate instead: on a
// seeded random connected graph at n = 4096 the simulator streams every
// round through a sink and each transmission is compared bit-for-bit
// against the plan's own rounds (implicit.Plan.RoundAppend), then
// async runs under deterministic, uniform and heavy-tail latency models
// must deliver all n(n-1) messages within the n + 2r + maxLatency·height
// completion bound.
//
//	go run ./cmd/simbench -out BENCH_sim.json
//	go run ./cmd/simbench -smoke
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"multigossip/internal/cliutil"
	"multigossip/internal/graph"
	"multigossip/internal/implicit"
	"multigossip/internal/schedule"
	"multigossip/internal/sim"
	"multigossip/internal/spantree"
)

type record struct {
	Engine           string  `json:"engine"` // sync | async
	Topology         string  `json:"topology"`
	N                int     `json:"n"`
	Height           int     `json:"height"`
	Shards           int     `json:"shards"`
	Fold             bool    `json:"fold"`
	MaxLatency       int     `json:"max_latency,omitempty"`
	CompleteAt       int     `json:"complete_at"`
	Deliveries       int64   `json:"deliveries"`
	FoldedDeliveries int64   `json:"folded_deliveries"`
	Transmissions    int64   `json:"transmissions"`
	Events           int64   `json:"events"`
	WallNs           int64   `json:"wall_ns"`
	RoundsPerSec     float64 `json:"rounds_per_sec"`
	NsPerNodeEvent   float64 `json:"ns_per_node_event"`
}

type report struct {
	cliutil.Env
	Cases []record `json:"cases"`
}

// starParents and karyParents build the bench trees directly as parent
// arrays: at n = 10⁶ that skips an O(n+m) graph + spanning-tree sweep the
// benchmark is not trying to measure.
func starParents(n int) []int {
	parent := make([]int, n)
	parent[0] = -1
	for i := 1; i < n; i++ {
		parent[i] = 0
	}
	return parent
}

func karyParents(n, k int) []int {
	parent := make([]int, n)
	parent[0] = -1
	for i := 1; i < n; i++ {
		parent[i] = (i - 1) / k
	}
	return parent
}

func planFor(parents []int) *implicit.Plan {
	return implicit.New(spantree.Label(spantree.MustFromParents(parents)))
}

func runCase(topology string, p *implicit.Plan, o sim.Options) record {
	start := time.Now()
	res, err := sim.Run(p.Topo(), o)
	wall := time.Since(start).Nanoseconds()
	if err != nil {
		panic(fmt.Sprintf("simbench: %s n=%d: %v", topology, p.N(), err))
	}
	n := int64(p.N())
	if res.Deliveries != n*(n-1) {
		panic(fmt.Sprintf("simbench: %s n=%d: %d deliveries, want %d", topology, p.N(), res.Deliveries, n*(n-1)))
	}
	if !o.Async && res.CompleteAt != p.Rounds() {
		panic(fmt.Sprintf("simbench: %s n=%d: completed at %d, plan says %d", topology, p.N(), res.CompleteAt, p.Rounds()))
	}
	engine := "sync"
	maxLat := 0
	if o.Async {
		engine = "async"
		maxLat = int(o.Latency.Max())
	}
	return record{
		Engine:           engine,
		Topology:         topology,
		N:                p.N(),
		Height:           p.Height(),
		Shards:           res.Shards,
		Fold:             res.Fold,
		MaxLatency:       maxLat,
		CompleteAt:       res.CompleteAt,
		Deliveries:       res.Deliveries,
		FoldedDeliveries: res.Folded,
		Transmissions:    res.Sends,
		Events:           res.Events,
		WallNs:           wall,
		RoundsPerSec:     float64(res.CompleteAt) / (float64(wall) / 1e9),
		NsPerNodeEvent:   float64(wall) / float64(res.Events),
	}
}

// smoke is the CI gate: the simulator's live transmissions, streamed
// round by round through a sink, must be bit-identical to the plan's
// rounds, and async completion must respect the
// n + 2r + maxLatency·height bound under every latency model.
func smoke() error {
	const n = 4096
	rng := rand.New(rand.NewSource(n))
	g := graph.RandomConnected(rng, n, 8.0/n)
	tree, err := spantree.MinDepth(g)
	if err != nil {
		return err
	}
	p := implicit.New(spantree.Label(tree))
	topo := p.Topo()

	// Sync differential: translate each sunk round from canonical labels
	// to original ids and compare against implicit.RoundAppend. The sink
	// keeps memory O(n): no full schedule is ever materialised.
	var want, got []schedule.Transmission
	rounds := 0
	lastT := -1
	checkEmpty := func(t int) error {
		if want = p.RoundAppend(t, want[:0]); len(want) != 0 {
			return fmt.Errorf("sync: simulator silent at round %d but the plan schedules %d transmissions", t, len(want))
		}
		return nil
	}
	sink := func(t int, round []schedule.Transmission) error {
		for lastT++; lastT < t; lastT++ {
			if err := checkEmpty(lastT); err != nil {
				return err
			}
		}
		got = got[:0]
		for _, tx := range round {
			to := make([]int, len(tx.To))
			for i, d := range tx.To {
				to[i] = int(topo.VertexOf[d])
			}
			sort.Ints(to)
			got = append(got, schedule.Transmission{
				Msg: int(topo.VertexOf[tx.Msg]), From: int(topo.VertexOf[tx.From]), To: to,
			})
		}
		sort.Slice(got, func(i, j int) bool { return got[i].From < got[j].From })
		want = p.RoundAppend(t, want[:0])
		for i := range want {
			sort.Ints(want[i].To)
		}
		sort.Slice(want, func(i, j int) bool { return want[i].From < want[j].From })
		if len(got) != len(want) {
			return fmt.Errorf("sync: round %d has %d transmissions, plan says %d", t, len(got), len(want))
		}
		for i := range got {
			w := want[i]
			if got[i].Msg != w.Msg || got[i].From != w.From || len(got[i].To) != len(w.To) {
				return fmt.Errorf("sync: round %d transmission %d diverges: got %+v want %+v", t, i, got[i], w)
			}
			for k := range w.To {
				if got[i].To[k] != w.To[k] {
					return fmt.Errorf("sync: round %d transmission %d diverges: got %+v want %+v", t, i, got[i], w)
				}
			}
		}
		rounds++
		return nil
	}
	res, err := sim.Run(topo, sim.Options{Sink: sink})
	if err != nil {
		return fmt.Errorf("sync: %v", err)
	}
	for lastT++; lastT < p.Rounds(); lastT++ {
		if err := checkEmpty(lastT); err != nil {
			return err
		}
	}
	if res.CompleteAt != p.Rounds() {
		return fmt.Errorf("sync: completed at %d, plan says %d", res.CompleteAt, p.Rounds())
	}
	if res.Deliveries != int64(n)*int64(n-1) {
		return fmt.Errorf("sync: %d deliveries, want %d", res.Deliveries, n*(n-1))
	}
	fmt.Printf("sim-smoke: n=%d sync differential ok: %d rounds bit-identical to the plan's rounds (%d transmissions)\n",
		n, rounds, res.Sends)

	// Async gate: full coverage within n + 2r + maxLat·height under each
	// latency model family.
	r := p.Height()
	for _, lat := range []sim.Latency{sim.Deterministic(1), sim.Uniform(6, 42), sim.HeavyTail(12, 42)} {
		ares, err := sim.Run(topo, sim.Options{Async: true, Latency: lat})
		if err != nil {
			return fmt.Errorf("async maxLat=%d: %v", lat.Max(), err)
		}
		if ares.Deliveries != int64(n)*int64(n-1) {
			return fmt.Errorf("async maxLat=%d: %d deliveries, want %d", lat.Max(), ares.Deliveries, n*(n-1))
		}
		bound := n + 2*r + int(lat.Max())*p.Height()
		if ares.CompleteAt > bound {
			return fmt.Errorf("async maxLat=%d: completed at %d > n+2r+maxLat*h = %d", lat.Max(), ares.CompleteAt, bound)
		}
		fmt.Printf("sim-smoke: n=%d async maxLat=%-2d complete at %d <= bound %d\n", n, lat.Max(), ares.CompleteAt, bound)
	}
	return nil
}

func main() {
	out := flag.String("out", "BENCH_sim.json", "output path for the perf record")
	smokeMode := flag.Bool("smoke", false, "run the CI differential gate instead of the benchmark")
	flag.Parse()

	if *smokeMode {
		if err := smoke(); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: smoke: %v\n", err)
			os.Exit(1)
		}
		return
	}

	rep := report{Env: cliutil.NewEnv("cmd/simbench",
		"sharded event-loop simulator: online ConcurrentUpDown as packed per-node state machines")}
	add := func(r record) {
		rep.Cases = append(rep.Cases, r)
		fmt.Printf("%-5s %-16s n=%-8d rounds=%-8d %10.0f rounds/sec  %7.1f ns/node-event  (folded %d of %d deliveries, %s)\n",
			r.Engine, r.Topology, r.N, r.CompleteAt, r.RoundsPerSec, r.NsPerNodeEvent,
			r.FoldedDeliveries, r.Deliveries, time.Duration(r.WallNs))
	}

	// Million-node sync runs: leaf fan-out folding keeps simulator work
	// proportional to internal-node traffic, so n = 10⁶ completes on one
	// machine.
	add(runCase("star", planFor(starParents(1_000_000)), sim.Options{}))
	add(runCase("kary-1000", planFor(karyParents(1_000_000, 1000)), sim.Options{}))

	// Exact runs: folding off, every point delivery individually simulated.
	for _, n := range []int{16_384, 32_768} {
		rng := rand.New(rand.NewSource(int64(n)))
		add(runCase("random-recursive", planFor(cliutil.RandomRecursiveParents(rng, n)), sim.Options{Fold: sim.FoldOff}))
	}

	// Async event-driven runs under a uniform latency model.
	for _, n := range []int{4096, 16_384} {
		rng := rand.New(rand.NewSource(int64(n)))
		p := planFor(cliutil.RandomRecursiveParents(rng, n))
		add(runCase("random-recursive", p, sim.Options{Async: true, Latency: sim.Uniform(4, uint64(n))}))
	}

	if err := cliutil.WriteRecord(*out, rep); err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}
