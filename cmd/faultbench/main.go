// Command faultbench measures the self-healing pipeline: it executes
// ConcurrentUpDown plans under Bernoulli link loss, lets the repair engine
// close the residual deficit, and records the coverage-vs-loss-rate curve
// and the repair overhead in a machine-readable record (BENCH_fault.json
// by default).
//
// For every topology in {ring, grid, random}, every size in -sizes and
// every loss rate in -rates it averages -trials seeded executions and
// reports: coverage after the scheduled rounds alone (the raw degradation
// the zero-redundancy schedule suffers), coverage after repair, deliveries
// dropped and pairs repaired, repair rounds and iterations, and the
// overhead of repair relative to the schedule length.
//
// The observability layer hooks in behind two flags: -trace streams every
// execution's rounds, repair iterations and quarantines into one Chrome
// trace_event JSON timeline (chrome://tracing, Perfetto), and -metrics
// dumps the aggregated gossip_* counters and histograms in the Prometheus
// text format.
//
//	go run ./cmd/faultbench -out BENCH_fault.json -trace fault.trace.json -metrics fault.prom
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"multigossip"
	"multigossip/internal/cliutil"
)

type record struct {
	Topology             string  `json:"topology"`
	N                    int     `json:"n"`
	M                    int     `json:"m"`
	Radius               int     `json:"radius"`
	Diameter             int     `json:"diameter"`
	LossRate             float64 `json:"loss_rate"`
	Trials               int     `json:"trials"`
	RepairBudget         int     `json:"repair_budget"`
	ScheduleRounds       int     `json:"schedule_rounds"`
	ScheduleDeliveries   int     `json:"schedule_deliveries"`
	MeanCoverageRaw      float64 `json:"mean_coverage_before_repair"`
	MeanCoverageRepaired float64 `json:"mean_coverage_after_repair"`
	MeanDropped          float64 `json:"mean_dropped_deliveries"`
	MeanRepaired         float64 `json:"mean_repaired_pairs"`
	MeanRepairRounds     float64 `json:"mean_repair_rounds"`
	MeanRepairIterations float64 `json:"mean_repair_iterations"`
	RepairOverhead       float64 `json:"repair_overhead"` // repair rounds / schedule rounds
	AllComplete          bool    `json:"all_complete"`
}

// permRecord is one deterministic permanent-fault scenario: a dead link, a
// full isolation, or a crash-stop processor, recovered by the adaptive
// survivor-graph engine. Reachable coverage 1.0 with stalled false means
// the recovery degraded gracefully: every pair the surviving topology
// could still deliver was delivered.
type permRecord struct {
	Topology          string   `json:"topology"`
	N                 int      `json:"n"`
	Scenario          string   `json:"scenario"`
	Faults            string   `json:"faults"`
	RepairBudget      int      `json:"repair_budget"`
	CoverageRaw       float64  `json:"coverage_before_repair"`
	FinalCoverage     float64  `json:"final_coverage"`
	ReachableCoverage float64  `json:"reachable_coverage"`
	UnreachablePairs  int      `json:"unreachable_pairs"`
	QuarantinedLinks  [][2]int `json:"quarantined_links"`
	DownProcessors    []int    `json:"down_processors"`
	Components        int      `json:"components"`
	RepairIterations  int      `json:"repair_iterations"`
	RepairRounds      int      `json:"repair_rounds"`
	Stalled           bool     `json:"stalled"`
}

type report struct {
	cliutil.Env
	Cases           []record     `json:"cases"`
	PermanentFaults []permRecord `json:"permanent_faults"`
}

func buildNetwork(kind string, n int) *multigossip.Network {
	switch kind {
	case "ring":
		return multigossip.Ring(n)
	case "grid":
		side := int(math.Sqrt(float64(n)))
		return multigossip.Mesh(side, side)
	case "random":
		rng := rand.New(rand.NewSource(int64(n)))
		return multigossip.RandomNetwork(rng, n, 8/float64(n))
	}
	panic("unknown topology " + kind)
}

func measure(kind string, n int, rates []float64, trials, budget int, watch multigossip.RoundObserver) ([]record, error) {
	nw := buildNetwork(kind, n)
	plan, err := nw.PlanGossip()
	if err != nil {
		return nil, err
	}
	deliveries := 0
	var buf []multigossip.Transmission
	for t := 0; t < plan.Rounds(); t++ {
		buf = plan.RoundAppend(t, buf[:0])
		for _, tx := range buf {
			deliveries += len(tx.To)
		}
	}
	var out []record
	for _, rate := range rates {
		rec := record{
			Topology:           kind,
			N:                  nw.Processors(),
			M:                  nw.Links(),
			Radius:             nw.Radius(),
			Diameter:           nw.Diameter(),
			LossRate:           rate,
			Trials:             trials,
			RepairBudget:       budget,
			ScheduleRounds:     plan.Rounds(),
			ScheduleDeliveries: deliveries,
			AllComplete:        true,
		}
		for trial := 0; trial < trials; trial++ {
			seed := int64(n)*1000 + int64(trial)
			opts := []multigossip.FaultOption{
				multigossip.WithLinkLoss(rate, seed),
				multigossip.WithRepairBudget(budget),
			}
			if watch != nil {
				opts = append(opts, multigossip.WithObserver(watch))
			}
			rep, err := plan.ExecuteWithFaults(opts...)
			if err != nil {
				return nil, err
			}
			rec.MeanCoverageRaw += rep.Coverage
			rec.MeanCoverageRepaired += rep.FinalCoverage
			rec.MeanDropped += float64(rep.Dropped)
			rec.MeanRepaired += float64(rep.Repaired)
			rec.MeanRepairRounds += float64(rep.RepairRounds)
			rec.MeanRepairIterations += float64(rep.RepairIterations)
			rec.AllComplete = rec.AllComplete && rep.Complete
		}
		ft := float64(trials)
		rec.MeanCoverageRaw /= ft
		rec.MeanCoverageRepaired /= ft
		rec.MeanDropped /= ft
		rec.MeanRepaired /= ft
		rec.MeanRepairRounds /= ft
		rec.MeanRepairIterations /= ft
		rec.RepairOverhead = rec.MeanRepairRounds / float64(rec.ScheduleRounds)
		out = append(out, rec)
	}
	return out, nil
}

// measurePermanent runs the deterministic permanent-fault matrix on one
// topology instance: a single dead link of processor 0, every link of
// processor 0 dead (isolating it — observationally a crash, which is how
// the suspicion tracker attributes it), and a crash-stop of processor 0
// before round 0.
func measurePermanent(kind string, n, budget int, watch multigossip.RoundObserver) ([]permRecord, error) {
	nw := buildNetwork(kind, n)
	plan, err := nw.PlanGossip()
	if err != nil {
		return nil, err
	}
	procs := nw.Processors()
	var neigh []int // processor 0's neighbours, by link probing
	for v := 1; v < procs; v++ {
		if nw.HasLink(0, v) {
			neigh = append(neigh, v)
		}
	}
	type scenario struct {
		name, faults string
		opts         []multigossip.FaultOption
	}
	scens := []scenario{
		{
			name:   "dead-link",
			faults: fmt.Sprintf("link (0,%d) permanently dead", neigh[0]),
			opts:   []multigossip.FaultOption{multigossip.WithDeadLink(0, neigh[0])},
		},
		{
			name:   "crash-stop",
			faults: "processor 0 crash-stopped before round 0",
			opts:   []multigossip.FaultOption{multigossip.WithCrashStop(0, 0)},
		},
	}
	isolate := scenario{
		name:   "dead-links-isolate",
		faults: fmt.Sprintf("all %d links of processor 0 permanently dead", len(neigh)),
	}
	for _, v := range neigh {
		isolate.opts = append(isolate.opts, multigossip.WithDeadLink(0, v))
	}
	scens = append(scens, isolate)
	var out []permRecord
	for _, sc := range scens {
		opts := append([]multigossip.FaultOption{multigossip.WithRepairBudget(budget)}, sc.opts...)
		if watch != nil {
			opts = append(opts, multigossip.WithObserver(watch))
		}
		rep, err := plan.ExecuteWithFaults(opts...)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", sc.name, err)
		}
		rec := permRecord{
			Topology:          kind,
			N:                 procs,
			Scenario:          sc.name,
			Faults:            sc.faults,
			RepairBudget:      budget,
			CoverageRaw:       rep.Coverage,
			FinalCoverage:     rep.FinalCoverage,
			ReachableCoverage: rep.ReachableCoverage,
			UnreachablePairs:  len(rep.Unreachable),
			QuarantinedLinks:  make([][2]int, 0, len(rep.QuarantinedLinks)),
			DownProcessors:    rep.DownProcessors,
			Components:        rep.Components,
			RepairIterations:  rep.RepairIterations,
			RepairRounds:      rep.RepairRounds,
			Stalled:           rep.Stalled,
		}
		if rec.DownProcessors == nil {
			rec.DownProcessors = []int{}
		}
		for _, l := range rep.QuarantinedLinks {
			rec.QuarantinedLinks = append(rec.QuarantinedLinks, [2]int{l.U, l.V})
		}
		out = append(out, rec)
	}
	return out, nil
}

func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, f := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %v", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	out := flag.String("out", "BENCH_fault.json", "output path for the fault record")
	sizes := flag.String("sizes", "256,1024", "comma-separated processor counts")
	rates := flag.String("rates", "0,0.001,0.01,0.05", "comma-separated per-delivery loss probabilities")
	trials := flag.Int("trials", 3, "seeded executions averaged per (topology, size, rate)")
	budget := flag.Int("budget", 64, "repair iteration budget (each iteration costs at most the diameter in rounds)")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON timeline of every execution to this path")
	metricsPath := flag.String("metrics", "", "write the aggregated gossip_* metrics in Prometheus text format to this path")
	flag.Parse()

	ns, err := parseList(*sizes, strconv.Atoi)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faultbench: -sizes: %v\n", err)
		os.Exit(2)
	}
	ps, err := parseList(*rates, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
	if err != nil {
		fmt.Fprintf(os.Stderr, "faultbench: -rates: %v\n", err)
		os.Exit(2)
	}
	if *trials < 1 {
		fmt.Fprintln(os.Stderr, "faultbench: -trials must be >= 1")
		os.Exit(2)
	}
	if *budget < 1 {
		fmt.Fprintln(os.Stderr, "faultbench: -budget must be >= 1")
		os.Exit(2)
	}

	var tracer *multigossip.Tracer
	var metrics *multigossip.Metrics
	var watch multigossip.RoundObserver
	if *tracePath != "" {
		tracer = multigossip.NewTracer()
		watch = multigossip.MultiObserver(watch, tracer)
	}
	if *metricsPath != "" {
		metrics = multigossip.NewMetrics()
		watch = multigossip.MultiObserver(watch, multigossip.InstrumentMetrics(metrics))
	}

	rep := report{Env: cliutil.NewEnv("cmd/faultbench",
		"ConcurrentUpDown under Bernoulli link loss: coverage before/after repair and repair overhead")}
	fmt.Printf("%-8s %6s %8s %9s %9s %8s %9s %7s %8s\n",
		"topology", "n", "loss", "raw cov", "final", "dropped", "rep.rnds", "iters", "overhead")
	for _, kind := range []string{"ring", "grid", "random"} {
		for _, n := range ns {
			recs, err := measure(kind, n, ps, *trials, *budget, watch)
			if err != nil {
				fmt.Fprintf(os.Stderr, "faultbench: %s n=%d: %v\n", kind, n, err)
				os.Exit(1)
			}
			for _, r := range recs {
				rep.Cases = append(rep.Cases, r)
				fmt.Printf("%-8s %6d %8.4f %9.5f %9.5f %8.1f %9.1f %7.1f %8.4f\n",
					r.Topology, r.N, r.LossRate, r.MeanCoverageRaw, r.MeanCoverageRepaired,
					r.MeanDropped, r.MeanRepairRounds, r.MeanRepairIterations, r.RepairOverhead)
			}
		}
	}

	fmt.Printf("\n%-8s %6s %-18s %9s %9s %9s %7s %6s %6s %7s\n",
		"topology", "n", "scenario", "raw cov", "final", "reach", "unreach", "quar", "comps", "stalled")
	for _, kind := range []string{"ring", "grid", "random"} {
		for _, n := range ns {
			recs, err := measurePermanent(kind, n, *budget, watch)
			if err != nil {
				fmt.Fprintf(os.Stderr, "faultbench: %s n=%d: %v\n", kind, n, err)
				os.Exit(1)
			}
			for _, r := range recs {
				rep.PermanentFaults = append(rep.PermanentFaults, r)
				fmt.Printf("%-8s %6d %-18s %9.5f %9.5f %9.5f %7d %6d %6d %7v\n",
					r.Topology, r.N, r.Scenario, r.CoverageRaw, r.FinalCoverage,
					r.ReachableCoverage, r.UnreachablePairs,
					len(r.QuarantinedLinks)+len(r.DownProcessors), r.Components, r.Stalled)
			}
		}
	}

	if err := cliutil.WriteRecord(*out, rep); err != nil {
		fmt.Fprintf(os.Stderr, "faultbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)

	if tracer != nil {
		if err := cliutil.WriteFileFunc(*tracePath, tracer.WriteChromeTrace); err != nil {
			fmt.Fprintf(os.Stderr, "faultbench: -trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *tracePath)
	}
	if metrics != nil {
		if err := cliutil.WriteFileFunc(*metricsPath, metrics.WritePrometheus); err != nil {
			fmt.Fprintf(os.Stderr, "faultbench: -metrics: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *metricsPath)
	}
}
