// Command obsbench measures what the observability layer costs and records
// the result in a machine-readable perf record (BENCH_obs.json by default).
//
// On a ring of -n processors it builds the ConcurrentUpDown plan once and
// times the fault executor under Bernoulli link loss in five
// configurations: the plain untraced entry point (fault.ExecuteInjected),
// the traced entry point with a nil observer (the hot path all executions
// share, which should price the same as untraced), and with the three
// shipped sinks attached: a ProgressCollector (per-round curve only), a
// Tracer (timeline + atomic outcome totals) and an Instrument-ed metrics
// Registry. The fault-free validator (schedule.Run) is timed untraced and
// observed too. Every case is timed repeats times, round-robin; the record
// keeps the median ns/op with its quartiles, and each overhead compares
// medians.
//
//	go run ./cmd/obsbench -out BENCH_obs.json
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"testing"

	"multigossip/internal/cliutil"
	"multigossip/internal/core"
	"multigossip/internal/fault"
	"multigossip/internal/graph"
	"multigossip/internal/obs"
	"multigossip/internal/schedule"
)

// repeats is how many times each case is timed. The repetitions run
// round-robin over the cases, so a slow spell of the host lands on every
// case alike.
const repeats = 7

type caseRecord struct {
	Name string `json:"name"`
	// NsOp is the median ns/op of the repeats; NsOpQ1 and NsOpQ3 are the
	// lower and upper quartiles.
	NsOp     int64 `json:"ns_op"`
	NsOpQ1   int64 `json:"ns_op_q1"`
	NsOpQ3   int64 `json:"ns_op_q3"`
	AllocsOp int64 `json:"allocs_op"`
	BytesOp  int64 `json:"bytes_op"`
	// OverheadVsUntraced is NsOp over the matching untraced baseline's NsOp
	// minus one: 0.01 means 1% slower.
	OverheadVsUntraced float64 `json:"overhead_vs_untraced"`
}

type report struct {
	cliutil.Env
	Topology string       `json:"topology"`
	N        int          `json:"n"`
	Rounds   int          `json:"rounds"`
	LossRate float64      `json:"loss_rate"`
	Repeats  int          `json:"repeats"`
	Cases    []caseRecord `json:"cases"`
}

// benchCase is one timed configuration; baseline names the untraced case
// its overhead is taken against, empty for a baseline itself.
type benchCase struct {
	name, baseline string
	f              func()
}

// run times every case repeats times, round-robin, and records the median
// and quartiles of each case's ns/op, with overheads from the medians.
func run(cases []benchCase) []caseRecord {
	ns := make([][]int64, len(cases))
	recs := make([]caseRecord, len(cases))
	for r := 0; r < repeats; r++ {
		for i, c := range cases {
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for k := 0; k < b.N; k++ {
					c.f()
				}
			})
			ns[i] = append(ns[i], res.NsPerOp())
			recs[i].AllocsOp, recs[i].BytesOp = res.AllocsPerOp(), res.AllocedBytesPerOp()
		}
	}
	median := map[string]int64{}
	for i, c := range cases {
		xs := ns[i]
		slices.Sort(xs)
		recs[i].Name = c.name
		recs[i].NsOp, recs[i].NsOpQ1, recs[i].NsOpQ3 = xs[len(xs)/2], xs[len(xs)/4], xs[len(xs)*3/4]
		median[c.name] = recs[i].NsOp
	}
	for i, c := range cases {
		if base := median[c.baseline]; base > 0 {
			recs[i].OverheadVsUntraced = float64(recs[i].NsOp)/float64(base) - 1
		}
	}
	return recs
}

func main() {
	out := flag.String("out", "BENCH_obs.json", "output path for the perf record")
	n := flag.Int("n", 1024, "ring size")
	loss := flag.Float64("loss", 0.01, "per-delivery loss probability for the fault executor cases")
	flag.Parse()

	g := graph.Cycle(*n)
	res, err := core.Gossip(g, core.ConcurrentUpDown)
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsbench:", err)
		os.Exit(1)
	}
	s := res.Schedule
	inj := fault.LinkLoss{P: *loss, Seed: 42}

	rep := report{
		Env:      cliutil.NewEnv("cmd/obsbench", "observability overhead on the fault executor and the schedule validator"),
		Topology: "ring",
		N:        *n,
		Rounds:   s.Time(),
		LossRate: *loss,
		Repeats:  repeats,
	}

	// Fault executor family. Every traced case reuses one long-lived sink,
	// the way a bench harness or server would.
	progress := obs.NewProgressCollector(*n, *n**n)
	tracer := obs.NewTracer()
	instrument := obs.Instrument(obs.NewRegistry())
	execute := func(o obs.RoundObserver) func() {
		return func() {
			if _, _, err := fault.ExecuteTraced(g, s, inj, nil, 0, nil, o); err != nil {
				panic(err)
			}
		}
	}
	validate := func(o obs.RoundObserver) func() {
		return func() {
			if _, err := schedule.Run(g, s, schedule.Options{Observer: o}); err != nil {
				panic(err)
			}
		}
	}
	rep.Cases = run([]benchCase{
		{"fault/untraced", "", func() {
			if _, _, err := fault.ExecuteInjected(g, s, inj, nil, 0); err != nil {
				panic(err)
			}
		}},
		{"fault/nil-observer", "fault/untraced", execute(nil)},
		{"fault/progress", "fault/untraced", execute(progress)},
		{"fault/tracer", "fault/untraced", execute(tracer)},
		{"fault/metrics", "fault/untraced", execute(instrument)},
		// Fault-free validator family.
		{"validate/untraced", "", validate(nil)},
		{"validate/metrics", "validate/untraced", validate(instrument)},
	})

	fmt.Printf("%-22s %14s %14s %14s %10s %12s %10s\n", "case", "ns/op", "q1", "q3", "allocs/op", "bytes/op", "overhead")
	for _, c := range rep.Cases {
		fmt.Printf("%-22s %14d %14d %14d %10d %12d %9.2f%%\n", c.Name, c.NsOp, c.NsOpQ1, c.NsOpQ3, c.AllocsOp, c.BytesOp, 100*c.OverheadVsUntraced)
	}

	if err := cliutil.WriteRecord(*out, rep); err != nil {
		fmt.Fprintf(os.Stderr, "obsbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}
