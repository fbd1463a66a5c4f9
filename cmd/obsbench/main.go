// Command obsbench measures what the observability layer costs and records
// the result in a machine-readable perf record (BENCH_obs.json by default).
//
// On a ring of -n processors it builds the ConcurrentUpDown plan once and
// times the fault executor under Bernoulli link loss in five
// configurations: the plain untraced entry point (fault.ExecuteInjected),
// the traced entry point with a nil observer (the refactored hot path all
// executions now share — the record asserts it prices identically to
// untraced), and with the three shipped sinks attached: a
// ProgressCollector (per-round curve only), a Tracer (timeline + atomic
// outcome totals) and an Instrument-ed metrics Registry. The fault-free
// validator (schedule.Run) is timed untraced and observed too.
//
//	go run ./cmd/obsbench -out BENCH_obs.json
package main

import (
	"flag"
	"fmt"
	"os"
	"testing"

	"multigossip/internal/cliutil"
	"multigossip/internal/core"
	"multigossip/internal/fault"
	"multigossip/internal/graph"
	"multigossip/internal/obs"
	"multigossip/internal/schedule"
)

type caseRecord struct {
	Name     string `json:"name"`
	NsOp     int64  `json:"ns_op"`
	AllocsOp int64  `json:"allocs_op"`
	BytesOp  int64  `json:"bytes_op"`
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
	Cases    []caseRecord `json:"cases"`
}

func bench(name string, baseline int64, f func()) caseRecord {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f()
		}
	})
	rec := caseRecord{
		Name:     name,
		NsOp:     res.NsPerOp(),
		AllocsOp: res.AllocsPerOp(),
		BytesOp:  res.AllocedBytesPerOp(),
	}
	if baseline > 0 {
		rec.OverheadVsUntraced = float64(rec.NsOp)/float64(baseline) - 1
	}
	return rec
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
	}

	// Fault executor family. Every traced case reuses one long-lived sink,
	// the way a bench harness or server would.
	untraced := bench("fault/untraced", 0, func() {
		if _, _, err := fault.ExecuteInjected(g, s, inj, nil, 0); err != nil {
			panic(err)
		}
	})
	rep.Cases = append(rep.Cases, untraced)
	rep.Cases = append(rep.Cases, bench("fault/nil-observer", untraced.NsOp, func() {
		if _, _, err := fault.ExecuteTraced(g, s, inj, nil, 0, nil, nil); err != nil {
			panic(err)
		}
	}))
	progress := obs.NewProgressCollector(*n, *n**n)
	rep.Cases = append(rep.Cases, bench("fault/progress", untraced.NsOp, func() {
		if _, _, err := fault.ExecuteTraced(g, s, inj, nil, 0, nil, progress); err != nil {
			panic(err)
		}
	}))
	tracer := obs.NewTracer()
	rep.Cases = append(rep.Cases, bench("fault/tracer", untraced.NsOp, func() {
		if _, _, err := fault.ExecuteTraced(g, s, inj, nil, 0, nil, tracer); err != nil {
			panic(err)
		}
	}))
	registry := obs.NewRegistry()
	instrument := obs.Instrument(registry)
	rep.Cases = append(rep.Cases, bench("fault/metrics", untraced.NsOp, func() {
		if _, _, err := fault.ExecuteTraced(g, s, inj, nil, 0, nil, instrument); err != nil {
			panic(err)
		}
	}))

	// Fault-free validator family.
	vUntraced := bench("validate/untraced", 0, func() {
		if _, err := schedule.Run(g, s, schedule.Options{}); err != nil {
			panic(err)
		}
	})
	rep.Cases = append(rep.Cases, vUntraced)
	rep.Cases = append(rep.Cases, bench("validate/metrics", vUntraced.NsOp, func() {
		if _, err := schedule.Run(g, s, schedule.Options{Observer: instrument}); err != nil {
			panic(err)
		}
	}))

	fmt.Printf("%-22s %14s %10s %12s %10s\n", "case", "ns/op", "allocs/op", "bytes/op", "overhead")
	for _, c := range rep.Cases {
		fmt.Printf("%-22s %14d %10d %12d %9.2f%%\n", c.Name, c.NsOp, c.AllocsOp, c.BytesOp, 100*c.OverheadVsUntraced)
	}

	if err := cliutil.WriteRecord(*out, rep); err != nil {
		fmt.Fprintf(os.Stderr, "obsbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}
