// Command planbench measures the implicit O(n) plan encoding against the
// materialised O(n²) schedule and records the comparison in a
// machine-readable perf record (BENCH_plan.json by default).
//
// For every topology in {ring, grid, random} and every size in -sizes it
// builds the minimum-depth spanning tree once, then times three things from
// that tree: constructing the implicit plan (DFS labelling plus the packed
// interval/level/lip arrays), constructing the materialised schedule (the
// full round-by-round builder plus the remap to original ids), and the
// first-round latency of each — the wall time from holding the tree to
// holding round 0's transmissions. It also reports the resident bytes of
// both encodings and their ratio, the headline of the record: the implicit
// plan answers the same queries bit-identically from ~28n bytes while the
// materialised schedule stores Θ(n²) destination ids. Two per-round costs
// of enumerating the whole schedule in order close each row: the closed
// form's random-access RoundAppend, and the implicit.Cursor that carries
// the previous round's state forward.
//
// Sizes in -big run the implicit side only (the materialised schedule at
// n = 10⁶ would be ~8 TB): a seeded random recursive tree is labelled and
// encoded in memory, proving million-vertex construction fits comfortably
// in RAM and stays O(n) in both time and space.
//
// With -smoke the command runs the CI differential gate instead of the
// benchmark: on a seeded random connected graph at n = 4096 every round of
// the implicit plan, read both from the closed form and from a cursor, is
// compared bit-for-bit against the materialised builder, a sample of
// vertex timetables is checked against the materialised VertexView, the
// ≥100x byte-ratio acceptance floor is asserted, and an n = 10⁵ implicit
// plan is constructed and probed. The Makefile runs this under GOMEMLIMIT
// so a space regression in either encoding fails the gate.
//
//	GOMEMLIMIT=2GiB go run ./cmd/planbench -out BENCH_plan.json
//	GOMEMLIMIT=1GiB go run ./cmd/planbench -smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	"multigossip/internal/core"
	"multigossip/internal/graph"
	"multigossip/internal/implicit"
	"multigossip/internal/schedule"
	"multigossip/internal/spantree"
)

type record struct {
	Topology                 string  `json:"topology"`
	N                        int     `json:"n"`
	M                        int     `json:"m"`
	Height                   int     `json:"height"`
	Rounds                   int     `json:"rounds"`
	ImplicitBytes            int64   `json:"implicit_bytes"`
	MaterialisedBytes        int64   `json:"materialised_bytes"`
	BytesRatio               float64 `json:"bytes_ratio"`
	ImplicitBuildNs          int64   `json:"implicit_build_ns"`
	MaterialisedBuildNs      int64   `json:"materialised_build_ns"`
	ImplicitFirstRoundNs     int64   `json:"implicit_first_round_ns"`
	MaterialisedFirstRoundNs int64   `json:"materialised_first_round_ns"`
	RoundAppendNsPerRound    int64   `json:"round_append_ns_per_round"`
	CursorNsPerRound         int64   `json:"cursor_ns_per_round"`
}

type bigRecord struct {
	N              int     `json:"n"`
	Height         int     `json:"height"`
	Rounds         int     `json:"rounds"`
	ImplicitBytes  int64   `json:"implicit_bytes"`
	BytesPerVertex float64 `json:"bytes_per_vertex"`
	BuildNs        int64   `json:"build_ns"`
	FirstRoundNs   int64   `json:"first_round_ns"`
}

type report struct {
	Tool         string      `json:"tool"`
	Benchmark    string      `json:"benchmark"`
	GoMaxProcs   int         `json:"gomaxprocs"`
	NumCPU       int         `json:"num_cpu"`
	GoVersion    string      `json:"go_version"`
	Cases        []record    `json:"cases"`
	ImplicitOnly []bigRecord `json:"implicit_only"`
}

func buildGraph(kind string, n int) *graph.Graph {
	switch kind {
	case "ring":
		return graph.Cycle(n)
	case "grid":
		side := int(math.Sqrt(float64(n)))
		return graph.Grid(side, side)
	case "random":
		rng := rand.New(rand.NewSource(int64(n)))
		return graph.RandomConnected(rng, n, 8/float64(n))
	}
	panic("unknown topology " + kind)
}

// randomRecursiveParents is the -big tree generator: vertex i attaches to a
// uniform earlier vertex, giving expected height Θ(log n) so the schedule
// length stays near the paper's n + r bound with small r.
func randomRecursiveParents(rng *rand.Rand, n int) []int {
	parent := make([]int, n)
	parent[0] = -1
	for i := 1; i < n; i++ {
		parent[i] = rng.Intn(i)
	}
	return parent
}

// materialisedBytes applies the cache accounting to a schedule: the round
// slice headers, the transmission structs, and every destination id.
func materialisedBytes(s *schedule.Schedule) int64 {
	const word = 8
	b := int64(len(s.Rounds)) * 3 * word
	for _, r := range s.Rounds {
		b += int64(len(r)) * 5 * word
		for _, tx := range r {
			b += int64(len(tx.To)) * word
		}
	}
	return b
}

// best times f reps times and returns the fastest run in nanoseconds.
func best(reps int, f func()) int64 {
	fastest := int64(math.MaxInt64)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		if d := time.Since(start).Nanoseconds(); d < fastest {
			fastest = d
		}
	}
	return fastest
}

func materialise(l *spantree.Labeled) *schedule.Schedule {
	return core.RemapToOriginal(core.BuildConcurrentUpDown(l), l)
}

func equalRound(got, want []schedule.Transmission) bool {
	if len(got) == 0 && len(want) == 0 {
		return true
	}
	return reflect.DeepEqual(got, want)
}

func measure(kind string, n, reps int) record {
	g := buildGraph(kind, n)
	tree, err := spantree.MinDepth(g)
	if err != nil {
		panic(err)
	}

	var plan *implicit.Plan
	implicitBuild := best(reps, func() {
		plan = implicit.New(spantree.Label(tree))
	})

	// First-round latency: tree in hand -> round 0's transmissions readable.
	// The materialised side runs before the retained build below, so at most
	// one Θ(n²) schedule is live at a time (ring n = 4096 needs ~2 GB each).
	var buf []schedule.Transmission
	implicitFirst := best(reps, func() {
		p := implicit.New(spantree.Label(tree))
		buf = p.RoundAppend(0, buf[:0])
	})
	var first []schedule.Transmission
	matFirst := best(reps, func() {
		first = materialise(spantree.Label(tree)).Rounds[0]
	})
	var s *schedule.Schedule
	matBuild := best(reps, func() {
		s = nil
		s = materialise(spantree.Label(tree))
	})

	// Spot-check equivalence so the record can never describe two encodings
	// that have drifted apart (the test suite owns the exhaustive check).
	for _, t := range []int{0, plan.Rounds() / 2, plan.Rounds() - 1} {
		buf = plan.RoundAppend(t, buf[:0])
		var want []schedule.Transmission
		if t >= 0 && t < len(s.Rounds) {
			want = s.Rounds[t]
		}
		if !equalRound(buf, want) {
			panic(fmt.Sprintf("planbench: %s n=%d round %d diverges from the materialised schedule", kind, n, t))
		}
	}
	_ = first

	// Steady-state query cost averaged over the whole schedule, from the
	// closed form and from a cursor.
	rounds := plan.Rounds()
	start := time.Now()
	for t := 0; t < rounds; t++ {
		buf = plan.RoundAppend(t, buf[:0])
	}
	perRound := time.Since(start).Nanoseconds() / int64(rounds)
	cur := plan.Cursor()
	start = time.Now()
	for t := 0; t < rounds; t++ {
		buf = cur.RoundAppend(t, buf[:0])
	}
	cursorPerRound := time.Since(start).Nanoseconds() / int64(rounds)
	if !equalRound(buf, s.Rounds[rounds-1]) {
		panic(fmt.Sprintf("planbench: %s n=%d cursor's last round diverges from the materialised schedule", kind, n))
	}

	ib, mb := plan.SizeBytes(), materialisedBytes(s)
	return record{
		Topology:                 kind,
		N:                        g.N(),
		M:                        g.M(),
		Height:                   tree.Height,
		Rounds:                   rounds,
		ImplicitBytes:            ib,
		MaterialisedBytes:        mb,
		BytesRatio:               float64(mb) / float64(ib),
		ImplicitBuildNs:          implicitBuild,
		MaterialisedBuildNs:      matBuild,
		ImplicitFirstRoundNs:     implicitFirst,
		MaterialisedFirstRoundNs: matFirst,
		RoundAppendNsPerRound:    perRound,
		CursorNsPerRound:         cursorPerRound,
	}
}

func measureBig(n int) bigRecord {
	rng := rand.New(rand.NewSource(int64(n)))
	parent := randomRecursiveParents(rng, n)
	var plan *implicit.Plan
	buildNs := best(1, func() {
		plan = implicit.New(spantree.Label(spantree.MustFromParents(parent)))
	})
	var buf []schedule.Transmission
	firstNs := best(1, func() {
		buf = plan.RoundAppend(0, buf[:0])
	})
	if len(buf) == 0 {
		panic(fmt.Sprintf("planbench: empty round 0 at n=%d", n))
	}
	return bigRecord{
		N:              plan.N(),
		Height:         plan.Height(),
		Rounds:         plan.Rounds(),
		ImplicitBytes:  plan.SizeBytes(),
		BytesPerVertex: float64(plan.SizeBytes()) / float64(plan.N()),
		BuildNs:        buildNs,
		FirstRoundNs:   firstNs,
	}
}

// smoke is the CI gate: exhaustive round-by-round differential at n = 4096,
// a timetable sample, the 100x byte-ratio floor, and a 10⁵-vertex implicit
// construction. Returns an error instead of writing a record.
func smoke() error {
	const n = 4096
	rng := rand.New(rand.NewSource(n))
	g := graph.RandomConnected(rng, n, 8.0/n)
	tree, err := spantree.MinDepth(g)
	if err != nil {
		return err
	}
	l := spantree.Label(tree)
	plan := implicit.New(l)
	s := materialise(l)
	if plan.Rounds() != s.Time() {
		return fmt.Errorf("rounds %d != materialised %d", plan.Rounds(), s.Time())
	}
	var buf, cbuf []schedule.Transmission
	cur := plan.Cursor()
	for t := 0; t <= plan.Rounds(); t++ {
		buf = plan.RoundAppend(t, buf[:0])
		cbuf = cur.RoundAppend(t, cbuf[:0])
		var want []schedule.Transmission
		if t < len(s.Rounds) {
			want = s.Rounds[t]
		}
		if !equalRound(buf, want) {
			return fmt.Errorf("round %d diverges from the materialised schedule", t)
		}
		if !equalRound(cbuf, buf) {
			return fmt.Errorf("cursor round %d diverges from the closed form", t)
		}
	}
	origTree := spantree.MustFromParents(treeParentsInOriginalIDs(l))
	for i := 0; i < 8; i++ {
		v := rng.Intn(n)
		if !reflect.DeepEqual(plan.Timetable(v), schedule.VertexView(s, origTree, v)) {
			return fmt.Errorf("timetable of vertex %d diverges from the materialised view", v)
		}
	}
	ib, mb := plan.SizeBytes(), materialisedBytes(s)
	if ratio := mb / ib; ratio < 100 {
		return fmt.Errorf("materialised/implicit byte ratio %dx fell below the 100x floor (implicit %d, materialised %d)", ratio, ib, mb)
	}
	fmt.Printf("plan-smoke: n=%d closed-form and cursor differential ok over %d rounds; implicit %d B vs materialised %d B (%.0fx)\n",
		n, plan.Rounds()+1, ib, mb, float64(mb)/float64(ib))

	const big = 100_000
	r := measureBig(big)
	fmt.Printf("plan-smoke: n=%d implicit construction ok in %s (%d B, %.1f B/vertex, %d rounds)\n",
		big, time.Duration(r.BuildNs), r.ImplicitBytes, r.BytesPerVertex, r.Rounds)
	return nil
}

// treeParentsInOriginalIDs rebuilds the spanning tree's parent array in
// original vertex ids from the labelling, for VertexView.
func treeParentsInOriginalIDs(l *spantree.Labeled) []int {
	parent := make([]int, l.N())
	for v := range parent {
		c := l.LabelOf[v]
		if p := l.T.Parent[c]; p == -1 {
			parent[v] = -1
		} else {
			parent[v] = l.VertexOf[p]
		}
	}
	return parent
}

func parseSizes(flagName, val string) []int {
	var ns []int
	for _, f := range strings.Split(val, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "planbench: bad -%s value %q\n", flagName, f)
			os.Exit(2)
		}
		ns = append(ns, n)
	}
	return ns
}

func main() {
	out := flag.String("out", "BENCH_plan.json", "output path for the perf record")
	sizes := flag.String("sizes", "1024,4096", "comma-separated vertex counts for the implicit-vs-materialised comparison")
	big := flag.String("big", "100000,1000000", "comma-separated vertex counts for implicit-only construction runs (empty to skip)")
	smokeMode := flag.Bool("smoke", false, "run the CI differential gate instead of the benchmark")
	flag.Parse()

	if *smokeMode {
		if err := smoke(); err != nil {
			fmt.Fprintf(os.Stderr, "planbench: smoke: %v\n", err)
			os.Exit(1)
		}
		return
	}

	rep := report{
		Tool:       "cmd/planbench",
		Benchmark:  "implicit O(n) plan encoding vs materialised O(n²) schedule: bytes, construction, first-round latency, per-round enumeration (closed form vs cursor)",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
	fmt.Printf("%-8s %7s %7s %12s %14s %8s %13s %13s %12s %14s %12s %10s\n",
		"topology", "n", "rounds", "impl bytes", "mat bytes", "ratio", "impl build", "mat build", "impl rd0", "mat rd0", "closed/rd", "cursor/rd")
	for _, kind := range []string{"ring", "grid", "random"} {
		for _, n := range parseSizes("sizes", *sizes) {
			reps := 3
			if n > 2048 {
				reps = 1
			}
			r := measure(kind, n, reps)
			rep.Cases = append(rep.Cases, r)
			fmt.Printf("%-8s %7d %7d %12d %14d %7.0fx %13d %13d %12d %14d %12d %10d\n",
				r.Topology, r.N, r.Rounds, r.ImplicitBytes, r.MaterialisedBytes, r.BytesRatio,
				r.ImplicitBuildNs, r.MaterialisedBuildNs, r.ImplicitFirstRoundNs, r.MaterialisedFirstRoundNs,
				r.RoundAppendNsPerRound, r.CursorNsPerRound)
		}
	}
	for _, n := range parseSizes("big", *big) {
		r := measureBig(n)
		rep.ImplicitOnly = append(rep.ImplicitOnly, r)
		fmt.Printf("implicit-only n=%-8d %12d B (%.1f B/vertex)  build %-12s first round %s\n",
			r.N, r.ImplicitBytes, r.BytesPerVertex, time.Duration(r.BuildNs), time.Duration(r.FirstRoundNs))
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		panic(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "planbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}
