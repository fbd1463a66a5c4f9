package main

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestTailLevel(t *testing.T) {
	cases := []struct{ n, level, beyond int }{
		{2400, 9900, 24},  // 99% of 2400 is rank 2376
		{10000, 9990, 10}, // exactly ten beyond still qualifies
		{9999, 9900, 99},  // nine beyond p99.9 does not
		{150, 9000, 15},
		{20, 5000, 10},
		{10, 10000, 0}, // too few samples for any percentile: the maximum
	}
	for _, c := range cases {
		level := tailLevel(c.n)
		if level != c.level {
			t.Errorf("tailLevel(%d) = %d, want %d", c.n, level, c.level)
			continue
		}
		if beyond := c.n - rank(level, c.n); beyond != c.beyond {
			t.Errorf("n=%d: %d samples beyond p%v, want %d", c.n, beyond, float64(level)/100, c.beyond)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200, 199, ..., 1: order must not matter
	}
	s := summarize(xs)
	if s.N != 200 || s.P50MS != 100 || s.TailLevel != 95 || s.TailMS != 190 || s.Beyond != 10 {
		t.Errorf("summarize(1..200) = %+v, want p50 = 100 and p95 = 190 with 10 beyond", s)
	}
}

// TestOpenLoopAccounting drives the timing arithmetic through a stall: one
// connection, requests due every 5 ms, the first taking 12 ms. The requests
// queued behind it are charged the wait from their due time, and the
// generator's lateness says how far behind schedule it sent them.
func TestOpenLoopAccounting(t *testing.T) {
	start := time.Unix(1000, 0)
	service := []time.Duration{12 * time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond}
	var recs []timing
	free := start
	for i, d := range service {
		due := dueAt(start, i, 200)
		if want := start.Add(time.Duration(i) * 5 * time.Millisecond); !due.Equal(want) {
			t.Fatalf("request %d due at %v, want %v", i, due.Sub(start), want.Sub(start))
		}
		began := maxTime(due, free)
		free = began.Add(d)
		recs = append(recs, timing{due: due, start: began, end: free})
	}
	wantLatency := []time.Duration{12, 8, 4, 1} // ms, from the due time
	wantLate := []time.Duration{0, 7, 3, 0}
	for i, r := range recs {
		if got := r.latency(); got != wantLatency[i]*time.Millisecond {
			t.Errorf("request %d latency %v, want %vms", i, got, wantLatency[i])
		}
		if got := r.late(); got != wantLate[i]*time.Millisecond {
			t.Errorf("request %d lateness %v, want %vms", i, got, wantLate[i])
		}
	}
	// A request a connection took before its due time is not late.
	if early := (timing{due: start, start: start.Add(-time.Millisecond)}); early.late() != 0 {
		t.Errorf("early request lateness %v, want 0", early.late())
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	spans := []span{
		{Name: "op", Op: 0, Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "a", Op: 0, Parent: 0, Start: ms(10), End: ms(30)},
		{Name: "b", Op: 0, Parent: 0, Start: ms(20), End: ms(50)},     // overlaps a
		{Name: "c", Op: 0, Parent: 0, Start: ms(90), End: ms(120)},    // runs past the root
		{Name: "a", Op: 0, Parent: 2, Start: ms(25), End: ms(35)},     // grandchild, inside b
		{Name: "op", Op: 1, Parent: -1, Start: ms(200), End: ms(210)}, // no children
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"op": ms(50) + ms(10), // 100 - |[10,50] ∪ [90,100]| plus the childless op
		"a":  ms(20) + ms(10),
		"b":  ms(30) - ms(10),
		"c":  ms(30),
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, self[name], w)
		}
	}
	// Op 0 is half covered by layer spans, op 1 not at all.
	if got := uncoveredShare(spans); got != 0.75 {
		t.Errorf("uncovered share = %v, want 0.75", got)
	}
}

func TestReconcile(t *testing.T) {
	published := map[string]bool{"A": true}
	// A flap away from A publishes B; landing back on A is a lookup hit;
	// C is new; the second flap back is another hit.
	lookups, inserts := mutationCacheEffects(published, []string{"B", "A", "C", "A", "B"})
	if lookups != 3 || inserts != 2 {
		t.Fatalf("lookups, inserts = %d, %d, want 3, 2", lookups, inserts)
	}
	sources := map[string]int{"hit": 10, "miss": 3, "disk": 1}
	ok := cacheDelta{hits: 13, misses: 3, disk: 1, entries: 3 + 1 + 2 - 1, evictions: 1}
	if err := reconcile(sources, lookups, inserts, ok); err != nil {
		t.Errorf("matching counters rejected: %v", err)
	}
	bad := ok
	bad.hits, bad.coalesced = 12, 1
	err := reconcile(sources, lookups, inserts, bad)
	if err == nil || !strings.Contains(err.Error(), "hits: server 12, client 13") || !strings.Contains(err.Error(), "coalesced") {
		t.Errorf("mismatch not reported per counter: %v", err)
	}
}

func TestParseMetrics(t *testing.T) {
	text := strings.Join([]string{
		"# TYPE plancache_hits_total counter",
		"plancache_hits_total 42",
		`gossipd_request_seconds_bucket{le="0.001"} 7`,
		"gossipd_request_seconds_sum 0.125",
		"gossipd_request_seconds_count 9",
	}, "\n")
	m := parseMetrics(text)
	if m["plancache_hits_total"] != 42 || m["gossipd_request_seconds_sum"] != 0.125 || m["gossipd_request_seconds_count"] != 9 || len(m) != 3 {
		t.Errorf("parseMetrics = %v", m)
	}
}

// TestGenerators checks that every generated input is a connected network
// of the intended size, so no operation fails on a malformed input.
func TestGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		t     topo
		edges int
	}{
		{ring(16), 16},
		{grid(4, 5), 31},
		{torus(4, 5), 40},
		{randomTree(rng, 300), 299},
		{randomGraph(rng, 300, 6), 900},
		{torus(4, 5).relabel(rng), 40},
	}
	for _, c := range cases {
		nw := c.t.network()
		if !nw.Connected() || nw.Links() != c.edges || nw.Processors() != c.t.n {
			t.Errorf("%s: n=%d links=%d connected=%v, want n=%d links=%d connected",
				c.t.family, nw.Processors(), nw.Links(), nw.Connected(), c.t.n, c.edges)
		}
	}
	a, b := randomGraph(rand.New(rand.NewSource(7)), 200, 4), randomGraph(rand.New(rand.NewSource(7)), 200, 4)
	if a.network().Fingerprint() != b.network().Fingerprint() {
		t.Error("the same seed generated different topologies")
	}
}

func TestSampleRSS(t *testing.T) {
	s := sampleRSS("/proc/self/status")
	time.Sleep(3 * rssInterval)
	if peak := s.peakMB(); peak <= 0 {
		t.Errorf("peak resident size %v MiB, want > 0", peak)
	}
	if got := residentMB("/nonexistent/status"); got != 0 {
		t.Errorf("unreadable status file gave %v, want 0", got)
	}
}

// TestRadius checks the breadth-first radius against the closed forms the
// generators give, and on small graphs whose radius is known.
func TestRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []topo{ring(15), ring(16), grid(5, 8), grid(6, 7), torus(5, 8), torus(6, 7), ring(9).relabel(rng)} {
		if got := c.bfsRadius(); got != c.radius {
			t.Errorf("%s n=%d: breadth-first radius %d, closed form %d", c.family, c.n, got, c.radius)
		}
	}
	star := topo{family: "star", n: 6, radius: -1, edges: [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}}
	path := topo{family: "path", n: 6, radius: -1, edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}}
	for _, c := range []struct {
		t    topo
		want int
	}{{star, 1}, {path, 3}} {
		if got := c.t.bfsRadius(); got != c.want {
			t.Errorf("%s: radius %d, want %d", c.t.family, got, c.want)
		}
	}
	if r := randomTree(rng, 50); r.radius != -1 || r.bfsRadius() < 1 {
		t.Errorf("random tree: radius field %d, computed %d", r.radius, r.bfsRadius())
	}
}
