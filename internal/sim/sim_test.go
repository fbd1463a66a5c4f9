package sim

import (
	"math/rand"
	"strings"
	"testing"

	"multigossip/internal/core"
	"multigossip/internal/graph"
	"multigossip/internal/implicit"
	"multigossip/internal/obs"
	"multigossip/internal/schedule"
	"multigossip/internal/spantree"
)

func labeledFor(t *testing.T, g *graph.Graph) *spantree.Labeled {
	t.Helper()
	tr, err := spantree.MinDepth(g)
	if err != nil {
		t.Fatal(err)
	}
	return spantree.Label(tr)
}

// record runs the sync engine with a schedule-building sink and returns
// the canonical-space schedule it produced.
func record(t *testing.T, topo implicit.Topo, o Options) (*schedule.Schedule, Result) {
	t.Helper()
	s := schedule.New(topo.N)
	o.Sink = func(round int, txs []schedule.Transmission) error {
		for _, tx := range txs {
			s.AddSend(round, tx.Msg, tx.From, tx.To...)
		}
		return nil
	}
	res, err := Run(topo, o)
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	return s, res
}

// batteryGraphs is the differential battery: the named topologies plus
// seeded random trees and graphs.
func batteryGraphs() []*graph.Graph {
	rng := rand.New(rand.NewSource(9))
	return []*graph.Graph{
		graph.Path(2), graph.Path(9), graph.Star(8), graph.Cycle(10),
		graph.Fig4(), graph.KAryTree(15, 2), graph.KAryTree(40, 3),
		graph.Petersen(),
		graph.RandomTree(rng, 40), graph.RandomTree(rng, 97),
		graph.RandomConnected(rng, 25, 0.15), graph.RandomConnected(rng, 60, 0.08),
	}
}

// TestSimMatchesOfflineAndOnline is the differential gate: the online
// protocol's sync-mode run must be transmission-for-transmission identical
// to the offline constructor across shard counts, and complete at exactly
// n + r.
func TestSimMatchesOfflineAndOnline(t *testing.T) {
	for _, g := range batteryGraphs() {
		l := labeledFor(t, g)
		p := implicit.New(l)
		offline := core.BuildConcurrentUpDown(l)
		offline.Normalize()
		for _, shards := range []int{1, 3, 8} {
			got, res := record(t, p.Topo(), Options{Shards: shards})
			got.Normalize()
			if !got.Equal(offline) {
				t.Fatalf("%v shards=%d: sim differs from offline schedule\nsim:\n%s\noffline:\n%s",
					g, shards, got, offline)
			}
			if res.CompleteAt != p.Rounds() {
				t.Fatalf("%v shards=%d: completed at %d, want n+r = %d", g, shards, res.CompleteAt, p.Rounds())
			}
			if res.Deliveries != int64(p.N())*int64(p.N()-1) {
				t.Fatalf("%v shards=%d: %d deliveries, want n(n-1) = %d",
					g, shards, res.Deliveries, p.N()*(p.N()-1))
			}
			if _, err := schedule.CheckGossip(l.T.Graph(), got); err != nil {
				t.Fatalf("%v shards=%d: %v", g, shards, err)
			}
		}
	}
}

func TestSimExhaustiveSmallTrees(t *testing.T) {
	maxN := 6
	if testing.Short() {
		maxN = 5
	}
	for n := 2; n <= maxN; n++ {
		graph.AllTrees(n, func(g *graph.Graph) bool {
			tr, err := spantree.BFSTree(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			l := spantree.Label(tr)
			want := core.BuildConcurrentUpDown(l)
			want.Normalize()
			got, _ := record(t, implicit.New(l).Topo(), Options{Shards: 2})
			got.Normalize()
			if !got.Equal(want) {
				t.Fatalf("n=%d %v: sim differs from offline", n, g)
			}
			return true
		})
	}
}

// TestSimFoldEquivalence asserts leaf fan-out folding is behaviour
// preserving: identical completion round and delivery counts, with a
// nonzero folded share on high-fanout topologies.
func TestSimFoldEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, g := range []*graph.Graph{
		graph.Star(50), graph.KAryTree(85, 4), graph.Path(12),
		graph.RandomTree(rng, 64),
	} {
		l := labeledFor(t, g)
		topo := implicit.New(l).Topo()
		off, err := Run(topo, Options{Fold: FoldOff, Shards: 2})
		if err != nil {
			t.Fatalf("%v fold-off: %v", g, err)
		}
		on, err := Run(topo, Options{Fold: FoldAuto, Shards: 2})
		if err != nil {
			t.Fatalf("%v fold-on: %v", g, err)
		}
		if off.CompleteAt != on.CompleteAt || off.Deliveries != on.Deliveries {
			t.Fatalf("%v: fold changed the run: off=%+v on=%+v", g, off, on)
		}
		if off.Folded != 0 || !on.Fold {
			t.Fatalf("%v: fold flags wrong: off=%+v on=%+v", g, off, on)
		}
	}
	// A star is one multicasting hub over leaves: nearly everything folds.
	l := labeledFor(t, graph.Star(50))
	on, err := Run(implicit.New(l).Topo(), Options{Fold: FoldAuto})
	if err != nil {
		t.Fatal(err)
	}
	if on.Folded == 0 || on.Folded < on.Deliveries/2 {
		t.Fatalf("star: expected a dominant folded share, got %+v", on)
	}
	// FoldAuto with no consumers folds; with a sink it must not.
	auto, err := Run(implicit.New(l).Topo(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !auto.Fold {
		t.Fatalf("FoldAuto without consumers should fold: %+v", auto)
	}
	sunk, err := Run(implicit.New(l).Topo(), Options{
		Sink: func(int, []schedule.Transmission) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if sunk.Fold {
		t.Fatalf("FoldAuto with a sink must not fold: %+v", sunk)
	}
}

func TestSimTrivial(t *testing.T) {
	l := spantree.Label(spantree.MustFromParents([]int{-1}))
	res, err := Run(implicit.New(l).Topo(), Options{})
	if err != nil || res.CompleteAt != 0 || res.Deliveries != 0 {
		t.Fatalf("n=1: res=%+v err=%v", res, err)
	}
	res, err = Run(implicit.New(l).Topo(), Options{Async: true})
	if err != nil || res.CompleteAt != 0 {
		t.Fatalf("n=1 async: res=%+v err=%v", res, err)
	}
	res, err = RunSimple(implicit.New(l).Topo(), nil)
	if err != nil || res.CompleteAt != 0 || res.Deliveries != 0 {
		t.Fatalf("n=1 Simple: res=%+v err=%v", res, err)
	}
}

// multiset accumulates (msg, dest) delivery pairs from a sink.
func multisetSink(counts map[[2]int]int) RoundSink {
	return func(_ int, txs []schedule.Transmission) error {
		for _, tx := range txs {
			for _, d := range tx.To {
				counts[[2]int{tx.Msg, d}]++
			}
		}
		return nil
	}
}

// TestSimAsyncMultisetAndBound: async mode must deliver exactly the sync
// message multiset — every (msg, dest) pair once — and complete within
// n + 2r + maxLatency·height under every latency model.
func TestSimAsyncMultisetAndBound(t *testing.T) {
	// tight: the ISSUE's n + 2r + maxLat·h bound, which holds when links
	// are mostly fast (its maxLat·h term models one slow chain). A
	// deterministic all-links-slow model pays pipeline fill of
	// ~maxLat per hop in both directions, so it gets the general sound
	// bound n + 2r + 2·maxLat·r instead (see FuzzSimAsync).
	models := []struct {
		name  string
		lat   Latency
		tight bool
	}{
		{"det1", Deterministic(1), true},
		{"det3", Deterministic(3), false},
		{"uniform4", Uniform(4, 0xfeed), true},
		{"heavytail8", HeavyTail(8, 0xbeef), true},
	}
	for _, g := range batteryGraphs() {
		l := labeledFor(t, g)
		p := implicit.New(l)
		n, r := p.N(), p.Height()
		want := make(map[[2]int]int)
		if _, err := Run(p.Topo(), Options{Sink: multisetSink(want)}); err != nil {
			t.Fatalf("%v sync: %v", g, err)
		}
		for _, m := range models {
			got := make(map[[2]int]int)
			res, err := Run(p.Topo(), Options{
				Async: true, Latency: m.lat, Sink: multisetSink(got), CheckDupes: true,
			})
			if err != nil {
				t.Fatalf("%v %s: %v", g, m.name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v %s: %d delivery pairs, want %d", g, m.name, len(got), len(want))
			}
			for k, c := range want {
				if got[k] != c {
					t.Fatalf("%v %s: pair %v delivered %d times, want %d", g, m.name, k, got[k], c)
				}
			}
			bound := n + 2*r + 2*int(m.lat.Max())*r
			if m.tight {
				bound = n + 2*r + int(m.lat.Max())*r
			}
			if res.CompleteAt > bound {
				t.Fatalf("%v %s: async completed at %d, bound = %d", g, m.name, res.CompleteAt, bound)
			}
		}
	}
}

// TestSimAsyncDeterministic: identical (topology, latency, seed) runs are
// bit-identical.
func TestSimAsyncDeterministic(t *testing.T) {
	l := labeledFor(t, graph.RandomTree(rand.New(rand.NewSource(5)), 80))
	topo := implicit.New(l).Topo()
	a, err := Run(topo, Options{Async: true, Latency: HeavyTail(6, 42)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(topo, Options{Async: true, Latency: HeavyTail(6, 42)})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("async runs diverged: %+v vs %+v", a, b)
	}
	c, err := Run(topo, Options{Async: true, Latency: HeavyTail(6, 43)})
	if err != nil {
		t.Fatal(err)
	}
	if c.CompleteAt == a.CompleteAt && c.Sends == a.Sends && c.Events == a.Events {
		t.Logf("different seeds coincided (possible but unlikely): %+v", c)
	}
}

// deliveryRecorder captures observer Delivery events for comparison.
type deliveryRecorder struct {
	obs.Nop
	mu     chan struct{}
	events map[[3]int]int // (from, to, msg) -> count
	rounds int
}

func newDeliveryRecorder() *deliveryRecorder {
	r := &deliveryRecorder{mu: make(chan struct{}, 1), events: make(map[[3]int]int)}
	r.mu <- struct{}{}
	return r
}

func (r *deliveryRecorder) Delivery(_, from, to, msg int, o obs.Outcome) {
	<-r.mu
	r.events[[3]int{from, to, msg}]++
	r.mu <- struct{}{}
}

func (r *deliveryRecorder) EndRound(int, obs.RoundStats) { r.rounds++ }

// TestSimObserverOriginalIDs: observer events must arrive in the
// network's original vertex ids — the obsapi contract — matching the
// remapped offline schedule's deliveries exactly.
func TestSimObserverOriginalIDs(t *testing.T) {
	g := graph.Petersen()
	l := labeledFor(t, g)
	p := implicit.New(l)
	rec := newDeliveryRecorder()
	res, err := Run(p.Topo(), Options{Observer: rec, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[[3]int]int)
	buf := []schedule.Transmission{}
	for round := 0; round < p.Rounds(); round++ {
		buf = p.RoundAppend(round, buf[:0])
		for _, tx := range buf {
			for _, d := range tx.To {
				want[[3]int{tx.From, d, tx.Msg}]++
			}
		}
	}
	if len(rec.events) != len(want) {
		t.Fatalf("observer saw %d distinct deliveries, want %d", len(rec.events), len(want))
	}
	for k, c := range want {
		if rec.events[k] != c {
			t.Fatalf("delivery %v seen %d times, want %d", k, rec.events[k], c)
		}
	}
	if rec.rounds != res.CompleteAt {
		t.Fatalf("observer saw %d rounds, run completed at %d", rec.rounds, res.CompleteAt)
	}
}

// TestSimProgressObserver wires the stock ProgressCollector through a
// sync and an async run: the coverage curve must reach totality.
func TestSimProgressObserver(t *testing.T) {
	l := labeledFor(t, graph.KAryTree(31, 2))
	p := implicit.New(l)
	n := p.N()
	for _, async := range []bool{false, true} {
		pc := obs.NewProgressCollector(n, n*n)
		if _, err := Run(p.Topo(), Options{Observer: pc, Async: async}); err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
		curve := pc.Curve()
		if len(curve) == 0 {
			t.Fatalf("async=%v: no rounds collected", async)
		}
		last := curve[len(curve)-1]
		if last.Held != n*n {
			t.Fatalf("async=%v: final coverage %d, want %d", async, last.Held, n*n)
		}
	}
}

// brokenTopo builds a hand-crafted inconsistent topology to drive the
// engine's fail-fast diagnostics. Base: path(3)-like shapes.
func identityMaps(n int32) ([]int32, []int32) {
	a := make([]int32, n)
	for i := range a {
		a[i] = int32(i)
	}
	b := append([]int32(nil), a...)
	return a, b
}

func TestSimFailFastDiagnostics(t *testing.T) {
	t.Run("livelock", func(t *testing.T) {
		// A "root" whose interval claims [0,2] but whose child list is
		// empty: the leaves' messages reach it, nothing flows back, and
		// every scheduled send runs dry — the livelock diagnostic must
		// fire, naming the starved vertices.
		vo, lo := identityMaps(3)
		topo := implicit.Topo{
			N: 3, Height: 1,
			Hi: []int32{2, 1, 2}, Level: []int32{0, 1, 1},
			Parent: []int32{-1, 0, 0}, ChildStart: []int32{0, 0, 0, 0},
			Children: nil, LipBits: []uint64{1 << 1}, VertexOf: vo, LabelOf: lo,
		}
		_, err := Run(topo, Options{})
		if err == nil || !strings.Contains(err.Error(), "livelock") {
			t.Fatalf("want livelock diagnostic, got %v", err)
		}
		if !strings.Contains(err.Error(), "incomplete") {
			t.Fatalf("livelock diagnostic must name stuck vertices: %v", err)
		}
	})
	t.Run("receive-conflict", func(t *testing.T) {
		// Two lip children: both send their message to the root at t=0,
		// a double receive at t=1.
		vo, lo := identityMaps(3)
		topo := implicit.Topo{
			N: 3, Height: 1,
			Hi: []int32{2, 1, 2}, Level: []int32{0, 1, 1},
			Parent: []int32{-1, 0, 0}, ChildStart: []int32{0, 2, 2, 2},
			Children: []int32{1, 2}, LipBits: []uint64{1<<1 | 1<<2}, VertexOf: vo, LabelOf: lo,
		}
		_, err := Run(topo, Options{})
		if err == nil || !strings.Contains(err.Error(), "two messages") {
			t.Fatalf("want receive-conflict diagnostic, got %v", err)
		}
	})
	t.Run("missing-l-message", func(t *testing.T) {
		// The first child exists but never lips (w bit cleared, and as a
		// "leaf" with a window before time zero it never sends at all):
		// the root's l-slot must fail loudly.
		vo, lo := identityMaps(2)
		topo := implicit.Topo{
			N: 2, Height: 1,
			Hi: []int32{1, 1}, Level: []int32{0, 9},
			Parent: []int32{-1, 0}, ChildStart: []int32{0, 1, 1},
			Children: []int32{1}, LipBits: []uint64{0}, VertexOf: vo, LabelOf: lo,
		}
		_, err := Run(topo, Options{})
		if err == nil || !strings.Contains(err.Error(), "l-message") {
			t.Fatalf("want missing-l diagnostic, got %v", err)
		}
	})
	t.Run("round-cap", func(t *testing.T) {
		l := labeledFor(t, graph.Path(9))
		_, err := Run(implicit.New(l).Topo(), Options{MaxRounds: 3})
		if err == nil || !strings.Contains(err.Error(), "exceeded") {
			t.Fatalf("want round-cap diagnostic, got %v", err)
		}
	})
}

func TestSimOptionValidation(t *testing.T) {
	l := labeledFor(t, graph.Path(4))
	topo := implicit.New(l).Topo()
	if _, err := Run(topo, Options{Async: true, CheckDupes: true, Latency: badLatency{}}); err == nil {
		t.Fatal("out-of-range latency model must be rejected")
	}
	bigN := labeledFor(t, graph.Path(2))
	bt := implicit.New(bigN).Topo()
	bt.N = 5000
	if _, err := Run(bt, Options{Async: true, CheckDupes: true}); err == nil {
		t.Fatal("CheckDupes above the testing size limit must be rejected")
	}
}

type badLatency struct{}

func (badLatency) Link(parent, child int32) int32 { return 0 }
func (badLatency) Max() int32                     { return 0 }

func TestSimSinkErrorAborts(t *testing.T) {
	l := labeledFor(t, graph.Path(6))
	topo := implicit.New(l).Topo()
	boom := func(int, []schedule.Transmission) error {
		return errSink
	}
	if _, err := Run(topo, Options{Sink: boom}); err == nil {
		t.Fatal("sync sink error must abort the run")
	}
	if _, err := Run(topo, Options{Async: true, Sink: boom}); err == nil {
		t.Fatal("async sink error must abort the run")
	}
	if _, err := RunSimple(topo, boom); err == nil {
		t.Fatal("Simple sink error must abort the run")
	}
}

var errSink = &sinkErr{}

type sinkErr struct{}

func (*sinkErr) Error() string { return "sink says no" }

func TestLatencyModels(t *testing.T) {
	for _, lat := range []Latency{Deterministic(0), Deterministic(5), Uniform(4, 7), Uniform(0, 7), HeavyTail(8, 1), HeavyTail(0, 1)} {
		max := lat.Max()
		if max < 1 {
			t.Fatalf("%T: Max() = %d", lat, max)
		}
		for p := int32(0); p < 40; p++ {
			l := lat.Link(p, p+1)
			if l < 1 || l > max {
				t.Fatalf("%T: Link(%d,%d) = %d outside [1,%d]", lat, p, p+1, l, max)
			}
			if l2 := lat.Link(p, p+1); l2 != l {
				t.Fatalf("%T: Link not deterministic: %d then %d", lat, l, l2)
			}
		}
	}
	// Heavy tail really is heavy: over many links, most are 1 but the
	// tail reaches past the median.
	ht := HeavyTail(16, 99)
	ones, big := 0, 0
	for p := int32(0); p < 1000; p++ {
		switch l := ht.Link(p, 2*p+1); {
		case l == 1:
			ones++
		case l >= 8:
			big++
		}
	}
	if ones < 400 || big == 0 {
		t.Fatalf("heavy tail shape off: %d ones, %d >= 8 of 1000", ones, big)
	}
}

// TestSimAsyncFailFastDiagnostics covers the async engine's two
// terminal diagnostics: the tick cap (with the stuck-vertex summary
// attached) and a provable livelock on a topology where no message can
// flow at all.
func TestSimAsyncFailFastDiagnostics(t *testing.T) {
	t.Run("tick-cap", func(t *testing.T) {
		l := labeledFor(t, graph.Path(9))
		_, err := Run(implicit.New(l).Topo(), Options{Async: true, MaxRounds: 2})
		if err == nil || !strings.Contains(err.Error(), "exceeded") {
			t.Fatalf("want tick-cap diagnostic, got %v", err)
		}
		if !strings.Contains(err.Error(), "incomplete") {
			t.Fatalf("tick-cap diagnostic must summarise stuck vertices: %v", err)
		}
	})
	t.Run("livelock", func(t *testing.T) {
		// Two disconnected "roots": every seed transmission has zero
		// destinations, the calendar drains instantly, and the engine
		// must report livelock rather than spin to the cap.
		vo, lo := identityMaps(2)
		topo := implicit.Topo{
			N: 2, Height: 0,
			Hi: []int32{0, 1}, Level: []int32{0, 0},
			Parent: []int32{-1, -1}, ChildStart: []int32{0, 0, 0},
			Children: nil, LipBits: []uint64{0}, VertexOf: vo, LabelOf: lo,
		}
		_, err := Run(topo, Options{Async: true})
		if err == nil || !strings.Contains(err.Error(), "livelock") {
			t.Fatalf("want async livelock diagnostic, got %v", err)
		}
		if !strings.Contains(err.Error(), "incomplete") {
			t.Fatalf("async livelock diagnostic must summarise stuck vertices: %v", err)
		}
	})
}
