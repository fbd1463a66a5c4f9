package multigossip

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	nw := Ring(8)
	plan, err := nw.PlanGossip()
	if err != nil {
		t.Fatal(err)
	}
	if want := 8 + nw.Radius(); plan.Rounds() != want {
		t.Fatalf("Rounds = %d, want %d", plan.Rounds(), want)
	}
	if err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
	if plan.Radius() != 4 {
		t.Fatalf("Radius = %d, want 4", plan.Radius())
	}
}

func TestNetworkBuilder(t *testing.T) {
	nw := NewNetwork(4)
	if nw.Connected() {
		t.Fatal("edgeless network reported connected")
	}
	nw.AddLink(0, 1)
	nw.AddLink(1, 2)
	nw.AddLink(2, 3)
	nw.AddLink(0, 1) // duplicate
	if !nw.HasLink(1, 0) || nw.Links() != 3 || nw.Processors() != 4 {
		t.Fatalf("builder state wrong: links=%d processors=%d", nw.Links(), nw.Processors())
	}
	if !nw.Connected() || nw.Diameter() != 3 || nw.Radius() != 2 {
		t.Fatalf("metrics wrong: diameter=%d radius=%d", nw.Diameter(), nw.Radius())
	}
	if nw.LowerBound() != 3 {
		t.Fatalf("LowerBound = %d, want 3", nw.LowerBound())
	}
	if !strings.Contains(nw.DOT("N"), "0 -- 1;") {
		t.Fatal("DOT output missing edge")
	}
}

func TestPlanGossipDisconnected(t *testing.T) {
	if _, err := NewNetwork(3).PlanGossip(); err == nil {
		t.Fatal("accepted disconnected network")
	}
}

func TestPlanGossipUnknownAlgorithm(t *testing.T) {
	if _, err := Ring(4).PlanGossip(WithAlgorithm(Algorithm(99))); err == nil {
		t.Fatal("accepted unknown algorithm")
	}
}

func TestSimpleAlgorithmOption(t *testing.T) {
	nw := Line(9)
	plan, err := nw.PlanGossip(WithAlgorithm(Simple))
	if err != nil {
		t.Fatal(err)
	}
	n, r := 9, nw.Radius()
	if want := 2*n + r - 3; plan.Rounds() != want {
		t.Fatalf("Simple rounds = %d, want %d", plan.Rounds(), want)
	}
	if err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanAccessors(t *testing.T) {
	plan, err := Fig4Network().PlanGossip()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Rounds() != 19 {
		t.Fatalf("Fig4 rounds = %d, want 19", plan.Rounds())
	}
	round0 := plan.Round(0)
	if len(round0) == 0 {
		t.Fatal("round 0 empty")
	}
	for _, tx := range round0 {
		if len(tx.To) == 0 {
			t.Fatal("transmission without destinations")
		}
	}
	tt := plan.TimetableOf(0)
	if !strings.Contains(tt, "Send to Children") {
		t.Fatalf("timetable malformed:\n%s", tt)
	}
	tree := plan.TreeString()
	if !strings.Contains(tree, "[msg 0, level 0]") {
		t.Fatalf("tree rendering malformed:\n%s", tree)
	}
	if !strings.Contains(plan.Stats(), "time=19") {
		t.Fatalf("stats malformed: %s", plan.Stats())
	}
}

func TestExecuteDistributed(t *testing.T) {
	for _, algo := range []Algorithm{ConcurrentUpDown, Simple} {
		plan, err := Mesh(4, 4).PlanGossip(WithAlgorithm(algo))
		if err != nil {
			t.Fatal(err)
		}
		rounds, err := plan.ExecuteDistributed()
		if err != nil {
			t.Fatalf("algo %d: %v", int(algo), err)
		}
		if rounds != plan.Rounds() {
			t.Fatalf("algo %d: distributed %d rounds, offline %d", int(algo), rounds, plan.Rounds())
		}
	}
}

// TestExecuteDistributedTopologies runs both online protocols on a ring, a
// star and a seeded random network, and checks the other algorithms are
// refused.
func TestExecuteDistributedTopologies(t *testing.T) {
	for name, nw := range map[string]*Network{
		"ring":   Ring(11),
		"star":   Star(9),
		"random": RandomNetwork(rand.New(rand.NewSource(4)), 30, 0.12),
	} {
		for _, algo := range []Algorithm{ConcurrentUpDown, Simple} {
			plan, err := nw.PlanGossip(WithAlgorithm(algo))
			if err != nil {
				t.Fatal(err)
			}
			rounds, err := plan.ExecuteDistributed()
			if err != nil || rounds != plan.Rounds() {
				t.Fatalf("%s/%v: %d rounds (plan %d), err %v", name, algo, rounds, plan.Rounds(), err)
			}
		}
	}
	plan, err := Ring(6).PlanGossip(WithAlgorithm(Pipelined))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.ExecuteDistributed(); err == nil || !strings.Contains(err.Error(), "no distributed protocol") {
		t.Fatalf("Pipelined plan: want the no-protocol error, got %v", err)
	}
}

// TestExecuteDistributedRejectsTamperedPlan swaps the message of one
// transmission in a Simple plan: the distributed run must notice that the
// plan it was called on is not the one its algorithm produces.
func TestExecuteDistributedRejectsTamperedPlan(t *testing.T) {
	plan, err := Mesh(3, 3).PlanGossip(WithAlgorithm(Simple))
	if err != nil {
		t.Fatal(err)
	}
	tx := &plan.sched.Rounds[4][0]
	tx.Msg = (tx.Msg + 1) % plan.network.N()
	if _, err := plan.ExecuteDistributed(); err == nil || !strings.Contains(err.Error(), "deviated from the plan in round 4") {
		t.Fatalf("tampered plan: want a round-4 deviation, got %v", err)
	}
}

func TestPlanBroadcast(t *testing.T) {
	nw := SensorField(rand.New(rand.NewSource(8)), 50, 0.2)
	bp, err := nw.PlanBroadcast(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.Verify(); err != nil {
		t.Fatal(err)
	}
	if bp.Rounds() > nw.Diameter() {
		t.Fatalf("broadcast rounds %d exceed diameter %d", bp.Rounds(), nw.Diameter())
	}
}

func TestPlanWeightedGossip(t *testing.T) {
	nw := Star(6)
	wp, err := nw.PlanWeightedGossip([]int{2, 1, 3, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if wp.TotalMessages() != 10 {
		t.Fatalf("TotalMessages = %d, want 10", wp.TotalMessages())
	}
	if err := wp.Verify(); err != nil {
		t.Fatal(err)
	}
	if wp.MessageOwner(0) != 0 || wp.MessageOwner(9) == 0 {
		t.Fatal("message ownership wrong")
	}
	if wp.Rounds() > wp.ExpandedRounds() {
		t.Fatal("contraction longer than expansion")
	}
	if len(wp.Round(0)) == 0 {
		t.Fatal("weighted round 0 empty")
	}
	if _, err := nw.PlanWeightedGossip([]int{1}); err == nil {
		t.Fatal("accepted wrong counts length")
	}
}

func TestTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cases := []struct {
		name string
		nw   *Network
		n    int
	}{
		{"Line", Line(5), 5},
		{"Ring", Ring(6), 6},
		{"Star", Star(7), 7},
		{"FullyConnected", FullyConnected(5), 5},
		{"Mesh", Mesh(3, 4), 12},
		{"Torus", Torus(3, 3), 9},
		{"Hypercube", Hypercube(4), 16},
		{"Petersen", PetersenGraph(), 10},
		{"Fig4", Fig4Network(), 16},
		{"Random", RandomNetwork(rng, 20, 0.2), 20},
		{"Sensor", SensorField(rng, 25, 0.25), 25},
		{"RandomTree", RandomTreeNetwork(rng, 15), 15},
	}
	for _, c := range cases {
		if c.nw.Processors() != c.n {
			t.Errorf("%s: processors = %d, want %d", c.name, c.nw.Processors(), c.n)
		}
		if !c.nw.Connected() {
			t.Errorf("%s: not connected", c.name)
		}
		plan, err := c.nw.PlanGossip()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if err := plan.Verify(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if want := c.n + c.nw.Radius(); plan.Rounds() != want {
			t.Errorf("%s: rounds %d, want %d", c.name, plan.Rounds(), want)
		}
	}
}

func TestPlanOptimalLine(t *testing.T) {
	for _, m := range []int{1, 5, 12} {
		plan, err := PlanOptimalLine(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Verify(); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if plan.Rounds() != 3*m {
			t.Fatalf("m=%d: rounds %d, want %d", m, plan.Rounds(), 3*m)
		}
		// One round better than the uniform algorithm.
		uniform, err := Line(2*m + 1).PlanGossip()
		if err != nil {
			t.Fatal(err)
		}
		if uniform.Rounds()-plan.Rounds() != 1 {
			t.Fatalf("m=%d: gap %d, want 1", m, uniform.Rounds()-plan.Rounds())
		}
	}
	if _, err := PlanOptimalLine(0); err == nil {
		t.Fatal("accepted m = 0")
	}
}

func TestSpanningTree(t *testing.T) {
	parents, err := Fig4Network().SpanningTree()
	if err != nil {
		t.Fatal(err)
	}
	if parents[0] != -1 || parents[4] != 0 || parents[9] != 8 {
		t.Fatalf("spanning tree parents wrong: %v", parents)
	}
	if _, err := NewNetwork(2).SpanningTree(); err == nil {
		t.Fatal("accepted disconnected network")
	}
}

func TestGossipStreamSummary(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	nw := RandomTreeNetwork(rng, 400)
	exact, err := nw.GossipStreamSummary(false)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := nw.GossipStreamSummary(true)
	if err != nil {
		t.Fatal(err)
	}
	// On a tree network the approximate construction is exact too.
	if exact.TreeHeight != approx.TreeHeight || exact.TreeHeight != nw.Radius() {
		t.Fatalf("heights exact=%d approx=%d radius=%d", exact.TreeHeight, approx.TreeHeight, nw.Radius())
	}
	if exact.Rounds != 400+exact.TreeHeight {
		t.Fatalf("rounds %d, want n + r", exact.Rounds)
	}
	if exact.Deliveries != 400*399 {
		t.Fatalf("deliveries %d", exact.Deliveries)
	}
	// On a tree network the double-sweep certificate applies, so the
	// approximate summary also proves its tree exact.
	if !exact.ExactTree || !approx.ExactTree {
		t.Fatalf("ExactTree flags wrong: exact=%v approx=%v", exact.ExactTree, approx.ExactTree)
	}
	if _, err := NewNetwork(2).GossipStreamSummary(true); err == nil {
		t.Fatal("accepted disconnected network")
	}
}

// TestStreamSummaryExactTreeAgainstMetrics: with the metric sweep cached,
// ExactTree must equal the actual height-vs-radius comparison — an approx
// tree that happens to be exact reports true, one that is not reports
// false — on a spread of non-tree networks.
func TestStreamSummaryExactTreeAgainstMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	nets := []*Network{
		Ring(31),
		Mesh(5, 7),
		PetersenGraph(),
		RandomNetwork(rng, 60, 0.08),
		SensorField(rng, 60, 0.35),
	}
	for i, nw := range nets {
		radius := nw.Radius() // caches the metric sweep
		sum, err := nw.GossipStreamSummary(true)
		if err != nil {
			t.Fatal(err)
		}
		if want := sum.TreeHeight == radius; sum.ExactTree != want {
			t.Fatalf("network %d: ExactTree=%v, but height=%d radius=%d",
				i, sum.ExactTree, sum.TreeHeight, radius)
		}
	}
}

// TestStreamSummaryExactTreeLowerBoundProof: without cached metrics the
// proof falls back to the double-sweep radius lower bound. On a line the
// bound is tight (radius = ceil(diameter/2)), so the approximate tree is
// recognised as exact without ever paying for a full sweep; on a ring
// (radius = diameter) the cheap certificate cannot apply, so the flag
// conservatively stays false until the metric sweep is cached.
func TestStreamSummaryExactTreeLowerBoundProof(t *testing.T) {
	sum, err := Line(64).GossipStreamSummary(true)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TreeHeight != 32 || !sum.ExactTree {
		t.Fatalf("line approx tree height=%d exact=%v, want 32/true", sum.TreeHeight, sum.ExactTree)
	}
	ring := Ring(64)
	unproven, err := ring.GossipStreamSummary(true)
	if err != nil {
		t.Fatal(err)
	}
	if unproven.ExactTree {
		t.Fatal("ring exactness should not be provable by the double-sweep bound alone")
	}
	ring.Radius() // cache the metric sweep: now the comparison is exact
	proven, err := ring.GossipStreamSummary(true)
	if err != nil {
		t.Fatal(err)
	}
	if !proven.ExactTree {
		t.Fatalf("ring approx tree height=%d not recognised as exact against cached radius %d",
			proven.TreeHeight, ring.Radius())
	}
}

// TestConcurrentAddLinkAndMetrics is the -race regression test for the
// AddLink data race: the graph mutation must happen under the same lock
// that guards the metric sweep, so concurrent AddLink and
// Radius/Diameter/Center/Eccentricities calls are safe.
func TestConcurrentAddLinkAndMetrics(t *testing.T) {
	nw := Ring(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				u := (i*13 + w*17) % 64
				v := (u + 2 + i%31) % 64
				if u != v {
					nw.AddLink(u, v)
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				switch (i + w) % 4 {
				case 0:
					if r := nw.Radius(); r < 1 || r > 32 {
						t.Errorf("radius %d out of range", r)
					}
				case 1:
					if d := nw.Diameter(); d < 1 || d > 32 {
						t.Errorf("diameter %d out of range", d)
					}
				case 2:
					if len(nw.Center()) == 0 {
						t.Error("empty center")
					}
				default:
					if len(nw.Eccentricities()) != 64 {
						t.Error("eccentricities wrong length")
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestLoadNetworkRoundTrip(t *testing.T) {
	orig := PetersenGraph()
	var b strings.Builder
	if err := orig.WriteEdgeList(&b); err != nil {
		t.Fatal(err)
	}
	back, err := LoadNetwork(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Processors() != 10 || back.Links() != 15 {
		t.Fatalf("round trip sizes wrong: n=%d m=%d", back.Processors(), back.Links())
	}
	plan, err := back.PlanGossip()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Rounds() != 12 {
		t.Fatalf("rounds %d, want 12", plan.Rounds())
	}
	if _, err := LoadNetwork(strings.NewReader("bogus")); err == nil {
		t.Fatal("bogus edge list accepted")
	}
}

func TestRoundOutOfRange(t *testing.T) {
	plan, err := Ring(4).PlanGossip()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Round(-1) != nil || plan.Round(plan.Rounds()) != nil {
		t.Fatal("out-of-range rounds should be nil")
	}
	if len(plan.Round(0)) == 0 {
		t.Fatal("round 0 should have transmissions")
	}
}
