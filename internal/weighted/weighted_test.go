package weighted

import (
	"fmt"
	"math/rand"
	"testing"

	"multigossip/internal/core"
	"multigossip/internal/graph"
	"multigossip/internal/implicit"
	"multigossip/internal/schedule"
	"multigossip/internal/sim"
	"multigossip/internal/spantree"
)

// checkPlan validates the contracted schedule on the original network with
// the weighted initial hold sets and requires full completion.
func checkPlan(t *testing.T, g *graph.Graph, p *Plan) *schedule.Result {
	t.Helper()
	res, err := schedule.Run(g, p.Schedule, schedule.Options{Initial: p.InitialHolds()})
	if err != nil {
		t.Fatalf("contracted schedule invalid: %v", err)
	}
	for v, h := range res.Holds {
		if !h.Full() {
			t.Fatalf("processor %d missing messages %v", v, h.Missing())
		}
	}
	return res
}

// checkOracle is the differential gate for the streamed expansion: the
// contracted schedule must equal the contraction of the materialising
// builder's expansion round by round, transmission order included, and
// ExpandedRounds must equal that expansion's length, which it returns.
func checkOracle(t *testing.T, name string, g *graph.Graph, p *Plan) *schedule.Schedule {
	t.Helper()
	res, err := core.Gossip(p.ExpandedGraph, core.ConcurrentUpDown)
	if err != nil {
		t.Fatal(err)
	}
	expanded := res.Schedule
	if p.ExpandedRounds != expanded.Time() {
		t.Fatalf("%s: ExpandedRounds %d, materialised expansion %d rounds", name, p.ExpandedRounds, expanded.Time())
	}
	if want := contract(expanded, g.N(), p.TotalMessages); !p.Schedule.Equal(want) {
		t.Fatalf("%s: contraction differs from the materialised path\ngot  %v\nwant %v", name, p.Schedule, want)
	}
	return expanded
}

// contract is the contraction Gossip performs, applied to a materialised
// expanded schedule: transmissions from real processors, filtered to real
// destinations, trailing chain-only rounds dropped.
func contract(expanded *schedule.Schedule, n, total int) *schedule.Schedule {
	contracted := schedule.NewWithMessages(n, total)
	for tt, round := range expanded.Rounds {
		for _, tx := range round {
			if tx.From >= n {
				continue
			}
			var dests []int
			for _, d := range tx.To {
				if d < n {
					dests = append(dests, d)
				}
			}
			if len(dests) > 0 {
				contracted.AddSend(tt, tx.Msg, tx.From, dests...)
			}
		}
	}
	for len(contracted.Rounds) > 0 && len(contracted.Rounds[len(contracted.Rounds)-1]) == 0 {
		contracted.Rounds = contracted.Rounds[:len(contracted.Rounds)-1]
	}
	return contracted
}

func TestUnitCountsMatchBasicGossip(t *testing.T) {
	// counts all 1: the contraction is the plain ConcurrentUpDown schedule.
	g := graph.Cycle(7)
	p, err := Gossip(g, []int{1, 1, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalMessages != 7 {
		t.Fatalf("TotalMessages = %d, want 7", p.TotalMessages)
	}
	if !p.Schedule.Equal(checkOracle(t, "unit cycle", g, p)) {
		t.Fatal("unit-count contraction differs from expanded schedule")
	}
	checkPlan(t, g, p)
	if want := 7 + g.Radius(); p.Schedule.Time() != want {
		t.Fatalf("time %d, want %d", p.Schedule.Time(), want)
	}
}

func TestWeightedOnSmallNetworks(t *testing.T) {
	cases := []struct {
		name   string
		g      *graph.Graph
		counts []int
	}{
		{"path", graph.Path(4), []int{2, 1, 3, 1}},
		{"star", graph.Star(5), []int{1, 4, 1, 2, 1}},
		{"cycle", graph.Cycle(5), []int{3, 3, 3, 3, 3}},
		{"petersen", graph.Petersen(), []int{1, 2, 1, 2, 1, 2, 1, 2, 1, 2}},
		{"single", graph.New(1), []int{5}},
		{"single unit", graph.New(1), []int{1}},
	}
	for _, c := range cases {
		p, err := Gossip(c.g, c.counts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		total := 0
		for _, x := range c.counts {
			total += x
		}
		if p.TotalMessages != total {
			t.Fatalf("%s: total %d, want %d", c.name, p.TotalMessages, total)
		}
		expTime := checkOracle(t, c.name, c.g, p).Time()
		if c.g.N() > 1 {
			checkPlan(t, c.g, p)
			// The expanded schedule obeys Theorem 1 on the expansion.
			if want := total + p.ExpandedRadius; expTime != want {
				t.Fatalf("%s: expanded time %d, want %d", c.name, expTime, want)
			}
			if p.Schedule.Time() > expTime {
				t.Fatalf("%s: contraction longer than expansion", c.name)
			}
		}
		// Owner bookkeeping: counts[v] messages per processor.
		perOwner := make([]int, c.g.N())
		for _, v := range p.MsgOwner {
			perOwner[v]++
		}
		for v, want := range c.counts {
			if perOwner[v] != want {
				t.Fatalf("%s: processor %d owns %d messages, want %d", c.name, v, perOwner[v], want)
			}
		}
	}
}

func TestWeightedRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 25; iter++ {
		n := 2 + rng.Intn(12)
		g := graph.RandomConnected(rng, n, 0.3)
		counts := make([]int, n)
		for v := range counts {
			counts[v] = 1 + rng.Intn(4)
		}
		p, err := Gossip(g, counts)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		checkPlan(t, g, p)
		checkOracle(t, fmt.Sprintf("iter %d n=%d counts %v", iter, n, counts), g, p)
	}
}

func TestWeightedRejectsBadInput(t *testing.T) {
	if _, err := Gossip(graph.New(0), nil); err == nil {
		t.Error("accepted empty network")
	}
	if _, err := Gossip(graph.Path(3), []int{1, 1}); err == nil {
		t.Error("accepted wrong count length")
	}
	if _, err := Gossip(graph.Path(3), []int{1, 0, 1}); err == nil {
		t.Error("accepted zero count")
	}
}

func TestExpandedGraphShape(t *testing.T) {
	g := graph.Path(3)
	p, err := Gossip(g, []int{1, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	// 6 vertices: 0,1,2 real; 3,4 chained to 1; 5 chained to 2.
	eg := p.ExpandedGraph
	if eg.N() != 6 {
		t.Fatalf("expanded n = %d, want 6", eg.N())
	}
	edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 3, V: 4}, {U: 2, V: 5}}
	for _, e := range edges {
		if !eg.HasEdge(e.U, e.V) {
			t.Errorf("expanded graph missing %v", e)
		}
	}
	wantOwner := []int{0, 1, 2, 1, 1, 2}
	for m, v := range wantOwner {
		if p.MsgOwner[m] != v {
			t.Errorf("MsgOwner[%d] = %d, want %d", m, p.MsgOwner[m], v)
		}
	}
}

// TestWeightedOnlineEquivalence closes the loop on both Section 4
// extensions at once: the expanded network's schedule can be produced by
// the distributed (online) protocol — each virtual chain vertex a state
// machine in internal/sim — and its contraction matches the offline plan.
func TestWeightedOnlineEquivalence(t *testing.T) {
	g := graph.Cycle(6)
	counts := []int{2, 1, 3, 1, 2, 1}
	plan, err := Gossip(g, counts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := spantree.MinDepth(plan.ExpandedGraph)
	if err != nil {
		t.Fatal(err)
	}
	l := spantree.Label(tr)
	got := schedule.New(l.N())
	sink := func(round int, txs []schedule.Transmission) error {
		for _, tx := range txs {
			got.AddSend(round, tx.Msg, tx.From, tx.To...)
		}
		return nil
	}
	if _, err := sim.Run(implicit.New(l).Topo(), sim.Options{Sink: sink}); err != nil {
		t.Fatal(err)
	}
	want := core.BuildConcurrentUpDown(l)
	got.Normalize()
	want.Normalize()
	if !got.Equal(want) {
		t.Fatal("online expanded run differs from offline")
	}
	// Contract the online run exactly as Gossip does and compare times.
	contracted := contract(core.RemapToOriginal(got, l), g.N(), plan.TotalMessages)
	contracted.Normalize()
	offline := plan.Schedule.Clone()
	offline.Normalize()
	if !contracted.Equal(offline) {
		t.Fatal("online contraction differs from offline contraction")
	}
}
