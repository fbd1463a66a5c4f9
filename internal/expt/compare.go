package expt

import (
	"fmt"
	"math/rand"

	"multigossip/internal/baseline"
	"multigossip/internal/core"
	"multigossip/internal/graph"
	"multigossip/internal/implicit"
	"multigossip/internal/schedule"
	"multigossip/internal/search"
	"multigossip/internal/sim"
	"multigossip/internal/spantree"
	"multigossip/internal/weighted"
)

// E14TelephoneSeparation quantifies Section 2's motivation: multicasting
// allows solutions with far fewer communication steps than the telephone
// model, most dramatically on high-fanout topologies.
func (s *Suite) E14TelephoneSeparation() *Table {
	t := &Table{
		ID:         "E14",
		Title:      "Section 2 — multicast vs. telephone model",
		PaperClaim: "multicasting allows communications to be performed much faster than the telephone model",
		Header:     []string{"network", "n", "ConcurrentUpDown (multicast)", "telephone greedy", "speedup"},
		Pass:       true,
	}
	rng := rand.New(rand.NewSource(s.Seed))
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"star n=64", graph.Star(64)},
		{"binary tree n=63", graph.KAryTree(63, 2)},
		{"4-ary tree n=85", graph.KAryTree(85, 4)},
		{"grid 8x8", graph.Grid(8, 8)},
		{"random G(64, 0.08)", graph.RandomConnected(rng, 64, 0.08)},
		{"sensor field n=64", graph.RandomGeometric(rng, 64, 0.17)},
	}
	for _, c := range cases {
		cud, err := core.Gossip(c.g, core.ConcurrentUpDown)
		if err != nil {
			t.Pass = false
			continue
		}
		tel, err := baseline.TelephoneGossip(c.g, 0)
		if err != nil {
			t.Pass = false
			continue
		}
		speedup := float64(tel.Time()) / float64(cud.Schedule.Time())
		// The shape claim: multicast never loses, and wins clearly on
		// high-fanout networks.
		t.Pass = t.Pass && tel.Time() >= cud.Schedule.Time()
		t.Rows = append(t.Rows, []string{
			c.name, itoa(c.g.N()), itoa(cud.Schedule.Time()), itoa(tel.Time()),
			fmt.Sprintf("%.2fx", speedup),
		})
	}
	return t
}

// E16Weighted exercises the Section 4 extension: weighted gossiping by
// chain splitting, validated end to end.
func (s *Suite) E16Weighted() *Table {
	t := &Table{
		ID:         "E16",
		Title:      "Section 4 — weighted gossiping via chain splitting",
		PaperClaim: "replace a processor with l messages by a chain of l processors; in practice one only mimics the splitting",
		Header:     []string{"network", "n", "total messages N", "expanded radius R", "expanded time (N+R)", "contracted time", "valid"},
		Pass:       true,
	}
	rng := rand.New(rand.NewSource(s.Seed))
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"path n=9", graph.Path(9)},
		{"star n=12", graph.Star(12)},
		{"cycle n=16", graph.Cycle(16)},
		{"random G(20, 0.2)", graph.RandomConnected(rng, 20, 0.2)},
	}
	for _, c := range cases {
		counts := make([]int, c.g.N())
		for v := range counts {
			counts[v] = 1 + rng.Intn(4)
		}
		plan, err := weighted.Gossip(c.g, counts)
		if err != nil {
			t.Pass = false
			continue
		}
		res, verr := schedule.Run(c.g, plan.Schedule, schedule.Options{Initial: plan.InitialHolds()})
		valid := verr == nil
		if valid {
			for _, h := range res.Holds {
				if !h.Full() {
					valid = false
				}
			}
		}
		// The plan streams the expansion and keeps only its length; the
		// materialising builder is the oracle for the expanded schedule.
		expanded, err := core.Gossip(plan.ExpandedGraph, core.ConcurrentUpDown)
		if err != nil {
			t.Pass = false
			continue
		}
		expTime := expanded.Schedule.Time()
		exact := expTime == plan.TotalMessages+plan.ExpandedRadius && expTime == plan.ExpandedRounds
		t.Pass = t.Pass && valid && exact
		t.Rows = append(t.Rows, []string{
			c.name, itoa(c.g.N()), itoa(plan.TotalMessages), itoa(plan.ExpandedRadius),
			itoa(expTime), itoa(plan.Schedule.Time()), yes(valid),
		})
	}
	return t
}

// E17Online verifies the Section 4 online adaptation: processors knowing
// only (i, j, k, w, n) and their tree neighbourhood, run as internal/sim's
// state machines, reproduce the offline schedule exactly.
func (s *Suite) E17Online() *Table {
	t := &Table{
		ID:         "E17",
		Title:      "Section 4 — online (distributed) execution matches offline",
		PaperClaim: "the only global information needed is the value of i, j, and k; once disseminated, each processor may send its messages at the specified times",
		Header:     []string{"network", "n", "rounds", "identical to offline", "valid"},
		Pass:       true,
	}
	rng := rand.New(rand.NewSource(s.Seed))
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"Fig. 4 network", graph.Fig4()},
		{"path n=17", graph.Path(17)},
		{"star n=32", graph.Star(32)},
		{"hypercube d=5", graph.Hypercube(5)},
		{"random tree n=64", graph.RandomTree(rng, 64)},
		{"random G(48, 0.1)", graph.RandomConnected(rng, 48, 0.1)},
	}
	for _, c := range cases {
		tr, err := spantree.MinDepth(c.g)
		if err != nil {
			t.Pass = false
			continue
		}
		l := spantree.Label(tr)
		got := schedule.New(l.N())
		_, err = sim.Run(implicit.New(l).Topo(), sim.Options{Shards: 1, Sink: func(round int, txs []schedule.Transmission) error {
			for _, tx := range txs {
				got.AddSend(round, tx.Msg, tx.From, tx.To...)
			}
			return nil
		}})
		if err != nil {
			t.Pass = false
			t.Rows = append(t.Rows, []string{c.name, itoa(c.g.N()), "-", "NO", "NO"})
			continue
		}
		want := core.BuildConcurrentUpDown(l)
		got.Normalize()
		want.Normalize()
		same := got.Equal(want)
		_, verr := schedule.CheckGossip(l.T.Graph(), got)
		t.Pass = t.Pass && same && verr == nil
		t.Rows = append(t.Rows, []string{c.name, itoa(c.g.N()), itoa(got.Time()), yes(same), yes(verr == nil)})
	}
	return t
}

// E18Comparative is the headline comparison: every algorithm on every
// family against the lower bound. The expected shape: ConcurrentUpDown
// tracks n + r; GreedyUpDown (the UpDown [15] reconstruction) lands between
// n + r and Simple's 2n + r - 3; the telephone baseline trails everything.
func (s *Suite) E18Comparative() *Table {
	t := &Table{
		ID:         "E18",
		Title:      "Comparative — lower bound vs. CUD vs. UpDown[15] vs. Simple vs. telephone",
		PaperClaim: "ConcurrentUpDown (n+r) improves on UpDown [15] (n-1+r plus a 2(r-1)+1 second phase) and on Simple (2n+r-3); multicasting beats the telephone model",
		Header:     []string{"family", "n", "r", "lower bound", "CUD (n+r)", "GreedyUpDown", "Simple", "telephone", "ordered"},
		Pass:       true,
	}
	rng := rand.New(rand.NewSource(s.Seed))
	for _, f := range families(96) {
		g := f.gen(rng)
		tr, err := spantree.MinDepth(g)
		if err != nil {
			t.Pass = false
			continue
		}
		l := spantree.Label(tr)
		builders := core.GossipOnTree(tr)
		cud := builders[core.ConcurrentUpDown]().Schedule.Time()
		simple := builders[core.Simple]().Schedule.Time()
		gud, err := baseline.GreedyUpDown(l)
		if err != nil {
			t.Pass = false
			continue
		}
		tel, err := baseline.TelephoneGossip(g, 0)
		if err != nil {
			t.Pass = false
			continue
		}
		lower := search.LowerBound(g)
		// The defensible orderings: nothing beats the lower bound, CUD and
		// GreedyUpDown never exceed Simple, and CUD meets n + r exactly.
		ordered := lower <= cud && cud <= simple && gud.Time() <= simple &&
			gud.Time() >= lower && cud == g.N()+tr.Height
		t.Pass = t.Pass && ordered
		t.Rows = append(t.Rows, []string{
			f.name, itoa(g.N()), itoa(tr.Height), itoa(lower),
			itoa(cud), itoa(gud.Time()), itoa(simple), itoa(tel.Time()), yes(ordered),
		})
	}
	t.Notes = append(t.Notes,
		"- GreedyUpDown typically lands between n + r and 2n + r - 3 but can save one round over CUD on stars (it releases the root's own message early instead of at time n)",
		"- the telephone baseline runs on the *full* graph while the tree algorithms confine themselves to the spanning tree, so on cycle-like topologies (cycle, grid, hypercube) telephone-on-graph can beat multicast-on-tree; on high-fanout or sparse-tree topologies multicast wins by a wide margin (see E14)")
	return t
}
