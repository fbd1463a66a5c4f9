// Package sim_test holds the Section 4 conformance tests, which drive the
// engine only through its exported API: every processor acts from its
// local tuple (i, j, k, w, n) only, and the run must reproduce the offline
// constructors round for round (sim.Run for ConcurrentUpDown, sim.RunSimple
// for Simple).
package sim_test

import (
	"math/rand"
	"strings"
	"testing"

	"multigossip/internal/core"
	"multigossip/internal/graph"
	"multigossip/internal/implicit"
	"multigossip/internal/schedule"
	"multigossip/internal/sim"
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

// runCUD runs the online ConcurrentUpDown protocol on one shard and
// returns the canonical-label schedule its sink saw.
func runCUD(t *testing.T, l *spantree.Labeled) (*schedule.Schedule, sim.Result) {
	t.Helper()
	s := schedule.New(l.N())
	res, err := sim.Run(implicit.New(l).Topo(), sim.Options{Shards: 1, Sink: func(round int, txs []schedule.Transmission) error {
		for _, tx := range txs {
			s.AddSend(round, tx.Msg, tx.From, tx.To...)
		}
		return nil
	}})
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	return s, res
}

// TestOnlineCUDMatchesOffline is the E17 reproduction: the distributed
// execution, where every processor derives its behaviour from local data
// only, must produce transmission-for-transmission the schedule the offline
// constructor builds.
func TestOnlineCUDMatchesOffline(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	graphs := []*graph.Graph{
		graph.Path(2), graph.Path(9), graph.Star(8), graph.Cycle(10),
		graph.Fig4(), graph.KAryTree(15, 2), graph.Petersen(),
		graph.RandomTree(rng, 40), graph.RandomConnected(rng, 25, 0.15),
	}
	for _, g := range graphs {
		l := labeledFor(t, g)
		got, res := runCUD(t, l)
		want := core.BuildConcurrentUpDown(l)
		got.Normalize()
		want.Normalize()
		if !got.Equal(want) {
			t.Fatalf("%v: online run differs from offline schedule\nonline:\n%s\noffline:\n%s", g, got, want)
		}
		if res.CompleteAt != want.Time() {
			t.Fatalf("%v: online run completed at %d, offline at %d", g, res.CompleteAt, want.Time())
		}
		if _, err := schedule.CheckGossip(l.T.Graph(), got); err != nil {
			t.Fatalf("%v: %v", g, err)
		}
	}
}

func TestOnlineExhaustiveSmallTrees(t *testing.T) {
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
			got, _ := runCUD(t, l)
			want := core.BuildConcurrentUpDown(l)
			got.Normalize()
			want.Normalize()
			if !got.Equal(want) {
				t.Fatalf("n=%d %v: online differs from offline", n, g)
			}
			return true
		})
	}
}

// TestOnlineTrivial: a lone processor has nothing to exchange, so both
// online programs finish at time 0 without a single transmission.
func TestOnlineTrivial(t *testing.T) {
	l := spantree.Label(spantree.MustFromParents([]int{-1}))
	sink := func(round int, txs []schedule.Transmission) error {
		if len(txs) > 0 {
			t.Fatalf("n=1: round %d transmits %v", round, txs)
		}
		return nil
	}
	res, err := sim.Run(implicit.New(l).Topo(), sim.Options{Sink: sink})
	if err != nil || res.CompleteAt != 0 || res.Sends != 0 {
		t.Fatalf("n=1 ConcurrentUpDown: res=%+v err=%v", res, err)
	}
	res, err = sim.RunSimple(implicit.New(l).Topo(), sink)
	if err != nil || res.CompleteAt != 0 || res.Sends != 0 {
		t.Fatalf("n=1 Simple: res=%+v err=%v", res, err)
	}
}

// TestOnlineLivelockFailFast is the regression test for the silent-cap
// bug: a livelocked ensemble must not spin until the round cap and report
// only "exceeded N rounds". Here every processor stalls: each tuple
// claims a childless vertex whose single send slot i - k fell before
// time 0, so nothing is ever sent. The engine must detect the quiescent
// but incomplete state at once and name the stuck vertices.
func TestOnlineLivelockFailFast(t *testing.T) {
	topo := implicit.Topo{
		N: 3, Height: 1,
		Hi: []int32{0, 1, 2}, Level: []int32{9, 9, 9},
		Parent: []int32{-1, 0, 0}, ChildStart: []int32{0, 0, 0, 0},
		LipBits: []uint64{0}, VertexOf: []int32{0, 1, 2}, LabelOf: []int32{0, 1, 2},
	}
	_, err := sim.Run(topo, sim.Options{Sink: func(round int, txs []schedule.Transmission) error {
		if len(txs) > 0 {
			t.Fatalf("stalled ensemble transmits %v at round %d", txs, round)
		}
		return nil
	}})
	if err == nil {
		t.Fatal("livelocked ensemble not detected")
	}
	msg := err.Error()
	if !strings.Contains(msg, "livelock") {
		t.Fatalf("want livelock diagnostic, got: %v", err)
	}
	if !strings.Contains(msg, "3 of 3 processors incomplete (e.g. vertices [0 1 2])") {
		t.Fatalf("diagnostic does not name the stuck vertices: %v", err)
	}
	// Fail fast means in the first quiescent round, well before the
	// default cap n + height + 8 = 12.
	if !strings.Contains(msg, "livelock at round 0") {
		t.Fatalf("livelock not detected in the first idle round: %v", err)
	}
}

// TestOnlineRoundCap: a run that cannot finish within the caller's cap
// stops at the cap and names the processors still incomplete.
func TestOnlineRoundCap(t *testing.T) {
	l := labeledFor(t, graph.Path(9))
	_, err := sim.Run(implicit.New(l).Topo(), sim.Options{MaxRounds: 7})
	if err == nil {
		t.Fatal("round cap not enforced")
	}
	if !strings.Contains(err.Error(), "exceeded 7 rounds") {
		t.Fatalf("want round-cap diagnostic, got: %v", err)
	}
	if !strings.Contains(err.Error(), "processors incomplete") {
		t.Fatalf("cap diagnostic does not name the stuck vertices: %v", err)
	}
}
