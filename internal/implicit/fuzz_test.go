package implicit_test

import (
	"math/rand"
	"reflect"
	"testing"

	"multigossip/internal/graph"
	"multigossip/internal/implicit"
	"multigossip/internal/schedule"
	"multigossip/internal/spantree"
)

// FuzzImplicitRound checks the implicit plan against the materialising
// builder on arbitrary inputs: for a random connected graph, the plan's
// RoundAppend must be bit-identical to the built schedule's round at a
// fuzzer-chosen time (including out-of-range times, which must yield the
// empty round) and then at every round in an order drawn from that time, a
// fuzzer-chosen vertex's Timetable must match the materialised VertexView,
// and a Cursor drained in order and out of order must reproduce every
// round.
func FuzzImplicitRound(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(128), uint16(3), uint8(0))
	f.Add(int64(42), uint8(0), uint8(0), uint16(0), uint8(5))
	f.Add(int64(-9), uint8(47), uint8(255), uint16(65535), uint8(200))
	f.Add(int64(2026), uint8(2), uint8(10), uint16(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, pRaw uint8, tRaw uint16, vRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%48
		p := float64(pRaw) / 255
		g := graph.RandomConnected(rng, n, p)
		tree, err := spantree.MinDepth(g)
		if err != nil {
			t.Fatalf("MinDepth on a connected graph: %v", err)
		}
		l := spantree.Label(tree)
		plan := implicit.New(l)
		s := oracle(l)
		if plan.Rounds() != s.Time() {
			t.Fatalf("n=%d: implicit rounds %d != materialised %d", n, plan.Rounds(), s.Time())
		}
		// Map tRaw over [-1, rounds+1] so out-of-range times are exercised.
		round := int(tRaw)%(plan.Rounds()+3) - 1
		got := plan.RoundAppend(round, nil)
		var want []schedule.Transmission
		if round >= 0 && round < len(s.Rounds) {
			want = s.Rounds[round]
		}
		if len(got) != 0 || len(want) != 0 {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d round %d:\ngot  %v\nwant %v", n, round, got, want)
			}
		}
		var buf []schedule.Transmission
		for _, r := range rand.New(rand.NewSource(int64(tRaw))).Perm(plan.Rounds()) {
			buf = plan.RoundAppend(r, buf[:0])
			if want := []schedule.Transmission(s.Rounds[r]); len(buf) != len(want) || (len(buf) > 0 && !reflect.DeepEqual(buf, want)) {
				t.Fatalf("n=%d round %d read after round %d:\ngot  %v\nwant %v", n, r, round, buf, want)
			}
			round = r
		}
		assertCursor(t, "fuzz", plan, s)
		v := int(vRaw) % n
		gotTT := plan.Timetable(v)
		wantTT := schedule.VertexView(s, treeInOriginalIDs(l), v)
		if !reflect.DeepEqual(gotTT, wantTT) {
			t.Fatalf("n=%d vertex %d:\ngot  %+v\nwant %+v", n, v, gotTT, wantTT)
		}
	})
}
