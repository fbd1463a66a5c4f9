package multigossip

import (
	"errors"
	"testing"
)

// TestApplyBatchSingleGraftDecision removes two tree edges in one batch and
// requires ONE patch decision: a single PatchGrafted outcome, a single
// increment of the patched counter, and a served plan repaired around both
// losses at once.
func TestApplyBatchSingleGraftDecision(t *testing.T) {
	m := NewMetrics()
	// A generous height factor keeps the quality policy out of the way:
	// this test is about one decision per batch, not graft degradation.
	dp := mustDynamic(t, wheel(16), WithChurnMetrics(m), WithPatchVerify(), WithHeightFactor(8))
	tree, _ := dp.Plan().treeLabeled()
	var lost [][2]int
	for _, e := range dp.Plan().network.Edges() {
		if tree.Parent[e.U] == e.V || tree.Parent[e.V] == e.U {
			lost = append(lost, [2]int{e.U, e.V})
			if len(lost) == 2 {
				break
			}
		}
	}
	if len(lost) != 2 {
		t.Fatal("wheel plan has fewer than two tree edges?")
	}

	outcome, results, err := dp.Apply([]Mutation{
		{Remove: true, U: lost[0][0], V: lost[0][1]},
		{Remove: true, U: lost[1][0], V: lost[1][1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if outcome != PatchGrafted {
		t.Fatalf("batch outcome = %v, want grafted", outcome)
	}
	for i, r := range results {
		if !r.Changed || r.Err != nil {
			t.Fatalf("result %d = %+v, want applied cleanly", i, r)
		}
	}
	p := dp.Plan()
	for _, e := range lost {
		if p.network.HasEdge(e[0], e[1]) {
			t.Errorf("snapshot still has removed link %v", e)
		}
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("batched graft failed verification: %v", err)
	}
	snap := m.Snapshot()
	if got := snap.Counters["churn_patched_total"]; got != 1 {
		t.Errorf("churn_patched_total = %d after one batch, want 1 (one decision, not one per mutation)", got)
	}
}

// TestApplyBatchRemoveReAdd flaps a tree edge inside one batch: the final
// topology is identical to the starting one, so the plan must be reused
// verbatim — no graft, no rebuild, same compact core.
func TestApplyBatchRemoveReAdd(t *testing.T) {
	dp := mustDynamic(t, Ring(16))
	before := dp.Plan()
	tree, _ := before.treeLabeled()
	var u, v int = -1, -1
	for _, e := range before.network.Edges() {
		if tree.Parent[e.U] == e.V || tree.Parent[e.V] == e.U {
			u, v = e.U, e.V
			break
		}
	}
	outcome, results, err := dp.Apply([]Mutation{
		{Remove: true, U: u, V: v},
		{U: u, V: v},
	})
	if err != nil || outcome != PatchReused {
		t.Fatalf("remove+re-add batch = %v, %v; want reused", outcome, err)
	}
	if !results[0].Changed || !results[1].Changed {
		t.Fatalf("results %+v, want both applied", results)
	}
	if dp.Plan().imp != before.imp {
		t.Error("a net no-op batch rebuilt the compact plan")
	}
	if err := dp.Plan().Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestApplyBatchMixedAddsAndNonTreeRemovals applies adds plus a non-tree
// removal: nothing the schedule uses changes, so one reuse covers the lot.
func TestApplyBatchMixedAddsAndNonTreeRemovals(t *testing.T) {
	nw := Ring(16)
	nw.AddLink(3, 11)
	dp := mustDynamic(t, nw)
	tree, _ := dp.Plan().treeLabeled()
	var nu, nv int = -1, -1
	for _, e := range dp.Plan().network.Edges() {
		if tree.Parent[e.U] != e.V && tree.Parent[e.V] != e.U {
			nu, nv = e.U, e.V
			break
		}
	}
	if nu < 0 {
		t.Fatal("no non-tree link")
	}
	before := dp.Plan()
	outcome, results, err := dp.Apply([]Mutation{
		{U: 1, V: 9},
		{U: 2, V: 14},
		{Remove: true, U: nu, V: nv},
	})
	if err != nil || outcome != PatchReused {
		t.Fatalf("batch = %v, %v; want reused", outcome, err)
	}
	for i, r := range results {
		if !r.Changed {
			t.Fatalf("result %d not applied: %+v", i, r)
		}
	}
	if dp.Plan().imp != before.imp {
		t.Error("reuse batch rebuilt the compact plan")
	}
	if p := dp.Plan(); !p.network.HasEdge(1, 9) || !p.network.HasEdge(2, 14) || p.network.HasEdge(nu, nv) {
		t.Error("rebound snapshot does not reflect the batch")
	}
}

// TestApplyBatchRefusalIsPerMutation puts a disconnecting removal in the
// middle of a batch: that one mutation reports its error, the others apply,
// and the batch still resolves to one valid plan decision.
func TestApplyBatchRefusalIsPerMutation(t *testing.T) {
	dp := mustDynamic(t, Line(8)) // every link is a bridge
	outcome, results, err := dp.Apply([]Mutation{
		{U: 0, V: 7},                                                               // close the line into a ring
		{Remove: true, U: 3, V: 4} /* now removable */, {Remove: true, U: 4, V: 5}, // would re-disconnect
	})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Changed || results[0].Err != nil {
		t.Fatalf("add result %+v", results[0])
	}
	if !results[1].Changed || results[1].Err != nil {
		t.Fatalf("first removal result %+v, want applied (ring tolerates one cut)", results[1])
	}
	if results[2].Changed || !errors.Is(results[2].Err, ErrDisconnected) {
		t.Fatalf("second removal result %+v, want refused with ErrDisconnected", results[2])
	}
	if outcome == PatchUnchanged {
		t.Fatalf("outcome = %v; applied mutations must produce a plan transition", outcome)
	}
	if err := dp.Plan().Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestApplyBatchNoopsAndEmpty pins the do-nothing paths.
func TestApplyBatchNoopsAndEmpty(t *testing.T) {
	dp := mustDynamic(t, Ring(8))
	before := dp.Plan()

	outcome, results, err := dp.Apply(nil)
	if err != nil || outcome != PatchUnchanged || len(results) != 0 {
		t.Fatalf("empty batch = %v, %v, %d results", outcome, err, len(results))
	}

	outcome, results, err = dp.Apply([]Mutation{
		{U: 0, V: 1},               // duplicate add
		{Remove: true, U: 2, V: 6}, // absent link
	})
	if err != nil || outcome != PatchUnchanged {
		t.Fatalf("all-no-op batch = %v, %v; want unchanged", outcome, err)
	}
	if results[0].Changed || results[1].Changed {
		t.Fatalf("no-op mutations reported Changed: %+v", results)
	}
	if dp.Plan() != before {
		t.Error("a no-op batch replaced the served plan")
	}
}
