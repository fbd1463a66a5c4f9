package multigossip

import (
	"reflect"
	"testing"
)

// TestWeightedProgressCurveCountsEveryMessage is the regression test for
// the weighted progress curve: it must start at TotalMessages held pairs
// (each processor holds its own messages), not at n, so a fault-free run
// ends at every one of Processors() x TotalMessages() pairs.
func TestWeightedProgressCurveCountsEveryMessage(t *testing.T) {
	plan, err := Ring(8).PlanWeightedGossip([]int{2, 1, 1, 3, 1, 1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.ExecuteWithFaults()
	if err != nil {
		t.Fatal(err)
	}
	want := 8 * plan.TotalMessages()
	if want != 96 {
		t.Fatalf("TotalMessages = %d, want 12", plan.TotalMessages())
	}
	last := rep.ProgressCurve[len(rep.ProgressCurve)-1]
	if last.Held != want || last.Coverage != 1 {
		t.Fatalf("fault-free curve ends at %d pairs (coverage %v), want %d (1)", last.Held, last.Coverage, want)
	}
	traced, err := plan.plan.ExecuteTraced(nil)
	if err != nil {
		t.Fatal(err)
	}
	if last := traced.ProgressCurve[len(traced.ProgressCurve)-1]; last.Held != want || last.Coverage != 1 {
		t.Fatalf("traced curve ends at %d pairs (coverage %v), want %d (1)", last.Held, last.Coverage, want)
	}
}

// TestWeightedUnitCountsMatchRegistryPlanner is the differential test for
// the shared weighted constructor: with unit counts, PlanWeightedGossip and
// PlanGossip(WithAlgorithm(Weighted)) must produce the same rounds, the
// same Verify outcome and the same FaultReport, progress curve included,
// under every fault model.
func TestWeightedUnitCountsMatchRegistryPlanner(t *testing.T) {
	for _, tc := range []struct {
		name string
		nw   *Network
	}{
		{"ring9", Ring(9)},
		{"mesh3x4", Mesh(3, 4)},
		{"star7", Star(7)},
		{"petersen", PetersenGraph()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.nw.Processors()
			counts := make([]int, n)
			for i := range counts {
				counts[i] = 1
			}
			wp, err := tc.nw.PlanWeightedGossip(counts)
			if err != nil {
				t.Fatal(err)
			}
			p, err := tc.nw.PlanGossip(WithAlgorithm(Weighted))
			if err != nil {
				t.Fatal(err)
			}
			if wp.Rounds() != p.Rounds() {
				t.Fatalf("Rounds: weighted %d, registry %d", wp.Rounds(), p.Rounds())
			}
			for r := 0; r < p.Rounds(); r++ {
				if got, want := wp.Round(r), p.Round(r); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: weighted %v, registry %v", r, got, want)
				}
			}
			if werr, perr := wp.Verify(), p.Verify(); werr != nil || perr != nil {
				t.Fatalf("Verify: weighted %v, registry %v", werr, perr)
			}

			u, v := -1, -1
			for a := 0; a < n && u < 0; a++ {
				for b := a + 1; b < n; b++ {
					if tc.nw.HasLink(a, b) {
						u, v = a, b
						break
					}
				}
			}
			tx := p.Round(1)[0]
			for _, sc := range []struct {
				name string
				opts []FaultOption
			}{
				{"fault-free", nil},
				{"loss", []FaultOption{WithLinkLoss(0.1, 5)}},
				{"loss-no-repair", []FaultOption{WithLinkLoss(0.1, 5), WithoutRepair()}},
				{"crash-window-loss", []FaultOption{WithCrashWindow(n/2, 1, 4), WithLinkLoss(0.05, 9)}},
				{"dead-link", []FaultOption{WithDeadLink(u, v)}},
				{"dropped-delivery", []FaultOption{WithDroppedDelivery(1, 0, tx.To[0])}},
			} {
				wrep, werr := wp.ExecuteWithFaults(sc.opts...)
				prep, perr := p.ExecuteWithFaults(sc.opts...)
				if werr != nil || perr != nil {
					t.Fatalf("%s: weighted error %v, registry error %v", sc.name, werr, perr)
				}
				if !reflect.DeepEqual(wrep, prep) {
					t.Fatalf("%s: reports differ\nweighted %+v\nregistry %+v", sc.name, wrep, prep)
				}
			}
		})
	}
}
