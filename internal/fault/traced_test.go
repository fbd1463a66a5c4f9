package fault

import (
	"reflect"
	"testing"

	"multigossip/internal/graph"
	"multigossip/internal/obs"
	"multigossip/internal/schedule"
)

// roundRecorder captures the structured round events of the observability
// layer for exact assertions.
type roundRecorder struct {
	obs.Nop
	begins     []int
	ends       []int
	stats      map[int]obs.RoundStats
	deliveries int
}

func (r *roundRecorder) BeginRound(abs int) { r.begins = append(r.begins, abs) }
func (r *roundRecorder) EndRound(abs int, s obs.RoundStats) {
	if r.stats == nil {
		r.stats = make(map[int]obs.RoundStats)
	}
	r.ends = append(r.ends, abs)
	r.stats[abs] = s
}
func (r *roundRecorder) Delivery(int, int, int, int, obs.Outcome) { r.deliveries++ }

// TestExecuteTracedRoundStats replays the mixed-outcome scenario of
// TestExecuteObservedOutcomes through the RoundObserver side and checks
// the aggregated per-round stats attribute every delivery correctly, under
// an absolute round offset.
func TestExecuteTracedRoundStats(t *testing.T) {
	g := graph.Path(4)
	s := schedule.New(4)
	s.AddSend(0, 0, 0, 1) // lost in flight
	s.AddSend(1, 0, 1, 2) // sender missing
	s.AddSend(2, 1, 1, 0) // delivered (new pair)
	s.AddSend(3, 1, 0, 1) // receiver down
	s.AddSend(4, 2, 2, 1) // sender down
	inj := Compose{
		DropSet{{Round: 10, Tx: 0, Dest: 1}: true}, // drops match absolute rounds
		CrashWindow{Proc: 1, From: 13, To: 14},
		CrashWindow{Proc: 2, From: 14, To: 15},
	}
	rec := &roundRecorder{}
	_, dropped, err := ExecuteTraced(g, s, inj, nil, 10, nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 2 {
		t.Fatalf("dropped %d, want 2", dropped)
	}
	wantRounds := []int{10, 11, 12, 13, 14}
	if len(rec.begins) != len(wantRounds) || len(rec.ends) != len(wantRounds) {
		t.Fatalf("begin/end counts %d/%d, want %d", len(rec.begins), len(rec.ends), len(wantRounds))
	}
	for i, abs := range wantRounds {
		if rec.begins[i] != abs || rec.ends[i] != abs {
			t.Fatalf("round events %v / %v, want offsets %v", rec.begins, rec.ends, wantRounds)
		}
	}
	if rec.deliveries != 5 {
		t.Errorf("Delivery called %d times, want once per scheduled delivery (5)", rec.deliveries)
	}
	want := map[int]obs.RoundStats{
		10: {Dropped: 1},
		11: {Skipped: 1},
		12: {Delivered: 1, NewPairs: 1},
		13: {Dropped: 1},
		14: {Skipped: 1},
	}
	for abs, w := range want {
		if got := rec.stats[abs]; got != w {
			t.Errorf("round %d stats %+v, want %+v", abs, got, w)
		}
	}
}

// TestExecuteTracedNewPairsVsWaste: on a schedule that redelivers a held
// message, Delivered counts the acceptance but NewPairs does not — the
// coverage curve must not double-count what algorithm Simple wastes.
func TestExecuteTracedNewPairsVsWaste(t *testing.T) {
	g := graph.Path(2)
	s := schedule.New(2)
	s.AddSend(0, 0, 0, 1) // useful: 1 learns m0
	s.AddSend(1, 0, 0, 1) // wasted: 1 already holds m0
	rec := &roundRecorder{}
	if _, _, err := ExecuteTraced(g, s, nil, nil, 0, nil, rec); err != nil {
		t.Fatal(err)
	}
	if got := rec.stats[0]; got.Delivered != 1 || got.NewPairs != 1 {
		t.Errorf("round 0 stats %+v, want 1 delivered, 1 new", got)
	}
	if got := rec.stats[1]; got.Delivered != 1 || got.NewPairs != 0 {
		t.Errorf("round 1 stats %+v, want 1 delivered, 0 new (waste)", got)
	}
}

// TestExecuteTracedBothObservers: the legacy per-delivery Observer and the
// RoundObserver see the same deliveries when attached together, and a
// progress collector attached alone, which the executor sends no
// deliveries, neither silences watch nor changes its curve.
func TestExecuteTracedBothObservers(t *testing.T) {
	g := graph.Path(3)
	s := schedule.New(3)
	s.AddSend(0, 0, 0, 1)
	s.AddSend(1, 1, 1, 2)
	alone, withRec := obs.NewProgressCollector(3, 9), obs.NewProgressCollector(3, 9)
	rec := &roundRecorder{}
	for _, ro := range []obs.RoundObserver{rec, alone, obs.Multi(&roundRecorder{}, withRec)} {
		watched := 0
		_, _, err := ExecuteTraced(g, s, nil, nil, 0, func(int, int, int, int, DeliveryOutcome) {
			watched++
		}, ro)
		if err != nil {
			t.Fatal(err)
		}
		if watched != 2 {
			t.Errorf("%T: watch saw %d deliveries, want 2", ro, watched)
		}
	}
	if rec.deliveries != 2 {
		t.Errorf("round observer saw %d deliveries, want 2", rec.deliveries)
	}
	if a, w := alone.Curve(), withRec.Curve(); !reflect.DeepEqual(a, w) || len(a) != 2 || a[1].Held != 5 {
		t.Errorf("collector alone %+v, inside Multi %+v; want equal, ending at 5 held", a, w)
	}
}
