package repair

import (
	"reflect"
	"testing"

	"multigossip/internal/fault"
	"multigossip/internal/graph"
	"multigossip/internal/schedule"
)

// lossyHolds is the hold state a 5%-lossy ConcurrentUpDown run leaves on
// g: a deficit that takes a multi-round, multi-sender batch to repair.
func lossyHolds(t *testing.T, g *graph.Graph, seed int64) []*schedule.Bitset {
	t.Helper()
	res := buildCUD(t, g)
	holds, _, err := fault.ExecuteInjected(g, res.Schedule, fault.LinkLoss{P: 0.05, Seed: seed}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return holds
}

// TestBatchSourceContract holds the flat batch to the schedule.Source
// contract: out-of-range rounds append nothing, a round reads the same
// twice, appending to a returned destination slice cannot corrupt the
// batch, and Collect copies the batch into a schedule that survives the
// batch being planned again.
func TestBatchSourceContract(t *testing.T) {
	g := graph.Grid(4, 5)
	pl := newPlanner(g.N(), g.N())
	b := pl.plan(g, lossyHolds(t, g, 1), g.N())
	if b.Time() < 2 || b.Processors() != g.N() || b.Messages() != g.N() {
		t.Fatalf("batch of %d rounds over %d processors and %d messages", b.Time(), b.Processors(), b.Messages())
	}
	prefix := []schedule.Transmission{{Msg: 7, From: 3, To: []int{4}}}
	for _, r := range []int{-1, b.Time(), b.Time() + 5} {
		if got := b.RoundAppend(r, prefix); !reflect.DeepEqual(got, prefix) {
			t.Fatalf("out-of-range round %d appended %v", r, got[len(prefix):])
		}
	}
	multi := false
	for r := 0; r < b.Time(); r++ {
		first := b.RoundAppend(r, nil)
		if len(first) == 0 {
			t.Fatalf("round %d is empty", r)
		}
		multi = multi || len(first) > 1
		for _, tx := range first {
			_ = append(tx.To, -1) // must not reach the next transmission's destinations
		}
		if again := b.RoundAppend(r, nil); !reflect.DeepEqual(again, first) {
			t.Fatalf("round %d read twice: %v then %v", r, first, again)
		}
	}
	if !multi {
		t.Fatal("no round holds two transmissions; the test cannot see offset errors")
	}

	s := schedule.Collect(b)
	if s.N != b.Processors() || s.NMsg != b.Messages() || s.Time() != b.Time() {
		t.Fatalf("Collect: n=%d nmsg=%d rounds=%d", s.N, s.NMsg, s.Time())
	}
	for r := 0; r < b.Time(); r++ {
		if got := s.RoundAppend(r, nil); !reflect.DeepEqual(got, b.RoundAppend(r, nil)) {
			t.Fatalf("Collect round %d = %v, want %v", r, got, b.RoundAppend(r, nil))
		}
	}
	kept := s.Clone()
	pl.plan(g, lossyHolds(t, g, 2), g.N())
	if !s.Equal(kept) {
		t.Fatal("replanning the batch changed a collected schedule")
	}
}

// TestRecordPlansAreIndependentCopies replays a multi-iteration lossy run
// from its recorded plans: each recorded batch must still validate against
// the holds its iteration started from and, executed under the same
// injector, reproduce the next iteration's holds and finally the run's.
// A recorded plan that aliased the reused batch would hold a later
// iteration's rounds and break the chain.
func TestRecordPlansAreIndependentCopies(t *testing.T) {
	g := graph.Cycle(24)
	holds := lossyHolds(t, g, 3)
	inj := fault.LinkLoss{P: 0.1, Seed: 9}
	const offset = 100
	out, err := Run(g, holds, Options{
		Injector:           inj,
		RoundOffset:        offset,
		RoundsPerIteration: 4,
		Validate:           true,
		RecordPlans:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete || len(out.Quarantines) != 0 {
		t.Fatalf("want a complete run without quarantine: %+v", out)
	}
	if len(out.Plans) != out.Iterations || out.Iterations < 3 {
		t.Fatalf("%d plans recorded over %d iterations, want one each and at least 3", len(out.Plans), out.Iterations)
	}
	cur, abs, rounds := holds, offset, 0
	for i, p := range out.Plans {
		if _, err := schedule.Run(g, p, schedule.Options{Initial: cur}); err != nil {
			t.Fatalf("recorded plan %d no longer validates against its holds: %v", i, err)
		}
		if cur, _, err = fault.ExecuteInjected(g, p, inj, cur, abs); err != nil {
			t.Fatal(err)
		}
		abs += p.Time()
		rounds += p.Time()
	}
	if rounds != out.Rounds {
		t.Fatalf("recorded plans hold %d rounds, the run executed %d", rounds, out.Rounds)
	}
	for v := range cur {
		if cur[v].Count() != out.Holds[v].Count() || cur[v].CountAndNot(out.Holds[v]) != 0 {
			t.Fatalf("replaying the recorded plans leaves processor %d with %v missing, the run %v",
				v, cur[v].Missing(), out.Holds[v].Missing())
		}
	}
}
