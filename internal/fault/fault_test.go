package fault

import (
	"math"
	"math/rand"
	"testing"

	"multigossip/internal/core"
	"multigossip/internal/graph"
	"multigossip/internal/schedule"
	"multigossip/internal/spantree"
)

func buildBoth(t *testing.T, g *graph.Graph) (cud, simple *coreResult) {
	t.Helper()
	tr, err := spantree.MinDepth(g)
	if err != nil {
		t.Fatal(err)
	}
	builders := core.GossipOnTree(tr)
	return &coreResult{builders[core.ConcurrentUpDown]()}, &coreResult{builders[core.Simple]()}
}

type coreResult struct{ *core.Result }

func TestExecuteNoFaultsMatchesValidator(t *testing.T) {
	g := graph.Fig4()
	cud, simple := buildBoth(t, g)
	for _, res := range []*coreResult{cud, simple} {
		holds, cov, err := Execute(g, res.Schedule, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cov != 1.0 {
			t.Fatalf("fault-free coverage %v, want 1", cov)
		}
		for v, h := range holds {
			if !h.Full() {
				t.Fatalf("processor %d incomplete without faults", v)
			}
		}
	}
}

// TestCUDEveryDeliveryCritical: the headline fragility fact — an optimal
// waste-free schedule has no slack, so dropping any single delivery breaks
// completeness.
func TestCUDEveryDeliveryCritical(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Path(7), graph.Star(8), graph.Cycle(9)} {
		cud, _ := buildBoth(t, g)
		rep, err := Criticality(g, cud.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Fraction != 1.0 {
			t.Fatalf("%v: CUD criticality %v (%d/%d), want 1.0",
				g, rep.Fraction, rep.Critical, rep.Deliveries)
		}
	}
}

// TestSimpleHasRedundancy: Simple's wasted deliveries tolerate some drops,
// so its criticality fraction is strictly below 1 on trees with depth.
func TestSimpleHasRedundancy(t *testing.T) {
	g := graph.Path(7)
	cud, simple := buildBoth(t, g)
	cudRep, err := Criticality(g, cud.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	simpleRep, err := Criticality(g, simple.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if simpleRep.Fraction >= cudRep.Fraction {
		t.Fatalf("Simple criticality %v not below CUD's %v", simpleRep.Fraction, cudRep.Fraction)
	}
	if simpleRep.Deliveries <= cudRep.Deliveries {
		t.Fatalf("Simple should deliver more: %d vs %d", simpleRep.Deliveries, cudRep.Deliveries)
	}
}

func TestFaultPropagation(t *testing.T) {
	// Dropping the very first delivery on a line schedule must cascade:
	// coverage falls well below losing a single pair.
	g := graph.Path(9)
	cud, _ := buildBoth(t, g)
	// Find a round-0 delivery.
	var id DeliveryID
	found := false
	for txIdx, tx := range cud.Schedule.Rounds[0] {
		id = DeliveryID{0, txIdx, tx.To[0]}
		found = true
		break
	}
	if !found {
		t.Fatal("no round-0 transmission")
	}
	_, cov, err := Execute(g, cud.Schedule, map[DeliveryID]bool{id: true})
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	maxCov := 1.0 - 1.0/float64(n*n)
	if cov >= maxCov {
		t.Fatalf("coverage %v shows no cascade (max without cascade %v)", cov, maxCov)
	}
}

func TestRandomLossCoverageDegrades(t *testing.T) {
	g := graph.Path(9)
	cud, simple := buildBoth(t, g)
	rng := rand.New(rand.NewSource(99))
	prev := 1.1
	for _, p := range []float64{0, 0.02, 0.1, 0.3} {
		cov, err := RandomLoss(g, cud.Schedule, p, 30, rng)
		if err != nil {
			t.Fatal(err)
		}
		if cov < 0 || cov > 1 {
			t.Fatalf("coverage %v out of range", cov)
		}
		if cov > prev+0.02 {
			t.Fatalf("coverage not (roughly) monotone in p: %v after %v", cov, prev)
		}
		prev = cov
	}
	// Both algorithms must survive p = 0 untouched.
	for _, s := range []*coreResult{cud, simple} {
		cov, err := RandomLoss(g, s.Schedule, 0, 3, rng)
		if err != nil || cov != 1 {
			t.Fatalf("lossless run degraded: %v cov=%v", err, cov)
		}
	}
}

// TestExecuteDoubleReceiveDiscardsLater: when two transmissions of the
// same round target one receiver (possible only in hand-built or
// fault-corrupted schedules — the validator forbids it), the lenient
// executor keeps the first arrival and discards the later one.
func TestExecuteDoubleReceiveDiscardsLater(t *testing.T) {
	g := graph.Complete(3)
	s := schedule.New(3)
	s.AddSend(0, 0, 0, 1) // t=0: 0 -> {1} : m0
	s.AddSend(0, 2, 2, 1) // t=0: 2 -> {1} : m2, conflicting at receiver 1
	holds, cov, err := Execute(g, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !holds[1].Has(0) || holds[1].Has(2) {
		t.Fatalf("receiver 1 holds %v; want m0 kept and m2 discarded", holds[1].Missing())
	}
	if want := 4.0 / 9.0; cov != want {
		t.Fatalf("coverage %v, want %v", cov, want)
	}
	// The discarded message must also not have blocked the slot for later
	// rounds: a retry in round 1 lands.
	s.AddSend(1, 2, 2, 1)
	holds, _, err = Execute(g, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !holds[1].Has(2) {
		t.Fatal("round-1 retry of the discarded message did not land")
	}
}

// TestDropOfPropagationSkippedDelivery: dropping a delivery whose
// transmission was already skipped by fault propagation (the sender never
// got the message) changes nothing — the delivery was never in flight.
func TestDropOfPropagationSkippedDelivery(t *testing.T) {
	g := graph.Path(3)
	s := schedule.New(3)
	s.AddSend(0, 0, 0, 1) // t=0: 0 -> {1} : m0
	s.AddSend(1, 0, 1, 2) // t=1: 1 -> {2} : m0 (skipped once t=0 is dropped)
	first := map[DeliveryID]bool{{0, 0, 1}: true}
	both := map[DeliveryID]bool{{0, 0, 1}: true, {1, 0, 2}: true}
	_, covFirst, err := Execute(g, s, first)
	if err != nil {
		t.Fatal(err)
	}
	_, covBoth, err := Execute(g, s, both)
	if err != nil {
		t.Fatal(err)
	}
	if covFirst != covBoth {
		t.Fatalf("dropping an already-skipped delivery changed coverage: %v vs %v", covFirst, covBoth)
	}
	// And the skipped delivery must not be billed as dropped: only the
	// round-0 delivery was in flight.
	_, dropped, err := ExecuteInjected(g, s, DropSet(both), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("dropped count %d, want 1 (skipped transmissions are not in flight)", dropped)
	}
}

// TestExecuteRejectsWeightedInstance: the lenient executor supports the
// basic instance only — NMsg != N without explicit initial holds is an
// error, not a silent misread.
func TestExecuteRejectsWeightedInstance(t *testing.T) {
	g := graph.Path(3)
	s := schedule.NewWithMessages(3, 2)
	s.AddSend(0, 0, 0, 1)
	if _, _, err := Execute(g, s, nil); err == nil {
		t.Fatal("accepted NMsg != N")
	}
	if _, _, err := ExecuteInjected(g, s, nil, nil, 0); err == nil {
		t.Fatal("ExecuteInjected accepted NMsg != N without initial holds")
	}
	// With explicit initial holds of the right shape it is accepted.
	initial := make([]*schedule.Bitset, 3)
	for i := range initial {
		initial[i] = schedule.NewBitset(2)
	}
	initial[0].Set(0)
	if _, _, err := ExecuteInjected(g, s, nil, initial, 0); err != nil {
		t.Fatalf("rejected explicit initial holds: %v", err)
	}
	initial[1] = schedule.NewBitset(5)
	if _, _, err := ExecuteInjected(g, s, nil, initial, 0); err == nil {
		t.Fatal("accepted initial hold set of the wrong capacity")
	}
}

// TestLinkLossDeterministicAndFresh: the Bernoulli model is a pure hash —
// the same delivery always meets the same fate — while the same link use in
// a different round draws a fresh coin.
func TestLinkLossDeterministicAndFresh(t *testing.T) {
	l := LinkLoss{P: 0.5, Seed: 42}
	sameTwice := l.Drop(3, 0, 1, 2, 7) == l.Drop(3, 9, 1, 2, 7) // tx index must not matter
	if !sameTwice {
		t.Fatal("drop decision depends on the transmission index")
	}
	for i := 0; i < 100; i++ {
		if l.Drop(i, 0, 1, 2, 7) != l.Drop(i, 0, 1, 2, 7) {
			t.Fatal("drop decision not deterministic")
		}
	}
	drops := 0
	for i := 0; i < 1000; i++ {
		if l.Drop(i, 0, 1, 2, 7) {
			drops++
		}
	}
	if drops < 400 || drops > 600 {
		t.Fatalf("1000 p=0.5 coins gave %d drops; hash badly biased", drops)
	}
	if (LinkLoss{P: 0, Seed: 1}).Drop(0, 0, 1, 2, 3) {
		t.Fatal("p=0 dropped")
	}
	if !(LinkLoss{P: 1, Seed: 1}).Drop(0, 0, 1, 2, 3) {
		t.Fatal("p=1 delivered")
	}
}

// TestCrashWindow: a crashed processor neither sends nor receives inside
// its window, keeps its memory, and rejoins afterwards; the round offset
// shifts the window lookup.
func TestCrashWindow(t *testing.T) {
	g := graph.Path(3)
	s := schedule.New(3)
	s.AddSend(0, 0, 0, 1) // t=0: 0 -> {1} : m0   (1 is down: lost)
	s.AddSend(1, 1, 1, 2) // t=1: 1 -> {2} : m1   (1 is down: skipped)
	s.AddSend(2, 1, 1, 0) // t=2: 1 -> {0} : m1   (1 is back: delivered)
	inj := CrashWindow{Proc: 1, From: 0, To: 2}
	holds, dropped, err := ExecuteInjected(g, s, inj, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if holds[1].Has(0) {
		t.Fatal("crashed receiver still received")
	}
	if holds[2].Has(1) {
		t.Fatal("crashed sender still sent")
	}
	if !holds[0].Has(1) {
		t.Fatal("recovered processor failed to send after its window")
	}
	if dropped != 1 {
		t.Fatalf("dropped %d, want 1 (the delivery to the crashed receiver)", dropped)
	}
	// With offset 2 the whole schedule runs at absolute rounds 2..4, past
	// the window: nothing is lost.
	holds, dropped, err = ExecuteInjected(g, s, inj, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 || !holds[1].Has(0) || !holds[2].Has(1) {
		t.Fatalf("offset execution still faulted: dropped=%d", dropped)
	}
}

// TestDeadLink: a dead link loses every delivery crossing it, in both
// directions and in every round, while the rest of the network is
// untouched.
func TestDeadLink(t *testing.T) {
	inj := DeadLink{U: 1, V: 2}
	for _, round := range []int{0, 1, 17, 1 << 20} {
		if !inj.Drop(round, 0, 1, 2, 5) || !inj.Drop(round, 3, 2, 1, 9) {
			t.Fatalf("round %d: dead link delivered", round)
		}
	}
	if inj.Drop(0, 0, 0, 1, 5) || inj.Drop(0, 0, 2, 0, 5) {
		t.Fatal("dead link dropped a delivery on a live link")
	}
	if inj.Down(0, 1) || inj.Down(0, 2) {
		t.Fatal("dead link crashed a processor")
	}

	// End to end: on a path 0-1-2, killing link 1-2 makes processor 2
	// unreachable; every retry of the same delivery in later rounds fails.
	g := graph.Path(3)
	s := schedule.New(3)
	s.AddSend(0, 1, 1, 2) // t=0: 1 -> {2} : m1 — dropped (dead link)
	s.AddSend(1, 1, 1, 2) // t=1: retry — dropped again
	s.AddSend(2, 1, 1, 0) // t=2: 1 -> {0} : m1 — live link, delivered
	holds, dropped, err := ExecuteInjected(g, s, inj, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if holds[2].Has(1) {
		t.Fatal("delivery crossed a dead link")
	}
	if !holds[0].Has(1) {
		t.Fatal("dead link 1-2 blocked live link 0-1")
	}
	if dropped != 2 {
		t.Fatalf("dropped %d, want 2 (both retries over the dead link)", dropped)
	}
}

// TestCrashStop: the open-ended window never closes, however large the
// absolute round gets (repair offsets push rounds far past the schedule).
func TestCrashStop(t *testing.T) {
	inj := CrashStop(3, 2)
	if inj.Down(0, 3) || inj.Down(1, 3) {
		t.Fatal("crash-stop down before its start round")
	}
	for _, round := range []int{2, 3, 100, 1 << 40} {
		if !inj.Down(round, 3) {
			t.Fatalf("crash-stop processor back up at round %d", round)
		}
	}
	if inj.Down(5, 2) {
		t.Fatal("crash-stop took down the wrong processor")
	}
	if inj.To != Forever {
		t.Fatalf("CrashStop window ends at %d, want Forever", inj.To)
	}
}

// TestExecuteObservedOutcomes: the observer sees every delivery exactly
// once with the correct attribution — delivered, lost in flight, receiver
// down, sender down, and the non-attributable sender-missing skip.
func TestExecuteObservedOutcomes(t *testing.T) {
	g := graph.Path(4)
	s := schedule.New(4)
	s.AddSend(0, 0, 0, 1) // t=0: 0 -> {1} : m0  — lost in flight (DropSet)
	s.AddSend(1, 0, 1, 2) // t=1: 1 -> {2} : m0  — skipped: sender 1 never got m0
	s.AddSend(2, 1, 1, 0) // t=2: 1 -> {0} : m1  — delivered
	s.AddSend(3, 1, 0, 1) // t=3: 0 -> {1} : m1  — receiver 1 down (window [3,4))
	s.AddSend(4, 2, 2, 1) // t=4: 2 -> {1} : m2  — sender 2 down (window [4,5))
	inj := Compose{
		DropSet{{Round: 0, Tx: 0, Dest: 1}: true},
		CrashWindow{Proc: 1, From: 3, To: 4},
		CrashWindow{Proc: 2, From: 4, To: 5},
	}
	type event struct {
		round, from, to, msg int
		outcome              DeliveryOutcome
	}
	var got []event
	holds, dropped, err := ExecuteObserved(g, s, inj, nil, 0, func(r, f, to, m int, o DeliveryOutcome) {
		got = append(got, event{r, f, to, m, o})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []event{
		{0, 0, 1, 0, LostInFlight},
		{1, 1, 2, 0, SenderMissing},
		{2, 1, 0, 1, Delivered},
		{3, 0, 1, 1, ReceiverDown},
		{4, 2, 1, 2, SenderDown},
	}
	if len(got) != len(want) {
		t.Fatalf("observed %d events, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], w)
		}
	}
	if dropped != 2 {
		t.Fatalf("dropped %d, want 2 (in-flight loss + receiver down)", dropped)
	}
	if !holds[0].Has(1) {
		t.Fatal("the delivered event did not deliver")
	}
	// The observer must see round numbers shifted by the offset.
	var first event
	_, _, err = ExecuteObserved(g, s, inj, nil, 10, func(r, f, to, m int, o DeliveryOutcome) {
		if first == (event{}) {
			first = event{r, f, to, m, o}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if first.round != 10 {
		t.Fatalf("offset observation started at round %d, want 10", first.round)
	}
}

// TestExecuteObservedSuperseded: a same-round receiver conflict reports the
// discarded later arrival as Superseded.
func TestExecuteObservedSuperseded(t *testing.T) {
	g := graph.Complete(3)
	s := schedule.New(3)
	s.AddSend(0, 0, 0, 1)
	s.AddSend(0, 2, 2, 1)
	var outcomes []DeliveryOutcome
	_, _, err := ExecuteObserved(g, s, nil, nil, 0, func(_, _, _, _ int, o DeliveryOutcome) {
		outcomes = append(outcomes, o)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 2 || outcomes[0] != Delivered || outcomes[1] != Superseded {
		t.Fatalf("outcomes %v, want [Delivered Superseded]", outcomes)
	}
}

func TestComposeUnions(t *testing.T) {
	inj := Compose{
		DropSet{{Round: 0, Tx: 0, Dest: 1}: true},
		CrashWindow{Proc: 2, From: 1, To: 2},
	}
	if !inj.Drop(0, 0, 9, 1, 9) {
		t.Fatal("composed DropSet lost")
	}
	if inj.Drop(1, 0, 9, 1, 9) {
		t.Fatal("phantom drop")
	}
	if !inj.Down(1, 2) || inj.Down(0, 2) || inj.Down(1, 1) {
		t.Fatal("composed crash window wrong")
	}
}

func TestExecuteRejectsBadInput(t *testing.T) {
	g := graph.Path(3)
	cud, _ := buildBoth(t, graph.Path(4))
	if _, _, err := Execute(g, cud.Schedule, nil); err == nil {
		t.Fatal("accepted size mismatch")
	}
	if _, err := RandomLoss(graph.Path(4), cud.Schedule, -0.1, 5, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("accepted negative probability")
	}
	if _, err := RandomLoss(graph.Path(4), cud.Schedule, math.NaN(), 5, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("accepted NaN probability")
	}
	if _, err := RandomLoss(graph.Path(4), cud.Schedule, 0.5, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("accepted zero trials")
	}
}
