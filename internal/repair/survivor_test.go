package repair

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"multigossip/internal/fault"
	"multigossip/internal/graph"
	"multigossip/internal/schedule"
)

// iterationsAfterLastQuarantine returns how many repair iterations ran
// after the final quarantine event — the convergence cost of replanning
// over the survivor graph.
func iterationsAfterLastQuarantine(out Outcome) int {
	if len(out.Quarantines) == 0 {
		return out.Iterations
	}
	last := out.Quarantines[len(out.Quarantines)-1]
	return out.Iterations - (last.Iteration + 1)
}

// minus returns g without edge e.
func minus(g *graph.Graph, e graph.Edge) *graph.Graph {
	h := graph.New(g.N())
	for _, f := range g.Edges() {
		if f == e {
			continue
		}
		h.AddEdge(f.U, f.V)
	}
	return h
}

// TestRunDeadLinkEveryTopology kills the first link of every named
// topology for the whole execution — schedule and repair alike — and
// checks graceful degradation: the run never stalls, always reaches
// coverage 1.0 over the survivor reachability ceiling, and when the link
// was not a cut edge it completes fully by routing around the amputation.
// Convergence after the last quarantine takes at most 3 iterations.
func TestRunDeadLinkEveryTopology(t *testing.T) {
	for name, g := range namedGraphs() {
		res := buildCUD(t, g)
		e := g.Edges()[0]
		inj := fault.DeadLink{U: e.U, V: e.V}
		holds, _, err := fault.ExecuteInjected(g, res.Schedule, inj, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Run(g, holds, Options{
			Injector:    inj,
			RoundOffset: res.Schedule.Time(),
			Validate:    true,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Stalled {
			t.Fatalf("%s: stalled instead of quarantining the dead link: %+v", name, out)
		}
		if out.ReachableCoverage != 1.0 {
			t.Fatalf("%s: ReachableCoverage %v, want 1.0 (complete up to reachability)",
				name, out.ReachableCoverage)
		}
		if minus(g, e).IsConnected() && !out.Complete {
			t.Fatalf("%s: dead non-cut link %v not routed around (deficit %d, quarantined %v)",
				name, e, MissingPairs(out.Holds), out.QuarantinedLinks)
		}
		if got := iterationsAfterLastQuarantine(out); got > 3 {
			t.Fatalf("%s: %d iterations after the last quarantine, want <= 3", name, got)
		}
		if len(out.DownProcessors) != 0 {
			t.Fatalf("%s: dead link misattributed to processors %v", name, out.DownProcessors)
		}
	}
}

// TestRunDeadLinkPartition severs the only bridge of a path: the engine
// must quarantine exactly that link, report the two survivor components,
// and deliver every pair each side can still serve — and nothing else.
func TestRunDeadLinkPartition(t *testing.T) {
	const n = 7
	g := graph.Path(n)
	e := graph.Edge{U: 3, V: 4}
	res := buildCUD(t, g)
	inj := fault.DeadLink{U: e.U, V: e.V}
	holds, _, err := fault.ExecuteInjected(g, res.Schedule, inj, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(g, holds, Options{
		Injector:    inj,
		RoundOffset: res.Schedule.Time(),
		Validate:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Complete || out.Stalled {
		t.Fatalf("partitioned run reported Complete=%v Stalled=%v", out.Complete, out.Stalled)
	}
	if len(out.QuarantinedLinks) != 1 || out.QuarantinedLinks[0] != e {
		t.Fatalf("quarantined %v, want exactly %v", out.QuarantinedLinks, e)
	}
	if out.Components != 2 {
		t.Fatalf("survivor components %d, want 2", out.Components)
	}
	if out.ReachableCoverage != 1.0 {
		t.Fatalf("ReachableCoverage %v, want 1.0", out.ReachableCoverage)
	}
	// Exactly the cross-partition pairs are unreachable: the left side
	// {0..3} misses messages {4..6} and the right side {4..6} misses {0..3}.
	want := make(map[Pair]bool)
	for v := 0; v <= 3; v++ {
		for m := 4; m < n; m++ {
			want[Pair{v, m}] = true
		}
	}
	for v := 4; v < n; v++ {
		for m := 0; m <= 3; m++ {
			want[Pair{v, m}] = true
		}
	}
	if len(out.Unreachable) != len(want) {
		t.Fatalf("%d unreachable pairs, want %d: %v", len(out.Unreachable), len(want), out.Unreachable)
	}
	for _, p := range out.Unreachable {
		if !want[p] {
			t.Fatalf("pair %v reported unreachable but crosses no partition", p)
		}
	}
	if got := iterationsAfterLastQuarantine(out); got > 3 {
		t.Fatalf("%d iterations after quarantine, want <= 3", got)
	}
}

// TestRunCrashStopEveryProcessor is the crash-stop property test: for
// every processor v of every named topology, crash-stopping v before round
// 0 degrades exactly to the reachable ceiling. DownProcessors is precisely
// [v], no link is separately quarantined, coverage over the live partition
// is exactly 1.0, and — via RecordPlans — no repair batch planned after
// the quarantine touches v in either direction. When g−v stays connected
// the unreachable set is exactly v's 2(n−1) cross pairs.
func TestRunCrashStopEveryProcessor(t *testing.T) {
	for name, g := range namedGraphs() {
		n := g.N()
		res := buildCUD(t, g)
		for v := 0; v < n; v++ {
			inj := fault.CrashStop(v, 0)
			holds, _, err := fault.ExecuteInjected(g, res.Schedule, inj, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			out, err := Run(g, holds, Options{
				Injector:    inj,
				RoundOffset: res.Schedule.Time(),
				Validate:    true,
				RecordPlans: true,
			})
			if err != nil {
				t.Fatalf("%s crash %d: %v", name, v, err)
			}
			if out.Stalled {
				t.Fatalf("%s crash %d: stalled instead of quarantining", name, v)
			}
			if len(out.DownProcessors) != 1 || out.DownProcessors[0] != v {
				t.Fatalf("%s crash %d: DownProcessors %v, want [%d]", name, v, out.DownProcessors, v)
			}
			if len(out.QuarantinedLinks) != 0 {
				t.Fatalf("%s crash %d: crash misattributed to links %v", name, v, out.QuarantinedLinks)
			}
			if out.ReachableCoverage != 1.0 {
				t.Fatalf("%s crash %d: ReachableCoverage %v, want exactly 1.0",
					name, v, out.ReachableCoverage)
			}
			if got := iterationsAfterLastQuarantine(out); got > 3 {
				t.Fatalf("%s crash %d: %d iterations after quarantine, want <= 3", name, v, got)
			}
			if out.Iterations > DefaultQuarantineThreshold+3 {
				t.Fatalf("%s crash %d: %d total iterations, want <= threshold+3 = %d",
					name, v, out.Iterations, DefaultQuarantineThreshold+3)
			}
			// After the quarantine event, no plan may involve v at all.
			quarIt := out.Quarantines[len(out.Quarantines)-1].Iteration
			for i := quarIt + 1; i < len(out.Plans); i++ {
				for tr, round := range out.Plans[i].Rounds {
					for _, tx := range round {
						if tx.From == v {
							t.Fatalf("%s crash %d: plan %d round %d sends from the quarantined processor",
								name, v, i, tr)
						}
						for _, d := range tx.To {
							if d == v {
								t.Fatalf("%s crash %d: plan %d round %d sends to the quarantined processor",
									name, v, i, tr)
							}
						}
					}
				}
			}
			// When removing v leaves the rest connected, the unreachable set
			// is exactly v's row and column of the pair matrix minus (v, v).
			gv := g.Clone()
			rest := graph.New(n)
			for _, e := range gv.Edges() {
				if e.U == v || e.V == v {
					continue
				}
				rest.AddEdge(e.U, e.V)
			}
			restComps := 0
			for _, c := range rest.Components() {
				if len(c) > 1 || c[0] != v {
					restComps++
				}
			}
			if restComps == 1 {
				if len(out.Unreachable) != 2*(n-1) {
					t.Fatalf("%s crash %d: %d unreachable pairs, want %d",
						name, v, len(out.Unreachable), 2*(n-1))
				}
				for _, p := range out.Unreachable {
					if p.Processor != v && p.Message != v {
						t.Fatalf("%s crash %d: pair %v unreachable but does not involve the crashed processor",
							name, v, p)
					}
				}
				wantHeld := n*n - 2*(n-1)
				held := 0
				for _, h := range out.Holds {
					held += h.Count()
				}
				if held != wantHeld {
					t.Fatalf("%s crash %d: %d pairs held, want %d (all but the crash's cross pairs)",
						name, v, held, wantHeld)
				}
			}
		}
	}
}

// TestRunStallExit sets the stall patience below the quarantine threshold,
// so a persistent dead bridge exhausts the patience before suspicion can
// fire: the run must exit early with Stalled set instead of burning the
// whole iteration budget on an unchanging deficit.
func TestRunStallExit(t *testing.T) {
	g := graph.Path(5)
	res := buildCUD(t, g)
	inj := fault.DeadLink{U: 2, V: 3}
	holds, _, err := fault.ExecuteInjected(g, res.Schedule, inj, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(g, holds, Options{
		Injector:            inj,
		RoundOffset:         res.Schedule.Time(),
		QuarantineThreshold: 10,
		StallPatience:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Stalled {
		t.Fatalf("run did not stall: %+v", out)
	}
	if out.Complete {
		t.Fatal("stalled run claimed completion")
	}
	if out.Iterations >= DefaultMaxIterations {
		t.Fatalf("stall exit did not save iterations: ran %d", out.Iterations)
	}
	if len(out.QuarantinedLinks) != 0 || len(out.DownProcessors) != 0 {
		t.Fatalf("quarantine fired below its threshold: links %v procs %v",
			out.QuarantinedLinks, out.DownProcessors)
	}
}

// TestRunQuarantineThresholdOne checks the threshold option: with K=1 a
// single failed iteration amputates the dead link immediately.
func TestRunQuarantineThresholdOne(t *testing.T) {
	g := graph.Cycle(6)
	res := buildCUD(t, g)
	inj := fault.DeadLink{U: 0, V: 1}
	holds, _, err := fault.ExecuteInjected(g, res.Schedule, inj, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(g, holds, Options{
		Injector:            inj,
		RoundOffset:         res.Schedule.Time(),
		QuarantineThreshold: 1,
		Validate:            true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete {
		t.Fatalf("cycle minus one link not completed: %+v", out)
	}
	if len(out.Quarantines) == 0 {
		// The planner may have routed the deficit around the dead link
		// without ever attempting it, in which case nothing is suspected;
		// but on a cycle seeded by a round-0 dead link, the deficit spans
		// both directions, so at least one attempt must cross it.
		t.Fatal("no quarantine event despite threshold 1 and a dead link in use")
	}
	if q := out.Quarantines[0]; q.Iteration != 0 {
		t.Fatalf("threshold 1 quarantined at iteration %d, want 0", q.Iteration)
	}
}

// TestRunTransientLossNeverQuarantines re-checks the transient path after
// the adaptive layer landed: seeded 1% Bernoulli loss on the repair rounds
// converges to full coverage with no amputations — retry handles it.
func TestRunTransientLossNeverQuarantines(t *testing.T) {
	for name, g := range namedGraphs() {
		res := buildCUD(t, g)
		inj := fault.LinkLoss{P: 0.01, Seed: 7}
		holds, _, err := fault.ExecuteInjected(g, res.Schedule, inj, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Run(g, holds, Options{
			Injector:    inj,
			RoundOffset: res.Schedule.Time(),
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !out.Complete {
			t.Fatalf("%s: transient loss not repaired", name)
		}
		if len(out.QuarantinedLinks) != 0 || len(out.DownProcessors) != 0 {
			t.Fatalf("%s: transient loss triggered quarantine: links %v procs %v",
				name, out.QuarantinedLinks, out.DownProcessors)
		}
		if out.ReachableCoverage != 1.0 {
			t.Fatalf("%s: ReachableCoverage %v on a complete run", name, out.ReachableCoverage)
		}
	}
}

// TestSuspicionSenderMissingIsNoEvidence checks failure attribution
// directly: a delivery skipped because the sender never got the message
// (upstream propagation) must not raise suspicion against the healthy
// downstream link or its endpoints.
func TestSuspicionSenderMissingIsNoEvidence(t *testing.T) {
	s := newSuspicion(3, 1)
	for i := 0; i < 5; i++ {
		s.beginIteration()
		s.observe(i, 1, 2, 0, fault.SenderMissing)
		links, procs := s.endIteration()
		if len(links) != 0 || len(procs) != 0 {
			t.Fatalf("SenderMissing raised quarantine: links %v procs %v", links, procs)
		}
	}
	if len(s.quarantinedLinks()) != 0 || len(s.downProcessors()) != 0 {
		t.Fatal("SenderMissing accumulated suspicion")
	}
}

// TestSuspicionLinkResetOnSuccess checks that a success wipes a link's
// consecutive-failure streak: alternating fail/success never quarantines.
func TestSuspicionLinkResetOnSuccess(t *testing.T) {
	s := newSuspicion(2, 2)
	for i := 0; i < 6; i++ {
		s.beginIteration()
		outcome := fault.LostInFlight
		if i%2 == 1 {
			outcome = fault.Delivered
		}
		s.observe(i, 0, 1, 0, outcome)
		if links, procs := s.endIteration(); len(links) != 0 || len(procs) != 0 {
			t.Fatalf("iteration %d: alternating outcomes quarantined links %v procs %v", i, links, procs)
		}
	}
}

// TestComponentUnionsAndUnreachable exercises the reachability analysis on
// hand-built disconnected survivor graphs: one small enough to check by
// hand, and one whose hold sets span several words, against a
// bit-by-bit oracle.
func TestComponentUnionsAndUnreachable(t *testing.T) {
	// Components {0,1} and {2}; messages 0..2. Processor 2 holds 2 only.
	surv := graph.New(3)
	surv.AddEdge(0, 1)
	holds := schedule.NewBitsets(3, 3)
	holds[0].Set(0)
	holds[1].Set(1)
	holds[2].Set(2)
	r := newReach(surv, holds)
	if len(r.unions) != 2 {
		t.Fatalf("%d components, want 2", len(r.unions))
	}
	if got := r.deficit(holds); got != 2 {
		// 0 can get 1, 1 can get 0; nobody can cross to or from 2.
		t.Fatalf("deficit = %d, want 2", got)
	}
	if got, want := r.unreachable(holds), []Pair{{0, 2}, {1, 2}, {2, 0}, {2, 1}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unreachable = %v, want %v", got, want)
	}

	// 150 processors in three components plus isolated vertices, 150
	// messages (three words, the last one partial), random sparse holds.
	rng := rand.New(rand.NewSource(150))
	const n = 150
	surv = graph.New(n)
	for v := 0; v+1 < n; v++ {
		if v%50 != 49 && v%7 != 3 {
			surv.AddEdge(v, v+1)
		}
	}
	holds = schedule.NewBitsets(n, n)
	for v, h := range holds {
		h.Set(v)
		for m := 0; m < n; m++ {
			if rng.Intn(40) == 0 {
				h.Set(m)
			}
		}
	}
	comps := surv.Components()
	r = newReach(surv, holds)
	if len(r.unions) != len(comps) {
		t.Fatalf("%d components, want %d", len(r.unions), len(comps))
	}
	var want []Pair
	wantDeficit := 0
	for _, comp := range comps {
		union := schedule.NewBitset(n)
		for _, v := range comp {
			union.Or(holds[v])
		}
		for _, v := range comp {
			for m := 0; m < n; m++ {
				switch {
				case holds[v].Has(m):
				case union.Has(m):
					wantDeficit++
				default:
					want = append(want, Pair{v, m})
				}
			}
		}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].Processor != want[j].Processor {
			return want[i].Processor < want[j].Processor
		}
		return want[i].Message < want[j].Message
	})
	if got := r.deficit(holds); got != wantDeficit {
		t.Fatalf("deficit = %d, want %d", got, wantDeficit)
	}
	if got := r.unreachable(holds); !reflect.DeepEqual(got, want) {
		t.Fatalf("unreachable: %d pairs, want %d", len(got), len(want))
	}
}
