package multigossip

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"multigossip/internal/core"
	"multigossip/internal/graph"
	"multigossip/internal/repair"
)

// namedNetworks returns a small instance of every named topology
// constructor, the set the acceptance property tests sweep.
func namedNetworks() map[string]*Network {
	rng := rand.New(rand.NewSource(5))
	return map[string]*Network{
		"line":      Line(7),
		"ring":      Ring(9),
		"star":      Star(8),
		"complete":  FullyConnected(6),
		"mesh":      Mesh(3, 4),
		"torus":     Torus(3, 3),
		"hypercube": Hypercube(3),
		"petersen":  PetersenGraph(),
		"fig4":      Fig4Network(),
		"random":    RandomNetwork(rng, 12, 0.3),
		"sensor":    SensorField(rng, 12, 0.5),
		"tree":      RandomTreeNetwork(rng, 12),
	}
}

func TestExecuteWithFaultsFaultFree(t *testing.T) {
	plan, err := Ring(8).PlanGossip()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.ExecuteWithFaults()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete || rep.Coverage != 1 || rep.FinalCoverage != 1 {
		t.Fatalf("fault-free execution incomplete: %+v", rep)
	}
	if rep.Dropped != 0 || rep.Repaired != 0 || rep.RepairRounds != 0 || rep.RepairIterations != 0 {
		t.Fatalf("fault-free execution paid for repair: %+v", rep)
	}
	if rep.TotalRounds != plan.Rounds() || rep.ScheduleRounds != plan.Rounds() {
		t.Fatalf("round accounting wrong: %+v", rep)
	}
}

// TestExecuteWithFaultsHealsEverySingleDrop: every delivery of a
// ConcurrentUpDown schedule is critical (Plan.Criticality is 1.0), yet
// repair restores full coverage after any single drop, in at most
// diameter-per-iteration extra rounds.
func TestExecuteWithFaultsHealsEverySingleDrop(t *testing.T) {
	for name, nw := range namedNetworks() {
		plan, err := nw.PlanGossip()
		if err != nil {
			t.Fatal(err)
		}
		diameter := nw.Diameter()
		for r := 0; r < plan.Rounds(); r++ {
			for txIdx, tx := range plan.Round(r) {
				for _, d := range tx.To {
					rep, err := plan.ExecuteWithFaults(WithDroppedDelivery(r, txIdx, d))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if rep.Coverage >= 1 {
						t.Fatalf("%s: dropping (%d,%d,%d) left coverage %v — CUD deliveries are all critical",
							name, r, txIdx, d, rep.Coverage)
					}
					if !rep.Complete || rep.FinalCoverage != 1 {
						t.Fatalf("%s: drop (%d,%d,%d) not healed: %+v", name, r, txIdx, d, rep)
					}
					if rep.RepairRounds > diameter*rep.RepairIterations {
						t.Fatalf("%s: overhead %d rounds in %d iterations exceeds diameter %d per iteration",
							name, rep.RepairRounds, rep.RepairIterations, diameter)
					}
					if rep.Repaired < 1 || rep.Dropped < 1 {
						t.Fatalf("%s: accounting wrong: %+v", name, rep)
					}
					if rep.TotalRounds != rep.ScheduleRounds+rep.RepairRounds {
						t.Fatalf("%s: round accounting wrong: %+v", name, rep)
					}
				}
			}
		}
	}
}

// TestExecuteWithFaultsHealsRandomLoss: seeded 1% Bernoulli loss — striking
// repair rounds too — is healed to coverage 1.0 on every named topology.
func TestExecuteWithFaultsHealsRandomLoss(t *testing.T) {
	for name, nw := range namedNetworks() {
		plan, err := nw.PlanGossip()
		if err != nil {
			t.Fatal(err)
		}
		diameter := nw.Diameter()
		rep, err := plan.ExecuteWithFaults(WithLinkLoss(0.01, 11))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Complete || rep.FinalCoverage != 1 {
			t.Fatalf("%s: 1%% loss not healed: %+v", name, rep)
		}
		if rep.RepairRounds > diameter*rep.RepairIterations {
			t.Fatalf("%s: overhead %d rounds in %d iterations exceeds diameter %d per iteration",
				name, rep.RepairRounds, rep.RepairIterations, diameter)
		}
	}
}

func TestExecuteWithFaultsCrashWindow(t *testing.T) {
	plan, err := Mesh(4, 4).PlanGossip()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.ExecuteWithFaults(WithCrashWindow(5, 0, 6))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coverage >= 1 {
		t.Fatalf("crashing a processor for 6 rounds lost nothing: %+v", rep)
	}
	if !rep.Complete || rep.FinalCoverage != 1 {
		t.Fatalf("crash window not healed: %+v", rep)
	}
}

func TestExecuteWithFaultsWithoutRepair(t *testing.T) {
	plan, err := Ring(9).PlanGossip()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.ExecuteWithFaults(WithDroppedDelivery(0, 0, plan.Round(0)[0].To[0]), WithoutRepair())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete || rep.FinalCoverage != rep.Coverage || rep.Coverage >= 1 {
		t.Fatalf("WithoutRepair still repaired: %+v", rep)
	}
	if rep.RepairRounds != 0 || rep.TotalRounds != rep.ScheduleRounds {
		t.Fatalf("WithoutRepair round accounting wrong: %+v", rep)
	}
}

// TestExecuteWithFaultsRepairBudget: a budget of one iteration may leave a
// heavy loss unhealed, but the report must say so honestly.
func TestExecuteWithFaultsRepairBudget(t *testing.T) {
	plan, err := Ring(32).PlanGossip()
	if err != nil {
		t.Fatal(err)
	}
	full, err := plan.ExecuteWithFaults(WithLinkLoss(0.2, 3))
	if err != nil {
		t.Fatal(err)
	}
	capped, err := plan.ExecuteWithFaults(WithLinkLoss(0.2, 3), WithRepairBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	if capped.RepairIterations > 1 {
		t.Fatalf("budget 1 ran %d iterations", capped.RepairIterations)
	}
	if capped.FinalCoverage > full.FinalCoverage {
		t.Fatalf("capped repair beat full repair: %v > %v", capped.FinalCoverage, full.FinalCoverage)
	}
	if full.Coverage != capped.Coverage {
		t.Fatalf("same seed gave different raw coverage: %v vs %v — loss model not deterministic",
			full.Coverage, capped.Coverage)
	}
}

func TestExecuteWithFaultsRejectsBadOptions(t *testing.T) {
	plan, err := Ring(8).PlanGossip()
	if err != nil {
		t.Fatal(err)
	}
	for name, opt := range map[string]FaultOption{
		"negative delivery":   WithDroppedDelivery(-1, 0, 0),
		"loss below range":    WithLinkLoss(-0.1, 1),
		"loss above range":    WithLinkLoss(1.1, 1),
		"negative crash proc": WithCrashWindow(-1, 0, 5),
		"inverted window":     WithCrashWindow(0, 5, 2),
		"zero budget":         WithRepairBudget(0),
	} {
		if _, err := plan.ExecuteWithFaults(opt); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	if _, err := plan.ExecuteWithFaults(WithCrashWindow(8, 0, 5)); err == nil {
		t.Fatal("out-of-range crash processor accepted")
	}
}

// TestWithLinkLossRejectsNaN: a NaN loss probability compares false
// against both ends of [0,1], and LinkLoss would then never drop, so the
// run would silently have no faults. It must fail like any other
// out-of-range probability.
func TestWithLinkLossRejectsNaN(t *testing.T) {
	plan, err := Ring(8).PlanGossip()
	if err != nil {
		t.Fatal(err)
	}
	_, err = plan.ExecuteWithFaults(WithLinkLoss(math.NaN(), 1))
	if err == nil || !strings.Contains(err.Error(), "out of [0,1]") {
		t.Fatalf("NaN loss probability: err = %v, want the out-of-range error", err)
	}
}

// TestExecuteWithFaultsCrashStop is the crash-stop acceptance property:
// for every processor v of every named topology, crash-stopping v before
// round 0 makes the recovery quarantine exactly v, finish for the live
// partition within three iterations of the quarantine, and report coverage
// 1.0 over the reachable ceiling. When the network minus v stays connected
// the unreachable set is exactly v's 2(n-1) cross pairs, so FinalCoverage
// is (n^2-2(n-1))/n^2 exactly.
func TestExecuteWithFaultsCrashStop(t *testing.T) {
	for name, nw := range namedNetworks() {
		plan, err := nw.PlanGossip()
		if err != nil {
			t.Fatal(err)
		}
		n := nw.Processors()
		for v := 0; v < n; v++ {
			rep, err := plan.ExecuteWithFaults(WithCrashStop(v, 0))
			if err != nil {
				t.Fatalf("%s crash %d: %v", name, v, err)
			}
			if rep.Stalled {
				t.Fatalf("%s crash %d: recovery stalled: %+v", name, v, rep)
			}
			if len(rep.DownProcessors) != 1 || rep.DownProcessors[0] != v {
				t.Fatalf("%s crash %d: DownProcessors %v, want [%d]", name, v, rep.DownProcessors, v)
			}
			if len(rep.QuarantinedLinks) != 0 {
				t.Fatalf("%s crash %d: crash misattributed to links %v", name, v, rep.QuarantinedLinks)
			}
			if rep.ReachableCoverage != 1.0 {
				t.Fatalf("%s crash %d: ReachableCoverage %v, want exactly 1.0", name, v, rep.ReachableCoverage)
			}
			if rep.Complete {
				t.Fatalf("%s crash %d: claimed full completion despite a dead processor", name, v)
			}
			if rep.RepairIterations > repair.DefaultQuarantineThreshold+3 {
				t.Fatalf("%s crash %d: %d repair iterations, want <= %d",
					name, v, rep.RepairIterations, repair.DefaultQuarantineThreshold+3)
			}
			// Does removing v leave the survivors connected?
			rest := graph.New(n)
			for _, e := range nw.g.Edges() {
				if e.U != v && e.V != v {
					rest.AddEdge(e.U, e.V)
				}
			}
			liveComps := 0
			for _, c := range rest.Components() {
				if len(c) > 1 || c[0] != v {
					liveComps++
				}
			}
			if liveComps != 1 {
				continue
			}
			if rep.Components != 2 {
				t.Fatalf("%s crash %d: %d survivor components, want 2", name, v, rep.Components)
			}
			if len(rep.Unreachable) != 2*(n-1) {
				t.Fatalf("%s crash %d: %d unreachable pairs, want %d",
					name, v, len(rep.Unreachable), 2*(n-1))
			}
			for _, pr := range rep.Unreachable {
				if pr.Processor != v && pr.Message != v {
					t.Fatalf("%s crash %d: pair %v unreachable without involving the crash", name, v, pr)
				}
			}
			want := float64(n*n-2*(n-1)) / float64(n*n)
			if rep.FinalCoverage != want {
				t.Fatalf("%s crash %d: FinalCoverage %v, want exactly %v", name, v, rep.FinalCoverage, want)
			}
		}
	}
}

// TestExecuteWithFaultsDeadLinkRing: a dead link on a ring is not a cut
// edge, so recovery quarantines it and routes the deficit the long way
// around to full completion.
func TestExecuteWithFaultsDeadLinkRing(t *testing.T) {
	plan, err := Ring(9).PlanGossip()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.ExecuteWithFaults(WithDeadLink(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete || rep.FinalCoverage != 1 || rep.ReachableCoverage != 1 {
		t.Fatalf("dead ring link not routed around: %+v", rep)
	}
	if len(rep.DownProcessors) != 0 {
		t.Fatalf("dead link misattributed to processors %v", rep.DownProcessors)
	}
	if rep.Stalled {
		t.Fatalf("recovery stalled: %+v", rep)
	}
}

// TestExecuteWithFaultsDeadLinkPartition: severing the only bridge of a
// line degrades gracefully — both sides finish internally, the bridge is
// quarantined, and the report names exactly the cross-partition pairs.
func TestExecuteWithFaultsDeadLinkPartition(t *testing.T) {
	const n = 7
	plan, err := Line(n).PlanGossip()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.ExecuteWithFaults(WithDeadLink(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete || rep.Stalled {
		t.Fatalf("partitioned run reported Complete=%v Stalled=%v", rep.Complete, rep.Stalled)
	}
	if len(rep.QuarantinedLinks) != 1 || rep.QuarantinedLinks[0] != (Link{U: 3, V: 4}) {
		t.Fatalf("quarantined %v, want exactly [{3 4}]", rep.QuarantinedLinks)
	}
	if rep.Components != 2 {
		t.Fatalf("%d survivor components, want 2", rep.Components)
	}
	if rep.ReachableCoverage != 1.0 {
		t.Fatalf("ReachableCoverage %v, want 1.0", rep.ReachableCoverage)
	}
	if want := 2 * 4 * 3; len(rep.Unreachable) != want {
		t.Fatalf("%d unreachable pairs, want %d", len(rep.Unreachable), want)
	}
	for _, pr := range rep.Unreachable {
		left := pr.Processor <= 3
		msgLeft := pr.Message <= 3
		if left == msgLeft {
			t.Fatalf("pair %v reported unreachable but crosses no partition", pr)
		}
	}
}

// TestExecuteWithFaultsQuarantineThreshold: threshold 1 amputates the dead
// link after a single failed iteration, so recovery is strictly faster
// than at the default threshold.
func TestExecuteWithFaultsQuarantineThreshold(t *testing.T) {
	plan, err := Ring(9).PlanGossip()
	if err != nil {
		t.Fatal(err)
	}
	slow, err := plan.ExecuteWithFaults(WithDeadLink(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := plan.ExecuteWithFaults(WithDeadLink(0, 1), WithQuarantineThreshold(1))
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Complete {
		t.Fatalf("threshold 1 did not complete: %+v", fast)
	}
	if fast.RepairIterations >= slow.RepairIterations {
		t.Fatalf("threshold 1 took %d iterations, default took %d — no speedup",
			fast.RepairIterations, slow.RepairIterations)
	}
}

// TestExecuteWithFaultsWithoutRepairReachable: with repair disabled the
// survivor machinery never runs, and ReachableCoverage mirrors Coverage.
func TestExecuteWithFaultsWithoutRepairReachable(t *testing.T) {
	plan, err := Line(7).PlanGossip()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.ExecuteWithFaults(WithDeadLink(3, 4), WithoutRepair())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReachableCoverage != rep.Coverage {
		t.Fatalf("ReachableCoverage %v != Coverage %v with repair disabled",
			rep.ReachableCoverage, rep.Coverage)
	}
	if len(rep.QuarantinedLinks) != 0 || len(rep.DownProcessors) != 0 || rep.Components != 0 {
		t.Fatalf("repair-disabled report shows survivor state: %+v", rep)
	}
}

func TestExecuteWithFaultsRejectsBadPermanentFaults(t *testing.T) {
	plan, err := Ring(8).PlanGossip()
	if err != nil {
		t.Fatal(err)
	}
	for name, opt := range map[string]FaultOption{
		"negative dead link":   WithDeadLink(-1, 2),
		"self-loop dead link":  WithDeadLink(3, 3),
		"negative crash-stop":  WithCrashStop(-1, 0),
		"negative crash round": WithCrashStop(0, -1),
		"zero quarantine":      WithQuarantineThreshold(0),
	} {
		if _, err := plan.ExecuteWithFaults(opt); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	if _, err := plan.ExecuteWithFaults(WithDeadLink(0, 8)); err == nil {
		t.Fatal("out-of-range dead link accepted")
	}
	if _, err := plan.ExecuteWithFaults(WithDeadLink(0, 4)); err == nil {
		t.Fatal("dead link on a non-link accepted")
	}
	if _, err := plan.ExecuteWithFaults(WithCrashStop(8, 0)); err == nil {
		t.Fatal("out-of-range crash-stop accepted")
	}
}

// eventLog records every RoundObserver event in order, for comparing two
// executions event by event.
type eventLog struct{ events []string }

func (l *eventLog) add(format string, a ...any) {
	l.events = append(l.events, fmt.Sprintf(format, a...))
}

func (l *eventLog) BeginPhase(phase, detail string) { l.add("begin-phase %s %s", phase, detail) }
func (l *eventLog) EndPhase(phase string)           { l.add("end-phase %s", phase) }
func (l *eventLog) BeginRound(t int)                { l.add("begin-round %d", t) }
func (l *eventLog) EndRound(t int, s RoundStats)    { l.add("end-round %d %+v", t, s) }
func (l *eventLog) Delivery(t, from, to, msg int, o DeliveryOutcome) {
	l.add("delivery %d %d->%d m%d %v", t, from, to, msg, o)
}
func (l *eventLog) RepairIteration(i int, s RepairStats) { l.add("repair %d %+v", i, s) }
func (l *eventLog) Quarantine(i int, links [][2]int, procs []int) {
	l.add("quarantine %d %v %v", i, links, procs)
}

// TestExecuteWithFaultsCursorMatchesMaterialised holds the streamed
// ConcurrentUpDown execution to the materialised one it replaced: under
// every fault model, repair setting and network, the cursor-fed executor
// returns an identical FaultReport (progress curve included) and emits an
// identical observer event sequence.
func TestExecuteWithFaultsCursorMatchesMaterialised(t *testing.T) {
	for name, nw := range map[string]*Network{
		"ring":   Ring(24),
		"mesh":   Mesh(5, 6),
		"star":   Star(10),
		"random": RandomNetwork(rand.New(rand.NewSource(9)), 40, 0.1),
	} {
		plan, err := nw.PlanGossip()
		if err != nil {
			t.Fatal(err)
		}
		tree, l := plan.treeLabeled()
		sched := core.RemapToOriginal(core.BuildConcurrentUpDown(l), l)
		tx := sched.Rounds[2][len(sched.Rounds[2])-1]
		leaf := 0
		for tree.Parent[leaf] == -1 || !tree.IsLeaf(leaf) {
			leaf++
		}
		cases := map[string][]FaultOption{
			"loss":           {WithLinkLoss(0.03, 7)},
			"dropped":        {WithDroppedDelivery(2, len(sched.Rounds[2])-1, tx.To[0]), WithDroppedDelivery(5, 0, sched.Rounds[5][0].To[0])},
			"crash-window":   {WithCrashWindow(1, 3, 9), WithLinkLoss(0.01, 3)},
			"crash-stop":     {WithCrashStop(leaf, 2)},
			"dead-link":      {WithDeadLink(leaf, tree.Parent[leaf])},
			"without-repair": {WithLinkLoss(0.05, 11), WithoutRepair()},
			"repair-budget":  {WithLinkLoss(0.1, 5), WithRepairBudget(1)},
		}
		for cname, opts := range cases {
			var gotLog, wantLog eventLog
			got, gotErr := plan.executeWithFaults(plan.source(), append(opts[:len(opts):len(opts)], WithObserver(&gotLog)))
			want, wantErr := plan.executeWithFaults(sched, append(opts[:len(opts):len(opts)], WithObserver(&wantLog)))
			if gotErr != nil || wantErr != nil {
				t.Fatalf("%s/%s: errors %v, %v", name, cname, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: streamed report differs\ngot  %+v\nwant %+v", name, cname, got, want)
			}
			if !reflect.DeepEqual(gotLog.events, wantLog.events) {
				t.Fatalf("%s/%s: observer events differ (%d vs %d events)", name, cname, len(gotLog.events), len(wantLog.events))
			}
			if want.Dropped == 0 {
				t.Fatalf("%s/%s: the fault model dropped nothing", name, cname)
			}
		}
	}
}
