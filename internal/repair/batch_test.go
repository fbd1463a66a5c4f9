package repair

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"multigossip/internal/fault"
	"multigossip/internal/graph"
	"multigossip/internal/obs"
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
	pl := newPlanner(g, g.N())
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

// opaque hides an injector's concrete type, so the executor asks it
// through the fault.Injector interface instead of compiling it.
type opaque struct{ inj fault.Injector }

func (o opaque) Drop(t, tx, from, to, msg int) bool { return o.inj.Drop(t, tx, from, to, msg) }
func (o opaque) Down(t, p int) bool                 { return o.inj.Down(t, p) }

// eventLog records every observability event of a repair run, in order.
type eventLog struct{ events []string }

func (l *eventLog) add(a ...any)                       { l.events = append(l.events, fmt.Sprint(a...)) }
func (l *eventLog) BeginPhase(phase, detail string)    { l.add("phase ", phase, detail) }
func (l *eventLog) EndPhase(phase string)              { l.add("end phase ", phase) }
func (l *eventLog) BeginRound(abs int)                 { l.add("begin ", abs) }
func (l *eventLog) EndRound(abs int, s obs.RoundStats) { l.add("end ", abs, s) }
func (l *eventLog) Delivery(abs, from, to, msg int, o obs.Outcome) {
	l.add("delivery ", abs, from, to, msg, o)
}
func (l *eventLog) RepairIteration(it int, s obs.RepairStats) { l.add("iteration ", it, s) }
func (l *eventLog) Quarantine(it int, links [][2]int, procs []int) {
	l.add("quarantine ", it, links, procs)
}

// TestRunCompiledInjectorMatchesInterface runs the repair loop, whose
// batches the executor replays under a compiled injector, against the same
// injector behind opaque: the Outcome (hold sets, recorded plans,
// quarantines, reachability) and the full event stream must be identical,
// at loss rates 0 to 1 and with permanent faults that force quarantines.
func TestRunCompiledInjectorMatchesInterface(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	graphs := map[string]*graph.Graph{
		"ring30":   graph.Cycle(30),
		"grid5x6":  graph.Grid(5, 6),
		"random60": graph.RandomConnected(rng, 60, 6.0/60),
	}
	for gname, g := range graphs {
		e := g.Edges()[g.M()/2]
		res := buildCUD(t, g)
		for _, p := range []float64{0, 0.001, 0.01, 0.5, 1} {
			loss := fault.LinkLoss{P: p, Seed: int64(p*1000) + 3}
			for iname, inj := range map[string]fault.Injector{
				"loss":           loss,
				"loss+deadlink":  fault.Compose{loss, fault.DeadLink{U: e.U, V: e.V}},
				"loss+crashstop": fault.Compose{fault.CrashStop(g.N()/2, 4), loss},
				"loss+crash":     fault.Compose{loss, fault.CrashWindow{Proc: 1, From: res.Schedule.Time(), To: res.Schedule.Time() + 6}},
				"loss+dropset":   fault.Compose{loss, fault.DropSet{{Round: 2, Tx: 0, Dest: g.Neighbors(0)[0]}: true}},
			} {
				var outs [2]Outcome
				var logs [2]eventLog
				for i, in := range []fault.Injector{inj, opaque{inj}} {
					holds, _, err := fault.ExecuteInjected(g, res.Schedule, in, nil, 0)
					if err != nil {
						t.Fatal(err)
					}
					outs[i], err = Run(g, holds, Options{
						Injector: in, RoundOffset: res.Schedule.Time(), Validate: true,
						MaxIterations: 6, RecordPlans: true, Observer: &logs[i],
					})
					if err != nil {
						t.Fatal(err)
					}
				}
				name := fmt.Sprintf("%s/p=%v/%s", gname, p, iname)
				if !reflect.DeepEqual(outs[0], outs[1]) {
					t.Fatalf("%s: compiled and interface outcomes differ", name)
				}
				if !reflect.DeepEqual(logs[0].events, logs[1].events) {
					t.Fatalf("%s: compiled and interface event streams differ", name)
				}
			}
		}
	}
}
