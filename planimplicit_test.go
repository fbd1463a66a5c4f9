package multigossip

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"multigossip/internal/core"
	"multigossip/internal/schedule"
	"multigossip/internal/trace"
)

// namedTopologies is the differential-test matrix: every public topology
// constructor at a representative size.
func namedTopologies() map[string]*Network {
	rng := rand.New(rand.NewSource(1))
	return map[string]*Network{
		"line":       Line(16),
		"line2":      Line(2),
		"ring":       Ring(17),
		"star":       Star(16),
		"complete":   FullyConnected(9),
		"mesh":       Mesh(4, 6),
		"torus":      Torus(4, 5),
		"hypercube":  Hypercube(4),
		"petersen":   PetersenGraph(),
		"fig4":       Fig4Network(),
		"random":     RandomNetwork(rng, 40, 0.15),
		"sensor":     SensorField(rng, 36, 0.35),
		"randomtree": RandomTreeNetwork(rng, 48),
	}
}

// TestImplicitPlanMatchesMaterialised is the public-level acceptance test:
// on every named topology, the implicit-backed plan's Round(t) and
// TimetableOf(v) are bit-identical to the materialised schedule the same
// pipeline produces.
func TestImplicitPlanMatchesMaterialised(t *testing.T) {
	for name, nw := range namedTopologies() {
		t.Run(name, func(t *testing.T) {
			plan, err := nw.PlanGossip()
			if err != nil {
				t.Fatal(err)
			}
			if plan.imp == nil {
				t.Fatal("ConcurrentUpDown plan is not implicit-backed")
			}
			res, err := core.Gossip(nw.g, core.ConcurrentUpDown)
			if err != nil {
				t.Fatal(err)
			}
			oracle := res.Schedule
			if got, want := plan.Rounds(), oracle.Time(); got != want {
				t.Fatalf("Rounds() = %d, oracle %d", got, want)
			}
			for time := 0; time <= oracle.Time(); time++ {
				got := plan.Round(time)
				var want []Transmission
				if time < len(oracle.Rounds) {
					for _, tx := range oracle.Rounds[time] {
						want = append(want, Transmission{Message: tx.Msg, From: tx.From, To: append([]int(nil), tx.To...)})
					}
				}
				if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
					t.Fatalf("round %d:\ngot  %v\nwant %v", time, got, want)
				}
			}
			for v := 0; v < nw.Processors(); v++ {
				got := plan.TimetableOf(v)
				want := trace.FormatTimetable(schedule.VertexView(oracle, res.Tree, v))
				if got != want {
					t.Fatalf("timetable of %d:\ngot:\n%s\nwant:\n%s", v, got, want)
				}
			}
			// The differential reads above must not have materialised.
			if plan.sched != nil {
				t.Fatal("Round/TimetableOf materialised the schedule")
			}
		})
	}
}

// TestPlanLazyMaterialisationStateMachine pins the state transitions: an
// implicit-backed plan starts with no tree, labelling or schedule; tree
// views build on TreeString; the replays (Verify, ExecuteWithFaults,
// ExecuteTraced) stream through a cursor and never materialise; the
// schedule builds only on Stats (or another whole-schedule operation);
// Simple plans are eager throughout.
func TestPlanLazyMaterialisationStateMachine(t *testing.T) {
	nw := Ring(24)
	plan, err := nw.PlanGossip()
	if err != nil {
		t.Fatal(err)
	}
	if plan.imp == nil || plan.sched != nil || plan.tree != nil || plan.labeled != nil {
		t.Fatal("fresh ConcurrentUpDown plan is not in the implicit-only state")
	}
	_ = plan.Rounds()
	_ = plan.Round(3)
	_ = plan.RoundAppend(4, nil)
	_ = plan.TimetableOf(5)
	if plan.sched != nil || plan.tree != nil {
		t.Fatal("query path materialised state it does not need")
	}
	_ = plan.TreeString()
	if plan.tree == nil || plan.labeled == nil {
		t.Fatal("TreeString did not build the tree views")
	}
	if plan.sched != nil {
		t.Fatal("TreeString materialised the schedule")
	}
	if err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.ExecuteWithFaults(WithLinkLoss(0.05, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.ExecuteTraced(nil); err != nil {
		t.Fatal(err)
	}
	if plan.sched != nil {
		t.Fatal("a streamed replay materialised the schedule")
	}
	_ = plan.Stats()
	if plan.sched == nil {
		t.Fatal("Stats did not materialise the schedule")
	}
	if got, want := plan.sched.Time(), plan.imp.Rounds(); got != want {
		t.Fatalf("materialised time %d != implicit rounds %d", got, want)
	}

	simple, err := nw.PlanGossip(WithAlgorithm(Simple))
	if err != nil {
		t.Fatal(err)
	}
	if simple.imp != nil || simple.sched == nil || simple.tree == nil || simple.labeled == nil {
		t.Fatal("Simple plan is not eagerly materialised")
	}
	if err := simple.Verify(); err != nil {
		t.Fatal(err)
	}
}

// materialisedFootprint applies SizeBytes' materialised-branch accounting
// to a schedule, for comparing against the implicit footprint.
func materialisedFootprint(p *Plan) int64 {
	const word = 8
	s := p.schedule()
	b := int64(len(s.Rounds)) * 3 * word
	for _, r := range s.Rounds {
		b += int64(len(r)) * 5 * word
		for _, tx := range r {
			b += int64(len(tx.To)) * word
		}
	}
	b += int64(p.network.N()) * 6 * word
	b += int64(p.network.N()) * 2 * word
	b += int64(p.network.M()) * 2 * word
	return b
}

// TestPlanSizeBytesRegression pins both cache footprints so neither form's
// accounting can silently regress: the implicit plan's SizeBytes stays
// O(n) (within a fixed window), and the materialised schedule of the same
// topology remains ≥100x larger.
func TestPlanSizeBytesRegression(t *testing.T) {
	n := 1024
	nw := Ring(n)
	plan, err := nw.PlanGossip()
	if err != nil {
		t.Fatal(err)
	}
	implicitBytes := plan.SizeBytes()
	// Packed arrays are ~28n plus the graph snapshot (~32n on a ring).
	if lo, hi := int64(28*n), int64(80*n); implicitBytes < lo || implicitBytes > hi {
		t.Fatalf("implicit SizeBytes = %d, want within [%d, %d]", implicitBytes, lo, hi)
	}
	matBytes := materialisedFootprint(plan)
	// A ring schedule delivers n-1 messages to each of n processors, so the
	// materialised footprint is ~8n² bytes.
	if lo := int64(n) * int64(n-1) * 8; matBytes < lo {
		t.Fatalf("materialised footprint = %d, want >= %d", matBytes, lo)
	}
	if ratio := matBytes / implicitBytes; ratio < 100 {
		t.Fatalf("materialised/implicit = %dx, want >= 100x (implicit %d, materialised %d)",
			ratio, implicitBytes, matBytes)
	}
	// SizeBytes reports the insert-time footprint: still the compact size
	// even after lazy materialisation (the documented accounting caveat).
	if got := plan.SizeBytes(); got != implicitBytes {
		t.Fatalf("SizeBytes changed after materialisation: %d -> %d", implicitBytes, got)
	}
}

// TestPlanCacheChargesSizer verifies the cache's byte accounting asks the
// plan for its real footprint: the cached bytes equal SizeBytes exactly,
// and the implicit entry is orders of magnitude below the old
// schedule-sized estimate.
func TestPlanCacheChargesSizer(t *testing.T) {
	nw := Ring(256)
	pc := NewPlanCache()
	plan, err := pc.Plan(nw)
	if err != nil {
		t.Fatal(err)
	}
	stats := pc.Stats()
	if stats.Bytes != plan.SizeBytes() {
		t.Fatalf("cache charges %d bytes, plan reports %d", stats.Bytes, plan.SizeBytes())
	}
	if stats.Bytes > 64<<10 {
		t.Fatalf("implicit cache entry is %d bytes; expected a compact O(n) footprint", stats.Bytes)
	}

	simple, err := pc.Plan(nw, WithAlgorithm(Simple))
	if err != nil {
		t.Fatal(err)
	}
	stats = pc.Stats()
	if got, want := stats.Bytes, plan.SizeBytes()+simple.SizeBytes(); got != want {
		t.Fatalf("cache charges %d bytes for both entries, want %d", got, want)
	}
	if simple.SizeBytes() < 100*plan.SizeBytes() {
		t.Fatalf("materialised entry (%d) is not >=100x the implicit entry (%d)",
			simple.SizeBytes(), plan.SizeBytes())
	}
}

// TestRoundAppendMatchesRound checks the append variant returns the same
// transmissions as Round and honours recycled buffers.
func TestRoundAppendMatchesRound(t *testing.T) {
	plan, err := Mesh(5, 5).PlanGossip()
	if err != nil {
		t.Fatal(err)
	}
	var buf []Transmission
	for time := -1; time <= plan.Rounds(); time++ {
		buf = plan.RoundAppend(time, buf[:0])
		want := plan.Round(time)
		if len(want) == 0 && len(buf) == 0 {
			continue
		}
		if !reflect.DeepEqual(buf, want) {
			t.Fatalf("round %d: RoundAppend %v != Round %v", time, buf, want)
		}
	}
}

func benchmarkPlan(b *testing.B, n int) *Plan {
	b.Helper()
	plan, err := Ring(n).PlanGossip()
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

// BenchmarkPlanRound measures the fresh-allocation query path; compare
// with BenchmarkPlanRoundAppend for the satellite's alloc reduction.
func BenchmarkPlanRound(b *testing.B) {
	for _, n := range []int{256, 1024} {
		plan := benchmarkPlan(b, n)
		rounds := plan.Rounds()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = plan.Round(i % rounds)
			}
		})
	}
}

func BenchmarkPlanRoundAppend(b *testing.B) {
	for _, n := range []int{256, 1024} {
		plan := benchmarkPlan(b, n)
		rounds := plan.Rounds()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var buf []Transmission
			for i := 0; i < b.N; i++ {
				buf = plan.RoundAppend(i%rounds, buf[:0])
			}
		})
	}
}
