package fault

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"multigossip/internal/core"
	"multigossip/internal/graph"
	"multigossip/internal/obs"
	"multigossip/internal/schedule"
	"multigossip/internal/spantree"
)

// opaque hides an injector's concrete type, so compile asks it through
// the Injector interface: the reference the compiled form must match.
type opaque struct{ inj Injector }

func (o opaque) Drop(t, tx, from, to, msg int) bool { return o.inj.Drop(t, tx, from, to, msg) }
func (o opaque) Down(t, p int) bool                 { return o.inj.Down(t, p) }

// event is one observer event: a watch or Delivery outcome, a
// BeginRound, or an EndRound with its stats.
type event struct {
	kind               byte // 'w' watch, 'd' Delivery, 'b' BeginRound, 'e' EndRound
	abs, from, to, msg int
	outcome            obs.Outcome
	stats              obs.RoundStats
}

// eventLog records, in order, every per-delivery outcome the watch
// observer sees and every round event the RoundObserver sees.
type eventLog struct {
	obs.Nop
	events []event
}

func (l *eventLog) watch(abs, from, to, msg int, o DeliveryOutcome) {
	l.events = append(l.events, event{kind: 'w', abs: abs, from: from, to: to, msg: msg, outcome: o})
}
func (l *eventLog) BeginRound(abs int) { l.events = append(l.events, event{kind: 'b', abs: abs}) }
func (l *eventLog) EndRound(abs int, s obs.RoundStats) {
	l.events = append(l.events, event{kind: 'e', abs: abs, stats: s})
}
func (l *eventLog) Delivery(abs, from, to, msg int, o obs.Outcome) {
	l.events = append(l.events, event{kind: 'd', abs: abs, from: from, to: to, msg: msg, outcome: o})
}

// tracedRun is one fully observed execution's result.
type tracedRun struct {
	holds   []*schedule.Bitset
	dropped int
	events  []event
}

func runTraced(t testing.TB, g *graph.Graph, s schedule.Source, inj Injector, initial []*schedule.Bitset, offset int) tracedRun {
	t.Helper()
	var log eventLog
	holds, dropped, err := ExecuteTraced(g, s, inj, initial, offset, log.watch, &log)
	if err != nil {
		t.Fatal(err)
	}
	return tracedRun{holds, dropped, log.events}
}

// checkCompiled executes s under inj as compiled and under the same
// injector behind opaque, and requires identical hold sets, drop counts,
// round stats and event streams.
func checkCompiled(t testing.TB, name string, g *graph.Graph, s schedule.Source, inj Injector, initial []*schedule.Bitset, offset int) tracedRun {
	t.Helper()
	got := runTraced(t, g, s, inj, initial, offset)
	want := runTraced(t, g, s, opaque{inj}, initial, offset)
	if got.dropped != want.dropped {
		t.Fatalf("%s: compiled dropped %d, interface %d", name, got.dropped, want.dropped)
	}
	if !reflect.DeepEqual(got.holds, want.holds) {
		t.Fatalf("%s: compiled and interface hold sets differ", name)
	}
	if !slices.Equal(got.events, want.events) {
		for i := range min(len(got.events), len(want.events)) {
			if got.events[i] != want.events[i] {
				t.Fatalf("%s: event %d: compiled %+v, interface %+v", name, i, got.events[i], want.events[i])
			}
		}
		t.Fatalf("%s: compiled emitted %d events, interface %d", name, len(got.events), len(want.events))
	}
	return got
}

// differentialSources returns the schedules the differential checks run on
// g: the streamed ConcurrentUpDown cursor the facade replays, and the
// materialised ConcurrentUpDown and Simple schedules.
func differentialSources(t testing.TB, g *graph.Graph) map[string]schedule.Source {
	t.Helper()
	imp, _, err := core.GossipImplicit(g)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := spantree.MinDepth(g)
	if err != nil {
		t.Fatal(err)
	}
	builders := core.GossipOnTree(tr)
	return map[string]schedule.Source{
		"cursor": imp.Cursor(),
		"cud":    builders[core.ConcurrentUpDown]().Schedule,
		"simple": builders[core.Simple]().Schedule,
	}
}

// differentialInjectors returns the fault models checked at loss rate p:
// LinkLoss alone, and composed (also nested) with a dead link, a crash
// window, a drop set and a second, differently seeded LinkLoss.
func differentialInjectors(g *graph.Graph, p float64, seed int64) map[string]Injector {
	e := g.Edges()[len(g.Edges())/2]
	loss := LinkLoss{P: p, Seed: seed}
	crash := CrashWindow{Proc: g.N() / 3, From: 2, To: 9}
	drops := DropSet{{Round: 1, Tx: 0, Dest: g.Neighbors(0)[0]}: true, {Round: 4, Tx: 1, Dest: 1}: true}
	return map[string]Injector{
		"loss":            loss,
		"loss+deadlink":   Compose{loss, DeadLink{U: e.U, V: e.V}},
		"loss+crash":      Compose{crash, loss},
		"loss+crashstop":  Compose{loss, CrashStop(g.N()-1, 3)},
		"loss+dropset":    Compose{drops, loss},
		"two losses":      Compose{loss, LinkLoss{P: 0.05, Seed: seed ^ 99}},
		"nested, all":     Compose{Compose{loss, drops}, Compose{crash, DeadLink{U: e.U, V: e.V}}},
		"crash only":      crash,
		"loss nan":        LinkLoss{P: math.NaN(), Seed: seed},
		"opaque member":   Compose{loss, opaque{crash}},
		"dead link alone": DeadLink{U: e.U, V: e.V},
	}
}

// TestCompiledInjectorMatchesInterface holds the compiled injector to the
// interface path on every schedule kind, at loss rates 0, 0.001, 0.01, 0.5
// and 1, on fresh executions and on continuations from lossy hold sets at
// a round offset (the shape of a repair pass).
func TestCompiledInjectorMatchesInterface(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	graphs := map[string]*graph.Graph{
		"ring40":   graph.Cycle(40),
		"grid6x7":  graph.Grid(6, 7),
		"random60": graph.RandomConnected(rng, 60, 6.0/60),
	}
	for gname, g := range graphs {
		for sname, s := range differentialSources(t, g) {
			for _, p := range []float64{0, 0.001, 0.01, 0.5, 1} {
				for iname, inj := range differentialInjectors(g, p, int64(len(gname))*1000+int64(p*1000)) {
					name := fmt.Sprintf("%s/%s/p=%v/%s", gname, sname, p, iname)
					first := checkCompiled(t, name, g, s, inj, nil, 0)
					checkCompiled(t, name+"/continued", g, s, inj, first.holds, s.Time()+5)
				}
			}
		}
	}
}

// TestCompileFlattens pins what compile keeps of each member: only
// LinkLoss coins with 0 < P < 1 hash, P >= 1 drops everything, P <= 0 and
// NaN vanish, and provably-false Drop and Down members are never asked.
func TestCompileFlattens(t *testing.T) {
	c := compile(Compose{
		LinkLoss{P: 0.01}, LinkLoss{P: 0}, LinkLoss{P: math.NaN()},
		DeadLink{U: 0, V: 1}, DropSet{}, CrashWindow{Proc: 2, From: 0, To: 1},
		Compose{opaque{LinkLoss{P: 0.5}}},
	}, 4)
	if len(c.coins) != 1 || c.dropAll {
		t.Fatalf("coins %d dropAll %v, want one coin and no drop-all", len(c.coins), c.dropAll)
	}
	if len(c.drops) != 3 || len(c.downs) != 2 {
		t.Fatalf("%d Drop members and %d Down members, want 3 and 2", len(c.drops), len(c.downs))
	}
	if c := compile(LinkLoss{P: 1}, 4); !c.dropAll || c.mix != nil {
		t.Fatalf("P = 1: dropAll %v, mix table %v; want drop-all and no table", c.dropAll, c.mix)
	}
	if compile(nil, 4) != nil {
		t.Fatal("compile(nil) is not nil")
	}
}

// TestCoinThresholdMatchesFloat checks the compiled coin's integer
// threshold at its boundary: for every loss rate, the largest 53-bit
// value it drops and the smallest it keeps get the same answer from
// LinkLoss.Drop's float comparison.
func TestCoinThresholdMatchesFloat(t *testing.T) {
	ps := []float64{1e-300, 0x1p-54, 0x1p-53, 0x1p-52, 0.001, 0.01, 0.1, 1.0 / 3, 0.5, 0.99, 1 - 0x1p-53}
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 1000; i++ {
		ps = append(ps, rng.Float64())
	}
	drops := func(k uint64, p float64) bool { return float64(k)/(1<<53) < p }
	for _, p := range ps {
		if p <= 0 {
			continue
		}
		thr := compile(LinkLoss{P: p}, 1).coins[0].thr
		if thr == 0 || thr > 1<<53 {
			t.Fatalf("P = %v: threshold %d outside [1, 2^53]", p, thr)
		}
		if !drops(thr-1, p) {
			t.Fatalf("P = %v: float keeps %d, below the threshold %d", p, thr-1, thr)
		}
		if thr < 1<<53 && drops(thr, p) {
			t.Fatalf("P = %v: float drops %d, the threshold", p, thr)
		}
	}
}

// FuzzCompiledInjector is TestCompiledInjectorMatchesInterface on
// fuzzer-chosen random graphs, loss rates, seeds, round offsets and
// compositions (bits of mask pick the members beside LinkLoss).
func FuzzCompiledInjector(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(3), uint8(0), uint8(0))
	f.Add(int64(7), uint8(60), uint8(128), uint8(15), uint8(40))
	f.Add(int64(-3), uint8(5), uint8(255), uint8(9), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, pRaw, mask, offRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(nRaw)%70
		g := graph.RandomConnected(rng, n, min(1, 4/float64(n)))
		p := float64(pRaw) / 255
		members := Compose{LinkLoss{P: p, Seed: seed}}
		if mask&1 != 0 {
			e := g.Edges()[rng.Intn(g.M())]
			members = append(members, DeadLink{U: e.U, V: e.V})
		}
		if mask&2 != 0 {
			from := rng.Intn(2 * n)
			members = append(members, CrashWindow{Proc: rng.Intn(n), From: from, To: from + rng.Intn(n)})
		}
		if mask&4 != 0 {
			members = append(members, DropSet{{Round: rng.Intn(n), Tx: rng.Intn(3), Dest: rng.Intn(n)}: true})
		}
		if mask&8 != 0 {
			members = append(members, LinkLoss{P: rng.Float64(), Seed: rng.Int63()})
		}
		var inj Injector = members
		if mask&16 != 0 {
			inj = Compose{members}
		}
		for name, s := range differentialSources(t, g) {
			first := checkCompiled(t, name, g, s, inj, nil, 0)
			checkCompiled(t, name+"/continued", g, s, inj, first.holds, s.Time()+int(offRaw))
		}
	})
}
