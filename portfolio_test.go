package multigossip

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"multigossip/internal/algo"
	"multigossip/internal/beep"
	"multigossip/internal/core"
)

// TestAlgorithmEnumsAgree pins the enum unification: the public Algorithm,
// the internal core.Algorithm and the registry ID are one type, and the
// re-exported constants carry the registry's values and names. Before the
// registry existed, multigossip and core each declared their own enum and
// a third copy of the names lived in gossipd — three lists that could (and
// did) silently drift.
func TestAlgorithmEnumsAgree(t *testing.T) {
	// Compile-time: all three are the same type (assignment needs no cast).
	var a Algorithm = algo.Pipelined
	var c core.Algorithm = a
	_ = c

	pairs := []struct {
		pub  Algorithm
		reg  algo.ID
		name string
	}{
		{ConcurrentUpDown, algo.ConcurrentUpDown, "ConcurrentUpDown"},
		{Simple, algo.Simple, "Simple"},
		{Pipelined, algo.Pipelined, "Pipelined"},
		{Algebraic, algo.Algebraic, "Algebraic"},
		{Weighted, algo.Weighted, "Weighted"},
		{Beep, algo.Beep, "Beep"},
	}
	for _, p := range pairs {
		if p.pub != p.reg {
			t.Errorf("%s: public value %d != registry value %d", p.name, p.pub, p.reg)
		}
		if got := p.pub.String(); got != p.name {
			t.Errorf("String() = %q, want %q", got, p.name)
		}
		if got, err := ParseAlgorithm(strings.ToLower(p.name)); err != nil || got != p.pub {
			t.Errorf("ParseAlgorithm(%q) = %v, %v, want %v", strings.ToLower(p.name), got, err, p.pub)
		}
	}
	if core.ConcurrentUpDown != ConcurrentUpDown || core.Simple != Simple {
		t.Error("core re-exports disagree with the public constants")
	}
}

// TestPlanBuildersCoverRegistry requires the facade's builder table to
// cover the registry exactly — the check package algo cannot perform
// itself (builders live above it in the import graph).
func TestPlanBuildersCoverRegistry(t *testing.T) {
	reg := algo.Registry()
	if len(planBuilders) != len(reg) {
		t.Fatalf("planBuilders has %d entries, registry has %d", len(planBuilders), len(reg))
	}
	for _, info := range reg {
		if _, ok := planBuilders[info.ID]; !ok {
			t.Errorf("registered algorithm %s has no plan builder", info.Name)
		}
	}
}

// TestParseAlgorithm checks default, aliases, whitespace and the unknown
// hint listing every registered name.
func TestParseAlgorithm(t *testing.T) {
	if a, err := ParseAlgorithm(""); err != nil || a != ConcurrentUpDown {
		t.Fatalf("ParseAlgorithm(\"\") = %v, %v, want ConcurrentUpDown", a, err)
	}
	for name, want := range map[string]Algorithm{
		"cud": ConcurrentUpDown, " CUD ": ConcurrentUpDown,
		"flood": Pipelined, "rlnc": Algebraic, "coded": Algebraic,
		"weightedgossip": Weighted, "radio": Beep, "collision": Beep,
	} {
		if a, err := ParseAlgorithm(name); err != nil || a != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v, want %v", name, a, err, want)
		}
	}
	_, err := ParseAlgorithm("quantum")
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	for _, name := range AlgorithmNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

// TestPortfolioPlansVerify plans every registered algorithm on several
// topologies, re-verifies each plan under the model and holds it to the
// registry's rounds bound — the library-level version of the scenario
// matrix's per-cell assertion. Every plan must also answer an
// out-of-range TimetableOf with a note.
func TestPortfolioPlansVerify(t *testing.T) {
	nets := map[string]*Network{
		"ring13":  Ring(13),
		"mesh4x5": Mesh(4, 5),
		"star9":   Star(9),
	}
	for _, info := range Algorithms() {
		for name, nw := range nets {
			t.Run(info.Name+"/"+name, func(t *testing.T) {
				plan, err := nw.PlanGossip(WithAlgorithm(info.ID), WithSeed(3))
				if err != nil {
					t.Fatal(err)
				}
				if got := plan.Algorithm(); got != info.ID {
					t.Fatalf("Algorithm() = %v, want %v", got, info.ID)
				}
				if err := plan.Verify(); err != nil {
					t.Fatalf("Verify: %v", err)
				}
				n, r := nw.Processors(), plan.Radius()
				bound := info.Bound(AlgorithmBoundParams{
					N: n, Radius: r, Diameter: nw.Diameter(), Messages: n, ExpandedRadius: r,
				})
				if plan.Rounds() > bound {
					t.Fatalf("%d rounds exceeds %s bound %d", plan.Rounds(), info.BoundName, bound)
				}
				if info.ExactBound && plan.Rounds() != bound {
					t.Fatalf("%d rounds, want exactly %s = %d", plan.Rounds(), info.BoundName, bound)
				}
				if plan.Schedulable() != info.Schedulable {
					t.Fatalf("Schedulable() = %t, registry says %t", plan.Schedulable(), info.Schedulable)
				}
				// A processor outside [0, n) gets one note from every plan,
				// never a panic or an empty table.
				for _, v := range []int{-1, n, 99} {
					want := fmt.Sprintf("(no timetable: processor %d is outside [0, %d))", v, n)
					if got := plan.TimetableOf(v); got != want {
						t.Fatalf("TimetableOf(%d) = %q, want %q", v, got, want)
					}
				}
			})
		}
	}
}

// TestBeepPlanIsCollisionValid re-validates the Beep plan's schedule under
// the stricter radio model: every transmission floods the sender's whole
// neighbourhood, and a processor hearing two transmitters receives nothing.
func TestBeepPlanIsCollisionValid(t *testing.T) {
	nw := Mesh(4, 4)
	plan, err := nw.PlanGossip(WithAlgorithm(Beep))
	if err != nil {
		t.Fatal(err)
	}
	if err := beep.Validate(plan.network, plan.sched); err != nil {
		t.Fatalf("beep validation: %v", err)
	}
}

// TestAlgebraicPlanSurface pins the non-schedulable plan contract: rounds
// are reported, the schedule-shaped surface degrades explicitly instead of
// panicking, and schedule-consuming operations return errors naming the
// limitation.
func TestAlgebraicPlanSurface(t *testing.T) {
	nw := Ring(10)
	plan, err := nw.PlanGossip(WithAlgorithm(Algebraic), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Schedulable() {
		t.Fatal("algebraic plan claims a transmission schedule")
	}
	if plan.Rounds() <= 0 {
		t.Fatalf("Rounds = %d, want > 0", plan.Rounds())
	}
	if plan.Seed() != 11 {
		t.Fatalf("Seed = %d, want 11", plan.Seed())
	}
	if got := plan.Round(0); got != nil {
		t.Fatalf("Round(0) = %v, want nil", got)
	}
	if err := plan.Verify(); err != nil {
		t.Fatalf("Verify (re-simulation): %v", err)
	}
	if !strings.Contains(plan.Stats(), "seed 11") {
		t.Fatalf("Stats() = %q, want the realized-run summary with the seed", plan.Stats())
	}
	if _, err := plan.ExecuteWithFaults(); err == nil {
		t.Fatal("ExecuteWithFaults succeeded on a coded plan")
	}
	if _, err := plan.MarshalJSON(); err == nil {
		t.Fatal("MarshalJSON succeeded on a coded plan")
	}
	if _, _, err := plan.Criticality(); err == nil {
		t.Fatal("Criticality succeeded on a coded plan")
	}
}

// TestSeedKeysPlanCache: the cache must treat two seeds of a randomized
// algorithm as distinct plans, and must ignore the seed for deterministic
// ones (same plan, one entry).
func TestSeedKeysPlanCache(t *testing.T) {
	pc := NewPlanCache()
	nw := Ring(12)
	if _, src, err := pc.PlanSourced(nw, WithAlgorithm(Algebraic), WithSeed(1)); err != nil || src != CacheMiss {
		t.Fatalf("first algebraic: %v, %v", src, err)
	}
	if _, src, err := pc.PlanSourced(nw, WithAlgorithm(Algebraic), WithSeed(1)); err != nil || src != CacheHit {
		t.Fatalf("repeat seed: source %v, want hit (%v)", src, err)
	}
	if _, src, err := pc.PlanSourced(nw, WithAlgorithm(Algebraic), WithSeed(2)); err != nil || src != CacheMiss {
		t.Fatalf("new seed: source %v, want miss (%v)", src, err)
	}
	if _, src, err := pc.PlanSourced(nw, WithSeed(1)); err != nil || src != CacheMiss {
		t.Fatalf("first cud: %v, %v", src, err)
	}
	if _, src, err := pc.PlanSourced(nw, WithSeed(99)); err != nil || src != CacheHit {
		t.Fatalf("cud with different seed: source %v, want hit — deterministic plans ignore the seed (%v)", src, err)
	}
}

// TestPortfolioRandomTrees runs every deterministic schedulable algorithm
// over seeded random trees and checks completion within bounds — tree
// inputs hit the arbitration-heavy paths (pipelined) and the collision
// admission (beep) hardest.
func TestPortfolioRandomTrees(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(28)
		nw := RandomTreeNetwork(rng, n)
		for _, info := range Algorithms() {
			if !info.Deterministic {
				continue
			}
			plan, err := nw.PlanGossip(WithAlgorithm(info.ID))
			if err != nil {
				t.Fatalf("seed %d n %d %s: %v", seed, n, info.Name, err)
			}
			if err := plan.Verify(); err != nil {
				t.Fatalf("seed %d n %d %s: verify: %v", seed, n, info.Name, err)
			}
			r := plan.Radius()
			bound := info.Bound(AlgorithmBoundParams{
				N: n, Radius: r, Diameter: nw.Diameter(), Messages: n, ExpandedRadius: r,
			})
			if plan.Rounds() > bound {
				t.Fatalf("seed %d n %d %s: %d rounds exceeds bound %d", seed, n, info.Name, plan.Rounds(), bound)
			}
		}
	}
}
