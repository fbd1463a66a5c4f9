package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	mg "multigossip"
	"multigossip/internal/core"
	"multigossip/internal/fault"
	"multigossip/internal/graph"
	"multigossip/internal/implicit"
	"multigossip/internal/obs"
	"multigossip/internal/repair"
	"multigossip/internal/schedule"
	"multigossip/internal/spantree"
)

// ---- plan-cold: Network.PlanGossip on a distinct topology per operation.

// planColdClasses is one pass of plan-cold: random graphs at three sizes
// and three densities (the sweep's pruning depends on density), rings,
// grids, tori and uniform random trees. Every operation draws a fresh
// instance, so no two operations of a run plan the same labelled topology.
// The costliest class, random n = 2048 at degree 16, is listed twice: with
// twice as many samples as lie beyond the p95, the tail falls in the middle
// of its distribution rather than on its cheapest instances. The odd class
// count puts the median inside one class, not between two.
var planColdClasses = []func(*rand.Rand) topo{
	func(r *rand.Rand) topo { return randomGraph(r, 1024, 4) },
	func(r *rand.Rand) topo { return randomGraph(r, 1024, 8) },
	func(r *rand.Rand) topo { return randomGraph(r, 1024, 16) },
	func(r *rand.Rand) topo { return randomGraph(r, 1536, 4) },
	func(r *rand.Rand) topo { return randomGraph(r, 1536, 8) },
	func(r *rand.Rand) topo { return randomGraph(r, 1536, 16) },
	func(r *rand.Rand) topo { return randomGraph(r, 2048, 4) },
	func(r *rand.Rand) topo { return randomGraph(r, 2048, 8) },
	func(r *rand.Rand) topo { return randomGraph(r, 2048, 16) },
	func(r *rand.Rand) topo { return randomGraph(r, 2048, 16) },
	func(r *rand.Rand) topo { return ring(1024).relabel(r) },
	func(r *rand.Rand) topo { return ring(2048).relabel(r) },
	func(r *rand.Rand) topo { return grid(32, 32).relabel(r) },
	func(r *rand.Rand) topo { return grid(45, 45).relabel(r) },
	func(r *rand.Rand) topo { return torus(32, 32).relabel(r) },
	func(r *rand.Rand) topo { return torus(40, 40).relabel(r) },
	func(r *rand.Rand) topo { return randomTree(r, 1024) },
	func(r *rand.Rand) topo { return randomTree(r, 2048) },
	func(r *rand.Rand) topo { return randomTree(r, 4096) },
}

// planColdPassesPerSecond sizes a run: one pass of planColdClasses takes
// about 1 s on a 2-CPU host at GOMAXPROCS=2.
const planColdPassesPerSecond = 1.0

// planColdVerifyMaxN bounds the plans the post-run Verify sample draws
// from: Verify materialises the Θ(n²) schedule.
const planColdVerifyMaxN = 1100

// planColdVerifySample is how many plans Plan.Verify re-checks per run.
const planColdVerifySample = 3

// planColdRadiusSample is how many random graphs and trees per run have
// their radius computed by breadth-first search for the rounds = n + r
// check; rings, grids and tori are all checked against the closed form.
// The search costs O(n·m), about 0.1 to 0.3 s on the largest inputs.
const planColdRadiusSample = 12

// planColdRoundSample is how many evenly spaced rounds of each plan the
// traced pass enumerates for the implicit.round_append metrics.
const planColdRoundSample = 8

type planCold struct {
	topos  []topo
	nws    []*mg.Network
	rounds []int
	radius []int
	verify map[int]*mg.Plan        // op index -> plan, for the sampled ops
	bfs    map[int]bool            // ops whose radius the checks compute
	raw    []schedule.Transmission // sampleRounds buffer, traced pass only
}

func runPlanCold(cfg runConfig) (*outcome, error) {
	return runInproc(inprocSpec{name: "plan-cold", setupReps: 5, warmup: len(planColdClasses), setup: setupPlanCold}, cfg)
}

func setupPlanCold(cfg runConfig) (opSet, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	s := &planCold{verify: map[int]*mg.Plan{}, bfs: map[int]bool{}}
	for p := passes(cfg.seconds, planColdPassesPerSecond); p > 0; p-- {
		for _, k := range rng.Perm(len(planColdClasses)) {
			t := planColdClasses[k](rng)
			s.topos = append(s.topos, t)
			s.nws = append(s.nws, t.network())
		}
	}
	s.rounds = make([]int, len(s.topos))
	s.radius = make([]int, len(s.topos))
	var small, open []int
	for i, t := range s.topos {
		if t.n <= planColdVerifyMaxN {
			small = append(small, i)
		}
		if t.radius < 0 {
			open = append(open, i)
		}
	}
	for _, k := range rng.Perm(len(small))[:min(planColdVerifySample, len(small))] {
		s.verify[small[k]] = nil
	}
	for _, k := range rng.Perm(len(open))[:min(planColdRadiusSample, len(open))] {
		s.bfs[open[k]] = true
	}
	return s, nil
}

func (s *planCold) len() int { return len(s.nws) }

func (s *planCold) run(i int) error {
	p, err := s.nws[i].PlanGossip()
	if err != nil {
		return err
	}
	s.rounds[i], s.radius[i] = p.Rounds(), p.Radius()
	if _, ok := s.verify[i]; ok {
		s.verify[i] = p
	}
	return nil
}

func (s *planCold) traced(i int, rec *recorder, c counters) error {
	g := s.topos[i].graph()
	root := rec.begin("op", i, -1)
	imp, err := tracedPlan(g, i, root, rec, c)
	rec.end(root)
	if err != nil {
		return err
	}
	s.sampleRounds(imp, c)
	return nil
}

// sampleRounds enumerates planColdRoundSample evenly spaced rounds of imp
// with RoundAppend into a reused buffer, outside every span, and adds the
// time, transmissions and allocated bytes to c.
func (s *planCold) sampleRounds(imp *implicit.Plan, c counters) {
	r := imp.Rounds()
	s.raw = imp.RoundAppend(0, s.raw[:0]) // grows the buffer before measuring
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tx := 0
	t0 := time.Now()
	for k := 0; k < planColdRoundSample; k++ {
		s.raw = imp.RoundAppend(k*(r-1)/(planColdRoundSample-1), s.raw[:0])
		tx += len(s.raw)
	}
	c["implicit.round_append_ns"] += float64(time.Since(t0))
	runtime.ReadMemStats(&ms1)
	c["implicit.rounds"] += planColdRoundSample
	c["implicit.tx"] += float64(tx)
	c["implicit.alloc_bytes"] += float64(ms1.TotalAlloc - ms0.TotalAlloc)
}

// check holds every ring, grid and torus plan, and a seeded sample of the
// random graphs and trees, to Theorem 1: the plan's radius is the graph
// radius and it has n + r rounds.
func (s *planCold) check(o *outcome) {
	for i, t := range s.topos {
		r := t.radius
		if s.bfs[i] {
			r = t.bfsRadius()
		} else if r < 0 {
			continue
		}
		if s.radius[i] != r || s.rounds[i] != t.n+r {
			o.fail("op %d (%s n=%d): radius %d and %d rounds, want radius %d and n + r = %d",
				i, t.family, t.n, s.radius[i], s.rounds[i], r, t.n+r)
		}
	}
	for i, p := range s.verify {
		o.attempted++
		if p == nil {
			o.fail("op %d: no plan kept for Verify", i)
		} else if err := p.Verify(); err != nil {
			o.fail("op %d: Verify: %v", i, err)
		}
	}
}

// tracedPlan builds a ConcurrentUpDown plan as PlanGossip does, one span per
// layer call: the facade's private graph snapshot, the minimum-depth sweep,
// the DFS labelling and the implicit plan.
func tracedPlan(g *graph.Graph, op, root int, rec *recorder, c counters) (*implicit.Plan, error) {
	sp := rec.begin("graph.snapshot", op, root)
	snap := g.Clone()
	rec.end(sp)
	sp = rec.begin("spantree.min_depth", op, root)
	tree, sweep, err := spantree.MinDepthWithStats(snap)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin("spantree.label", op, root)
	l := spantree.Label(tree)
	rec.end(sp)
	sp = rec.begin("implicit.new", op, root)
	imp := implicit.New(l)
	rec.end(sp)
	c["spantree.roots_completed"] += float64(sweep.Completed)
	c["spantree.roots_pruned"] += float64(sweep.Pruned)
	c["spantree.roots_short_circuited"] += float64(sweep.ShortCircuited)
	c["implicit.bytes"] += float64(imp.SizeBytes())
	c["implicit.vertices"] += float64(imp.N())
	return imp, nil
}

// ---- replay: a fresh plan for a small network, executed under link loss
// with the default repair.

var replayClasses = []func(*rand.Rand) topo{
	func(r *rand.Rand) topo { return ring(256).relabel(r) },
	func(r *rand.Rand) topo { return grid(16, 16).relabel(r) },
	func(r *rand.Rand) topo { return torus(16, 16).relabel(r) },
	func(r *rand.Rand) topo { return randomGraph(r, 256, 6) },
	func(r *rand.Rand) topo { return randomGraph(r, 256, 10) },
}

// replayLoss is the per-delivery loss probability. At 1% every input the
// generators produce heals within the default repair budget.
const replayLoss = 0.01

const replayPassesPerSecond = 4.0

type replay struct {
	topos    []topo
	nws      []*mg.Network
	lossSeed []int64
	reports  []mg.FaultReport
}

func runReplay(cfg runConfig) (*outcome, error) {
	return runInproc(inprocSpec{name: "replay", setupReps: 7, warmup: 2 * len(replayClasses), setup: setupReplay}, cfg)
}

func setupReplay(cfg runConfig) (opSet, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	s := &replay{}
	for p := passes(cfg.seconds, replayPassesPerSecond); p > 0; p-- {
		for _, k := range rng.Perm(len(replayClasses)) {
			t := replayClasses[k](rng)
			s.topos = append(s.topos, t)
			s.nws = append(s.nws, t.network())
			s.lossSeed = append(s.lossSeed, rng.Int63())
		}
	}
	s.reports = make([]mg.FaultReport, len(s.nws))
	return s, nil
}

func (s *replay) len() int { return len(s.nws) }

func (s *replay) run(i int) error {
	p, err := s.nws[i].PlanGossip()
	if err != nil {
		return err
	}
	s.reports[i], err = p.ExecuteWithFaults(mg.WithLinkLoss(replayLoss, s.lossSeed[i]))
	return err
}

func (s *replay) traced(i int, rec *recorder, c counters) error {
	g := s.topos[i].graph()
	root := rec.begin("op", i, -1)
	defer rec.end(root)
	imp, err := tracedPlan(g, i, root, rec, c)
	if err != nil {
		return err
	}
	// ExecuteWithFaults: materialise the schedule from the compact plan,
	// replay it under the injector with the progress collector the facade
	// always attaches, then repair.
	sp := rec.begin("core.materialise", i, root)
	l := imp.Labeled()
	imp.OriginalTree()
	sched := core.RemapToOriginal(core.BuildConcurrentUpDown(l), l)
	rec.end(sp)
	n := g.N()
	inj := fault.Compose{fault.LinkLoss{P: replayLoss, Seed: s.lossSeed[i]}}
	progress := obs.NewProgressCollector(n, n*n)
	ro := obs.Multi(nil, progress)
	sp = rec.begin("fault.execute", i, root)
	ro.BeginPhase("schedule", mg.ConcurrentUpDown.String())
	holds, dropped, err := fault.ExecuteTraced(g, sched, inj, nil, 0, nil, ro)
	ro.EndPhase("schedule")
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.begin("repair.run", i, root)
	ro.BeginPhase("repair", "")
	out, err := repair.Run(g, holds, repair.Options{
		Injector: inj, RoundOffset: sched.Time(), Validate: true, Observer: ro,
	})
	ro.EndPhase("repair")
	rec.end(sp)
	if err != nil {
		return err
	}
	c["fault.dropped"] += float64(dropped + out.Dropped)
	c["repair.iterations"] += float64(out.Iterations)
	c["repair.rounds"] += float64(out.Rounds)
	if !out.Complete || fault.Coverage(out.Holds) != 1 {
		return fmt.Errorf("traced replay did not heal: coverage %v", fault.Coverage(out.Holds))
	}
	return nil
}

func (s *replay) check(o *outcome) {
	for i, r := range s.reports {
		if !r.Complete || r.FinalCoverage != 1 {
			o.fail("op %d (%s n=%d): did not heal: complete=%v final coverage %v",
				i, s.topos[i].family, s.topos[i].n, r.Complete, r.FinalCoverage)
		}
	}
}
