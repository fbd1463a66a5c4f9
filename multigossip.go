// Package multigossip generates communication schedules for gossiping
// (all-to-all broadcast) on arbitrary networks under the multicasting
// communication model, implementing Gonzalez, "Gossiping in the
// Multicasting Communication Environment" (IPDPS 2001).
//
// In this model, in every synchronous round each processor may multicast
// one held message to any subset of its neighbours, and each processor may
// receive at most one message; a message received at time t can be
// forwarded in round t. Gossiping starts with one distinct message per
// processor and ends when every processor holds all n messages.
//
// The library's main entry point is Network.PlanGossip, which runs the
// paper's pipeline — minimum-depth spanning tree, DFS labelling, then the
// ConcurrentUpDown schedule — and returns a Plan whose total communication
// time is exactly n + r, where r is the network radius. This is within 1.5x
// of optimal for every network and within one round of optimal for lines.
//
//	nw := multigossip.Ring(8)
//	plan, err := nw.PlanGossip()
//	// plan.Rounds() == 8 + 4; plan.Verify() == nil
//
// Secondary entry points cover the paper's baselines (algorithm Simple,
// broadcast), the weighted extension (Network.PlanWeightedGossip), and a
// distributed executor (Plan.ExecuteDistributed) that runs the protocol
// with every processor deriving its actions from local data only.
package multigossip

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"multigossip/internal/algebraic"
	"multigossip/internal/algo"
	"multigossip/internal/baseline"
	"multigossip/internal/beep"
	"multigossip/internal/core"
	"multigossip/internal/graph"
	"multigossip/internal/implicit"
	"multigossip/internal/pipelined"
	"multigossip/internal/schedule"
	"multigossip/internal/search"
	"multigossip/internal/sim"
	"multigossip/internal/spantree"
	"multigossip/internal/trace"
	"multigossip/internal/weighted"
)

// Algorithm selects the schedule construction. It aliases the internal
// registry's ID type, so the public enum, internal/core's enum, the plan
// cache keys and gossipd's name parsing all share one definition — the
// same unification CacheSource uses for plancache.Source.
type Algorithm = algo.ID

// The registered algorithms. Values are stable (they key the plan cache
// and the disk store); new algorithms append, existing ones never renumber.
const (
	// ConcurrentUpDown is the paper's contribution: n + r rounds (Theorem 1).
	ConcurrentUpDown = algo.ConcurrentUpDown
	// Simple is the baseline of Lemma 1: 2n + r - 3 rounds.
	Simple = algo.Simple
	// Pipelined gossips by concurrent pipelined tree floods with no gather
	// phase, after De Florio & Blondia's pipelined gossiping.
	Pipelined = algo.Pipelined
	// Algebraic is the randomized network-coded baseline after Haeupler:
	// seeded GF(2) coded packets, no transmission schedule, expected-rounds
	// reporting. Select the seed with WithSeed.
	Algebraic = algo.Algebraic
	// Weighted runs the paper's Section 4 weighted gossiping with unit
	// counts (the full weighted problem is Network.PlanWeightedGossip).
	Weighted = algo.Weighted
	// Beep is the collision-constrained variant: a transmission reaches
	// every neighbour, and a processor hearing two or more simultaneous
	// transmitters receives nothing.
	Beep = algo.Beep
)

// AlgorithmInfo describes one registered algorithm: canonical name,
// accepted aliases, capability flags (Deterministic, Schedulable,
// FaultExecutable, TreeBased, ImplicitBacked) and the registered rounds
// bound every plan must meet.
type AlgorithmInfo = algo.Info

// AlgorithmBoundParams feeds an AlgorithmInfo's rounds-bound predicate.
type AlgorithmBoundParams = algo.BoundParams

// Algorithms returns every registered algorithm in ID order.
func Algorithms() []AlgorithmInfo { return algo.Registry() }

// AlgorithmNames returns the canonical lowercase name of every registered
// algorithm, sorted — the valid values of ParseAlgorithm and of gossipd's
// algorithm request field.
func AlgorithmNames() []string { return algo.Names() }

// ParseAlgorithm resolves a case-insensitive algorithm name or alias. The
// empty string selects the default, ConcurrentUpDown; an unknown name
// errors with the full list of accepted names.
func ParseAlgorithm(name string) (Algorithm, error) {
	if strings.TrimSpace(name) == "" {
		return ConcurrentUpDown, nil
	}
	info, ok := algo.Lookup(name)
	if !ok {
		return 0, fmt.Errorf("multigossip: unknown algorithm %q (want one of %s)",
			name, strings.Join(algo.Names(), ", "))
	}
	return info.ID, nil
}

// ErrDisconnected is returned (wrapped) by PlanGossip, Metrics and every
// other planner entry point when the network is not connected. Test with
// errors.Is; the serving layer maps it to an HTTP 422.
var ErrDisconnected = errors.New("multigossip: network is not connected")

// Network is a communication network under churn: processors are 0..n-1 and
// links are added with AddLink and removed with RemoveLink.
type Network struct {
	// mu guards g and every cache below: links mutate under it and every
	// accessor reads under it, so no reader ever observes a half-applied
	// mutation (and the race detector agrees).
	mu sync.Mutex
	g  *graph.Graph

	// metrics caches the result of one full parallel BFS sweep, so that
	// Radius, Diameter, Center and Eccentricities on the same network
	// together cost a single sweep instead of one O(nm) pass each. Link
	// churn no longer discards it wholesale: mutations queue as pending
	// deltas and the next metric read first tries graph.RepairSweep, which
	// certifies the stale result from the affected region when the change
	// was local and falls back to the full sweep when it was not.
	metrics *graph.SweepResult
	pending []graph.EdgeDelta

	// fp caches the content fingerprint; the XOR edge-hash scheme keeps it
	// exact across churn at O(1) per mutation, so fpOK only resets when the
	// cache has never been primed.
	fp   uint64
	fpOK bool
}

// maxPendingDeltas caps the mutation backlog carried between metric reads:
// past a handful of deltas the repair rarely certifies and the bookkeeping
// outweighs the sweep it might save, so the cache degrades to a plain
// invalidation.
const maxPendingDeltas = 8

// NewNetwork returns a network with n processors and no links.
func NewNetwork(n int) *Network { return &Network{g: graph.New(n)} }

// fromGraph wraps an internal graph (used by the topology constructors).
func fromGraph(g *graph.Graph) *Network { return &Network{g: g} }

// AddLink adds the bidirectional link {u, v} and reports whether the
// network changed (adding an existing link is a no-op returning false).
// AddLink is safe to call concurrently with every accessor and with
// RemoveLink: all of them run under the network's mutation lock.
func (nw *Network) AddLink(u, v int) bool {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if !nw.g.AddEdge(u, v) {
		return false
	}
	nw.noteMutation(graph.EdgeDelta{U: min(u, v), V: max(u, v), Added: true})
	return true
}

// RemoveLink deletes the bidirectional link {u, v}. Removing an absent link
// is a no-op returning nil. When the removal would split the network, the
// link is restored and an error wrapping ErrDisconnected is returned: a
// Network never transitions into a state its planners cannot serve.
func (nw *Network) RemoveLink(u, v int) error {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if !nw.g.RemoveEdge(u, v) {
		return nil
	}
	// The endpoints were connected through the removed link, so the network
	// stays connected exactly when an alternative u-v path survives.
	if !nw.g.Reachable(u, v) {
		nw.g.AddEdge(u, v)
		return fmt.Errorf("multigossip: removing link {%d, %d} would disconnect the network: %w", u, v, ErrDisconnected)
	}
	nw.noteMutation(graph.EdgeDelta{U: min(u, v), V: max(u, v), Added: false})
	return nil
}

// noteMutation folds one applied edge change into the incremental caches.
// Must be called with nw.mu held and only for mutations that changed the
// graph. The fingerprint updates exactly (XOR of the edge hash); the metric
// cache queues the delta for repair-on-read, cancelling an exact opposite
// still in the queue (a flap that lands back on the cached topology needs no
// repair at all).
func (nw *Network) noteMutation(d graph.EdgeDelta) {
	if nw.fpOK {
		nw.fp ^= graph.EdgeHash(d.U, d.V)
	}
	if nw.metrics == nil {
		return
	}
	for i, p := range nw.pending {
		if p.U == d.U && p.V == d.V && p.Added != d.Added {
			nw.pending = append(nw.pending[:i], nw.pending[i+1:]...)
			return
		}
	}
	if len(nw.pending) >= maxPendingDeltas {
		nw.metrics, nw.pending = nil, nil
		return
	}
	nw.pending = append(nw.pending, d)
}

// sweepMetricsErr returns the cached full-sweep metrics, computing them on
// first use, or the sweep's error (wrapping ErrDisconnected when the
// network is not connected).
func (nw *Network) sweepMetricsErr() (*graph.SweepResult, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.metrics != nil && len(nw.pending) > 0 {
		// Try to certify the stale sweep from the churned region before
		// paying for a full one. Either way the backlog is settled.
		if res, ok := graph.RepairSweep(nw.g, nw.metrics, nw.pending); ok {
			nw.metrics = res
		} else {
			nw.metrics = nil
		}
		nw.pending = nil
	}
	if nw.metrics == nil {
		res, err := nw.g.Sweep(graph.SweepAll)
		if err != nil {
			if errors.Is(err, graph.ErrDisconnected) {
				return nil, fmt.Errorf("multigossip: network metrics: %w", ErrDisconnected)
			}
			return nil, fmt.Errorf("multigossip: network metrics: %w", err)
		}
		nw.metrics = res
	}
	return nw.metrics, nil
}

// sweepMetrics backs the legacy panicking accessors (Radius, Diameter,
// Center, Eccentricities); error-aware callers use Metrics instead.
func (nw *Network) sweepMetrics() *graph.SweepResult {
	res, err := nw.sweepMetricsErr()
	if err != nil {
		panic(err)
	}
	return res
}

// NetworkMetrics carries every distance metric of one full BFS sweep.
type NetworkMetrics struct {
	// Radius is the least eccentricity; PlanGossip completes in n + Radius
	// rounds.
	Radius int
	// Diameter is the greatest eccentricity.
	Diameter int
	// Center lists every processor of minimum eccentricity, ascending.
	Center []int
	// Eccentricities has one entry per processor.
	Eccentricities []int
}

// Metrics returns the network's distance metrics, or an error wrapping
// ErrDisconnected when the network is not connected — the error-returning
// counterpart of the legacy accessors Radius, Diameter, Center and
// Eccentricities, which panic on disconnected networks. All five share one
// cached sweep.
func (nw *Network) Metrics() (NetworkMetrics, error) {
	res, err := nw.sweepMetricsErr()
	if err != nil {
		return NetworkMetrics{}, err
	}
	return NetworkMetrics{
		Radius:         res.Radius,
		Diameter:       res.Diameter,
		Center:         append([]int(nil), res.Centers...),
		Eccentricities: append([]int(nil), res.Ecc...),
	}, nil
}

// Fingerprint returns the network's 64-bit content fingerprint: a hash of
// the vertex count and the exact edge set, independent of AddLink order.
// Equal fingerprints identify networks whose plans are interchangeable,
// which makes the fingerprint the cache key of PlanCache and the serving
// layer. The value is cached and invalidated by AddLink. The disk store
// persists fingerprints inside versioned entry files ("MGS1"); if the
// hash ever changes, bump that format version so stale entries miss
// cleanly instead of colliding.
func (nw *Network) Fingerprint() uint64 {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if !nw.fpOK {
		nw.fp = nw.g.Fingerprint()
		nw.fpOK = true
	}
	return nw.fp
}

// snapshot returns a Network over a private deep copy of the graph, taken
// under the mutation lock. The plan cache builds plans from snapshots so a
// cached Plan can never observe a later AddLink or RemoveLink.
func (nw *Network) snapshot() *Network {
	return fromGraph(nw.snapshotGraph())
}

// snapshotGraph returns a private deep copy of the graph, taken under the
// mutation lock. Every planner entry point works from a snapshot so that an
// in-flight plan construction never races a concurrent link mutation, and a
// finished Plan stays internally consistent (Verify checks the plan against
// the topology it was built for, not whatever the network mutated into).
func (nw *Network) snapshotGraph() *graph.Graph {
	g, _ := nw.snapshotWithSweep()
	return g
}

// snapshotWithSweep returns snapshotGraph's copy together with the cached
// metric sweep when that sweep describes the copy exactly (no mutation is
// pending), else nil.
func (nw *Network) snapshotWithSweep() (*graph.Graph, *graph.SweepResult) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if len(nw.pending) > 0 {
		return nw.g.Clone(), nil
	}
	return nw.g.Clone(), nw.metrics
}

// HasLink reports whether {u, v} is a link.
func (nw *Network) HasLink(u, v int) bool {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.g.HasEdge(u, v)
}

// Processors returns the number of processors.
func (nw *Network) Processors() int {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.g.N()
}

// Links returns the number of links.
func (nw *Network) Links() int {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.g.M()
}

// Connected reports whether every processor can reach every other.
func (nw *Network) Connected() bool {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.g.IsConnected()
}

// Radius returns the network radius r: the least eccentricity over all
// processors. PlanGossip schedules complete in exactly Processors() + r
// rounds. Radius, Diameter, Center and Eccentricities share one cached
// parallel BFS sweep.
//
// These four accessors are legacy panicking APIs: the network must be
// connected, and they panic (with an error wrapping ErrDisconnected) when
// it is not. Callers that cannot guarantee connectivity should use Metrics,
// which returns the same values with an error instead.
func (nw *Network) Radius() int { return nw.sweepMetrics().Radius }

// Diameter returns the maximum eccentricity. The network must be connected;
// see Radius for the panicking contract and Metrics for the error-returning
// alternative.
func (nw *Network) Diameter() int { return nw.sweepMetrics().Diameter }

// Center returns every processor of minimum eccentricity, ascending — the
// candidate roots of the paper's minimum-depth spanning tree. The network
// must be connected; see Radius for the panicking contract and Metrics for
// the error-returning alternative.
func (nw *Network) Center() []int {
	return append([]int(nil), nw.sweepMetrics().Centers...)
}

// Eccentricities returns the eccentricity of every processor. The network
// must be connected; see Radius for the panicking contract and Metrics for
// the error-returning alternative.
func (nw *Network) Eccentricities() []int {
	return append([]int(nil), nw.sweepMetrics().Ecc...)
}

// LowerBound returns the best cheap lower bound on any gossip schedule:
// max(n-1, diameter).
func (nw *Network) LowerBound() int { return search.LowerBound(nw.snapshotGraph()) }

// DOT renders the network in Graphviz syntax.
func (nw *Network) DOT(name string) string { return nw.snapshotGraph().DOT(name, nil) }

// Transmission is one multicast of a communication round: processor From
// sends Message simultaneously to every processor in To.
type Transmission struct {
	Message int
	From    int
	To      []int
}

// Plan is a complete gossip communication schedule for a network.
//
// Every tree-based plan is built by planFrom around one packed tree, the
// O(n) implicit form the disk store also persists. ConcurrentUpDown and
// Weighted plans hold nothing else: Round and RoundAppend read through the
// packed tree's pooled cursors, TimetableOf evaluates the paper's
// closed-form rules on demand, and every whole-schedule read (Verify, the
// Execute methods, Stats, MarshalJSON and the analyses) streams the rounds
// through a fresh implicit.Cursor or collects a copy it does not keep, so
// such a plan never holds the Θ(n²) schedule. Simple, Pipelined, Beep and owner-carrying weighted plans keep
// an eager schedule. Either way the Plan is immutable to callers and safe
// to share between goroutines; the lazy tree views are built under
// sync.Once.
type Plan struct {
	network *graph.Graph
	algo    Algorithm
	radius  int
	sweep   graph.SweepStats

	// imp is the packed spanning tree; non-nil exactly for plans built by
	// planFrom, and the only schedule state of ConcurrentUpDown and
	// Weighted plans.
	imp *implicit.Plan

	// Tree views reconstructed from imp on first use; nil forever for
	// plans without a tree.
	lazyTree sync.Once
	tree     *spantree.Tree    // spanning tree in original vertex ids
	labeled  *spantree.Labeled // DFS labelling of tree

	// sched is the full schedule in original vertex ids, built eagerly by
	// planners without a closed form; when set, it answers every round read.
	sched *schedule.Schedule

	// alg is the realized randomized execution; non-nil exactly for
	// Algebraic plans, whose coded packets no Transmission can express.
	alg  *algebraic.Result
	seed int64

	// owners maps each message to the processor it starts at; nil means
	// processor v starts with message v. Only weighted plans with some
	// count above 1 carry owners (see PlanWeightedGossip).
	owners []int
}

// PlanGossip constructs a gossip schedule for the network, by default with
// ConcurrentUpDown. The network must be connected and non-empty. Planning
// works from a private snapshot of the topology, so it is safe to run
// concurrently with link churn; the returned Plan describes the network as
// it was when PlanGossip was called.
func (nw *Network) PlanGossip(opts ...PlanOption) (*Plan, error) {
	cfg := planConfig{algo: ConcurrentUpDown}
	for _, o := range opts {
		o(&cfg)
	}
	return planGossip(nw.snapshotGraph(), cfg)
}

// planGossip builds a plan over a graph the caller guarantees is private
// (a snapshot, or a patched clone from the churn layer).
func planGossip(g *graph.Graph, cfg planConfig) (*Plan, error) {
	// Connectivity is not checked up front: the minimum-depth sweep inside
	// the pipeline already proves it (or reports disconnection), so a
	// dedicated BFS here would be a redundant O(m) pass per plan.
	build, ok := planBuilders[cfg.algo]
	if !ok {
		return nil, fmt.Errorf("multigossip: unknown algorithm %d (want one of %s)",
			int(cfg.algo), strings.Join(algo.Names(), ", "))
	}
	p, err := build(g, cfg)
	if err != nil {
		if errors.Is(err, graph.ErrDisconnected) {
			return nil, ErrDisconnected
		}
		return nil, err
	}
	return p, nil
}

// planBuilders dispatches planGossip per registered algorithm. The
// registry itself cannot hold constructors (it sits below every planner
// package in the import graph), so this table is the facade's other half
// of each registry entry; the portfolio test asserts it covers the
// registry exactly.
var planBuilders = map[Algorithm]func(*graph.Graph, planConfig) (*Plan, error){
	ConcurrentUpDown: treePlanner,
	Simple:           treePlanner,
	Pipelined:        treePlanner,
	Weighted:         treePlanner,
	Beep: func(g *graph.Graph, cfg planConfig) (*Plan, error) {
		s, err := beep.Gossip(g, 0)
		if err != nil {
			return nil, err
		}
		// beep.Gossip proved connectivity, so the radius sweep cannot fail.
		return &Plan{network: g, algo: cfg.algo, radius: g.Radius(), sched: s}, nil
	},
	Algebraic: func(g *graph.Graph, cfg planConfig) (*Plan, error) {
		res, err := algebraic.Run(g, algebraic.Options{Seed: cfg.seed})
		if err != nil {
			return nil, err
		}
		return &Plan{
			network: g, algo: cfg.algo, radius: g.Radius(),
			alg: &res, seed: cfg.seed,
		}, nil
	},
}

// treePlanner builds every tree-based registry entry: the §3.1 sweep and
// DFS labelling packed into an implicit plan, then planFrom.
func treePlanner(g *graph.Graph, cfg planConfig) (*Plan, error) {
	imp, sweep, err := core.GossipImplicit(g)
	if err != nil {
		return nil, err
	}
	return planFrom(g, cfg.algo, imp, sweep), nil
}

// planFrom is the one constructor of tree-based plans, shared by the
// planners, the disk store and the churn layer. The packed tree is the
// whole plan (unit-count Weighted gossip is ConcurrentUpDown), except that
// Simple and Pipelined also derive an eager schedule from it.
func planFrom(g *graph.Graph, a Algorithm, imp *implicit.Plan, sweep graph.SweepStats) *Plan {
	p := &Plan{network: g, algo: a, radius: imp.Height(), sweep: sweep, imp: imp}
	if build, ok := eagerBuilders[a]; ok {
		l := imp.Labeled()
		p.sched = core.RemapToOriginal(build(l), l)
	}
	return p
}

// eagerBuilders maps each tree-based algorithm without a closed form to
// its canonical-label schedule builder.
var eagerBuilders = map[Algorithm]func(*spantree.Labeled) *schedule.Schedule{
	Simple:    core.BuildSimple,
	Pipelined: pipelined.Build,
}

// treeBased reports whether the plan communicates over a spanning tree;
// Beep and Algebraic plans use the raw network, and weighted plans built
// by PlanWeightedGossip the chain expansion, so none of them has tree views.
func (p *Plan) treeBased() bool { return p.imp != nil }

// treeLabeled returns the plan's spanning tree (original ids) and DFS
// labelling, reconstructing them from the packed tree on first use.
// Callers must hold treeBased(); tree-less plans would dereference nil.
func (p *Plan) treeLabeled() (*spantree.Tree, *spantree.Labeled) {
	p.lazyTree.Do(func() {
		p.labeled = p.imp.Labeled()
		p.tree = p.imp.OriginalTree()
	})
	return p.tree, p.labeled
}

// Schedulable reports whether the plan carries a concrete round-by-round
// transmission schedule (Round, RoundAppend, schedule export over the
// wire). Exactly the registry's Schedulable flag: false only for
// Algebraic plans, whose coded packets no Transmission can express.
func (p *Plan) Schedulable() bool { return p.alg == nil }

// errNoSchedule is the error every schedule-consuming operation returns on
// a plan without one.
func (p *Plan) errNoSchedule() error {
	return fmt.Errorf("multigossip: %v plans exchange coded packets and carry no transmission schedule", p.algo)
}

// source returns the plan's rounds for in-order passes: the eager
// schedule when the plan has one, else a fresh cursor over the packed tree.
// Callers must hold Schedulable().
func (p *Plan) source() schedule.Source {
	if p.sched != nil {
		return p.sched
	}
	return p.imp.Cursor()
}

// startHolds returns the hold sets a replay of the plan starts from and the
// number of messages: nil (processor v holds message v) and n for every
// plan without owners, each owner's messages and TotalMessages otherwise.
func (p *Plan) startHolds() ([]*schedule.Bitset, int) {
	if p.owners == nil {
		return nil, p.network.N()
	}
	return weighted.OwnerHolds(p.network.N(), p.owners), len(p.owners)
}

type planConfig struct {
	algo Algorithm
	seed int64
}

// PlanOption configures PlanGossip.
type PlanOption func(*planConfig)

// WithAlgorithm selects the schedule construction algorithm.
func WithAlgorithm(a Algorithm) PlanOption { return func(c *planConfig) { c.algo = a } }

// WithSeed selects the random seed of seeded algorithms (Algebraic); equal
// seeds on equal topologies replay identically, and the plan cache keys
// seeded plans by (topology, algorithm, seed). Deterministic algorithms
// ignore it.
func WithSeed(seed int64) PlanOption { return func(c *planConfig) { c.seed = seed } }

// Rounds returns the total communication time: the number of rounds until
// every processor holds every message. For ConcurrentUpDown this is exactly
// Processors() + Radius(); for Algebraic it is the realized completion
// round of the plan's seeded run.
func (p *Plan) Rounds() int {
	switch {
	case p.sched != nil:
		return p.sched.Time()
	case p.imp != nil:
		return p.imp.Rounds()
	}
	return p.alg.Rounds
}

// Radius returns the spanning tree height used by the plan (= network radius).
func (p *Plan) Radius() int { return p.radius }

// Algorithm returns the algorithm that built the plan.
func (p *Plan) Algorithm() Algorithm { return p.algo }

// Seed returns the random seed of a seeded (Algebraic) plan; zero for
// deterministic plans.
func (p *Plan) Seed() int64 { return p.seed }

// Round returns the transmissions of round t (messages sent at time t and
// received at time t+1). Out-of-range rounds return nil. Every call
// allocates a fresh result; hot loops over many rounds should use
// RoundAppend with a recycled buffer instead.
func (p *Plan) Round(t int) []Transmission {
	return p.RoundAppend(t, nil)
}

// RoundAppend appends the transmissions of round t to dst and returns the
// extended slice — the allocation-free counterpart of Round for callers
// that stream many rounds (executors, servers, benchmarks). Like append,
// it treats dst's spare capacity as scratch, including the To slices of
// elements beyond len(dst), which are overwritten in place; resetting with
// dst = dst[:0] between rounds therefore reuses every allocation.
// Out-of-range rounds append nothing.
func (p *Plan) RoundAppend(t int, dst []Transmission) []Transmission {
	if p.sched != nil {
		if t >= 0 && t < len(p.sched.Rounds) {
			for _, tx := range p.sched.Rounds[t] {
				dst = appendTransmission(dst, tx.Msg, tx.From, tx.To)
			}
		}
		return dst
	}
	if p.imp != nil {
		return appendImplicitRound(p.imp, t, dst)
	}
	return dst // non-schedulable plan
}

// appendImplicitRound reads round t through the packed tree's pooled
// cursor into dst, reusing a pooled internal buffer for the raw
// schedule-typed round.
func appendImplicitRound(imp *implicit.Plan, t int, dst []Transmission) []Transmission {
	sp := roundScratch.Get().(*[]schedule.Transmission)
	raw := imp.RoundAppend(t, (*sp)[:0])
	for _, tx := range raw {
		dst = appendTransmission(dst, tx.Msg, tx.From, tx.To)
	}
	*sp = raw
	roundScratch.Put(sp)
	return dst
}

// roundScratch pools the schedule-typed round buffers behind RoundAppend,
// so the implicit evaluation path stays allocation-free per call once the
// pool is warm.
var roundScratch = sync.Pool{New: func() any { s := make([]schedule.Transmission, 0, 16); return &s }}

// appendTransmission appends one transmission to dst, reusing the To slice
// of the spare slot dst grows into when its capacity suffices.
func appendTransmission(dst []Transmission, msg, from int, to []int) []Transmission {
	var dests []int
	if len(dst) < cap(dst) {
		dests = dst[len(dst) : len(dst)+1][0].To[:0]
	}
	if cap(dests) < len(to) {
		dests = make([]int, 0, len(to))
	}
	dests = append(dests, to...)
	return append(dst, Transmission{Message: msg, From: from, To: dests})
}

// Verify re-validates the plan against the communication model and checks
// that gossiping completes; it returns nil for every plan this package
// produces and exists so users can assert it cheaply in their own tests.
// Verify replays every delivery against n² bits of hold state; a
// ConcurrentUpDown plan streams its rounds and is never materialised.
// Algebraic plans re-simulate their seeded run and check it reproduces the
// recorded outcome.
func (p *Plan) Verify() error {
	if p.alg != nil {
		res, err := algebraic.Run(p.network, algebraic.Options{Seed: p.seed})
		if err != nil {
			return err
		}
		if res != *p.alg {
			return fmt.Errorf("multigossip: seeded replay diverged from the recorded run (seed %d)", p.seed)
		}
		return nil
	}
	holds, _ := p.startHolds()
	_, err := schedule.CheckGossipFrom(p.network, p.source(), holds)
	return err
}

// TimetableOf renders processor v's schedule in the format of the paper's
// Tables 1-4 (receive/send rows against parent and children in the
// spanning tree). Plans without an eager schedule evaluate only v's own
// rows from the packed tree's closed forms — O(rounds) work, no
// materialisation. A processor outside [0, Processors()) renders a note.
func (p *Plan) TimetableOf(v int) string {
	n := p.network.N()
	switch {
	case v < 0 || v >= n:
		return fmt.Sprintf("(no timetable: processor %d is outside [0, %d))", v, n)
	case p.sched != nil && p.treeBased():
		tree, _ := p.treeLabeled()
		return trace.FormatTimetable(schedule.VertexView(p.sched, tree, v))
	case p.sched != nil:
		return trace.FormatTimetable(schedule.FlatView(p.sched, v))
	case p.imp != nil:
		return trace.FormatTimetable(p.imp.Timetable(v))
	}
	return fmt.Sprintf("(no timetable: %v plans carry no transmission schedule)", p.algo)
}

// TreeString renders the spanning tree the plan communicates over,
// annotated with each processor's DFS message label and level. Plans that
// communicate over the raw network (Beep, Algebraic) have no tree and
// render a note instead.
func (p *Plan) TreeString() string {
	if !p.treeBased() {
		return fmt.Sprintf("(no spanning tree: %v plans communicate over the raw network)", p.algo)
	}
	tree, l := p.treeLabeled()
	return trace.FormatTree(tree, func(v int) string {
		return fmt.Sprintf("[msg %d, level %d]", l.LabelOf[v], tree.Level[v])
	})
}

// Stats summarises the plan: rounds, transmissions, deliveries, fanout and
// slot utilisation. It walks every delivery once in round order; a
// ConcurrentUpDown plan streams its rounds and is never materialised.
// Algebraic plans summarise their realized seeded run instead.
func (p *Plan) Stats() string {
	if p.alg != nil {
		return fmt.Sprintf("rounds=%d deliveries=%d innovative=%d collisions=%d lost=%d (seed %d)",
			p.alg.Rounds, p.alg.Deliveries, p.alg.Innovative, p.alg.Collisions, p.alg.Lost, p.seed)
	}
	return schedule.Measure(p.source()).String()
}

// ExecuteDistributed runs the plan's algorithm as the paper's online
// protocol (Section 4): every processor derives its transmissions from its
// local tuple (i, j, k, w, n) and the messages it actually receives, on
// internal/sim's state machines. Each round the run produces must equal the
// plan's own round, so a plan that differs from its algorithm fails. It
// returns the round at which the run completed, which equals Rounds().
// Only ConcurrentUpDown and Simple plans are supported.
func (p *Plan) ExecuteDistributed() (int, error) {
	if p.algo != ConcurrentUpDown && p.algo != Simple {
		return 0, fmt.Errorf("multigossip: no distributed protocol for algorithm %v", p.algo)
	}
	topo := p.imp.Topo()
	// The engine reports rounds in canonical labels. Each must equal the
	// plan's round, and the rounds it skips as idle must be empty there.
	src, next := p.source(), 0
	var want, got []schedule.Transmission
	var tos []int
	byFrom := func(a, b schedule.Transmission) int { return cmp.Or(a.From-b.From, a.Msg-b.Msg) }
	check := func(t int, txs []schedule.Transmission) error {
		for ; next < t; next++ {
			if want = src.RoundAppend(next, want[:0]); len(want) > 0 {
				return fmt.Errorf("multigossip: distributed execution idled in round %d, which the plan fills", next)
			}
		}
		next = t + 1
		want, got, tos = src.RoundAppend(t, want[:0]), got[:0], tos[:0]
		for _, tx := range txs {
			from := len(tos)
			for _, d := range tx.To {
				tos = append(tos, int(topo.VertexOf[d]))
			}
			slices.Sort(tos[from:])
			got = append(got, schedule.Transmission{Msg: int(topo.VertexOf[tx.Msg]), From: int(topo.VertexOf[tx.From]), To: tos[from:len(tos):len(tos)]})
		}
		slices.SortFunc(want, byFrom)
		slices.SortFunc(got, byFrom)
		if !slices.EqualFunc(want, got, func(a, b schedule.Transmission) bool {
			return byFrom(a, b) == 0 && slices.Equal(a.To, b.To)
		}) {
			return fmt.Errorf("multigossip: distributed execution deviated from the plan in round %d", t)
		}
		return nil
	}
	var res sim.Result
	var err error
	if p.algo == Simple {
		res, err = sim.RunSimple(topo, check)
	} else {
		res, err = sim.Run(topo, sim.Options{Sink: check})
	}
	if err == nil {
		err = check(p.Rounds(), nil) // the plan has nothing after the run
	}
	if err != nil {
		return 0, err
	}
	if res.CompleteAt != p.Rounds() {
		return 0, fmt.Errorf("multigossip: distributed execution completed at %d, the plan at %d", res.CompleteAt, p.Rounds())
	}
	return res.CompleteAt, nil
}

// PlanBroadcast constructs the Section 2 broadcast schedule: src's message
// reaches every processor in exactly ecc(src) rounds. Like PlanGossip it
// plans against a private snapshot of the topology.
func (nw *Network) PlanBroadcast(src int) (*BroadcastPlan, error) {
	g := nw.snapshotGraph()
	s, err := baseline.Broadcast(g, src)
	if err != nil {
		return nil, err
	}
	return &BroadcastPlan{network: g, sched: s, src: src}, nil
}

// BroadcastPlan is a single-source broadcast schedule.
type BroadcastPlan struct {
	network *graph.Graph
	sched   *schedule.Schedule
	src     int
}

// Rounds returns the broadcast's total communication time (= ecc(src)).
func (p *BroadcastPlan) Rounds() int { return p.sched.Time() }

// Verify re-validates the broadcast schedule and that every processor is
// informed.
func (p *BroadcastPlan) Verify() error {
	res, err := schedule.Run(p.network, p.sched, schedule.Options{})
	if err != nil {
		return err
	}
	for v, h := range res.Holds {
		if !h.Has(p.src) {
			return fmt.Errorf("multigossip: processor %d never received the broadcast", v)
		}
	}
	return nil
}

// SpanningTree exposes the minimum-depth spanning tree of the network as
// parent pointers (root marked -1), for callers that want to reuse the
// paper's Section 3.1 construction directly.
func (nw *Network) SpanningTree() ([]int, error) {
	tr, err := spantree.MinDepth(nw.snapshotGraph())
	if err != nil {
		return nil, err
	}
	return append([]int(nil), tr.Parent...), nil
}
