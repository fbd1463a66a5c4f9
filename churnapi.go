package multigossip

// Churn layer: plan maintenance under topology mutation. A gossip plan is
// expensive to build (an O(nm) metric sweep dominates) but structurally
// thin: every transmission of a ConcurrentUpDown schedule travels a
// spanning-tree edge, so most single-link mutations leave the schedule
// untouched. DynamicPlanner exploits that. An added link, or a removed link
// the tree never used, keeps the compact implicit plan verbatim and only
// rebinds it to the new topology snapshot; a removed tree edge is repaired
// by repair.GraftTree — sever the orphaned subtree, re-attach it through a
// surviving crossing link, O(n + m) — and the plan is re-derived from the
// grafted tree in O(n) more. Cold rebuilds remain only for quality (a graft
// that degraded the tree height past the configured factor) and for
// grafts that fail.
//
// Patched plans are published to the PlanCache under the mutated topology's
// fingerprint, so other cache users hit them; because the fingerprint is an
// XOR over edge hashes, a link flap that lands back on a cached topology
// restores its exact key and the planner serves the original plan again.
//
// Flap hysteresis rides on the same observation: a link that toggles twice
// within the configured window is suspect, so quality rebuilds it would
// otherwise trigger are suppressed — the planner keeps serving the valid
// (if degraded) patched plan until the link holds still.

import (
	"fmt"
	"time"

	"multigossip/internal/graph"
	"multigossip/internal/implicit"
	"multigossip/internal/obs"
	"multigossip/internal/repair"
	"multigossip/internal/spantree"
)

// PatchOutcome classifies how a DynamicPlanner absorbed one mutation.
type PatchOutcome int

const (
	// PatchUnchanged: the mutation was a no-op (duplicate add, absent or
	// refused remove); the served plan is untouched.
	PatchUnchanged PatchOutcome = iota
	// PatchReused: the plan survived the mutation verbatim — the changed
	// link is not a spanning-tree edge, or the mutated topology's
	// fingerprint matched a cached plan (a flap landing back home).
	PatchReused
	// PatchGrafted: a spanning-tree edge was lost; the tree was grafted
	// around it and the plan re-derived from the repaired tree.
	PatchGrafted
	// PatchRebuilt: the plan was rebuilt cold — the patch failed
	// validation, degraded the tree past the quality bound, or the
	// algorithm has no patchable form.
	PatchRebuilt
	// PatchSuppressed: the patch degraded the tree past the quality bound,
	// but the link is flapping, so the rebuild was suppressed and the
	// degraded (still valid) plan is served until the link holds still.
	PatchSuppressed
)

// String names the outcome in the lowercase form the serving API exposes.
func (o PatchOutcome) String() string {
	switch o {
	case PatchUnchanged:
		return "unchanged"
	case PatchReused:
		return "reused"
	case PatchGrafted:
		return "grafted"
	case PatchRebuilt:
		return "rebuilt"
	case PatchSuppressed:
		return "suppressed"
	}
	return fmt.Sprintf("PatchOutcome(%d)", int(o))
}

type dynamicConfig struct {
	cache        *PlanCache
	window       time.Duration
	now          func() time.Time
	heightFactor float64
	fullVerify   bool
	reg          *obs.Registry
}

// DynamicOption configures NewDynamicPlanner.
type DynamicOption func(*dynamicConfig)

// WithPlanCache publishes every plan the planner serves — cold-built,
// rebound or grafted — into pc under the topology fingerprint, and lets
// the planner restore a cached plan when a flap returns the topology to a
// fingerprint pc already holds.
func WithPlanCache(pc *PlanCache) DynamicOption {
	return func(c *dynamicConfig) { c.cache = pc }
}

// WithFlapWindow enables hysteresis: a link mutated twice within w is
// flapping, and quality rebuilds triggered by it are suppressed. Zero (the
// default) disables suppression.
func WithFlapWindow(w time.Duration) DynamicOption {
	return func(c *dynamicConfig) { c.window = w }
}

// WithClock injects the planner's time source, for tests and simulations
// that drive hysteresis deterministically. The default is time.Now.
func WithClock(now func() time.Time) DynamicOption {
	return func(c *dynamicConfig) { c.now = now }
}

// WithHeightFactor sets the quality bound: a grafted tree whose height
// exceeds factor times the last cold build's radius triggers a rebuild
// (subject to hysteresis). The default is 2 — the height any O(m)
// double-sweep rebuild already guarantees, so serving worse than that is
// never the right trade. Factors below 1 are clamped to 1.
func WithHeightFactor(factor float64) DynamicOption {
	return func(c *dynamicConfig) { c.heightFactor = max(factor, 1) }
}

// WithPatchVerify runs the full Plan.Verify certifier on every patched plan
// before serving it, falling back to a cold rebuild if certification fails.
// The default validates structurally only (every tree edge present in the
// topology) because a full verification replays Θ(n²) deliveries — more
// than the graft it certifies costs by orders of magnitude. The churn smoke
// test runs with this enabled.
func WithPatchVerify() DynamicOption {
	return func(c *dynamicConfig) { c.fullVerify = true }
}

// WithChurnMetrics registers the planner's counters in m:
// churn_reused_total, churn_patched_total, churn_rebuilt_total,
// churn_suppressed_total.
func WithChurnMetrics(m *Metrics) DynamicOption {
	return func(c *dynamicConfig) { c.reg = m }
}

// DynamicPlanner keeps one gossip plan current across topology churn,
// patching instead of rebuilding wherever the mutation permits. It owns its
// network's mutations: route every AddLink/RemoveLink through the planner
// (concurrent direct mutation of the underlying Network would invalidate
// the plan the planner believes it is serving). The planner itself is not
// safe for concurrent use; serving layers wrap it in their session lock.
type DynamicPlanner struct {
	nw           *Network
	cache        *PlanCache
	window       time.Duration
	now          func() time.Time
	heightFactor float64
	fullVerify   bool

	reused, patched, rebuilt, suppressed *obs.Counter

	plan       *Plan
	baseRadius int                      // radius of the last cold build
	lastTouch  map[graph.Edge]time.Time // per-link last mutation time
}

// NewDynamicPlanner builds the initial plan for nw (always cold, always
// ConcurrentUpDown — the only algorithm with a patchable compact form) and
// returns a planner that keeps it current under churn. The network must be
// connected and non-empty.
func NewDynamicPlanner(nw *Network, opts ...DynamicOption) (*DynamicPlanner, error) {
	cfg := dynamicConfig{now: time.Now, heightFactor: 2}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.reg == nil {
		cfg.reg = obs.NewRegistry()
	}
	dp := &DynamicPlanner{
		nw:           nw,
		cache:        cfg.cache,
		window:       cfg.window,
		now:          cfg.now,
		heightFactor: cfg.heightFactor,
		fullVerify:   cfg.fullVerify,
		reused:       cfg.reg.Counter("churn_reused_total"),
		patched:      cfg.reg.Counter("churn_patched_total"),
		rebuilt:      cfg.reg.Counter("churn_rebuilt_total"),
		suppressed:   cfg.reg.Counter("churn_suppressed_total"),
		lastTouch:    make(map[graph.Edge]time.Time),
	}
	if err := dp.rebuild(); err != nil {
		return nil, err
	}
	return dp, nil
}

// Plan returns the currently served plan. It is always valid for the
// network's current topology; after suppressed rebuilds it may be degraded
// (taller tree than the radius warrants) but never wrong.
func (dp *DynamicPlanner) Plan() *Plan { return dp.plan }

// Rebuild forces a cold rebuild, resetting the quality baseline. Serving
// layers call it to settle a long-suppressed degradation at a time of their
// choosing.
func (dp *DynamicPlanner) Rebuild() (*Plan, error) {
	if err := dp.rebuild(); err != nil {
		return nil, err
	}
	dp.rebuilt.Inc()
	return dp.plan, nil
}

// rebuild cold-builds from the current topology and resets the baseline.
func (dp *DynamicPlanner) rebuild() error {
	p, err := planGossip(dp.nw.snapshotGraph(), planConfig{algo: ConcurrentUpDown})
	if err != nil {
		return err
	}
	dp.plan = p
	dp.baseRadius = p.radius
	dp.publish()
	return nil
}

// publish stores the served plan in the attached cache under the current
// topology fingerprint.
func (dp *DynamicPlanner) publish() {
	if dp.cache != nil {
		dp.cache.put(dp.nw.Fingerprint(), ConcurrentUpDown, dp.plan)
	}
}

// flapping records a mutation of link e at the current time and reports
// whether the link was already mutated within the hysteresis window.
func (dp *DynamicPlanner) flapping(e graph.Edge) bool {
	now := dp.now()
	last, seen := dp.lastTouch[e]
	dp.lastTouch[e] = now
	return dp.window > 0 && seen && now.Sub(last) < dp.window
}

// Mutation is one topology change in a batch: an added link (Remove false)
// or a removed link (Remove true).
type Mutation struct {
	Remove bool
	U, V   int
}

// MutationResult reports how one mutation of a batch landed on the
// topology. Changed is false for no-ops (duplicate adds, removals of absent
// links) and refusals; Err is non-nil exactly for refusals (a removal that
// would disconnect the network).
type MutationResult struct {
	Mutation
	Changed bool
	Err     error
}

// AddLink adds link {u, v} and reports how the served plan absorbed it. An
// added link never invalidates a tree-borne schedule, so the plan is reused
// (rebound to the new snapshot) — or, when the new fingerprint matches a
// cached plan, restored from the cache. Duplicate adds change nothing.
func (dp *DynamicPlanner) AddLink(u, v int) (PatchOutcome, error) {
	out, res, err := dp.Apply([]Mutation{{U: u, V: v}})
	if err != nil {
		return out, err
	}
	return out, res[0].Err
}

// RemoveLink removes link {u, v} and reports how the served plan absorbed
// it. Removing an absent link is a no-op; a removal that would disconnect
// the network is refused by the Network itself (the link stays, the plan
// stays, the wrapped ErrDisconnected is returned). A surviving removal
// reuses the plan when the link was not a tree edge, grafts the tree when
// it was, and rebuilds cold only when the patch fails or degrades the tree
// past the quality bound on a non-flapping link.
func (dp *DynamicPlanner) RemoveLink(u, v int) (PatchOutcome, error) {
	out, res, err := dp.Apply([]Mutation{{Remove: true, U: u, V: v}})
	if err != nil {
		return out, err
	}
	return out, res[0].Err
}

// Apply applies a batch of mutations to the topology and absorbs the net
// effect into the served plan with ONE patch decision, where looping over
// AddLink/RemoveLink would pay one graft or rebuild per mutation. The
// per-mutation results report what each change did to the topology
// (refusals and no-ops are per-mutation outcomes, not batch failures); the
// returned PatchOutcome describes the single plan transition:
//
//   - PatchUnchanged: no mutation survived (all duplicates, absences or
//     refusals) — the plan and topology are untouched.
//   - PatchReused: the final topology either matches a cached fingerprint
//     (a flap sequence landing back home) or lost no tree edge — however
//     many links the batch added or removed, the schedule never used them.
//   - PatchGrafted: at least one tree edge was lost; the tree was grafted
//     around every lost edge in one pass over the final topology and the
//     plan re-derived once.
//   - PatchSuppressed / PatchRebuilt: as for single mutations, decided once
//     against the final grafted height (a batch counts as flapping when any
//     of its lost tree edges is).
//
// The error return is reserved for planner failure (a cold rebuild that
// cannot complete); per-mutation refusals live in the results.
func (dp *DynamicPlanner) Apply(muts []Mutation) (PatchOutcome, []MutationResult, error) {
	results := make([]MutationResult, len(muts))
	flapped := make(map[graph.Edge]bool)
	changed := false
	for i, m := range muts {
		results[i].Mutation = m
		if m.Remove {
			if !dp.nw.HasLink(m.U, m.V) {
				continue // the planner owns mutations, so this is race-free
			}
			if err := dp.nw.RemoveLink(m.U, m.V); err != nil {
				results[i].Err = err
				continue
			}
		} else if !dp.nw.AddLink(m.U, m.V) {
			continue
		}
		results[i].Changed = true
		changed = true
		e := graph.Edge{U: min(m.U, m.V), V: max(m.U, m.V)}
		if dp.flapping(e) {
			flapped[e] = true
		}
	}
	if !changed {
		return PatchUnchanged, results, nil
	}
	if cached, ok := dp.cachedForCurrent(); ok {
		dp.plan = cached
		dp.baseRadius = cached.radius
		dp.reused.Inc()
		return PatchReused, results, nil
	}

	// The net damage is judged against the final topology, not mutation by
	// mutation: a tree edge removed and re-added within the batch was never
	// lost at all.
	tree, _ := dp.plan.treeLabeled()
	g := dp.nw.snapshotGraph()
	var lost []graph.Edge
	flap := false
	for v, parent := range tree.Parent {
		if parent >= 0 && !g.HasEdge(v, parent) {
			e := graph.Edge{U: min(v, parent), V: max(v, parent)}
			lost = append(lost, e)
			flap = flap || flapped[e]
		}
	}
	if len(lost) == 0 {
		// The schedule never used any changed link.
		out, err := dp.reuse()
		return out, results, err
	}

	grafted := tree
	graftOK := true
	for _, e := range lost {
		if grafted.Parent[e.U] != e.V && grafted.Parent[e.V] != e.U {
			continue // an earlier graft already rerouted this edge
		}
		repaired, err := repair.GraftTree(g, grafted, e.U, e.V)
		if err != nil {
			graftOK = false
			break
		}
		grafted = repaired
	}
	if graftOK {
		// The radius becomes the grafted height, which may exceed the
		// topology's true radius; the quality policy below closes that gap.
		candidate := planFrom(g, dp.plan.algo, implicit.New(spantree.Label(grafted)), dp.plan.sweep)
		if err := dp.validate(candidate); err == nil {
			if grafted.Height <= dp.maxHeight() {
				dp.plan = candidate
				dp.publish()
				dp.patched.Inc()
				return PatchGrafted, results, nil
			}
			if flap {
				dp.plan = candidate
				dp.publish()
				dp.suppressed.Inc()
				return PatchSuppressed, results, nil
			}
		}
	}
	// Graft unavailable, uncertified, or too degraded on quiet links.
	if err := dp.rebuild(); err != nil {
		return PatchUnchanged, results, err
	}
	dp.rebuilt.Inc()
	return PatchRebuilt, results, nil
}

// reuse rebinds the served plan's compact form onto the current topology
// snapshot and publishes it. The planner only ever serves implicit-backed
// ConcurrentUpDown plans, so the compact core is always there to share.
func (dp *DynamicPlanner) reuse() (PatchOutcome, error) {
	// No validation needed: the mutation provably missed every tree edge
	// (an add removes nothing; a non-tree removal leaves the tree whole),
	// so the rebound plan's tree is a subgraph of the new topology by
	// construction.
	dp.plan = planFrom(dp.nw.snapshotGraph(), dp.plan.algo, dp.plan.imp, dp.plan.sweep)
	dp.publish()
	dp.reused.Inc()
	return PatchReused, nil
}

// maxHeight is the quality bound grafted trees must stay under.
func (dp *DynamicPlanner) maxHeight() int {
	return int(dp.heightFactor * float64(dp.baseRadius))
}

// validate certifies a candidate plan before it is served: structurally
// always (every tree edge must exist in the candidate's topology — O(n)),
// and with the full Plan.Verify replay when WithPatchVerify is on.
func (dp *DynamicPlanner) validate(p *Plan) error {
	tree, _ := p.treeLabeled()
	for v, parent := range tree.Parent {
		if parent >= 0 && !p.network.HasEdge(v, parent) {
			return fmt.Errorf("multigossip: patched tree edge %d-%d missing from topology", v, parent)
		}
	}
	if dp.fullVerify {
		return p.Verify()
	}
	return nil
}

// cachedForCurrent looks the current topology fingerprint up in the
// attached cache. A hit means some earlier plan — typically the one a flap
// departed from — covers the exact current edge set.
func (dp *DynamicPlanner) cachedForCurrent() (*Plan, bool) {
	if dp.cache == nil {
		return nil, false
	}
	return dp.cache.lookup(dp.nw.Fingerprint(), ConcurrentUpDown)
}
