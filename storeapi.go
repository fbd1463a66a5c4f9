package multigossip

import (
	"encoding/binary"
	"errors"
	"fmt"

	"multigossip/internal/algo"
	"multigossip/internal/graph"
	"multigossip/internal/implicit"
	"multigossip/internal/plancache"
	"multigossip/internal/planstore"
)

// Disk tier: crash-safe plan persistence. A PlanStore is the second tier
// under a PlanCache — plans built once survive process restarts, so a
// restarted server warm-starts from disk instead of re-running the O(nm)
// construction per topology. Attach with WithCacheStore; the cache then
// consults the store inside each miss's singleflight and writes built plans
// through.
//
// Every tree-based plan (ConcurrentUpDown, Simple, Pipelined, Weighted)
// persists as its packed tree: ~8 bytes per vertex plus the topology. Each
// of those plans is a deterministic function of the tree, so loading
// rebuilds it through planFrom, the constructor the planners use. Beep and
// Algebraic plans have no tree; they stay in the memory tier only, never
// write, and their misses rebuild.

// StoreStats is a point-in-time snapshot of a PlanStore's counters.
type StoreStats = planstore.Stats

// errPlanBytes wraps every store-payload decoding failure.
var errPlanBytes = errors.New("multigossip: malformed stored plan")

type storeConfig struct {
	reg  *Metrics
	logf func(format string, args ...any)
}

// StoreOption configures OpenPlanStore.
type StoreOption func(*storeConfig)

// WithStoreMetrics registers the store's counters and gauges in m under
// planstore_* names (planstore_hits_total, planstore_misses_total,
// planstore_writes_total, planstore_write_errors_total,
// planstore_quarantined_total, planstore_degraded).
func WithStoreMetrics(m *Metrics) StoreOption {
	return func(c *storeConfig) { c.reg = m }
}

// WithStoreLogger routes the store's event log (degradation, quarantines)
// to logf; by default events are dropped.
func WithStoreLogger(logf func(format string, args ...any)) StoreOption {
	return func(c *storeConfig) { c.logf = logf }
}

// PlanStore is a disk-backed, content-addressed store of gossip plans keyed
// by (network fingerprint, algorithm). It holds the plans of every
// TreeBased algorithm, each as its packed tree; Beep and Algebraic plans
// are never written and live in the memory tier only. Entries are written
// crash-safely (temp file, fsync, atomic rename) and checksummed; a
// corrupt entry is quarantined and rebuilt, never served. A store whose
// directory stops accepting writes degrades to read-only and the serving
// stack continues from memory — opening a store can therefore never make a
// server less available than it was without one.
//
// Safe for concurrent use, including by multiple processes sharing one
// directory: equal keys hold equal bytes, so concurrent writers are
// idempotent.
type PlanStore struct {
	s *planstore.Store
}

// OpenPlanStore roots a plan store at dir, creating it as needed. Problems
// with the directory (permissions, read-only filesystem, full disk) yield
// an already-degraded store rather than an error.
func OpenPlanStore(dir string, opts ...StoreOption) *PlanStore {
	cfg := storeConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	return &PlanStore{s: planstore.Open(dir, cfg.reg, cfg.logf)}
}

// Degraded reports whether the store has stopped writing after a disk
// failure. Reads continue either way.
func (ps *PlanStore) Degraded() bool { return ps.s.Degraded() }

// Stats snapshots the store counters.
func (ps *PlanStore) Stats() StoreStats { return ps.s.Stats() }

// Entries counts the entry files currently on disk.
func (ps *PlanStore) Entries() int { return ps.s.Entries() }

// Load implements plancache.Tier2: it returns the decoded plan under key,
// or reports a miss. Corrupt entries — bad checksum, malformed plan bytes,
// a topology that does not hash to the key's fingerprint, a tree edge
// absent from the topology — are quarantined by the store tier and decoded
// failures deleted the same way, so no bad entry is read twice.
func (ps *PlanStore) Load(key plancache.Key) (*Plan, int64, bool) {
	payload, err := ps.s.Load(key.Fingerprint, key.Algo)
	if err != nil {
		return nil, 0, false
	}
	p, err := decodePlanBytes(payload, key.Fingerprint, Algorithm(key.Algo))
	if err != nil {
		// The bytes passed the checksum but not semantic validation — a
		// writer bug or a quarantine-worthy forgery either way. Re-saving
		// nothing and dropping the entry turns it into a clean rebuild.
		ps.s.Drop(key.Fingerprint, key.Algo, err)
		return nil, 0, false
	}
	return p, p.SizeBytes(), true
}

// Store implements plancache.Tier2: it persists a freshly built plan.
// Plans without a packed tree (Beep, Algebraic) and write failures are both
// silently skipped; the store's own metrics record the latter, and a
// degraded store makes this a cheap no-op.
func (ps *PlanStore) Store(key plancache.Key, p *Plan) {
	if p.imp == nil {
		return
	}
	ps.s.Save(key.Fingerprint, key.Algo, encodePlanBytes(p))
}

// encodePlanBytes serialises a tree-based plan: the topology snapshot
// (vertex count, edge count, then each edge as two uint32s in canonical
// (u<v, sorted) order) followed by the packed tree's wire form. The
// algorithm is not in the payload; it is half of the entry's key. The
// topology rides along because a Plan answers Verify, ExecuteWithFaults and
// SizeBytes against its own graph — and because re-fingerprinting the
// decoded topology is the store's end-to-end integrity check.
func encodePlanBytes(p *Plan) []byte {
	edges := p.network.Edges()
	buf := make([]byte, 0, 8+8*len(edges)+p.imp.EncodedLen())
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.network.N()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(edges)))
	for _, e := range edges {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.U))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.V))
	}
	return p.imp.AppendBinary(buf)
}

// decodePlanBytes parses a stored plan and validates it end to end: the
// edge list must be canonical and self-consistent, the rebuilt topology
// must hash to the fingerprint the entry is keyed by, the implicit plan
// must decode (implicit.Decode re-derives and checks its full structural
// contract), and every tree edge of the plan must exist in the topology.
// No input can make it panic; anything malformed reports errPlanBytes.
// The plan is then rebuilt for algorithm a by planFrom, which a must be
// TreeBased to allow.
//
// The decoded plan's sweep statistics are zero — a plan loaded from disk
// ran no sweep in this process.
func decodePlanBytes(data []byte, fp uint64, a Algorithm) (*Plan, error) {
	if !algo.Registered(a) || !algo.ByID(a).TreeBased {
		return nil, fmt.Errorf("%w: algorithm %d has no stored form", errPlanBytes, int(a))
	}
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: %d bytes, want at least 8", errPlanBytes, len(data))
	}
	n64 := int64(binary.LittleEndian.Uint32(data[0:4]))
	m64 := int64(binary.LittleEndian.Uint32(data[4:8]))
	// Bound the claimed sizes by the input length before any allocation.
	if n64 < 1 || m64 < 0 || int64(len(data)) < 8+8*m64 {
		return nil, fmt.Errorf("%w: n=%d m=%d does not fit %d bytes", errPlanBytes, n64, m64, len(data))
	}
	n, m := int(n64), int(m64)

	g := graph.New(n)
	prevU, prevV := -1, -1
	for i := 0; i < m; i++ {
		u := int(binary.LittleEndian.Uint32(data[8+8*i:]))
		v := int(binary.LittleEndian.Uint32(data[12+8*i:]))
		// Canonical order (strictly ascending (u,v), u<v) is part of the
		// format: it rejects duplicate edges for free and guarantees one
		// serialisation per topology.
		if u >= v || v >= n || (u < prevU || (u == prevU && v <= prevV)) {
			return nil, fmt.Errorf("%w: edge %d (%d,%d) breaks canonical order", errPlanBytes, i, u, v)
		}
		prevU, prevV = u, v
		g.AddEdge(u, v)
	}
	if got := g.Fingerprint(); got != fp {
		return nil, fmt.Errorf("%w: topology fingerprint %016x, entry keyed %016x", errPlanBytes, got, fp)
	}

	imp, err := implicit.Decode(data[8+8*m:])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errPlanBytes, err)
	}
	if imp.N() != n {
		return nil, fmt.Errorf("%w: plan over %d vertices, topology has %d", errPlanBytes, imp.N(), n)
	}
	for v := 0; v < n; v++ {
		if par := imp.ParentOriginal(v); par >= 0 && !g.HasEdge(v, par) {
			return nil, fmt.Errorf("%w: tree edge %d-%d not in topology", errPlanBytes, v, par)
		}
	}
	return planFrom(g, a, imp, graph.SweepStats{}), nil
}
