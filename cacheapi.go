package multigossip

import (
	"multigossip/internal/algo"
	"multigossip/internal/obs"
	"multigossip/internal/plancache"
)

// Serving layer: plan reuse across requests. Constructing a plan costs an
// O(nm) metric sweep plus an O(n²) schedule build, but the finished Plan is
// immutable and safe to share between goroutines (Round, TimetableOf,
// ExecuteTraced and ExecuteWithFaults never mutate it — see the plan
// sharing race test). PlanCache exploits that: it content-addresses
// networks by Network.Fingerprint, keeps finished plans in a bounded LRU,
// and collapses concurrent misses for one topology into a single
// construction. A process serving many gossip requests pays construction
// once per distinct (topology, algorithm) pair.

// CacheSource classifies how a PlanCache request was satisfied: CacheMiss
// (this call constructed the plan), CacheHit (served from memory),
// CacheCoalesced (attached to another caller's in-flight construction) or
// CacheDisk (loaded from an attached PlanStore, skipping construction).
type CacheSource = plancache.Source

// CacheSource values.
const (
	CacheMiss      = plancache.Miss
	CacheHit       = plancache.Hit
	CacheCoalesced = plancache.Coalesced
	CacheDisk      = plancache.Disk
)

// CacheStats is a point-in-time snapshot of a PlanCache's counters.
// Hits + Misses + DiskHits + Coalesced equals the requests answered so far,
// and Entries equals successful Misses plus DiskHits minus Evictions.
type CacheStats = plancache.Stats

type cacheConfig struct {
	entries int
	bytes   int64
	reg     *obs.Registry
	store   *PlanStore
}

// CacheOption configures NewPlanCache.
type CacheOption func(*cacheConfig)

// WithCacheCapacity bounds the cache to at most n plans (default 512;
// zero or negative disables the entry bound).
func WithCacheCapacity(n int) CacheOption {
	return func(c *cacheConfig) { c.entries = n }
}

// WithCacheBytes bounds the cache to approximately max bytes of plan data,
// using a per-plan size estimate (default 512 MiB; zero or negative
// disables the byte bound). A single plan larger than the bound still
// caches, as the lone entry.
func WithCacheBytes(max int64) CacheOption {
	return func(c *cacheConfig) { c.bytes = max }
}

// WithCacheMetrics registers the cache's counters and gauges in m under
// plancache_* names (plancache_hits_total, plancache_misses_total,
// plancache_coalesced_total, plancache_evictions_total, plancache_entries,
// plancache_bytes, plancache_inflight), alongside whatever else the caller
// records there — one registry can feed a single /metrics endpoint.
func WithCacheMetrics(m *Metrics) CacheOption {
	return func(c *cacheConfig) { c.reg = m }
}

// WithCacheStore attaches a disk tier under the LRU: a memory miss first
// tries the store (counted as CacheDisk on success), and every plan this
// cache constructs is written through for later processes to warm-start
// from. Store failures never surface here — a degraded store just turns
// the cache back into the memory-only cache it was without one.
func WithCacheStore(ps *PlanStore) CacheOption {
	return func(c *cacheConfig) { c.store = ps }
}

// PlanCache is a concurrent, bounded, content-addressed cache of gossip
// plans. Safe for concurrent use by any number of goroutines; the plans it
// returns are shared, not copied, which is safe because plans are
// immutable.
type PlanCache struct {
	c *plancache.Cache[*Plan]
	// w caches weighted plans under (fingerprint ⊕ counts-hash, Weighted).
	// A separate generic instance because the value type differs; it shares
	// the entry/byte budget shape but registers no metrics of its own (the
	// plancache_* names belong to c).
	w *plancache.Cache[*WeightedPlan]
}

// NewPlanCache returns an empty plan cache (512 plans / 512 MiB estimated
// bytes by default).
func NewPlanCache(opts ...CacheOption) *PlanCache {
	cfg := cacheConfig{entries: 512, bytes: 512 << 20}
	for _, o := range opts {
		o(&cfg)
	}
	c := plancache.New[*Plan](cfg.entries, cfg.bytes, cfg.reg)
	if cfg.store != nil {
		c.AttachTier2(cfg.store)
	}
	return &PlanCache{
		c: c,
		w: plancache.New[*WeightedPlan](cfg.entries, cfg.bytes, nil),
	}
}

// Plan returns a gossip plan for the network, reusing a cached plan for any
// network with the same fingerprint and algorithm. On a miss it snapshots
// the network (so later AddLink calls cannot reach the cached plan) and
// constructs via PlanGossip; concurrent misses for one key construct once.
// Construction errors — ErrDisconnected in particular — are returned to
// every waiting caller and are not cached, so a later request retries.
func (pc *PlanCache) Plan(nw *Network, opts ...PlanOption) (*Plan, error) {
	p, _, err := pc.PlanSourced(nw, opts...)
	return p, err
}

// PlanSourced is Plan plus the cache outcome, for servers that report or
// meter hit rates per request.
func (pc *PlanCache) PlanSourced(nw *Network, opts ...PlanOption) (*Plan, CacheSource, error) {
	cfg := planConfig{algo: ConcurrentUpDown}
	for _, o := range opts {
		o(&cfg)
	}
	key := cacheKey(nw.Fingerprint(), cfg)
	return pc.c.Get(key, func() (*Plan, int64, error) {
		p, err := nw.snapshot().PlanGossip(opts...)
		if err != nil {
			return nil, 0, err
		}
		// Plan implements plancache.Sizer, so the cache charges
		// p.SizeBytes() — the build-time estimate here is a fallback only.
		return p, p.SizeBytes(), nil
	})
}

// lookup fetches the plan cached under (fingerprint, algo) without
// building on a miss; the churn layer probes with it before patching.
func (pc *PlanCache) lookup(fp uint64, algo Algorithm) (*Plan, bool) {
	return pc.c.Lookup(plancache.Key{Fingerprint: fp, Algo: int(algo)})
}

// put publishes an externally built plan — a DynamicPlanner's patched or
// rebound plan — under (fingerprint, algo). Patched plans are re-keyed by
// the mutated topology's fingerprint, so a later Plan request for the same
// edge set hits the patch instead of rebuilding; like every cached plan
// they are immutable and shared, never copied.
func (pc *PlanCache) put(fp uint64, algo Algorithm, p *Plan) {
	pc.c.Put(plancache.Key{Fingerprint: fp, Algo: int(algo)}, p, p.SizeBytes())
}

// Contains reports whether a plan for the network under the given options
// is cached, without touching LRU order or the hit/miss counters.
func (pc *PlanCache) Contains(nw *Network, opts ...PlanOption) bool {
	cfg := planConfig{algo: ConcurrentUpDown}
	for _, o := range opts {
		o(&cfg)
	}
	return pc.c.Peek(cacheKey(nw.Fingerprint(), cfg))
}

// cacheKey derives the plancache key for a plan request: the registry
// algorithm value plus the topology fingerprint, with the seed mixed into
// the fingerprint half for non-deterministic algorithms — two seeds of one
// topology are distinct plans and must not collide.
func cacheKey(fp uint64, cfg planConfig) plancache.Key {
	if algo.Registered(cfg.algo) && !algo.ByID(cfg.algo).Deterministic {
		fp ^= mixSeed(uint64(cfg.seed) ^ 0x5eed)
	}
	return plancache.Key{Fingerprint: fp, Algo: int(cfg.algo)}
}

// mixSeed finalises a seed into cache-key bits (splitmix64 finaliser).
func mixSeed(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// WeightedPlanSourced returns a weighted gossip plan for the network and
// counts, reusing a cached plan for any (topology, counts) pair already
// built. Weighted plans cache in their own tier keyed by the topology
// fingerprint mixed with a counts hash, under the registry's Weighted
// value; concurrent misses for one key construct once, and errors are
// returned to every waiting caller without being cached.
func (pc *PlanCache) WeightedPlanSourced(nw *Network, counts []int) (*WeightedPlan, CacheSource, error) {
	fp := nw.Fingerprint()
	h := mixSeed(uint64(len(counts)) ^ 0xc0a475)
	for _, c := range counts {
		h = mixSeed(h ^ uint64(c))
	}
	key := plancache.Key{Fingerprint: fp ^ h, Algo: int(Weighted)}
	return pc.w.Get(key, func() (*WeightedPlan, int64, error) {
		p, err := nw.PlanWeightedGossip(counts)
		if err != nil {
			return nil, 0, err
		}
		return p, p.SizeBytes(), nil
	})
}

// WeightedPlan is WeightedPlanSourced without the cache outcome.
func (pc *PlanCache) WeightedPlan(nw *Network, counts []int) (*WeightedPlan, error) {
	p, _, err := pc.WeightedPlanSourced(nw, counts)
	return p, err
}

// Stats snapshots the cache counters.
func (pc *PlanCache) Stats() CacheStats { return pc.c.Stats() }

// SizeBytes reports the plan's resident size — the plancache.Sizer
// contract, which the cache's byte bound charges instead of a flat
// estimate. Implicit-backed ConcurrentUpDown plans cost their packed O(n)
// arrays plus the graph snapshot: kilobytes where the materialised form
// costs megabytes, which is what lets one cache hold thousands of
// topologies. Materialised (Simple) plans cost the full schedule — one
// Transmission header plus the To slice per multicast — plus the tree,
// labels and snapshot.
//
// The size is measured once, at cache insert. An implicit-backed plan
// that is later asked for Stats, JSON export or an analysis materialises
// its schedule lazily and from then on occupies more memory than the
// cache accounted for; serving paths that only read Rounds, Round,
// RoundAppend and TimetableOf, and the streamed replays (Verify,
// ExecuteWithFaults, ExecuteTraced), never trigger that growth.
func (p *Plan) SizeBytes() int64 {
	const word = 8
	b := int64(p.network.N()) * 2 * word // adjacency index of the snapshot
	b += int64(p.network.M()) * 2 * word // adjacency lists (both directions)
	if p.imp != nil {
		return b + p.imp.SizeBytes()
	}
	if p.sched == nil {
		return b + 8*word // Algebraic: the realized Result and seed only
	}
	s := p.sched
	b += int64(len(s.Rounds)) * 3 * word // round slice headers
	for _, r := range s.Rounds {
		b += int64(len(r)) * 5 * word // Msg, From, To header
		for _, tx := range r {
			b += int64(len(tx.To)) * word
		}
	}
	b += int64(p.network.N()) * 6 * word // parents, levels, labels, ecc
	return b
}
