package graph

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the shared BFS sweep engine. Every O(nm) all-roots question
// the library asks — the Section 3.1 minimum-depth spanning tree, the
// radius, the diameter, the center, the full eccentricity vector — reduces
// to "run a BFS from every vertex and fold the heights". The engine runs
// that sweep once, well: roots fan out over a GOMAXPROCS worker pool, each
// worker traverses a flat CSR snapshot with preallocated reusable scratch
// (zero allocations per traversal after warm-up), and for minimum-seeking
// sweeps roots are pruned with eccentricity lower bounds and abandoned at
// the first level that proves they lose to the best (eccentricity, vertex)
// pair found so far. Every traversal, abandoned or not, raises the lower
// bounds in one vector all workers share. The Section 3.1 tree needs only
// the lowest-numbered center, so its sweep (SweepCenter) also lets every root
// numbered above the best center lose ties. On graphs whose BFS levels are
// wide, minimum-seeking roots run 64 at a time through one bit-parallel
// multi-source BFS (Then et al., "The More the Merrier", VLDB 2015), which
// scans a vertex that many roots reach at the same depth once for all of
// them.

// ErrDisconnected is wrapped by every sweep error caused by the graph not
// being connected, so callers can distinguish "disconnected input" from
// other failures with errors.Is.
var ErrDisconnected = errors.New("graph: disconnected")

// SweepMode selects what a sweep computes and which prunes it may apply.
type SweepMode int

const (
	// SweepAll computes the exact eccentricity of every vertex (and hence
	// radius, diameter and all centers). No pruning is possible: every
	// answer is demanded, so every root is traversed to completion.
	SweepAll SweepMode = iota
	// SweepMin computes the radius and the exact set of center vertices.
	// Roots that provably cannot be centers are skipped or abandoned early,
	// so Ecc entries for non-centers may be unknown and Diameter is not
	// computed.
	SweepMin
	// SweepCenter computes the radius and the lowest-numbered center only —
	// everything the minimum-depth spanning tree construction needs. On top
	// of SweepMin's prunes, a root numbered above the best center found so
	// far loses ties, so it is skipped or abandoned once it provably cannot
	// beat that center's eccentricity strictly. Centers holds only Center,
	// and Ecc entries may be unknown for every other vertex, centers
	// included.
	SweepCenter
)

// SweepStats reports how much work a sweep actually did, for observability
// and for asserting that pruning fires where it should.
type SweepStats struct {
	Roots     int // vertices in the graph (one candidate root each)
	Seeds     int // sequential seed traversals (double sweep + center probe)
	Completed int // traversals run to completion, seeds included
	Pruned    int // roots skipped outright by the eccentricity lower bound
	// ShortCircuited counts traversals abandoned once they provably lost:
	// beyond the best eccentricity found so far, or, in SweepCenter mode,
	// at it for a root numbered above the best center. A scalar traversal
	// is abandoned at a level boundary, and what it proved still raises
	// the shared lower bounds.
	ShortCircuited int
	Workers        int // size of the worker pool the roots were fanned over

	// Elapsed is the wall-clock duration of the sweep, for the
	// observability layer's sweep-timing metrics.
	Elapsed time.Duration
}

// SweepResult is the outcome of one sweep over all roots.
type SweepResult struct {
	Mode SweepMode
	// Ecc[v] is the exact eccentricity of v, or -1 when the sweep proved v
	// irrelevant without finishing its traversal (SweepMin and SweepCenter
	// only; SweepAll fills every entry).
	Ecc []int
	// Radius is the minimum eccentricity and Center the lowest-numbered
	// vertex achieving it, exact in every mode. Centers lists all vertices
	// achieving it, ascending, in SweepAll and SweepMin; in SweepCenter it
	// holds only Center.
	Radius  int
	Center  int
	Centers []int
	// Diameter is the maximum eccentricity in SweepAll mode and -1 in the
	// other modes (a pruned sweep learns only a lower bound on it).
	Diameter int
	Stats    SweepStats
}

// noCutoff disables early exit in a traversal.
const noCutoff = math.MaxInt32

// lanes is the number of roots one lane pass runs: one per bit of a uint64.
const lanes = 64

// laneMinWidth is the least mean BFS level width, n / (ecc(0) + 1) measured
// by the first seed traversal, at which minimum-seeking roots run through
// the lane kernel. Below it (rings, paths, long thin graphs) few roots
// meet any vertex at the same depth, so a lane pass costs about as much as
// its roots' scalar traversals and loses the scalar path's per-traversal
// bound refinement.
const laneMinWidth = 64

// sweepScratch is one worker's reusable traversal state. Visitation is
// tracked by stamping mark[v] with the current epoch instead of refilling a
// distance array with -1, so starting a traversal costs O(1), not O(n), and
// a warm scratch performs a whole BFS without allocating.
type sweepScratch struct {
	dist  []int32
	mark  []uint32
	queue []int32
	epoch uint32
}

func newSweepScratch(n int) *sweepScratch {
	return &sweepScratch{
		dist:  make([]int32, n),
		mark:  make([]uint32, n),
		queue: make([]int32, n),
	}
}

// bfs traverses from src over the CSR snapshot. It returns the eccentricity
// of src, the number of vertices reached, and ok = true. If it dequeues a
// vertex at distance > cutoff, it stops there and returns that distance,
// cutoff + 1, with ok = false: ecc(src) > cutoff is then proven, and
// queue[:reached] holds every vertex within distance cutoff + 1 of src,
// each with its exact dist. Neighbours are scanned in sorted order,
// preserving the deterministic discovery order of the slice-based BFS.
func (s *sweepScratch) bfs(c *csr, src, cutoff int32) (ecc int32, reached int, ok bool) {
	s.epoch++
	if s.epoch == 0 { // wrapped: invalidate stale stamps once
		clear(s.mark)
		s.epoch = 1
	}
	e := s.epoch
	q := s.queue[:1]
	q[0] = src
	s.mark[src] = e
	s.dist[src] = 0
	for head := 0; head < len(q); head++ {
		u := q[head]
		du := s.dist[u]
		if du > cutoff {
			return du, len(q), false
		}
		for i := c.row[u]; i < c.row[u+1]; i++ {
			v := c.col[i]
			if s.mark[v] == e {
				continue
			}
			s.mark[v] = e
			s.dist[v] = du + 1
			q = append(q, v)
		}
	}
	return s.dist[q[len(q)-1]], len(q), true
}

// refine raises the shared bounds lb with what the last traversal proved.
// A traversal from u that reached depth l (ecc(u) when it completed,
// cutoff + 1 when it was abandoned, so ecc(u) >= l either way) proves
// ecc(w) >= max(d(u,w), l - d(u,w)) for every w it reached.
func (s *sweepScratch) refine(lb []atomic.Int32, reached int, l int32) {
	for _, w := range s.queue[:reached] {
		d := s.dist[w]
		raise(&lb[w], max(d, l-d))
	}
}

// raise lifts the shared bound *b to x if x is larger. Bounds only grow,
// so a stale read elsewhere is still a valid lower bound.
func raise(b *atomic.Int32, x int32) {
	for cur := b.Load(); x > cur; cur = b.Load() {
		if b.CompareAndSwap(cur, x) {
			return
		}
	}
}

// laneScratch is one worker's reusable state for 64-lane passes: bit i of
// seen[v], front[v] and next[v] belongs to the pass's i-th root, and active
// lists the vertices whose front word is non-zero. front and next are
// all-zero between passes; seen is cleared at the start of each.
type laneScratch struct {
	seen, front, next  []uint64
	active, nextActive []int32
}

func newLaneScratch(n int) *laneScratch {
	return &laneScratch{
		seen:       make([]uint64, n),
		front:      make([]uint64, n),
		next:       make([]uint64, n),
		active:     make([]int32, 0, n),
		nextActive: make([]int32, 0, n),
	}
}

// Sweep runs BFS traversals from every vertex and folds them according to
// mode. It parallelises roots over runtime.GOMAXPROCS workers. In SweepMin
// and SweepCenter modes it prunes roots with the lower bound ecc(v) >=
// max(d(u,v), l - d(u,v)), where a traversal from u reached depth l, taken
// over every traversal — the seeds (a double sweep from vertex 0 plus a
// probe of the approximate center), the completed ones (l = ecc(u)) and the
// abandoned ones (l = cutoff + 1 <= ecc(u)) — and held in one bound vector
// all workers share. It abandons a traversal as soon as its depth exceeds
// the root's cutoff: the best eccentricity r found so far, or r - 1 in
// SweepCenter mode for a root numbered above the best center, which loses
// ties. Remaining roots are handed out in index order, so a low-numbered
// center is found early; on wide graphs each worker runs them 64 at a time
// through a bit-parallel BFS.
//
// Despite the pruning and the nondeterministic traversal order, the
// minimum-side answers are exact and deterministic. The shared best is the
// lexicographically least (eccentricity, vertex) pair completed so far, so
// it never passes the final (radius, center) pair, and every bound only
// grows toward a true eccentricity, so a stale read of one is still a
// valid lower bound. The final center, and in SweepMin mode every vertex
// with eccentricity equal to the radius, can therefore never be pruned
// (its bound would exceed its cutoff, which is at least its eccentricity)
// nor abandoned (its depth never exceeds that cutoff), so it completes and
// Radius/Center (and SweepMin's Centers) match the naive n-BFS fold bit
// for bit.
//
// Sweep returns an error wrapping ErrDisconnected when g is not connected,
// and an error on the empty graph, where eccentricity is undefined.
func (g *Graph) Sweep(mode SweepMode) (*SweepResult, error) {
	if mode != SweepAll && mode != SweepMin && mode != SweepCenter {
		return nil, fmt.Errorf("graph: unknown sweep mode %d", int(mode))
	}
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("graph: sweep of an empty graph")
	}
	sweepStart := time.Now()
	c := newCSR(g)
	res := &SweepResult{Mode: mode, Ecc: make([]int, n), Diameter: -1}
	for i := range res.Ecc {
		res.Ecc[i] = -1
	}
	stats := &res.Stats
	stats.Roots = n

	// lb[v] is the lower bound on ecc(v) every traversal raises, shared by
	// the seeds and all workers.
	minimising := mode != SweepAll
	var lb []atomic.Int32
	if minimising {
		lb = make([]atomic.Int32, n)
	}
	seedScratch := newSweepScratch(n)
	best := int64(math.MaxInt64)
	runSeed := func(root int32) error {
		ecc, reached, _ := seedScratch.bfs(c, root, noCutoff)
		stats.Seeds++
		stats.Completed++
		if reached < n {
			for v := 0; v < n; v++ {
				if seedScratch.mark[v] != seedScratch.epoch {
					return fmt.Errorf("%w: vertex %d unreachable from vertex %d", ErrDisconnected, v, root)
				}
			}
		}
		res.Ecc[root] = int(ecc)
		best = min(best, packBest(ecc, root))
		if lb != nil {
			seedScratch.refine(lb, reached, ecc)
		}
		return nil
	}

	// Seed phase: BFS from vertex 0 establishes connectivity (and the
	// deterministic tie-break anchor). In the minimum-seeking modes the
	// classic double sweep follows — farthest u from 0, farthest w from u —
	// plus a probe of the approximate center between u and w, which usually
	// lands the cutoff at or near the true radius before any parallel work
	// starts.
	if err := runSeed(0); err != nil {
		return nil, err
	}
	ecc0 := res.Ecc[0]
	if minimising && n > 1 {
		dist0 := append([]int32(nil), seedScratch.dist...)
		u := lowestArgmax(dist0)
		_ = runSeed(int32(u)) // u != 0: ecc0 >= 1 on a connected n>1 graph
		distU := append([]int32(nil), seedScratch.dist...)
		w := lowestArgmax(distU)
		distW := dist0
		if w != 0 && w != u {
			_ = runSeed(int32(w))
			distW = seedScratch.dist
		}
		mid, midScore := 0, int32(math.MaxInt32)
		for v := 0; v < n; v++ {
			s := distU[v]
			if distW[v] > s {
				s = distW[v]
			}
			if s < midScore {
				mid, midScore = v, s
			}
		}
		if res.Ecc[mid] < 0 {
			_ = runSeed(int32(mid))
		}
	}

	// Parallel phase: fan the remaining roots over the pool. Each index of
	// res.Ecc is written by at most one goroutine, and aggregation happens
	// after the join, so the slice needs no synchronisation of its own.
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	stats.Workers = workers
	sw := &sweeper{c: c, center: mode == SweepCenter, ecc: res.Ecc, lb: lb}
	sw.best.Store(best)
	wide := n/(ecc0+1) >= laneMinWidth
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch {
			case !minimising:
				sw.allWorker()
			case wide:
				sw.laneWorker()
			default:
				sw.scalarWorker()
			}
		}()
	}
	wg.Wait()
	stats.Completed += int(sw.completed.Load())
	stats.Pruned = int(sw.pruned.Load())
	stats.ShortCircuited = int(sw.shortCircuited.Load())

	radius, diameter := -1, -1
	for _, e := range res.Ecc {
		if e < 0 {
			continue
		}
		if radius < 0 || e < radius {
			radius = e
		}
		if e > diameter {
			diameter = e
		}
	}
	res.Radius = radius
	for v, e := range res.Ecc {
		if e == radius {
			res.Centers = append(res.Centers, v)
			if mode == SweepCenter {
				break
			}
		}
	}
	res.Center = res.Centers[0]
	if mode == SweepAll {
		res.Diameter = diameter
	}
	res.Stats.Elapsed = time.Since(sweepStart)
	return res, nil
}

// sweeper is the state the parallel phase's workers share.
type sweeper struct {
	c      *csr
	center bool           // SweepCenter: roots numbered above the best center lose ties
	exact  bool           // no cutoffs: every traversal runs to completion (ComponentDiameter)
	ecc    []int          // the result's Ecc; entry v is written only by the worker that claimed v
	lb     []atomic.Int32 // lower bounds on eccentricity, raised by every traversal
	next   atomic.Int64
	// best is packBest of the lexicographically least (eccentricity,
	// vertex) pair completed so far, so one compare-and-swap keeps both.
	best                              atomic.Int64
	completed, pruned, shortCircuited atomic.Int64
}

// packBest packs an (eccentricity, vertex) pair into one int64 whose order
// is the pairs' lexicographic order.
func packBest(ecc, v int32) int64 { return int64(ecc)<<32 | int64(v) }

// cutoff returns the deepest level a traversal from root may reach and
// still beat the packed best b: b's eccentricity, or one less when ties
// lose (SweepCenter, root numbered above b's vertex).
func (s *sweeper) cutoff(root int32, b int64) int32 {
	if s.exact {
		return noCutoff
	}
	r := int32(b >> 32)
	if s.center && root > int32(b) {
		return r - 1
	}
	return r
}

// offer lowers the shared best to (ecc, root) if that pair is smaller.
func (s *sweeper) offer(ecc, root int32) {
	p := packBest(ecc, root)
	for cur := s.best.Load(); p < cur; cur = s.best.Load() {
		if s.best.CompareAndSwap(cur, p) {
			return
		}
	}
}

// claim hands out the next root in index order that the seed phase left
// unanswered, or -1 once every root has been handed out.
func (s *sweeper) claim() int32 {
	for {
		i := s.next.Add(1) - 1
		if i >= int64(len(s.ecc)) {
			return -1
		}
		if s.ecc[i] < 0 {
			return int32(i)
		}
	}
}

// viable claims the next root that can still win against the current best
// under the shared bounds, counting the roots it skips as pruned.
func (s *sweeper) viable() int32 {
	for root := s.claim(); root >= 0; root = s.claim() {
		if s.lb[root].Load() <= s.cutoff(root, s.best.Load()) {
			return root
		}
		s.pruned.Add(1)
	}
	return -1
}

// allWorker runs every claimed root to completion (SweepAll).
func (s *sweeper) allWorker() {
	sc := newSweepScratch(len(s.ecc))
	for root := s.claim(); root >= 0; root = s.claim() {
		ecc, _, _ := sc.bfs(s.c, root, noCutoff)
		s.ecc[root] = int(ecc)
		s.completed.Add(1)
	}
}

// scalarWorker runs one traversal per viable root and raises the shared
// bounds from each, completed or abandoned.
func (s *sweeper) scalarWorker() {
	var sc *sweepScratch // allocated for the first viable root, if any
	for root := s.viable(); root >= 0; root = s.viable() {
		if sc == nil {
			sc = newSweepScratch(len(s.ecc))
		}
		ecc, reached, ok := sc.bfs(s.c, root, s.cutoff(root, s.best.Load()))
		if ok {
			s.ecc[root] = int(ecc)
			s.completed.Add(1)
			s.offer(ecc, root)
		} else {
			s.shortCircuited.Add(1)
		}
		sc.refine(s.lb, reached, ecc)
	}
}

// laneWorker claims up to lanes viable roots at a time and runs each batch
// as one lane pass.
func (s *sweeper) laneWorker() {
	var ls *laneScratch // allocated for the first batch, if any
	roots := make([]int32, 0, lanes)
	for {
		roots = roots[:0]
		for len(roots) < cap(roots) {
			root := s.viable()
			if root < 0 {
				break
			}
			roots = append(roots, root)
		}
		if len(roots) == 0 {
			return
		}
		if ls == nil {
			ls = newLaneScratch(len(s.ecc))
		}
		s.lanePass(ls, roots)
	}
}

// lanePass runs one top-down multi-source BFS from up to lanes roots, lane i
// for roots[i]. Each level expands the union of the lanes' frontiers, so a
// vertex several lanes reach at the same depth is scanned once for all of
// them. A lane completes, with the previous level as its eccentricity, at
// the first level where it discovers nothing new; it is abandoned at its
// first discovery deeper than its cutoff, re-read whenever the shared best
// changes. Every discovery of w at depth L proves ecc(w) >= L, which the
// pass records in the shared bounds. An exact sweeper runs every lane to
// completion.
func (s *sweeper) lanePass(ls *laneScratch, roots []int32) {
	col, row, lb := s.c.col, s.c.row, s.lb
	seen, front, next := ls.seen, ls.front, ls.next
	clear(seen)
	active := ls.active[:0]
	for i, r := range roots {
		seen[r] = 1 << i
		front[r] = 1 << i
		active = append(active, r)
	}
	live := uint64(1)<<len(roots) - 1 // 1<<64 is 0, so 64 roots give all ones
	var cut [lanes]int32
	b := int64(-1)
	completed, abandoned := 0, 0
	for level := int32(0); live != 0; level++ {
		if nb := s.best.Load(); nb != b {
			b = nb
			for i, r := range roots {
				cut[i] = s.cutoff(r, b)
			}
		}
		// A live lane reached depth level, so one whose cutoff has fallen
		// below it has lost; over holds the lanes a deeper discovery loses.
		var stale, over uint64
		for i := range roots {
			if cut[i] < level {
				stale |= 1 << i
			}
			if cut[i] <= level {
				over |= 1 << i
			}
		}
		abandoned += bits.OnesCount64(live & stale)
		live &^= stale
		var disc uint64
		nextActive := ls.nextActive[:0]
		for _, v := range active {
			f := front[v] & live
			front[v] = 0
			if f == 0 {
				continue
			}
			for _, w := range col[row[v]:row[v+1]] {
				d := f &^ seen[w]
				if d == 0 {
					continue
				}
				raise(&lb[w], level+1)
				if x := d & over; x != 0 {
					abandoned += bits.OnesCount64(x)
					live &^= x
					f &^= x
					if d &^= x; d == 0 {
						continue
					}
				}
				if next[w] == 0 {
					nextActive = append(nextActive, w)
				}
				next[w] |= d
				seen[w] |= d
				disc |= d
			}
		}
		for done := live &^ disc; done != 0; done &= done - 1 {
			root := roots[bits.TrailingZeros64(done)]
			s.ecc[root] = int(level)
			s.offer(level, root)
			completed++
		}
		live &= disc
		front, next = next, front
		ls.nextActive, active = active, nextActive
	}
	for _, v := range active {
		front[v] = 0
	}
	ls.front, ls.next, ls.active = front, next, active
	s.completed.Add(int64(completed))
	s.shortCircuited.Add(int64(abandoned))
}

// lowestArgmax returns the lowest index holding the maximum value.
func lowestArgmax(d []int32) int {
	arg := 0
	for v, x := range d {
		if x > d[arg] {
			arg = v
		}
	}
	return arg
}

// ComponentDiameter returns the largest distance realised within any
// connected component: the diameter for a connected graph, and the worst
// per-component diameter for a disconnected one (unreachable pairs are
// ignored, so it never panics). Package repair uses it to size repair
// batches over survivor subgraphs, which are disconnected exactly when a
// partition has occurred. The empty graph has component diameter 0.
//
// It is exact, and it picks one of two strategies from its first
// traversal, a BFS from vertex 0. On a shallow graph, one where that
// traversal ends before depth laneMaxDepth, every other root runs through
// the 64-lane bit-parallel pass with no cutoff: a pass costs about
// (ecc + 1) word steps per edge against 64 for its roots' scalar
// traversals, and on such graphs the eccentricities are too close together
// for bounds to skip many roots. On a deeper graph (rings, grids, tori)
// roots are traversed one at a time, skipping every root the traversals
// so far prove cannot raise the answer: a completed traversal from v
// proves ecc(w) <= ecc(v) + d(v, w) for every w it reached (Takes &
// Kosters, "Computing the Eccentricity Distribution of Large Graphs",
// Algorithms 2013), and a root whose upper bound is at most the largest
// eccentricity found so far is skipped. Either way roots are handed out in
// index order over a GOMAXPROCS worker pool, and a traversal reaches only
// its own component, so nothing it learns crosses into another one.
func (g *Graph) ComponentDiameter() int {
	diam, _, _ := g.componentDiameter()
	return diam
}

// laneMaxDepth is the depth below which ComponentDiameter's first
// traversal routes the remaining roots through lane passes. A pass over 64
// roots at eccentricity e costs about (e + 1) / 64 of their scalar
// traversals, while upper-bound pruning, which pays on deep graphs with
// spread-out eccentricities such as grids, rarely fires on shallow ones.
const laneMaxDepth = 16

// componentDiameter is ComponentDiameter that also returns the number of
// traversals it ran (a lane counts as one) and whether it took the lane
// path.
func (g *Graph) componentDiameter() (diam, traversals int, laned bool) {
	n := g.N()
	if n == 0 {
		return 0, 0, false
	}
	c := newCSR(g)
	sc := newSweepScratch(n)
	ecc0, reached, _ := sc.bfs(c, 0, noCutoff)
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	if ecc0 < laneMaxDepth {
		ecc := make([]int, n)
		for i := range ecc {
			ecc[i] = -1
		}
		ecc[0] = int(ecc0)
		// Bounds pinned at noCutoff make every root viable and every
		// raise the lane pass attempts a read-only no-op.
		lb := make([]atomic.Int32, n)
		for i := range lb {
			lb[i].Store(noCutoff)
		}
		sw := &sweeper{c: c, ecc: ecc, lb: lb, exact: true}
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sw.laneWorker()
			}()
		}
		wg.Wait()
		return slices.Max(ecc), n, true
	}
	ub := make([]atomic.Int32, n) // upper bounds on eccentricity
	for i := range ub {
		ub[i].Store(math.MaxInt32)
	}
	for _, w := range sc.queue[:reached] {
		ub[w].Store(ecc0 + sc.dist[w])
	}
	var best atomic.Int32 // the largest eccentricity found so far
	best.Store(ecc0)
	var next, done atomic.Int64
	next.Store(1)
	done.Store(1)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc *sweepScratch // allocated for the first root traversed
			for v := next.Add(1) - 1; v < int64(n); v = next.Add(1) - 1 {
				if ub[v].Load() <= best.Load() {
					continue
				}
				if sc == nil {
					sc = newSweepScratch(n)
				}
				ecc, reached, _ := sc.bfs(c, int32(v), noCutoff)
				done.Add(1)
				raise(&best, ecc)
				for _, w := range sc.queue[:reached] {
					lower(&ub[w], ecc+sc.dist[w])
				}
			}
		}()
	}
	wg.Wait()
	return int(best.Load()), int(done.Load()), false
}

// lower drops the shared bound *b to x if x is smaller. Upper bounds only
// fall, so a stale read elsewhere is still a valid upper bound.
func lower(b *atomic.Int32, x int32) {
	for cur := b.Load(); x < cur; cur = b.Load() {
		if b.CompareAndSwap(cur, x) {
			return
		}
	}
}
