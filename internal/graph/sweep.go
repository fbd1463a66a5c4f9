package graph

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
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
// sweeps roots are pruned with eccentricity lower bounds and abandoned
// mid-traversal as soon as they provably lose to the best (eccentricity,
// vertex) pair found so far. The Section 3.1 tree needs only the
// lowest-numbered center, so its sweep (SweepCenter) also lets every root
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
	// at it for a root numbered above the best center.
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
// of src, the number of vertices reached, and ok = true. If cutoff is set
// and some vertex is discovered at distance > cutoff, the traversal is
// abandoned immediately with ok = false (ecc(src) > cutoff is then proven).
// Neighbours are scanned in sorted order, preserving the deterministic
// discovery order of the slice-based BFS.
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
		for i := c.row[u]; i < c.row[u+1]; i++ {
			v := c.col[i]
			if s.mark[v] == e {
				continue
			}
			if du+1 > cutoff {
				return du + 1, len(q), false
			}
			s.mark[v] = e
			s.dist[v] = du + 1
			q = append(q, v)
		}
	}
	return s.dist[q[len(q)-1]], len(q), true
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
// |ecc(u) - d(u,v)| (and ecc(v) >= d(u,v)) taken over completed traversals
// — seeded by a double sweep from vertex 0 plus a probe of the approximate
// center — and abandons a traversal as soon as its frontier depth exceeds
// the root's cutoff: the best eccentricity r found so far, or r - 1 in
// SweepCenter mode for a root numbered above the best center, which loses
// ties. Remaining roots are handed out in index order, so a low-numbered
// center is found early; on wide graphs each worker runs them 64 at a time
// through a bit-parallel BFS.
//
// Despite the pruning and the nondeterministic traversal order, the
// minimum-side answers are exact and deterministic. The shared best is the
// lexicographically least (eccentricity, vertex) pair completed so far, so
// it never passes the final (radius, center) pair. The final center, and in
// SweepMin mode every vertex with eccentricity equal to the radius, can
// therefore never be pruned (its bound would exceed its cutoff, which is
// at least its eccentricity) nor abandoned (its frontier never exceeds that
// cutoff), so it completes and Radius/Center (and SweepMin's Centers) match
// the naive n-BFS fold bit for bit.
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

	// lb[v] is the seed-derived lower bound on ecc(v); read-only once the
	// workers start, each of which refines a private copy.
	minimising := mode != SweepAll
	var lb []int32
	if minimising {
		lb = make([]int32, n)
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
			refineBounds(lb, seedScratch.dist, ecc)
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
	sw := &sweeper{c: c, center: mode == SweepCenter, ecc: res.Ecc}
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
				sw.laneWorker(append([]int32(nil), lb...))
			default:
				sw.scalarWorker(append([]int32(nil), lb...))
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
	center bool  // SweepCenter: roots numbered above the best center lose ties
	ecc    []int // the result's Ecc; entry v is written only by the worker that claimed v
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
// under the worker's bounds lb, counting the roots it skips as pruned.
func (s *sweeper) viable(lb []int32) int32 {
	for root := s.claim(); root >= 0; root = s.claim() {
		if lb[root] <= s.cutoff(root, s.best.Load()) {
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

// scalarWorker runs one traversal per viable root, refining the worker's
// bounds lb from each completed one.
func (s *sweeper) scalarWorker(lb []int32) {
	var sc *sweepScratch // allocated for the first viable root, if any
	for root := s.viable(lb); root >= 0; root = s.viable(lb) {
		if sc == nil {
			sc = newSweepScratch(len(s.ecc))
		}
		ecc, _, ok := sc.bfs(s.c, root, s.cutoff(root, s.best.Load()))
		if !ok {
			s.shortCircuited.Add(1)
			continue
		}
		s.ecc[root] = int(ecc)
		s.completed.Add(1)
		s.offer(ecc, root)
		refineBounds(lb, sc.dist, ecc)
	}
}

// laneWorker claims up to lanes viable roots at a time and runs each batch
// as one lane pass.
func (s *sweeper) laneWorker(lb []int32) {
	var ls *laneScratch // allocated for the first batch, if any
	roots := make([]int32, 0, lanes)
	for {
		roots = roots[:0]
		for len(roots) < cap(roots) {
			root := s.viable(lb)
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
		s.lanePass(ls, roots, lb)
	}
}

// lanePass runs one top-down multi-source BFS from up to lanes roots, lane i
// for roots[i]. Each level expands the union of the lanes' frontiers, so a
// vertex several lanes reach at the same depth is scanned once for all of
// them. A lane completes, with the previous level as its eccentricity, at
// the first level where it discovers nothing new; it is abandoned at its
// first discovery deeper than its cutoff, re-read whenever the shared best
// changes. Every discovery of w at depth L proves ecc(w) >= L, which the
// pass records in the worker's bounds lb.
func (s *sweeper) lanePass(ls *laneScratch, roots []int32, lb []int32) {
	col, row := s.c.col, s.c.row
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
				if lb[w] <= level {
					lb[w] = level + 1
				}
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

// refineBounds raises lb to the bounds a completed traversal from some u
// proves: ecc(v) >= max(d(u,v), ecc(u) - d(u,v)), where dist holds d(u,·)
// and ecc is ecc(u).
func refineBounds(lb, dist []int32, ecc int32) {
	for v, d := range dist {
		b := max(d, ecc-d)
		if b > lb[v] {
			lb[v] = b
		}
	}
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
