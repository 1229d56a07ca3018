// CacheBackend: the read-through memoization layer of the engine. It
// wraps any Backend — the full Planner in core.DB, a sharded engine, a
// mirror, or a single-disk adapter — and caches RangeSkyline answers in
// an LRU map keyed by the canonicalized query rectangle, so hot
// rectangles are re-answered from memory instead of re-walking the
// dyntop/top-open or Theorem 6 machinery. Because the key is the
// ORIGINAL rectangle (canonicalized, never the mirror-rewritten one),
// the same entry serves a query whether the planner under the cache
// routes it to the general backend, the top-open backend, or a
// transposed mirror.
//
// Correctness rests on one geometric fact: RangeSkyline(q) depends only
// on the points inside q, so an insert or delete of point p can change
// the answer of a cached rectangle only if that rectangle contains p.
// Invalidation exploits it twice:
//
//   - Exactly: only entries whose rectangle could contain a written
//     point are evicted; a delete that misses every backend changes no
//     answer and evicts nothing.
//   - Shard-aware: the wrapped backend's Partition reports the x-cuts
//     of a sharded engine under it, entries are tagged with the range
//     of x-slabs their rectangle intersects, and a write only scans out
//     entries intersecting the written point's slab — the rest of the
//     cache survives the write. A transposed mirror's inner engine
//     partitions by original y, and Partition reports its cuts as
//     y-cuts, which refine invalidation on the other axis: an entry is
//     evicted only when its rectangle intersects the affected x-slab AND
//     the affected y-slab. An unpartitioned backend makes the whole
//     cache one slab, and every applied write flushes it.
//
// Concurrent readers and invalidating writers are safe: fills are
// guarded by per-x-slab generation counters. A miss snapshots the
// generations of the slabs its rectangle intersects before querying the
// wrapped backend, and installs the answer only if none changed —
// writers bump the generations AFTER the underlying write completes, so
// an answer computed concurrently with a write that could have affected
// it is returned to its caller but never cached.
package engine

import (
	"container/list"
	"fmt"
	"sort"
	"sync"

	"repro/internal/geom"
)

// CanonicalQuery maps q to the representative of its answer-equivalence
// class used as the cache key: every rectangle containing no point at
// all — X1 > X2 or Y1 > Y2 — collapses onto one canonical empty
// rectangle, and every non-empty rectangle is its own representative.
// The invariant (fuzzed by FuzzCanonicalQuery) is that q and
// CanonicalQuery(q) contain exactly the same points, hence have
// byte-identical range skylines.
func CanonicalQuery(q geom.Rect) geom.Rect {
	if q.X1 > q.X2 || q.Y1 > q.Y2 {
		return geom.Rect{X1: 0, X2: -1, Y1: 0, Y2: -1}
	}
	return q
}

// CacheCounters are a cache's operation totals since the last
// ResetCounters.
type CacheCounters struct {
	// Hits counts queries answered from the cache.
	Hits uint64
	// Misses counts queries that fell through to the wrapped backend.
	Misses uint64
	// Evictions counts entries dropped to respect the capacity bound.
	Evictions uint64
	// Invalidations counts entries dropped because a write could have
	// changed their answer.
	Invalidations uint64
	// Sweeps counts invalidation passes over the cache: one per
	// applied write batch that wrote anything.
	Sweeps uint64
}

// cacheEntry is one memoized answer plus the bucket rectangle its query
// intersects: x-slabs [xLo, xHi] and y-slabs [yLo, yHi]. The canonical
// empty rectangle maps to whatever slab owns the origin; evicting it is
// unnecessary (its answer is empty under every point set) but harmless.
type cacheEntry struct {
	key    geom.Rect
	answer []geom.Point
	xLo    int
	xHi    int
	yLo    int
	yHi    int
}

// CacheBackend is a read-through RangeSkyline cache over any Backend.
// It implements Backend: queries are memoized, updates pass through to
// the wrapped backend and invalidate the affected entries. Answers
// returned from the cache are shared slices and must not be mutated by
// callers — the same contract every structure's Query already has.
type CacheBackend struct {
	WriteVerbs
	inner Backend
	cap   int

	mu sync.Mutex
	// xcuts/ycuts are the partition boundaries learned from the wrapped
	// backend (nil = one slab covering the whole axis). Learned at
	// construction; a rebalancing engine moves them through
	// SetXCuts/SetYCuts. Guarded by mu.
	xcuts   []geom.Coord
	ycuts   []geom.Coord
	entries map[geom.Rect]*list.Element
	lru     *list.List // front = most recently used
	// genX[i] counts the applied writes that touched x-slab i; fills
	// are dropped when a slab generation moved under them.
	genX []uint64
	// cutsGen counts SetXCuts/SetYCuts calls: a fill whose slab tags
	// were computed against old cuts must be dropped, never installed
	// with stale coordinates (the per-slab generations it snapshotted
	// index a genX that no longer exists).
	cutsGen uint64

	hits          uint64
	misses        uint64
	evictions     uint64
	invalidations uint64
	sweeps        uint64
}

// NewCache wraps inner with a read-through cache holding at most
// entries memoized answers (entries < 1 is an error — a cache that can
// hold nothing should not be built). The slab cuts are inner.Partition():
// x-cuts from the sharded engine, y-cuts from a transpose mirror over
// one (the mirrored frame's x is the original frame's y).
func NewCache(inner Backend, entries int) (*CacheBackend, error) {
	if entries < 1 {
		return nil, fmt.Errorf("engine: cache capacity %d < 1", entries)
	}
	c := &CacheBackend{
		inner:   inner,
		cap:     entries,
		entries: make(map[geom.Rect]*list.Element, entries),
		lru:     list.New(),
	}
	c.WriteVerbs = VerbsOf(c.Apply)
	c.xcuts, c.ycuts = inner.Partition()
	c.genX = make([]uint64, len(c.xcuts)+1)
	return c, nil
}

// Inner returns the wrapped backend.
func (c *CacheBackend) Inner() Backend { return c.inner }

// Cap returns the capacity bound (maximum memoized answers).
func (c *CacheBackend) Cap() int { return c.cap }

// Len returns the number of memoized answers currently held.
func (c *CacheBackend) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// XCuts returns the x-partition boundaries invalidation is aware of
// (nil when the wrapped backend exposed none).
func (c *CacheBackend) XCuts() []geom.Coord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]geom.Coord(nil), c.xcuts...)
}

// YCuts returns the y-partition boundaries invalidation is aware of.
func (c *CacheBackend) YCuts() []geom.Coord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]geom.Coord(nil), c.ycuts...)
}

// SetXCuts replaces the x-partition boundaries after the wrapped engine
// rebalanced. Every resident entry is re-tagged against the new cuts —
// the memoized ANSWERS stay valid (a cut move changes where points
// live, not what a rectangle contains), only the slab coordinates used
// for invalidation change — and the per-slab generations restart at a
// new cuts generation, so any in-flight fill tagged under the old cuts
// is dropped instead of installed stale.
func (c *CacheBackend) SetXCuts(cuts []geom.Coord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.xcuts = append([]geom.Coord(nil), cuts...)
	c.genX = make([]uint64, len(c.xcuts)+1)
	c.cutsGen++
	c.retagLocked()
}

// SetYCuts is SetXCuts for the transpose mirror's axis: the mirrored
// engine partitions by original y, so its rebalance moves the y-slab
// tags.
func (c *CacheBackend) SetYCuts(cuts []geom.Coord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ycuts = append([]geom.Coord(nil), cuts...)
	c.cutsGen++
	c.retagLocked()
}

// retagLocked recomputes every entry's slab interval from the current
// cuts. Caller holds mu.
func (c *CacheBackend) retagLocked() {
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		e.xLo, e.xHi = buckets(c.xcuts, e.key.X1, e.key.X2)
		e.yLo, e.yHi = buckets(c.ycuts, e.key.Y1, e.key.Y2)
	}
}

// Counters returns the cache's operation totals since the last
// ResetCounters. Safe to call while operations are in flight.
func (c *CacheBackend) Counters() CacheCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheCounters{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Sweeps:        c.sweeps,
	}
}

// bucketFor returns the index of the slab owning x: the smallest i with
// x <= cuts[i], or len(cuts) when x lies beyond the last cut.
func bucketFor(cuts []geom.Coord, x geom.Coord) int {
	return sort.Search(len(cuts), func(i int) bool { return x <= cuts[i] })
}

// buckets returns the slab interval [lo, hi] a coordinate range
// intersects. An empty range (x1 > x2) yields hi < lo.
func buckets(cuts []geom.Coord, x1, x2 geom.Coord) (lo, hi int) {
	return bucketFor(cuts, x1), bucketFor(cuts, x2)
}

// RangeSkyline answers q from the cache when a memoized entry exists,
// and reads through to the wrapped backend otherwise. The answer is
// byte-identical to the wrapped backend's: a hit returns exactly the
// slice a previous read-through stored, and invalidation guarantees no
// stored answer survives a write that could have changed it.
func (c *CacheBackend) RangeSkyline(q geom.Rect) []geom.Point {
	key := CanonicalQuery(q)

	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		ans := el.Value.(*cacheEntry).answer
		c.mu.Unlock()
		return ans
	}
	c.misses++
	xLo, xHi := buckets(c.xcuts, key.X1, key.X2)
	cutsGen := c.cutsGen
	// Snapshot the generations of every x-slab the rectangle
	// intersects: a write inside the rectangle must land in one of
	// them, so an unchanged snapshot proves no such write raced the
	// read-through below.
	var gens []uint64
	if xLo <= xHi {
		gens = append(gens, c.genX[xLo:xHi+1]...)
	}
	c.mu.Unlock()

	ans := c.inner.RangeSkyline(q)

	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		// A concurrent reader installed the same key first; keep its
		// entry (the two answers agree — no invalidating write came
		// between, or both fills would have been dropped).
		return ans
	}
	if c.cutsGen != cutsGen {
		// The cuts moved while the answer was being computed: the slab
		// tags and generation snapshot describe a partition that no
		// longer exists. Late fill against a moved cut — drop it.
		return ans
	}
	for i := xLo; i <= xHi; i++ {
		if c.genX[i] != gens[i-xLo] {
			// An invalidating write landed in one of our slabs while
			// the answer was being computed; it may predate the write.
			return ans
		}
	}
	e := &cacheEntry{key: key, answer: ans, xLo: xLo, xHi: xHi}
	e.yLo, e.yHi = buckets(c.ycuts, key.Y1, key.Y2)
	if c.lru.Len() >= c.cap {
		c.dropLocked(c.lru.Back())
		c.evictions++
	}
	c.entries[key] = c.lru.PushFront(e)
	return ans
}

// dropLocked removes an LRU element from both indexes. Caller holds mu.
func (c *CacheBackend) dropLocked(el *list.Element) {
	delete(c.entries, el.Value.(*cacheEntry).key)
	c.lru.Remove(el)
}

// invalidate drops every entry whose rectangle could contain one of the
// applied writes and bumps the touched slab generations. It must be
// called AFTER the underlying write completed: the generation bump is
// what tells concurrent read-throughs their answer may be stale, and
// bumping early would let a fill started after the bump cache an answer
// computed before the write landed.
func (c *CacheBackend) invalidate(pts []geom.Point) {
	if len(pts) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweeps++
	// Dedup the touched (x-slab, y-slab) pairs: a batch localized to
	// one shard scans the cache once, not once per point. Single-point
	// writes — the hot path — skip the maps entirely.
	// Computed under mu so the pairs and the entry tags they are matched
	// against always describe the same cuts.
	type slabPair struct{ x, y int }
	var touched []slabPair
	if len(pts) == 1 {
		touched = []slabPair{{bucketFor(c.xcuts, pts[0].X), bucketFor(c.ycuts, pts[0].Y)}}
	} else {
		set := make(map[slabPair]bool, len(pts))
		for _, p := range pts {
			pair := slabPair{bucketFor(c.xcuts, p.X), bucketFor(c.ycuts, p.Y)}
			if !set[pair] {
				set[pair] = true
				touched = append(touched, pair)
			}
		}
	}
	bumped := -1 // touched is grouped enough that a last-seen check dedups most bumps
	for _, pair := range touched {
		if pair.x != bumped {
			bumped = pair.x
			c.genX[pair.x]++
		}
	}
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*cacheEntry)
		for _, pair := range touched {
			if e.xLo <= pair.x && pair.x <= e.xHi && e.yLo <= pair.y && pair.y <= e.yHi {
				c.dropLocked(el)
				c.invalidations++
				break
			}
		}
	}
}

// Apply applies the batch through the wrapped backend, then evicts in
// one sweep the entries whose rectangles could contain a written point:
// every point the backend reports removed — a delete that missed changed
// no answer and evicts nothing — and every insert, even when the backend
// reports an error, because a planner error can arrive AFTER the primary
// applied the write. An error from a backend that mutated nothing (a
// static index) makes the invalidation unnecessary, never wrong.
func (c *CacheBackend) Apply(dels, inss []geom.Point) ([]geom.Point, error) {
	removed, err := c.inner.Apply(dels, inss)
	switch {
	case len(inss) == 0:
		c.invalidate(removed)
	case len(removed) == 0:
		c.invalidate(inss)
	default:
		written := make([]geom.Point, 0, len(removed)+len(inss))
		c.invalidate(append(append(written, removed...), inss...))
	}
	return removed, err
}

// ResetCounters zeroes the cache counters WITHOUT dropping the memoized
// entries: resetting measurement state must not change what the next
// query costs.
func (c *CacheBackend) ResetCounters() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits, c.misses, c.evictions, c.invalidations, c.sweeps = 0, 0, 0, 0, 0
}

// Partition passes through: the cache memoizes answers, it moves no
// point, and a rebalance reaches it through SetXCuts/SetYCuts.
func (c *CacheBackend) Partition() (xcuts, ycuts []geom.Coord) { return c.inner.Partition() }
