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
// Invalidation is answer-exact. An entry holds the rectangle Q and its
// answer A, the maxima of P ∩ Q in increasing-x (hence decreasing-y)
// order, and a write batch evicts it only when the batch can change A:
//
//   - a removed point p evicts it iff p ∈ A (a binary search on x).
//     Deleting a point that is not maximal in P ∩ Q leaves the maxima
//     as they were, and a delete that missed removed nothing;
//   - an inserted point p evicts it iff p ∈ Q, p ∉ A, and no point of
//     A dominates p. Because A is a staircase, the only candidate is
//     the first a ∈ A with a.X > p.X: the entry survives iff
//     a.Y > p.Y. (p ∈ A means the fill already saw the insert.)
//
// The rule is sound for whole batches and for interleaved writers: if
// every removed point lies outside A and every inserted point inside Q
// is dominated by a point of A, then no point of A is gone or
// dominated, and every new point of P ∩ Q is dominated, so A is still
// the skyline. It needs no partition of the plane, so rebalancing the
// engine underneath moves nothing here.
//
// Concurrent readers and invalidating writers are safe through one
// write generation for the whole cache. A miss snapshots it before
// querying the wrapped backend and installs the answer only if it did
// not move. Writers bump it AFTER the underlying write completed, in
// the same critical section as the sweep. So an answer computed
// concurrently with a write is always returned to its caller, and
// cached only if it was installed before that write's sweep, which then
// judges it like any other entry.
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
	// Invalidations counts entries dropped because an applied write
	// changed their answer.
	Invalidations uint64
	// Sweeps counts invalidation passes over the cache: one per
	// applied write batch that wrote anything.
	Sweeps uint64
}

// cacheEntry is one memoized answer: the canonical rectangle and its
// range skyline in increasing-x order.
type cacheEntry struct {
	key    geom.Rect
	answer []geom.Point
}

// changedBy reports whether a batch that removed removed and inserted
// inserted can change the entry's answer (see the package comment).
func (e *cacheEntry) changedBy(removed, inserted []geom.Point) bool {
	a := e.answer
	// right returns the index of the first answer point right of p;
	// answer x-coordinates are distinct, so p ∈ A iff it sits just
	// before that index.
	right := func(p geom.Point) int {
		return sort.Search(len(a), func(i int) bool { return a[i].X > p.X })
	}
	for _, p := range removed {
		if i := right(p); i > 0 && a[i-1] == p {
			return true
		}
	}
	for _, p := range inserted {
		if !e.key.Contains(p) {
			continue
		}
		if i := right(p); (i > 0 && a[i-1] == p) || (i < len(a) && a[i].Y > p.Y) {
			continue // already answered, or dominated by a[i]
		}
		return true
	}
	return false
}

// CacheBackend is a read-through RangeSkyline cache over any Backend.
// It implements Backend: queries are memoized, updates pass through to
// the wrapped backend and evict the entries whose answers they change.
// Answers returned from the cache are shared slices and must not be
// mutated by callers — the same contract every structure's Query
// already has.
type CacheBackend struct {
	WriteVerbs
	inner Backend
	cap   int

	mu      sync.Mutex
	entries map[geom.Rect]*list.Element
	lru     *list.List // front = most recently used
	// gen counts applied write batches; a fill is dropped when it moved
	// while the answer was being computed.
	gen uint64

	hits          uint64
	misses        uint64
	evictions     uint64
	invalidations uint64
	sweeps        uint64
}

// NewCache wraps inner with a read-through cache holding at most
// entries memoized answers (entries < 1 is an error — a cache that can
// hold nothing should not be built).
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

// SetXCuts and SetYCuts do nothing: invalidation reads answers, not
// slabs, so a rebalance that moves the engine's cuts needs nothing from
// the cache. They remain for callers that still propagate cut changes
// to it (bench/ladder.go).
func (c *CacheBackend) SetXCuts([]geom.Coord) {}

// SetYCuts does nothing; see SetXCuts.
func (c *CacheBackend) SetYCuts([]geom.Coord) {}

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

// RangeSkyline answers q from the cache when a memoized entry exists,
// and reads through to the wrapped backend otherwise. The answer is
// byte-identical to the wrapped backend's: a hit returns exactly the
// slice a previous read-through stored, and invalidation guarantees no
// stored answer survives a write that changed it.
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
	gen := c.gen
	c.mu.Unlock()

	ans := c.inner.RangeSkyline(q)

	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		// A concurrent reader installed the same key first; keep its
		// entry (the two answers agree — no write came between, or
		// both fills would have been dropped).
		return ans
	}
	if c.gen != gen {
		// A write was applied while the answer was being computed; it
		// may predate the write, and that write's sweep has passed.
		return ans
	}
	if c.lru.Len() >= c.cap {
		c.dropLocked(c.lru.Back())
		c.evictions++
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, answer: ans})
	return ans
}

// dropLocked removes an LRU element from both indexes. Caller holds mu.
func (c *CacheBackend) dropLocked(el *list.Element) {
	delete(c.entries, el.Value.(*cacheEntry).key)
	c.lru.Remove(el)
}

// Apply applies the batch through the wrapped backend, then bumps the
// write generation and, in one sweep, evicts every entry whose answer
// the batch changes: the removed points are the ones the backend
// reports — a delete that missed changed nothing — and every insert
// counts even when the backend reports an error, because a planner
// error can arrive AFTER the primary applied the write. The bump must
// follow the write: bumping early would let a fill started after the
// bump cache an answer computed before the write landed.
func (c *CacheBackend) Apply(dels, inss []geom.Point) ([]geom.Point, error) {
	removed, err := c.inner.Apply(dels, inss)
	if len(removed) == 0 && len(inss) == 0 {
		return removed, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.sweeps++
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		if el.Value.(*cacheEntry).changedBy(removed, inss) {
			c.dropLocked(el)
			c.invalidations++
		}
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
// point.
func (c *CacheBackend) Partition() (xcuts []geom.Coord) { return c.inner.Partition() }
