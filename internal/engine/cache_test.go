package engine_test

import (
	"testing"

	"repro/internal/emio"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/shard"
)

var cacheCfg = emio.Config{B: 32, M: 32 * 32}

// buildShardedCache builds a dynamic sharded engine over n uniform
// points and wraps it in a cache of the given capacity.
func buildShardedCache(t *testing.T, n, shards, entries int, seed int64) (*engine.CacheBackend, *shard.Engine, []geom.Point) {
	t.Helper()
	pts := geom.GenUniform(n, int64(n)*16, seed)
	geom.SortByX(pts)
	eng, err := shard.New(shard.Options{Machine: cacheCfg, Shards: shards, Workers: 2, Dynamic: true}, pts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := engine.NewCache(eng, entries)
	if err != nil {
		t.Fatal(err)
	}
	return c, eng, pts
}

// slabRect returns a rectangle lying strictly inside shard i's x-slab.
func slabRect(t *testing.T, cuts []geom.Coord, i int, span geom.Coord) geom.Rect {
	t.Helper()
	lo, hi := geom.Coord(0), span
	if i > 0 {
		lo = cuts[i-1] + 1
	}
	if i < len(cuts) {
		hi = cuts[i]
	}
	if lo > hi {
		t.Fatalf("shard %d owns an empty x-slab", i)
	}
	return geom.Rect{X1: lo, X2: hi, Y1: 0, Y2: span}
}

// TestCacheReadThrough pins the core contract: a miss reads through and
// costs I/O, a hit is answered from memory byte-identically at zero
// simulated I/O, and the canonical key collapses all empty rectangles
// onto one entry.
func TestCacheReadThrough(t *testing.T) {
	c, eng, _ := buildShardedCache(t, 400, 4, 16, 41)
	span := geom.Coord(400 * 16)
	q := geom.TopOpen(span/8, span/2, span/4)
	first := c.RangeSkyline(q)
	if got := c.Counters(); got.Hits != 0 || got.Misses != 1 {
		t.Fatalf("after miss: counters = %+v", got)
	}
	before := eng.Stats().IOs()
	second := c.RangeSkyline(q)
	if got := eng.Stats().IOs(); got != before {
		t.Fatalf("hit cost %d I/Os, want 0", got-before)
	}
	if got := c.Counters(); got.Hits != 1 || got.Misses != 1 {
		t.Fatalf("after hit: counters = %+v", got)
	}
	if len(first) != len(second) {
		t.Fatalf("hit answer diverges: %d vs %d points", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("hit answer diverges at %d: %v vs %v", i, second[i], first[i])
		}
	}
	// Every empty rectangle shares the canonical key.
	if got := c.RangeSkyline(geom.Rect{X1: 9, X2: 3, Y1: 0, Y2: span}); len(got) != 0 {
		t.Fatalf("empty rect answered %v", got)
	}
	if got := c.RangeSkyline(geom.Rect{X1: 0, X2: span, Y1: 7, Y2: 2}); len(got) != 0 {
		t.Fatalf("empty rect answered %v", got)
	}
	if got := c.Counters(); got.Hits != 2 || got.Misses != 2 {
		t.Fatalf("empty rects should share one canonical entry: counters = %+v", got)
	}
}

// TestCacheDeleteMissDoesNotEvict pins the invalidation edge case: a
// Delete (or BatchDelete) that misses every backend changed no answer
// and must leave every memoized entry in place.
func TestCacheDeleteMissDoesNotEvict(t *testing.T) {
	c, _, pts := buildShardedCache(t, 400, 4, 16, 43)
	span := geom.Coord(400 * 16)
	qs := []geom.Rect{
		geom.TopOpen(0, span, span/4),
		geom.RightOpen(span/2, 0, span),
		{X1: span / 8, X2: span / 2, Y1: span / 8, Y2: span / 2},
	}
	for _, q := range qs {
		c.RangeSkyline(q)
	}
	if c.Len() != len(qs) {
		t.Fatalf("cache holds %d entries, want %d", c.Len(), len(qs))
	}
	absent := geom.Point{X: span + 1, Y: span + 1}
	if ok, err := c.Delete(absent); ok || err != nil {
		t.Fatalf("Delete(absent) = %t, %v", ok, err)
	}
	if got, err := c.Apply([]geom.Point{absent, {X: span + 2, Y: span + 2}}, nil); len(got) != 0 || err != nil {
		t.Fatalf("Apply(absentees) = %v, %v", got, err)
	}
	if got := c.Counters(); got.Invalidations != 0 {
		t.Fatalf("misses invalidated %d entries", got.Invalidations)
	}
	if c.Len() != len(qs) {
		t.Fatalf("cache holds %d entries after misses, want %d", c.Len(), len(qs))
	}
	// A delete that HITS must invalidate the entries containing it.
	victim := pts[len(pts)/2]
	if ok, err := c.Delete(victim); !ok || err != nil {
		t.Fatalf("Delete(%v) = %t, %v", victim, ok, err)
	}
	if got := c.Counters(); got.Invalidations == 0 {
		t.Fatal("confirmed delete invalidated nothing")
	}
}

// TestCacheShardAwareInvalidation pins the tentpole claim: with the
// engine's x-cuts known, a write evicts only the entries whose
// rectangles intersect the written point's slab, and a batch spanning
// every shard evicts across all of them.
func TestCacheShardAwareInvalidation(t *testing.T) {
	c, eng, _ := buildShardedCache(t, 400, 4, 16, 47)
	span := geom.Coord(400 * 16)
	cuts := eng.Cuts()
	if len(cuts) != 3 {
		t.Fatalf("Cuts() = %v, want 3 cuts", cuts)
	}
	if got := c.XCuts(); len(got) != 3 {
		t.Fatalf("cache learned x-cuts %v, want 3", got)
	}
	perShard := make([]geom.Rect, 4)
	for i := range perShard {
		perShard[i] = slabRect(t, cuts, i, span)
		c.RangeSkyline(perShard[i])
	}
	wide := geom.TopOpen(geom.NegInf, geom.PosInf, span/4)
	c.RangeSkyline(wide)
	if c.Len() != 5 {
		t.Fatalf("cache holds %d entries, want 5", c.Len())
	}

	// A write into shard 0: the shard-0 entry and the wide entry go,
	// the entries confined to shards 1..3 survive.
	if err := c.Insert(geom.Point{X: cuts[0] - 2, Y: span + 10}); err != nil {
		t.Fatal(err)
	}
	if got := c.Counters(); got.Invalidations != 2 {
		t.Fatalf("shard-0 write invalidated %d entries, want 2 (slab 0 + wide)", got.Invalidations)
	}
	if c.Len() != 3 {
		t.Fatalf("cache holds %d entries after shard-0 write, want 3", c.Len())
	}
	before := c.Counters()
	for i := 1; i < 4; i++ {
		c.RangeSkyline(perShard[i])
	}
	if got := c.Counters(); got.Hits != before.Hits+3 {
		t.Fatalf("surviving shards should all hit: counters %+v -> %+v", before, got)
	}

	// A batch spanning all shards evicts across all of them.
	for i := range perShard {
		c.RangeSkyline(perShard[i])
	}
	batch := []geom.Point{
		{X: cuts[0] - 4, Y: span + 20},
		{X: cuts[0] + 1, Y: span + 21},
		{X: cuts[1] + 1, Y: span + 22},
		{X: cuts[2] + 1, Y: span + 23},
	}
	if err := c.BatchInsert(batch); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatalf("batch spanning all shards left %d entries cached", c.Len())
	}
}

// TestCacheYCutRefinement builds the full planner shape core.Open
// assembles (sharded primary + transposed sharded mirror) and pins the
// y-axis refinement: the mirror's cuts are in the transposed frame, so
// they partition the original y-axis, and an entry whose rectangle
// spans every x-slab but misses the written point's y-slab survives.
func TestCacheYCutRefinement(t *testing.T) {
	const n = 400
	span := geom.Coord(n * 16)
	pts := geom.GenUniform(n, span, 53)
	geom.SortByX(pts)
	primary, err := shard.New(shard.Options{Machine: cacheCfg, Shards: 4, Workers: 2, Dynamic: true}, pts)
	if err != nil {
		t.Fatal(err)
	}
	mirrored := geom.ReflectSwapXY.Pts(pts)
	geom.SortByX(mirrored)
	inner, err := shard.New(shard.Options{Machine: cacheCfg, Shards: 4, Workers: 2, Dynamic: true, TopOnly: true}, mirrored)
	if err != nil {
		t.Fatal(err)
	}
	m, err := engine.NewMirror(geom.ReflectSwapXY, inner)
	if err != nil {
		t.Fatal(err)
	}
	pl := new(engine.Planner)
	pl.RegisterTopOpen(primary)
	pl.RegisterGeneral(primary)
	pl.RegisterMirror(m)
	c, err := engine.NewCache(pl, 16)
	if err != nil {
		t.Fatal(err)
	}
	ycuts := c.YCuts()
	if len(ycuts) != 3 {
		t.Fatalf("cache learned y-cuts %v, want 3 (from the mirror's inner engine)", ycuts)
	}

	// A horizontal band above the last y-cut: its x-range meets every
	// x-slab, so only the y-cuts can save it from a low write.
	band := geom.Rect{X1: geom.NegInf, X2: geom.PosInf, Y1: ycuts[2] + 1, Y2: span + 1000}
	c.RangeSkyline(band)
	low := geom.Point{X: span + 10, Y: ycuts[0] - 2}
	if err := c.Insert(low); err != nil {
		t.Fatal(err)
	}
	if got := c.Counters(); got.Invalidations != 0 {
		t.Fatalf("low write invalidated %d entries; the band misses its y-slab", got.Invalidations)
	}
	before := c.Counters().Hits
	c.RangeSkyline(band)
	if got := c.Counters().Hits; got != before+1 {
		t.Fatal("band entry did not survive the low write")
	}
	high := geom.Point{X: span + 11, Y: span + 500}
	if err := c.Insert(high); err != nil {
		t.Fatal(err)
	}
	if got := c.Counters(); got.Invalidations != 1 {
		t.Fatalf("high write invalidated %d entries, want 1 (the band)", got.Invalidations)
	}
}

// TestCacheLRUBound pins the capacity bound: the cache never holds more
// than its capacity and evicts least-recently-used first.
func TestCacheLRUBound(t *testing.T) {
	c, _, _ := buildShardedCache(t, 400, 4, 4, 59)
	span := geom.Coord(400 * 16)
	qs := make([]geom.Rect, 6)
	for i := range qs {
		qs[i] = geom.TopOpen(geom.Coord(i)*100, span, geom.Coord(i)*50)
		c.RangeSkyline(qs[i])
	}
	if c.Len() != 4 {
		t.Fatalf("cache holds %d entries, want capacity 4", c.Len())
	}
	if got := c.Counters(); got.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", got.Evictions)
	}
	// qs[0] and qs[1] were evicted; qs[5] is resident.
	before := c.Counters()
	c.RangeSkyline(qs[5])
	c.RangeSkyline(qs[0])
	got := c.Counters()
	if got.Hits != before.Hits+1 || got.Misses != before.Misses+1 {
		t.Fatalf("LRU order wrong: counters %+v -> %+v", before, got)
	}
	if _, err := engine.NewCache(c.Inner(), 0); err == nil {
		t.Fatal("engine.NewCache accepted capacity 0")
	}
}

// TestCacheResetStatsKeepsEntries pins the reset contract DB.ResetStats
// relies on: ResetCounters zeroes the hit/miss/eviction/invalidation
// counters and the memoized entries stay — the next query still hits,
// at zero I/O on the freshly reset engine.
func TestCacheResetStatsKeepsEntries(t *testing.T) {
	c, eng, _ := buildShardedCache(t, 400, 4, 16, 61)
	span := geom.Coord(400 * 16)
	q := geom.TopOpen(0, span, span/3)
	c.RangeSkyline(q)
	c.RangeSkyline(q)
	if got := c.Counters(); got.Hits == 0 && got.Misses == 0 {
		t.Fatal("warm-up recorded nothing")
	}
	c.ResetCounters()
	eng.ResetStats()
	if got := c.Counters(); got != (engine.CacheCounters{}) {
		t.Fatalf("counters after ResetCounters = %+v, want zero", got)
	}
	if c.Len() != 1 {
		t.Fatalf("ResetCounters dropped entries: Len = %d, want 1", c.Len())
	}
	c.RangeSkyline(q)
	if got := c.Counters(); got.Hits != 1 || got.Misses != 0 {
		t.Fatalf("entry did not survive ResetCounters: counters = %+v", got)
	}
	if got := eng.Stats().IOs(); got != 0 {
		t.Fatalf("post-reset hit cost %d I/Os, want 0", got)
	}
}
