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
func buildShardedCache(t *testing.T, n, shards, entries int, seed int64) (*engine.CacheBackend, *shard.Engine) {
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
	return c, eng
}

// TestCacheReadThrough pins the core contract: a miss reads through and
// costs I/O, a hit is answered from memory byte-identically at zero
// simulated I/O, and the canonical key collapses all empty rectangles
// onto one entry.
func TestCacheReadThrough(t *testing.T) {
	c, eng := buildShardedCache(t, 400, 4, 16, 41)
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
// Delete (or a delete-only Apply) that misses every backend changed no
// answer and must leave every memoized entry in place, while a delete
// of an answer point evicts.
func TestCacheDeleteMissDoesNotEvict(t *testing.T) {
	c, _ := buildShardedCache(t, 400, 4, 16, 43)
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
	// A delete of an answer point must evict the entry holding it, and
	// the re-query must no longer report the victim.
	victim := c.RangeSkyline(qs[0])[0]
	if ok, err := c.Delete(victim); !ok || err != nil {
		t.Fatalf("Delete(%v) = %t, %v", victim, ok, err)
	}
	if got := c.Counters(); got.Invalidations == 0 {
		t.Fatal("deleting an answer point invalidated nothing")
	}
	for _, p := range c.RangeSkyline(qs[0]) {
		if p == victim {
			t.Fatalf("deleted answer point %v still reported", victim)
		}
	}
}

// TestCacheLRUBound pins the capacity bound: the cache never holds more
// than its capacity and evicts least-recently-used first.
func TestCacheLRUBound(t *testing.T) {
	c, _ := buildShardedCache(t, 400, 4, 4, 59)
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
	c, eng := buildShardedCache(t, 400, 4, 16, 61)
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

// oracleBackend is a fakeBackend that answers from its point set with
// the in-memory oracle, so a cache over it has real answers to judge
// writes against.
type oracleBackend struct {
	*fakeBackend
}

func newOracle(pts ...geom.Point) *oracleBackend {
	return &oracleBackend{newFake("oracle", pts...)}
}

func (o *oracleBackend) RangeSkyline(q geom.Rect) []geom.Point {
	pts := make([]geom.Point, 0, len(o.pts))
	for p := range o.pts {
		pts = append(pts, p)
	}
	return geom.RangeSkyline(pts, q)
}

// TestCacheExactInvalidation is the table of the answer-exact rule: one
// entry for Q = [0,100]² over a three-point staircase plus one dominated
// point inside Q and one point outside it; each batch must keep or evict
// that entry, and the next read must match the oracle either way.
func TestCacheExactInvalidation(t *testing.T) {
	q := geom.Rect{X1: 0, X2: 100, Y1: 0, Y2: 100}
	sky := []geom.Point{{X: 10, Y: 90}, {X: 50, Y: 50}, {X: 90, Y: 10}}
	inner := geom.Point{X: 40, Y: 40} // inside Q, dominated by (50,50)
	outer := geom.Point{X: 120, Y: 120}
	for _, tc := range []struct {
		name       string
		dels, inss []geom.Point
		evict      bool
	}{
		{"delete non-answer inside Q", []geom.Point{inner}, nil, false},
		{"delete outside Q", []geom.Point{outer}, nil, false},
		{"delete absentee", []geom.Point{{X: 41, Y: 41}}, nil, false},
		{"insert dominated inside Q", nil, []geom.Point{{X: 45, Y: 45}}, false},
		{"insert outside Q", nil, []geom.Point{{X: 150, Y: 5}, {X: 5, Y: 150}}, false},
		{"delete answer point", []geom.Point{sky[1]}, nil, true},
		{"insert undominated inside Q", nil, []geom.Point{{X: 60, Y: 60}}, true},
		{"insert right of the staircase", nil, []geom.Point{{X: 95, Y: 5}}, true},
		{"insert above the staircase", nil, []geom.Point{{X: 5, Y: 95}}, true},
		{"mixed batch that keeps",
			[]geom.Point{inner, {X: 41, Y: 41}}, []geom.Point{{X: 30, Y: 30}, {X: 150, Y: 5}}, false},
		{"mixed batch with one answer delete",
			[]geom.Point{inner, sky[2]}, []geom.Point{{X: 30, Y: 30}}, true},
		{"mixed batch with one undominated insert",
			[]geom.Point{inner}, []geom.Point{{X: 30, Y: 30}, {X: 70, Y: 70}}, true},
		{"delete and re-insert an answer point", []geom.Point{sky[0]}, []geom.Point{sky[0]}, true},
		{"insert the fill already answered", nil, []geom.Point{sky[1]}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := newOracle(append(append([]geom.Point(nil), sky...), inner, outer)...)
			c, err := engine.NewCache(o, 4)
			if err != nil {
				t.Fatal(err)
			}
			c.RangeSkyline(q)
			if _, err := c.Apply(tc.dels, tc.inss); err != nil {
				t.Fatal(err)
			}
			wantLen := 1
			if tc.evict {
				wantLen = 0
			}
			if ctr := c.Counters(); c.Len() != wantLen || ctr.Invalidations != uint64(1-wantLen) {
				t.Fatalf("Len %d, invalidations %d; want evict = %t", c.Len(), ctr.Invalidations, tc.evict)
			}
			got := c.RangeSkyline(q)
			want := o.RangeSkyline(q)
			if len(got) != len(want) {
				t.Fatalf("after the batch: %v, want %v", got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("after the batch: %v, want %v", got, want)
				}
			}
			if hit := c.Counters().Hits == 1; hit == tc.evict {
				t.Fatalf("re-read hit = %t after evict = %t", hit, tc.evict)
			}
		})
	}
}

// gateBackend blocks RangeSkyline until released, so a test can hold a
// cache fill mid-flight while a write lands underneath it.
type gateBackend struct {
	*fakeBackend
	enter   chan struct{}
	release chan struct{}
	ans     []geom.Point
}

func (g *gateBackend) RangeSkyline(geom.Rect) []geom.Point {
	g.enter <- struct{}{}
	<-g.release
	return g.ans
}

// TestCacheLateFillDroppedOnWrite pins the fill-vs-write race: an
// answer computed while a write was applied may predate the write, and
// that write's sweep has already passed, so the fill is returned to its
// caller but never installed.
func TestCacheLateFillDroppedOnWrite(t *testing.T) {
	gate := &gateBackend{
		fakeBackend: newFake("gate"),
		enter:       make(chan struct{}, 4),
		release:     make(chan struct{}),
		ans:         []geom.Point{{X: 3, Y: 7}},
	}
	c, err := engine.NewCache(gate, 8)
	if err != nil {
		t.Fatal(err)
	}
	q := geom.Rect{X1: 0, X2: 100, Y1: 0, Y2: 100}
	done := make(chan []geom.Point)
	go func() { done <- c.RangeSkyline(q) }()
	<-gate.enter // the fill is computing its answer
	if err := c.Insert(geom.Point{X: 50, Y: 50}); err != nil {
		t.Fatal(err)
	}
	close(gate.release)
	got := <-done
	if len(got) != 1 || got[0] != gate.ans[0] {
		t.Fatalf("late fill returned %v, want the computed answer %v", got, gate.ans)
	}
	if c.Len() != 0 {
		t.Fatalf("late fill was installed across a write (Len = %d)", c.Len())
	}
	// With no write in flight the same query installs normally.
	if c.RangeSkyline(q); c.Len() != 1 {
		t.Fatalf("clean fill not installed (Len = %d)", c.Len())
	}
	ctr := c.Counters()
	if ctr.Misses != 2 || ctr.Hits != 0 {
		t.Fatalf("counters = %+v, want 2 misses, 0 hits", ctr)
	}
}
