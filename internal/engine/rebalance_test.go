// Tests for what a rebalancing engine's cut changes mean to its
// wrappers: the cache must stay exact while transitions run under it,
// and the queue migrates its slabs with coalescing state intact
// (SetCuts).
package engine_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/shard"
)

// TestCacheCutChangeRace hammers a cache over a rebalancing sharded
// engine with concurrent fills and writes while shards split and merge
// underneath it, then verifies every answer against the oracle: a cut
// move changes where points live, never what a rectangle contains, so
// the cache needs no part in it.
func TestCacheCutChangeRace(t *testing.T) {
	const n = 400
	span := geom.Coord((n + 200) * 16)
	all := geom.GenUniform(n+200, span, 7300)
	base := append([]geom.Point(nil), all[:n]...)
	pool := all[n:]
	geom.SortByX(base)
	eng, err := shard.New(shard.Options{
		Machine: cacheCfg, Shards: 4, Workers: 2, Dynamic: true, Rebalance: true, RebalanceEvery: 1 << 30,
	}, base)
	if err != nil {
		t.Fatal(err)
	}
	c, err := engine.NewCache(eng, 64)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		seed := int64(7301 + g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				x1 := geom.Coord(rng.Int63n(int64(span)))
				y1 := geom.Coord(rng.Int63n(int64(span)))
				c.RangeSkyline(geom.Rect{X1: x1, X2: x1 + span/4, Y1: y1, Y2: y1 + span/4})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, p := range pool {
			if err := c.Insert(p); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		transition := eng.ForceSplit
		if i%2 == 1 {
			transition = eng.ForceMerge
		}
		if err := transition(-1); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := eng.RebalanceCounters(); got.Splits == 0 || got.Merges == 0 {
		t.Fatalf("no transitions ran under the cache: %+v", got)
	}
	ref := append(append([]geom.Point(nil), base...), pool...)
	rng := rand.New(rand.NewSource(7310))
	for q := 0; q < 40; q++ {
		x1 := geom.Coord(rng.Int63n(int64(span)))
		y1 := geom.Coord(rng.Int63n(int64(span)))
		r := geom.Rect{X1: x1, X2: x1 + span/3, Y1: y1, Y2: y1 + span/3}
		got := c.RangeSkyline(r)
		want := geom.RangeSkyline(ref, r)
		if len(got) != len(want) {
			t.Fatalf("q=%d %v: %d points, want %d", q, r, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("q=%d %v: point %d = %v, want %v", q, r, i, got[i], want[i])
			}
		}
	}
}

// waitSlabs polls until the queue's deferred reshape lands.
func waitSlabs(t *testing.T, q *engine.AsyncQueue, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for q.NumSlabs() != want {
		if time.Now().After(deadline) {
			t.Fatalf("reshape never landed: NumSlabs = %d, want %d", q.NumSlabs(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueueSetCutsMigratesCoalescingState walks the coalescing truth
// table across a slab migration: a buffered insert, a buffered delete,
// a delete-then-reinsert pair, and a cancelled insert/delete pair are
// buffered into one slab, the cuts change underneath them, and every
// state must land in its new slab intact — drains and later coalescing
// behave exactly as they would have against the original buffer.
func TestQueueSetCutsMigratesCoalescingState(t *testing.T) {
	ins := geom.Point{X: 10, Y: 1}    // buffered insert
	del := geom.Point{X: 20, Y: 2}    // buffered delete of a live point
	delIns := geom.Point{X: 30, Y: 3} // delete-then-reinsert, both must drain
	cancel := geom.Point{X: 40, Y: 4} // insert-then-delete, a pure no-op
	inner := newFake("seeded", del, delIns)
	q, err := engine.NewAsyncQueue(inner, noTimer)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if err := q.Insert(ins); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Delete(del); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Delete(delIns); err != nil {
		t.Fatal(err)
	}
	if err := q.Insert(delIns); err != nil {
		t.Fatal(err)
	}
	if err := q.Insert(cancel); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Delete(cancel); err != nil {
		t.Fatal(err)
	}
	if got := q.Buffered(); got != 3 {
		t.Fatalf("Buffered = %d before reshape, want 3", got)
	}

	// Split the single slab at x=25: ins and del belong left, delIns
	// right; the cancelled pair must not resurface anywhere.
	q.SetCuts([]geom.Coord{25})
	waitSlabs(t, q, 2)
	ctr := q.Counters()
	if ctr.Slabs[0].Depth != 2 || ctr.Slabs[1].Depth != 1 {
		t.Fatalf("post-reshape depths = %d/%d, want 2/1", ctr.Slabs[0].Depth, ctr.Slabs[1].Depth)
	}

	// Coalescing keeps working against migrated state: a fresh
	// insert/delete pair in the new right slab cancels in-buffer.
	late := geom.Point{X: 90, Y: 9}
	if err := q.Insert(late); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Delete(late); err != nil {
		t.Fatal(err)
	}
	if got := q.Buffered(); got != 3 {
		t.Fatalf("Buffered = %d after cancelled pair, want 3", got)
	}

	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	if !inner.pts[ins] {
		t.Fatal("buffered insert lost in migration")
	}
	if inner.pts[del] {
		t.Fatal("buffered delete lost in migration")
	}
	if !inner.pts[delIns] {
		t.Fatal("delete-then-reinsert did not leave the point live")
	}
	if inner.pts[cancel] || inner.pts[late] {
		t.Fatal("a cancelled pair reached the backend")
	}
	ctr = q.Counters()
	if ctr.Enqueued != 8 || ctr.Coalesced != 4 || ctr.Drained != 4 {
		t.Fatalf("counters = %+v, want Enqueued 8 = Drained 4 + Coalesced 4", ctr)
	}
}
