// Tests for the cut-change propagation paths a rebalancing engine
// drives through its wrappers: the cache's re-tagging and late-fill
// drop (SetXCuts/SetYCuts) and the queue's slab migration with
// coalescing state intact (SetCuts).
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

// gateBackend blocks RangeSkyline until released, so a test can hold a
// cache fill mid-flight while the cuts move underneath it.
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

// TestCacheLateFillDroppedOnCutChange pins the fill-vs-rebalance race:
// a read-through whose answer was computed against one partition must
// not be installed after SetXCuts moved the cuts — its slab tags and
// generation snapshot describe a partition that no longer exists.
func TestCacheLateFillDroppedOnCutChange(t *testing.T) {
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
	<-gate.enter // the fill is computing against the current cuts
	c.SetXCuts([]geom.Coord{50})
	close(gate.release)
	got := <-done
	if len(got) != 1 || got[0] != gate.ans[0] {
		t.Fatalf("late fill returned %v, want the computed answer %v", got, gate.ans)
	}
	if c.Len() != 0 {
		t.Fatalf("late fill was installed across a cut change (Len = %d)", c.Len())
	}
	// With the cuts stable again the same query installs normally.
	if c.RangeSkyline(q); c.Len() != 1 {
		t.Fatalf("clean fill not installed (Len = %d)", c.Len())
	}
	ctr := c.Counters()
	if ctr.Misses != 2 || ctr.Hits != 0 {
		t.Fatalf("counters = %+v, want 2 misses, 0 hits", ctr)
	}
}

// TestCacheSetCutsRetagsEntries checks that SetXCuts/SetYCuts keep the
// memoized ANSWERS (a cut move changes where points live, not what a
// rectangle contains) and recompute only the slab tags invalidation
// matches writes against.
func TestCacheSetCutsRetagsEntries(t *testing.T) {
	c, err := engine.NewCache(newFake("flat"), 8)
	if err != nil {
		t.Fatal(err)
	}
	qA := geom.Rect{X1: 0, X2: 10, Y1: 0, Y2: 100}
	qB := geom.Rect{X1: 50, X2: 60, Y1: 0, Y2: 100}
	c.SetXCuts([]geom.Coord{25})
	c.RangeSkyline(qA)
	c.RangeSkyline(qB)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// A write right of the cut must drop only the right entry.
	if err := c.Insert(geom.Point{X: 55, Y: 5}); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after slab-1 write, want qA alone", c.Len())
	}
	hits := c.Counters().Hits
	c.RangeSkyline(qA)
	if c.Counters().Hits != hits+1 {
		t.Fatal("qA did not survive a write outside its slabs")
	}
	// Move the cut right of both entries: they now share slab 0, and a
	// write beyond the new cut invalidates neither.
	c.SetXCuts([]geom.Coord{70})
	c.RangeSkyline(qB)
	if err := c.Insert(geom.Point{X: 90, Y: 6}); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d after out-of-slab write, want 2", c.Len())
	}
	// Move the cut left of both: one slab-1 write now hits both tags.
	c.SetXCuts([]geom.Coord{5})
	if err := c.Insert(geom.Point{X: 8, Y: 7}); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after shared-slab write, want 0", c.Len())
	}

	// The y axis behaves identically through SetYCuts (the transpose
	// mirror's rebalance moves these).
	c.SetYCuts([]geom.Coord{50})
	qLow := geom.Rect{X1: 0, X2: 4, Y1: 0, Y2: 40}
	qHigh := geom.Rect{X1: 0, X2: 4, Y1: 60, Y2: 100}
	c.RangeSkyline(qLow)
	c.RangeSkyline(qHigh)
	if err := c.Insert(geom.Point{X: 2, Y: 80}); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after high-y write, want qLow alone", c.Len())
	}
}

// TestCacheCutChangeRace hammers a sharded cache with concurrent fills,
// writes and cut changes — the propagation path a rebalancing engine
// drives — then verifies every answer against the oracle.
func TestCacheCutChangeRace(t *testing.T) {
	const n = 400
	span := geom.Coord((n + 200) * 16)
	all := geom.GenUniform(n+200, span, 7300)
	base := append([]geom.Point(nil), all[:n]...)
	pool := all[n:]
	geom.SortByX(base)
	eng, err := shard.New(shard.Options{Machine: cacheCfg, Shards: 4, Workers: 2, Dynamic: true}, base)
	if err != nil {
		t.Fatal(err)
	}
	c, err := engine.NewCache(eng, 64)
	if err != nil {
		t.Fatal(err)
	}
	coarse := eng.Cuts()[1:2] // a deliberately different tag partition
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
	for i := 0; i < 50; i++ {
		if i%2 == 0 {
			c.SetXCuts(coarse)
		} else {
			c.SetXCuts(eng.Cuts())
		}
	}
	wg.Wait()
	if t.Failed() {
		return
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
