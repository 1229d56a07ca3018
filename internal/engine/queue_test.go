package engine_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/shard"
)

// buildShardedQueue builds a dynamic sharded engine over n uniform
// points and wraps it in an engine.AsyncQueue with the given options.
func buildShardedQueue(t *testing.T, n, shards int, opts engine.QueueOptions, seed int64) (*engine.AsyncQueue, *shard.Engine, []geom.Point) {
	t.Helper()
	pts := geom.GenUniform(n, int64(n)*16, seed)
	geom.SortByX(pts)
	eng, err := shard.New(shard.Options{Machine: cacheCfg, Shards: shards, Workers: 2, Dynamic: true}, pts)
	if err != nil {
		t.Fatal(err)
	}
	q, err := engine.NewAsyncQueue(eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	return q, eng, pts
}

// noTimer disables the background drainer so tests control every drain.
var noTimer = engine.QueueOptions{FlushPoints: 1 << 20, FlushInterval: -1}

// wholePlane is the query that drains every slab.
var wholePlane = geom.Rect{X1: geom.NegInf, X2: geom.PosInf, Y1: geom.NegInf, Y2: geom.PosInf}

func TestQueueSlabsMatchShards(t *testing.T) {
	q, eng, _ := buildShardedQueue(t, 256, 4, noTimer, 11)
	if q.NumSlabs() != eng.NumShards() {
		t.Fatalf("NumSlabs = %d, want %d", q.NumSlabs(), eng.NumShards())
	}
	single, err := engine.NewAsyncQueue(newFake("flat"), noTimer)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if single.NumSlabs() != 1 {
		t.Fatalf("unpartitioned NumSlabs = %d, want 1", single.NumSlabs())
	}
}

// TestQueueBuffersUntilDrain pins the buffering contract: writes cost no
// simulated I/O and do not change the engine until a trigger drains
// them, and a read drains exactly the slabs it intersects.
func TestQueueBuffersUntilDrain(t *testing.T) {
	q, eng, pts := buildShardedQueue(t, 256, 4, noTimer, 13)
	span := geom.Coord(256 * 16)
	fresh := geom.Point{X: span + 10, Y: span + 10} // lands in the last slab
	eng.ResetStats()
	if err := q.Insert(fresh); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().IOs(); got != 0 {
		t.Fatalf("buffered insert cost %d I/Os, want 0", got)
	}
	if eng.Len() != len(pts) {
		t.Fatalf("engine Len = %d after buffered insert, want %d", eng.Len(), len(pts))
	}
	if q.Buffered() != 1 {
		t.Fatalf("Buffered = %d, want 1", q.Buffered())
	}
	// A query over the FIRST slab only must not drain the last slab's
	// buffer...
	cuts := eng.Cuts()
	q.RangeSkyline(geom.Rect{X1: geom.NegInf, X2: cuts[0], Y1: geom.NegInf, Y2: geom.PosInf})
	if q.Buffered() != 1 {
		t.Fatalf("slab-0 read drained a slab-3 write (Buffered = %d)", q.Buffered())
	}
	// ...while a query containing the point's slab must make it visible.
	sky := q.RangeSkyline(geom.Dominance(span, span))
	if len(sky) != 1 || sky[0] != fresh {
		t.Fatalf("post-drain dominance skyline = %v, want [%v]", sky, fresh)
	}
	if q.Buffered() != 0 {
		t.Fatalf("Buffered = %d after drain-on-read, want 0", q.Buffered())
	}
	if eng.Len() != len(pts)+1 {
		t.Fatalf("engine Len = %d after drain, want %d", eng.Len(), len(pts)+1)
	}
	ctr := q.Counters()
	if ctr.Enqueued != 1 || ctr.Drained != 1 || ctr.ForcedDrains != 1 {
		t.Fatalf("counters %+v, want 1 enqueued, 1 drained, 1 forced", ctr)
	}
}

// TestQueueDeleteNotVisible pins delete-aware drain-on-read: a buffered
// delete must never be visible as a live point, even though the delete
// returned before touching any structure.
func TestQueueDeleteNotVisible(t *testing.T) {
	q, eng, pts := buildShardedQueue(t, 128, 4, noTimer, 17)
	victim := pts[len(pts)/2]
	if ok, err := q.Delete(victim); !ok || err != nil {
		t.Fatalf("Delete = %t, %v", ok, err)
	}
	if eng.Len() != len(pts) {
		t.Fatal("buffered delete reached the engine before any drain")
	}
	for _, p := range q.RangeSkyline(wholePlane) {
		if p == victim {
			t.Fatalf("buffered-deleted point %v visible as live", victim)
		}
	}
	if eng.Len() != len(pts)-1 {
		t.Fatalf("engine Len = %d after drain, want %d", eng.Len(), len(pts)-1)
	}
	if got := q.AppliedDelta(); got != -1 {
		t.Fatalf("AppliedDelta = %d, want -1", got)
	}
}

// TestQueueCoalescing pins the per-point state machine: insert+delete of
// a never-applied point cancels outright; delete+insert keeps BOTH ops
// (the delete may hit a live point) and nets out to presence whether the
// point existed or not; a duplicate buffered delete is dropped as a
// guaranteed miss.
func TestQueueCoalescing(t *testing.T) {
	q, eng, pts := buildShardedQueue(t, 128, 1, noTimer, 19)
	span := geom.Coord(128 * 16)

	// insert → delete of a fresh point: pure no-op.
	fresh := geom.Point{X: span + 1, Y: span + 1}
	q.Insert(fresh)
	q.Delete(fresh)
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	ctr := q.Counters()
	if ctr.Coalesced != 2 || ctr.Drained != 0 {
		t.Fatalf("insert+delete: counters %+v, want 2 coalesced, 0 drained", ctr)
	}
	if eng.Len() != len(pts) {
		t.Fatalf("insert+delete leaked into the engine (Len %d)", eng.Len())
	}

	// delete → insert of a LIVE point: both ops drain, point survives.
	live := pts[3]
	q.Delete(live)
	q.Insert(live)
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := q.Counters().Drained; got != 2 {
		t.Fatalf("delete+reinsert of live point: drained %d ops, want 2", got)
	}
	if eng.Len() != len(pts) {
		t.Fatalf("delete+reinsert: engine Len = %d, want %d", eng.Len(), len(pts))
	}
	found := false
	for _, p := range q.RangeSkyline(geom.Rect{X1: live.X, X2: live.X, Y1: live.Y, Y2: live.Y}) {
		found = found || p == live
	}
	if !found {
		t.Fatalf("delete+reinsert lost live point %v", live)
	}

	// delete → insert of an ABSENT point: the delete misses, the
	// insert lands — the case where cancelling both would be wrong.
	fresh2 := geom.Point{X: span + 2, Y: span + 2}
	q.Delete(fresh2)
	q.Insert(fresh2)
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	if eng.Len() != len(pts)+1 {
		t.Fatalf("delete-miss+insert: engine Len = %d, want %d", eng.Len(), len(pts)+1)
	}

	// duplicate buffered delete: second is dropped.
	before := q.Counters().Coalesced
	q.Delete(pts[5])
	q.Delete(pts[5])
	if got := q.Counters().Coalesced - before; got != 1 {
		t.Fatalf("duplicate delete coalesced %d ops, want 1", got)
	}
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	if eng.Len() != len(pts) {
		t.Fatalf("duplicate delete: engine Len = %d, want %d", eng.Len(), len(pts))
	}

	// Quiescent invariant: every accepted op either drained or
	// coalesced.
	ctr = q.Counters()
	if ctr.Enqueued != ctr.Drained+ctr.Coalesced || q.Buffered() != 0 {
		t.Fatalf("quiescent invariant violated: %+v, %d buffered", ctr, q.Buffered())
	}
}

// TestQueueFlushPointsTrigger pins the size trigger: the write that
// fills a buffer to FlushPoints drains it inline, and earlier writes do
// not.
func TestQueueFlushPointsTrigger(t *testing.T) {
	q, eng, pts := buildShardedQueue(t, 128, 1, engine.QueueOptions{FlushPoints: 4, FlushInterval: -1}, 23)
	span := geom.Coord(128 * 16)
	for i := 0; i < 3; i++ {
		if err := q.Insert(geom.Point{X: span + geom.Coord(i) + 1, Y: span + geom.Coord(i) + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if q.Buffered() != 3 || eng.Len() != len(pts) {
		t.Fatalf("below threshold: Buffered %d, engine Len %d", q.Buffered(), eng.Len())
	}
	if err := q.Insert(geom.Point{X: span + 4, Y: span + 4}); err != nil {
		t.Fatal(err)
	}
	if q.Buffered() != 0 || eng.Len() != len(pts)+4 {
		t.Fatalf("at threshold: Buffered %d, engine Len %d, want 0 and %d",
			q.Buffered(), eng.Len(), len(pts)+4)
	}
	if got := q.Counters().ForcedDrains; got != 0 {
		t.Fatalf("size-triggered drain counted as forced (%d)", got)
	}
}

// TestQueueBackgroundDrainer pins the FlushInterval trigger: an idle
// queue converges to fully-applied state without any read or explicit
// Flush.
func TestQueueBackgroundDrainer(t *testing.T) {
	q, eng, pts := buildShardedQueue(t, 128, 2, engine.QueueOptions{FlushPoints: 1 << 20, FlushInterval: time.Millisecond}, 29)
	span := geom.Coord(128 * 16)
	if err := q.Insert(geom.Point{X: span + 1, Y: span + 1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for eng.Len() != len(pts)+1 {
		if time.Now().After(deadline) {
			t.Fatalf("background drainer never applied the write (engine Len %d)", eng.Len())
		}
		time.Sleep(time.Millisecond)
	}
	if q.Buffered() != 0 {
		t.Fatalf("Buffered = %d after background drain", q.Buffered())
	}
}

// TestQueueClose pins shutdown: Close drains everything, stops the
// drainer, rejects further writes, keeps serving reads, and is
// idempotent.
func TestQueueClose(t *testing.T) {
	q, eng, pts := buildShardedQueue(t, 128, 2, engine.QueueOptions{FlushPoints: 1 << 20, FlushInterval: time.Hour}, 31)
	span := geom.Coord(128 * 16)
	fresh := geom.Point{X: span + 1, Y: span + 1}
	if err := q.Insert(fresh); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if eng.Len() != len(pts)+1 {
		t.Fatalf("Close did not drain (engine Len %d, want %d)", eng.Len(), len(pts)+1)
	}
	if err := q.Insert(geom.Point{X: span + 2, Y: span + 2}); err == nil {
		t.Fatal("Insert after Close succeeded")
	}
	if ok, err := q.Delete(fresh); ok || err == nil {
		t.Fatalf("Delete after Close = %t, %v; want rejection", ok, err)
	}
	if got := len(q.RangeSkyline(geom.Dominance(span, span))); got != 1 {
		t.Fatalf("read after Close returned %d points, want 1", got)
	}
	if err := q.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestQueueCacheComposition pins the stacking order core.Open uses —
// queue outside, cache inside — and the invalidation amortization: a
// drained batch localized to one slab fires ONE eviction sweep, and a
// cache hit can never serve an answer missing a buffered write, because
// the read's drain (through the cache's batched paths) invalidates the
// stale entry before the cache is consulted.
func TestQueueCacheComposition(t *testing.T) {
	pts := geom.GenUniform(256, 256*16, 37)
	geom.SortByX(pts)
	eng, err := shard.New(shard.Options{Machine: cacheCfg, Shards: 4, Workers: 2, Dynamic: true}, pts)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := engine.NewCache(eng, 16)
	if err != nil {
		t.Fatal(err)
	}
	q, err := engine.NewAsyncQueue(cache, noTimer)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if q.NumSlabs() != eng.NumShards() {
		t.Fatalf("queue over cache learned %d slabs, want %d (cuts must pass through the cache)",
			q.NumSlabs(), eng.NumShards())
	}
	span := geom.Coord(256 * 16)
	hot := geom.Rect{X1: 0, X2: span, Y1: 0, Y2: span}
	q.RangeSkyline(hot) // fill
	q.RangeSkyline(hot) // hit
	if ctr := cache.Counters(); ctr.Hits != 1 {
		t.Fatalf("cache under queue served %d hits, want 1 (%+v)", ctr.Hits, ctr)
	}
	// Buffer a batch of writes, then re-query: the batch puts a point
	// inside the hot rectangle that dominates its whole answer, so the
	// drain must evict the hot entry (one sweep) and the re-query must
	// see the new point.
	top := geom.Point{X: span, Y: span}
	batch := []geom.Point{{X: span + 2, Y: span - 2}, {X: span + 3, Y: span - 3}, top}
	if err := q.BatchInsert(batch); err != nil {
		t.Fatal(err)
	}
	if ctr := cache.Counters(); ctr.Invalidations != 0 {
		t.Fatalf("buffered batch already invalidated %d entries (should wait for the drain)",
			ctr.Invalidations)
	}
	wide := geom.Rect{X1: 0, X2: span + 8, Y1: 0, Y2: span + 8}
	sky := q.RangeSkyline(wide)
	if len(sky) != 3 || sky[0] != top {
		t.Fatalf("post-drain skyline %v, want exactly the drained batch led by %v", sky, top)
	}
	ctr := cache.Counters()
	if ctr.Invalidations != 1 || ctr.Sweeps != 1 {
		t.Fatalf("drain evicted %d entries in %d sweeps, want the hot entry in 1", ctr.Invalidations, ctr.Sweeps)
	}
	// The stale hot entry must be gone: a re-query is a miss whose
	// answer is the new point alone.
	miss := ctr.Misses
	sky = q.RangeSkyline(hot)
	if got := cache.Counters().Misses; got != miss+1 {
		t.Fatalf("hot entry survived the drain (misses %d, want %d)", got, miss+1)
	}
	if len(sky) != 1 || sky[0] != top {
		t.Fatalf("hot rectangle answered %v after the drain, want [%v]", sky, top)
	}
}

// TestQueueOptionValidation pins the constructor's defaults; the
// refusal of negative values is core.Options.Validate's, tested with
// the wire's in internal/serve.
func TestQueueOptionValidation(t *testing.T) {
	q, err := engine.NewAsyncQueue(newFake("f"), engine.QueueOptions{FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if q.FlushPoints() != 128 {
		t.Fatalf("default FlushPoints = %d, want 128", q.FlushPoints())
	}
}

// TestQueueCloseRacingWriters pins the accept-or-flush guarantee:
// writes racing Close are either rejected or included in the final
// flush — never accepted into a buffer nothing will drain — and
// concurrent Close callers all block until draining finished. Every
// write that returned nil must be in the engine once every Close has
// returned.
func TestQueueCloseRacingWriters(t *testing.T) {
	for round := 0; round < 8; round++ {
		q, eng, base := buildShardedQueue(t, 128, 4, engine.QueueOptions{FlushPoints: 1 << 20, FlushInterval: -1}, 41)
		span := geom.Coord(128 * 16)
		const nWriters, perWriter = 4, 64
		accepted := make([]int, nWriters)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < nWriters; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < perWriter; i++ {
					p := geom.Point{
						X: span + geom.Coord(w*perWriter+i) + 1,
						Y: span + geom.Coord(w*perWriter+i) + 1,
					}
					if err := q.Insert(p); err != nil {
						return // rejected by Close: must NOT be applied
					}
					accepted[w]++
				}
			}()
		}
		closeErrs := make([]error, 2)
		for c := 0; c < 2; c++ {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				closeErrs[c] = q.Close()
			}()
		}
		close(start)
		wg.Wait()
		for c, err := range closeErrs {
			if err != nil {
				t.Fatalf("round %d: Close %d: %v", round, c, err)
			}
		}
		total := 0
		for _, n := range accepted {
			total += n
		}
		if q.Buffered() != 0 {
			t.Fatalf("round %d: %d writes stranded in closed buffers", round, q.Buffered())
		}
		if eng.Len() != len(base)+total {
			t.Fatalf("round %d: engine Len = %d, want %d base + %d accepted",
				round, eng.Len(), len(base), total)
		}
	}
}

// fakeBackend is a minimal unpartitioned Backend for queue plumbing
// tests (constructor validation, slab counting); the external test
// package cannot reuse the in-package fake, only its embedded stub.
type fakeBackend struct {
	engine.StubBackend
	pts map[geom.Point]bool
}

func newFake(_ string, pts ...geom.Point) *fakeBackend {
	f := &fakeBackend{pts: make(map[geom.Point]bool)}
	f.WriteVerbs = engine.VerbsOf(f.Apply)
	for _, p := range pts {
		f.pts[p] = true
	}
	return f
}

func (f *fakeBackend) Apply(dels, inss []geom.Point) ([]geom.Point, error) {
	var removed []geom.Point
	for _, p := range dels {
		if f.pts[p] {
			delete(f.pts, p)
			removed = append(removed, p)
		}
	}
	for _, p := range inss {
		f.pts[p] = true
	}
	return removed, nil
}
