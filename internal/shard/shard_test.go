package shard

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"repro/internal/dyntop"
	"repro/internal/emio"
	"repro/internal/extsort"
	"repro/internal/foursided"
	"repro/internal/geom"
	"repro/internal/topopen"
)

var testCfg = emio.Config{B: 32, M: 32 * 32}

// samePoints fails the test unless got and want are identical sequences.
func samePoints(t *testing.T, got, want []geom.Point, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d points %v, want %d %v", ctx, len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: point %d = %v, want %v", ctx, i, got[i], want[i])
		}
	}
}

// randTopOpen draws a query mixing bounded and grounded sides.
func randTopOpen(rng *rand.Rand, span geom.Coord) (x1, x2, beta geom.Coord) {
	x1 = rng.Int63n(span)
	x2 = x1 + rng.Int63n(span/2+1)
	beta = rng.Int63n(span)
	switch rng.Intn(6) {
	case 0:
		x1 = geom.NegInf
	case 1:
		x2 = geom.PosInf
	case 2:
		beta = geom.NegInf
	case 3:
		x1, x2, beta = geom.NegInf, geom.PosInf, geom.NegInf
	}
	return x1, x2, beta
}

// TestMergeMatchesSingleDisk is the core acceptance check: the sharded
// engine must return byte-identical skylines to a single-disk dyntop tree
// over the same points, and both must match the in-memory oracle.
func TestMergeMatchesSingleDisk(t *testing.T) {
	const n = 600
	span := geom.Coord(n * 16)
	pts := geom.GenUniform(n, span, 42)
	geom.SortByX(pts)
	single := dyntop.BuildSABE(emio.NewDisk(testCfg), 0.5, pts)
	for _, shards := range []int{1, 2, 3, 8} {
		for _, workers := range []int{1, 4} {
			eng, err := New(Options{Machine: testCfg, Shards: shards, Workers: workers, Dynamic: true}, pts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(shards*10 + workers)))
			for q := 0; q < 120; q++ {
				x1, x2, beta := randTopOpen(rng, span)
				got := eng.TopOpen(x1, x2, beta)
				want := single.Query(x1, x2, beta)
				ctx := "shards=" + itoa(shards) + " workers=" + itoa(workers) + " q=" + itoa(q)
				samePoints(t, got, want, ctx+" (vs dyntop)")
				oracle := geom.RangeSkyline(pts, geom.TopOpen(x1, x2, beta))
				samePoints(t, got, oracle, ctx+" (vs oracle)")
			}
		}
	}
}

func itoa(i int) string { return strconv.Itoa(i) }

// TestStaticEngine checks the topopen-backed engine and its rejection of
// updates and of the leaf scan it has no leaves for.
func TestStaticEngine(t *testing.T) {
	const n = 500
	span := geom.Coord(n * 16)
	pts := geom.GenUniform(n, span, 7)
	geom.SortByX(pts)
	d := emio.NewDisk(testCfg)
	f := extsort.FromSlice(d, 2, pts)
	single := topopen.Build(d, f)
	eng, err := New(Options{Machine: testCfg, Shards: 4, Dynamic: false}, pts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for q := 0; q < 100; q++ {
		x1, x2, beta := randTopOpen(rng, span)
		samePoints(t, eng.TopOpen(x1, x2, beta), single.Query(x1, x2, beta), "static q="+itoa(q))
	}
	if err := eng.Insert(geom.Point{X: -1, Y: -1}); err == nil {
		t.Fatal("Insert on static engine did not fail")
	}
	if _, err := eng.Delete(pts[0]); err == nil {
		t.Fatal("Delete on static engine did not fail")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Points on a static engine did not panic")
		}
	}()
	eng.Points()
}

// TestUpdatesThenQueries interleaves routed inserts/deletes with queries,
// cross-checking against the oracle over a reference slice.
func TestUpdatesThenQueries(t *testing.T) {
	const n, extra = 400, 400
	span := geom.Coord((n + extra) * 16)
	all := geom.GenUniform(n+extra, span, 11)
	base := append([]geom.Point(nil), all[:n]...)
	pool := all[n:]
	geom.SortByX(base)
	eng, err := New(Options{Machine: testCfg, Shards: 4, Workers: 4, Dynamic: true}, base)
	if err != nil {
		t.Fatal(err)
	}
	ref := append([]geom.Point(nil), base...)
	rng := rand.New(rand.NewSource(13))
	for round := 0; round < 30; round++ {
		// A few routed single-point updates.
		for i := 0; i < 8 && len(pool) > 0; i++ {
			if rng.Intn(3) != 0 || len(ref) == 0 {
				p := pool[len(pool)-1]
				pool = pool[:len(pool)-1]
				if err := eng.Insert(p); err != nil {
					t.Fatal(err)
				}
				ref = append(ref, p)
			} else {
				j := rng.Intn(len(ref))
				p := ref[j]
				ok, err := eng.Delete(p)
				if err != nil || !ok {
					t.Fatalf("Delete(%v) = %t, %v", p, ok, err)
				}
				ref = append(ref[:j], ref[j+1:]...)
			}
		}
		if eng.Len() != len(ref) {
			t.Fatalf("round %d: Len = %d, want %d", round, eng.Len(), len(ref))
		}
		for q := 0; q < 5; q++ {
			x1, x2, beta := randTopOpen(rng, span)
			got := eng.TopOpen(x1, x2, beta)
			want := geom.RangeSkyline(ref, geom.TopOpen(x1, x2, beta))
			samePoints(t, got, want, "round="+itoa(round)+" q="+itoa(q))
		}
	}
	// Deleting an absent point reports false without error.
	if ok, err := eng.Delete(geom.Point{X: span + 1, Y: span + 1}); err != nil || ok {
		t.Fatalf("Delete(absent) = %t, %v", ok, err)
	}
}

// TestBatchInsert loads points in one batch and checks queries and Len.
func TestBatchInsert(t *testing.T) {
	const n, batch = 300, 500
	span := geom.Coord((n + batch) * 16)
	all := geom.GenUniform(n+batch, span, 17)
	base := append([]geom.Point(nil), all[:n]...)
	geom.SortByX(base)
	eng, err := New(Options{Machine: testCfg, Shards: 4, Workers: 2, Dynamic: true}, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BatchInsert(all[n:]); err != nil {
		t.Fatal(err)
	}
	if eng.Len() != n+batch {
		t.Fatalf("Len = %d, want %d", eng.Len(), n+batch)
	}
	samePoints(t, eng.Skyline(), geom.Skyline(all), "post-batch skyline")
}

// TestBatchLeavesTopOpenResident loads a shard in 512-point batches of
// points in random order, as a served preload does, and then asks
// top-open queries anchored on loaded points. A batch goes through the
// 4-sided structure before the dyntop tree, and the last batch touches
// every dyntop leaf, so the blocks the queries read are resident when
// the load ends: the queries read no block, and what they cost —
// write-backs of the 4-sided frames their scratch space evicts — does
// not depend on the order they come in. With both structures updated
// point by point, some dyntop leaves sat among the 4-sided blocks at the
// LRU tail, and concurrent readers evicted them or not depending on
// their interleaving.
func TestBatchLeavesTopOpenResident(t *testing.T) {
	const n, batch, queries = 2000, 512, 400
	span := geom.Coord(n * 64)
	pts := geom.GenUniform(n, span, 41)
	rng := rand.New(rand.NewSource(43))
	rng.Shuffle(n, func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	qs := make([][3]geom.Coord, queries)
	for i := range qs {
		p := pts[rng.Intn(n)]
		qs[i] = [3]geom.Coord{p.X - span/100, p.X + span/100, p.Y - span/10}
	}
	run := func(reverse bool) emio.Stats {
		eng, err := New(Options{Machine: emio.DefaultConfig(), Dynamic: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i += batch {
			if _, err := eng.Apply(nil, pts[i:min(i+batch, n)]); err != nil {
				t.Fatal(err)
			}
		}
		before := eng.Stats()
		for i := range qs {
			if reverse {
				i = len(qs) - 1 - i
			}
			eng.TopOpen(qs[i][0], qs[i][1], qs[i][2])
		}
		return eng.Stats().Sub(before)
	}
	fwd, rev := run(false), run(true)
	if fwd.Reads != 0 || rev.Reads != 0 {
		t.Fatalf("top-open reads after a batched load read %d / %d blocks, want 0", fwd.Reads, rev.Reads)
	}
	if fwd != rev {
		t.Fatalf("top-open reads cost %v in one order and %v in the other", fwd, rev)
	}
}

// TestCountersAndStats checks the atomic engine-level aggregates.
func TestCountersAndStats(t *testing.T) {
	pts := geom.GenUniform(200, 4000, 23)
	geom.SortByX(pts)
	eng, err := New(Options{Machine: testCfg, Shards: 3, Dynamic: true}, pts)
	if err != nil {
		t.Fatal(err)
	}
	eng.ResetStats()
	for i := 0; i < eng.NumShards(); i++ {
		eng.ShardDisk(i).DropCache()
	}
	k := len(eng.Skyline())
	if err := eng.Insert(geom.Point{X: 4001, Y: 4001}); err != nil {
		t.Fatal(err)
	}
	c := eng.Counters()
	if c.Queries != 1 || c.Updates != 1 || c.Points != uint64(k) {
		t.Fatalf("Counters = %+v, want {1, 1, %d}", c, k)
	}
	if eng.Stats().IOs() == 0 {
		t.Fatal("aggregated stats report zero I/Os after query+insert")
	}
	eng.ResetStats()
	if eng.Stats().IOs() != 0 {
		t.Fatalf("ResetStats left %v", eng.Stats())
	}
	if eng.NumShards() != 3 || !eng.Dynamic() {
		t.Fatalf("NumShards/Dynamic = %d/%t", eng.NumShards(), eng.Dynamic())
	}
}

// TestSmallInputs covers more shards than points, including empty.
func TestSmallInputs(t *testing.T) {
	for _, n := range []int{0, 1, 3, 5} {
		pts := geom.GenUniform(n, 1000, int64(n)+31)
		geom.SortByX(pts)
		eng, err := New(Options{Machine: testCfg, Shards: 4, Dynamic: true}, pts)
		if err != nil {
			t.Fatal(err)
		}
		samePoints(t, eng.Skyline(), geom.Skyline(pts), "n="+itoa(n))
		if got := eng.TopOpen(10, 5, geom.NegInf); got != nil {
			t.Fatalf("inverted range returned %v", got)
		}
	}
}

// TestUnsortedRejected checks the input contract.
func TestUnsortedRejected(t *testing.T) {
	if _, err := New(Options{Machine: testCfg}, []geom.Point{{X: 5, Y: 1}, {X: 3, Y: 2}}); err == nil {
		t.Fatal("unsorted input accepted")
	}
}

// randFourSided draws a rectangle from the 4-sided family: bounded top
// edge, other sides bounded or grounded.
func randFourSided(rng *rand.Rand, span geom.Coord) geom.Rect {
	x1 := rng.Int63n(span)
	y1 := rng.Int63n(span)
	r := geom.Rect{X1: x1, X2: x1 + rng.Int63n(span/2+1), Y1: y1, Y2: y1 + rng.Int63n(span/2+1)}
	switch rng.Intn(6) {
	case 0:
		r.X1 = geom.NegInf // left-open
	case 1:
		r.Y1 = geom.NegInf // bottom-open
	case 2:
		r.X2 = geom.PosInf // right-open
	case 3:
		r.X1, r.Y1 = geom.NegInf, geom.NegInf // anti-dominance
	}
	return r
}

// TestFourSidedMatchesSingleDisk is the 4-sided acceptance check: the
// sharded engine must return byte-identical answers to a single-disk
// foursided.Index over the same points, for every shard/worker split.
func TestFourSidedMatchesSingleDisk(t *testing.T) {
	const n = 600
	span := geom.Coord(n * 16)
	pts := geom.GenUniform(n, span, 63)
	geom.SortByX(pts)
	single := foursided.Build(emio.NewDisk(testCfg), 0.5, pts)
	for _, shards := range []int{1, 2, 3, 8} {
		for _, workers := range []int{1, 4} {
			eng, err := New(Options{Machine: testCfg, Shards: shards, Workers: workers, Dynamic: true}, pts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(shards*100 + workers)))
			for q := 0; q < 120; q++ {
				r := randFourSided(rng, span)
				got := eng.FourSided(r)
				want := single.Query(r)
				ctx := "shards=" + itoa(shards) + " workers=" + itoa(workers) + " q=" + itoa(q)
				samePoints(t, got, want, ctx+" (vs foursided)")
				samePoints(t, got, geom.RangeSkyline(pts, r), ctx+" (vs oracle)")
			}
		}
	}
}

// TestRangeSkylineRouting checks that RangeSkyline serves both families
// (it used to panic on bounded-top rectangles).
func TestRangeSkylineRouting(t *testing.T) {
	const n = 300
	span := geom.Coord(n * 16)
	pts := geom.GenUniform(n, span, 71)
	geom.SortByX(pts)
	eng, err := New(Options{Machine: testCfg, Shards: 4, Dynamic: true}, pts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(72))
	for q := 0; q < 60; q++ {
		var r geom.Rect
		if q%2 == 0 {
			x1, x2, beta := randTopOpen(rng, span)
			r = geom.TopOpen(x1, x2, beta)
		} else {
			r = randFourSided(rng, span)
		}
		samePoints(t, eng.RangeSkyline(r), geom.RangeSkyline(pts, r), "q="+itoa(q))
	}
	// Degenerate y-range on the 4-sided path.
	if got := eng.FourSided(geom.Rect{X1: 0, X2: span, Y1: 10, Y2: 5}); got != nil {
		t.Fatalf("inverted y-range returned %v", got)
	}
}

// TestStaticFourSided: a static engine still answers the 4-sided family
// but rejects batched updates.
func TestStaticFourSided(t *testing.T) {
	const n = 400
	span := geom.Coord(n * 16)
	pts := geom.GenUniform(n, span, 77)
	geom.SortByX(pts)
	eng, err := New(Options{Machine: testCfg, Shards: 4, Dynamic: false}, pts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(78))
	for q := 0; q < 60; q++ {
		r := randFourSided(rng, span)
		samePoints(t, eng.FourSided(r), geom.RangeSkyline(pts, r), "static q="+itoa(q))
	}
	if err := eng.BatchInsert(pts[:2]); err == nil {
		t.Fatal("BatchInsert on static engine did not fail")
	}
	if _, err := eng.Apply(pts[:2], nil); err == nil {
		t.Fatal("Apply on static engine did not fail")
	}
}

// TestBatchDelete removes a batch spanning every shard plus some absent
// points, and cross-checks both families afterwards.
func TestBatchDelete(t *testing.T) {
	const n = 600
	span := geom.Coord(n * 16)
	pts := geom.GenUniform(n, span, 81)
	geom.SortByX(pts)
	eng, err := New(Options{Machine: testCfg, Shards: 4, Workers: 4, Dynamic: true}, pts)
	if err != nil {
		t.Fatal(err)
	}
	// Delete every third point, plus points that were never inserted.
	var batch, ref []geom.Point
	for i, p := range pts {
		if i%3 == 0 {
			batch = append(batch, p)
		} else {
			ref = append(ref, p)
		}
	}
	absent := []geom.Point{{X: span + 10, Y: span + 10}, {X: span + 20, Y: span + 20}}
	removed, err := eng.Apply(append(append([]geom.Point(nil), batch...), absent...), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != len(batch) {
		t.Fatalf("Apply removed %d, want %d", len(removed), len(batch))
	}
	if eng.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", eng.Len(), len(ref))
	}
	if got := eng.Counters().Updates; got != uint64(len(batch)) {
		t.Fatalf("Updates counter = %d, want %d (misses must not count)", got, len(batch))
	}
	rng := rand.New(rand.NewSource(82))
	for q := 0; q < 40; q++ {
		x1, x2, beta := randTopOpen(rng, span)
		samePoints(t, eng.TopOpen(x1, x2, beta),
			geom.RangeSkyline(ref, geom.TopOpen(x1, x2, beta)), "top q="+itoa(q))
		r := randFourSided(rng, span)
		samePoints(t, eng.FourSided(r), geom.RangeSkyline(ref, r), "four q="+itoa(q))
	}
}

// TestApplyRemovedInDelsOrder: Apply reports the removed subset in dels
// order, however the per-shard groups are scheduled. Each of 20 rounds
// deletes a freshly shuffled batch spanning all six shards, with
// absentees interleaved, then re-inserts the victims; an order taken
// from map iteration or group completion cannot pass every round.
func TestApplyRemovedInDelsOrder(t *testing.T) {
	const n = 600
	span := geom.Coord(n * 16)
	pts := geom.GenUniform(n, span, 83)
	geom.SortByX(pts)
	eng, err := New(Options{Machine: testCfg, Shards: 6, Workers: 4, Dynamic: true}, pts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(84))
	for round := 0; round < 20; round++ {
		var dels, want []geom.Point
		for k, i := range rng.Perm(n)[:60] {
			dels = append(dels, pts[i])
			want = append(want, pts[i])
			if k%10 == 0 {
				dels = append(dels, geom.Point{X: span + geom.Coord(k) + 1, Y: span + geom.Coord(k) + 1})
			}
		}
		removed, err := eng.Apply(dels, nil)
		if err != nil {
			t.Fatal(err)
		}
		samePoints(t, removed, want, "round "+itoa(round))
		if _, err := eng.Apply(nil, want); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Len() != n {
		t.Fatalf("Len = %d after every round restored its victims, want %d", eng.Len(), n)
	}
}

// TestDeletePresenceCheckFirst is the regression test for the update
// ordering: a Delete whose top-open structure reports the point absent
// must not mutate the shard's 4-sided structure, even if (through
// corruption or drift) that structure still holds the point.
func TestDeletePresenceCheckFirst(t *testing.T) {
	pts := geom.GenUniform(120, 2000, 213)
	geom.SortByX(pts)
	eng, err := New(Options{Machine: emio.Config{B: 16, M: 16 * 64}, Dynamic: true}, pts)
	if err != nil {
		t.Fatal(err)
	}
	p := pts[17]
	// Simulate drift: remove p from the shard's top-open structure
	// directly, behind the engine's back. The 4-sided one still holds p.
	s := eng.shards[eng.shardFor(p.X)]
	if !s.dyn.Delete(p) {
		t.Fatalf("dyn.Delete(%v) missed", p)
	}
	// The routed Delete must now report a miss without error and —
	// crucially — without mutating the 4-sided structure.
	if ok, err := eng.Delete(p); err != nil || ok {
		t.Fatalf("Delete(%v) = %t, %v; want miss without error", p, ok, err)
	}
	band := geom.Rect{X1: p.X, X2: p.X, Y1: p.Y, Y2: p.Y}
	if got := s.four.Query(band); len(got) != 1 || got[0] != p {
		t.Fatalf("4-sided structure lost %v on a top-open miss: %v", p, got)
	}
	// A delete of a genuinely absent point is a plain miss everywhere.
	if ok, err := eng.Delete(geom.Point{X: 1 << 40, Y: 1 << 40}); err != nil || ok {
		t.Fatalf("Delete(absent) = %t, %v", ok, err)
	}
}

func TestMergeSkylines(t *testing.T) {
	p := func(x, y geom.Coord) geom.Point { return geom.Point{X: x, Y: y} }
	got := mergeSkylines([][]geom.Point{
		{p(1, 50), p(2, 40), p(3, 10)}, // p(3,10) dominated by p(11,30)
		nil,
		{p(11, 30), p(12, 5)}, // p(12,5) dominated by p(21,20)
		{p(21, 20)},
	})
	want := []geom.Point{p(1, 50), p(2, 40), p(11, 30), p(21, 20)}
	samePoints(t, got, want, "merge")
	if mergeSkylines(nil) != nil || mergeSkylines([][]geom.Point{nil, nil}) != nil {
		t.Fatal("empty merge not nil")
	}
}

// TestTopOnlyEngine pins the mirror configuration: a TopOnly engine
// answers the top-open family identically to a full engine (with and
// without updates), skips building the per-shard Theorem 6 structures,
// and panics on 4-sided-family rectangles instead of silently serving
// them wrong.
func TestTopOnlyEngine(t *testing.T) {
	const n = 400
	span := geom.Coord(n * 16)
	all := geom.GenUniform(n+100, span, 701)
	pts := append([]geom.Point(nil), all[:n]...)
	pool := all[n:]
	geom.SortByX(pts)
	topOnly, err := New(Options{Machine: testCfg, Shards: 4, Workers: 2, Dynamic: true, TopOnly: true}, pts)
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(Options{Machine: testCfg, Shards: 4, Workers: 2, Dynamic: true}, pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range topOnly.shards {
		if s.four != nil {
			t.Fatal("TopOnly engine built a foursided structure")
		}
	}
	rng := rand.New(rand.NewSource(702))
	check := func(ctx string) {
		for q := 0; q < 40; q++ {
			x1, x2, beta := randTopOpen(rng, span)
			samePoints(t, topOnly.TopOpen(x1, x2, beta), full.TopOpen(x1, x2, beta),
				ctx+" q="+itoa(q))
		}
	}
	check("static")
	for _, p := range pool[:50] {
		if err := topOnly.Insert(p); err != nil {
			t.Fatal(err)
		}
		if err := full.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := topOnly.BatchInsert(pool[50:]); err != nil {
		t.Fatal(err)
	}
	if err := full.BatchInsert(pool[50:]); err != nil {
		t.Fatal(err)
	}
	check("after inserts")
	var victims []geom.Point
	for i := 0; i < len(pool); i += 2 {
		victims = append(victims, pool[i])
	}
	got, err := topOnly.Apply(victims, nil)
	if err != nil || len(got) != len(victims) {
		t.Fatalf("TopOnly Apply = %d, %v; want %d", len(got), err, len(victims))
	}
	if got, err := full.Apply(victims, nil); err != nil || len(got) != len(victims) {
		t.Fatalf("full Apply = %d, %v; want %d", len(got), err, len(victims))
	}
	check("after deletes")

	defer func() {
		if recover() == nil {
			t.Fatal("FourSided on a TopOnly engine did not panic")
		}
	}()
	topOnly.FourSided(geom.Rect{X1: 1, X2: 100, Y1: 1, Y2: 100})
}

// TestQuiesce pins the shutdown barrier core.DB.Close relies on: after
// Quiesce returns, every worker-pool task submitted before it has fully
// applied (no goroutine still holds a semaphore slot or a shard mutex),
// so the engine's state is at rest and countable. It must also be a
// cheap no-op on an idle engine and safe to call repeatedly.
func TestQuiesce(t *testing.T) {
	pts := geom.GenUniform(600, 600*16, 8101)
	geom.SortByX(pts)
	base := pts[:400]
	extra := pts[400:]
	eng, err := New(Options{Machine: emio.Config{B: 32, M: 32 * 32}, Shards: 4, Workers: 4, Dynamic: true}, base)
	if err != nil {
		t.Fatal(err)
	}
	eng.Quiesce() // idle: returns immediately
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := eng.BatchInsert(extra); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait() // the batch call has returned; its tasks may have run pooled
	eng.Quiesce()
	eng.Quiesce() // idempotent
	if eng.Len() != len(pts) {
		t.Fatalf("Len after quiesce = %d, want %d", eng.Len(), len(pts))
	}
}
