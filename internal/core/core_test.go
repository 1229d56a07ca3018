package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/emio"
	"repro/internal/engine"
	"repro/internal/geom"
)

func sameAnswer(got, want []geom.Point) bool {
	if len(got) == 0 && len(want) == 0 {
		return true
	}
	return reflect.DeepEqual(got, want)
}

func TestStaticDispatch(t *testing.T) {
	pts := geom.GenUniform(400, 4000, 201)
	db, err := Open(Options{Machine: emio.Config{B: 32, M: 32 * 32}}, pts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(202))
	for q := 0; q < 150; q++ {
		x1 := geom.Coord(rng.Int63n(4400)) - 200
		x2 := x1 + geom.Coord(rng.Int63n(3000))
		y1 := geom.Coord(rng.Int63n(4400)) - 200
		y2 := y1 + geom.Coord(rng.Int63n(3000))
		for _, r := range []geom.Rect{
			geom.TopOpen(x1, x2, y1),
			{X1: x1, X2: x2, Y1: y1, Y2: y2},
			geom.LeftOpen(x2, y1, y2),
			geom.AntiDominance(x2, y2),
			geom.Dominance(x1, y1),
			geom.Contour(x2),
		} {
			got := db.RangeSkyline(r)
			want := geom.RangeSkyline(pts, r)
			if !sameAnswer(got, want) {
				t.Fatalf("RangeSkyline(%v) = %v, want %v", r, got, want)
			}
		}
	}
	if _, err := Open(Options{Epsilon: 2}, pts); err == nil {
		t.Error("epsilon 2 accepted")
	}
	if err := db.Insert(geom.Point{X: 1, Y: 1}); err == nil {
		t.Error("static index accepted Insert")
	}
}

func TestDynamicLifecycle(t *testing.T) {
	base := geom.GenUniform(200, 1<<20, 203)
	db, err := Open(Options{Machine: emio.Config{B: 16, M: 16 * 64}, Dynamic: true}, base)
	if err != nil {
		t.Fatal(err)
	}
	present := append([]geom.Point(nil), base...)
	extra := geom.GenUniform(150, 1<<20, 204)
	for i := range extra {
		extra[i].X += 1 << 21
		extra[i].Y += 1 << 21
	}
	rng := rand.New(rand.NewSource(205))
	for op := 0; op < 250; op++ {
		if len(extra) > 0 && rng.Intn(2) == 0 {
			p := extra[0]
			extra = extra[1:]
			if err := db.Insert(p); err != nil {
				t.Fatal(err)
			}
			present = append(present, p)
		} else if len(present) > 0 {
			i := rng.Intn(len(present))
			p := present[i]
			present = append(present[:i], present[i+1:]...)
			ok, err := db.Delete(p)
			if err != nil || !ok {
				t.Fatalf("Delete(%v) = %t, %v", p, ok, err)
			}
		}
		if op%31 == 0 {
			x1 := geom.Coord(rng.Int63n(1 << 22))
			x2 := x1 + geom.Coord(rng.Int63n(1<<21))
			y := geom.Coord(rng.Int63n(1 << 22))
			if got, want := db.TopOpen(x1, x2, y), geom.RangeSkyline(present, geom.TopOpen(x1, x2, y)); !sameAnswer(got, want) {
				t.Fatalf("op %d: TopOpen mismatch: %v vs %v", op, got, want)
			}
			r := geom.Rect{X1: x1, X2: x2, Y1: y, Y2: y + geom.Coord(rng.Int63n(1<<21))}
			if got, want := db.RangeSkyline(r), geom.RangeSkyline(present, r); !sameAnswer(got, want) {
				t.Fatalf("op %d: 4-sided mismatch", op)
			}
		}
	}
	if db.Len() != len(present) {
		t.Fatalf("Len = %d, want %d", db.Len(), len(present))
	}
}

// TestSevenShapeDispatch drives every named Figure-2 entry point —
// including the RightOpen and BottomOpen conveniences — against the
// oracle, for a static single-disk index, a dynamic one, and a sharded
// one, and checks each shape routes to the expected backend family.
func TestSevenShapeDispatch(t *testing.T) {
	pts := geom.GenUniform(400, 4000, 211)
	cfg := emio.Config{B: 32, M: 32 * 32}
	for _, opts := range []Options{
		{Machine: cfg},
		{Machine: cfg, Dynamic: true},
		{Machine: cfg, Dynamic: true, Shards: 4, Workers: 2},
	} {
		db, err := Open(opts, pts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(212))
		for q := 0; q < 60; q++ {
			x1 := geom.Coord(rng.Int63n(4400)) - 200
			x2 := x1 + geom.Coord(rng.Int63n(3000))
			y1 := geom.Coord(rng.Int63n(4400)) - 200
			y2 := y1 + geom.Coord(rng.Int63n(3000))
			shapes := []struct {
				name string
				got  []geom.Point
				r    geom.Rect
			}{
				{"TopOpen", db.TopOpen(x1, x2, y1), geom.TopOpen(x1, x2, y1)},
				{"RightOpen", db.RightOpen(x1, y1, y2), geom.RightOpen(x1, y1, y2)},
				{"BottomOpen", db.BottomOpen(x1, x2, y2), geom.BottomOpen(x1, x2, y2)},
				{"LeftOpen", db.LeftOpen(x2, y1, y2), geom.LeftOpen(x2, y1, y2)},
				{"Dominance", db.Dominance(x1, y1), geom.Dominance(x1, y1)},
				{"AntiDominance", db.AntiDominance(x2, y2), geom.AntiDominance(x2, y2)},
				{"Contour", db.Contour(x2), geom.Contour(x2)},
			}
			for _, s := range shapes {
				if want := geom.RangeSkyline(pts, s.r); !sameAnswer(s.got, want) {
					t.Fatalf("opts=%+v %s(%v) = %v, want %v", opts, s.name, s.r, s.got, want)
				}
				if db.plan.Route(s.r) == nil {
					t.Fatalf("no backend for %s", s.name)
				}
			}
		}
		// Dispatch: with distinct backends, the top-open family must hit
		// the top-open backend, everything else the general backend.
		backends := db.plan.Backends()
		if opts.Shards > 1 {
			if len(backends) != 1 || backends[0] != db.plan.Route(geom.Contour(9)) {
				t.Fatalf("sharded: want a single backend serving everything")
			}
		} else {
			if len(backends) != 2 {
				t.Fatalf("unsharded: %d backends, want 2", len(backends))
			}
			if db.plan.Route(geom.TopOpen(1, 9, 3)) != backends[0] {
				t.Fatal("top-open not routed to the top-open backend")
			}
			if db.plan.Route(geom.RightOpen(1, 2, 8)) != backends[1] {
				t.Fatal("right-open not routed to the general backend")
			}
		}
	}
}

// TestDeletePresenceCheckFirst is the regression test for the update
// ordering fix: a Delete whose primary engine reports the point absent
// must not mutate the 4-sided backend, even if (through corruption or
// drift) that backend still holds the point.
func TestDeletePresenceCheckFirst(t *testing.T) {
	pts := geom.GenUniform(120, 2000, 213)
	db, err := Open(Options{Machine: emio.Config{B: 16, M: 16 * 64}, Dynamic: true}, pts)
	if err != nil {
		t.Fatal(err)
	}
	p := pts[17]
	// Simulate drift: remove p from the primary (top-open) backend
	// directly, behind the planner's back. The 4-sided backend still
	// holds p.
	primary := db.plan.Backends()[0]
	if ok, err := primary.Delete(p); err != nil || !ok {
		t.Fatalf("primary.Delete(%v) = %t, %v", p, ok, err)
	}
	// The routed Delete must now report a miss without error and —
	// crucially — without mutating the 4-sided backend (the old code
	// deleted from it unconditionally and returned a disagreement
	// error after the damage was done).
	if ok, err := db.Delete(p); err != nil || ok {
		t.Fatalf("Delete(%v) = %t, %v; want miss without error", p, ok, err)
	}
	four := db.plan.Backends()[1]
	band := geom.Rect{X1: p.X, X2: p.X, Y1: p.Y, Y2: p.Y}
	if got := four.RangeSkyline(band); len(got) != 1 || got[0] != p {
		t.Fatalf("4-sided backend lost %v on a primary miss: %v", p, got)
	}
	// A delete of a genuinely absent point is a plain miss everywhere.
	if ok, err := db.Delete(geom.Point{X: 1 << 40, Y: 1 << 40}); err != nil || ok {
		t.Fatalf("Delete(absent) = %t, %v", ok, err)
	}
}

// TestBatchUpdatesThroughCore pushes BatchInsert/BatchDelete through
// core for both the single-disk and sharded layouts.
func TestBatchUpdatesThroughCore(t *testing.T) {
	cfg := emio.Config{B: 32, M: 32 * 32}
	all := geom.GenUniform(700, 20000, 214)
	base, batch := all[:400], all[400:]
	for _, opts := range []Options{
		{Machine: cfg, Dynamic: true},
		{Machine: cfg, Dynamic: true, Shards: 4, Workers: 4},
	} {
		db, err := Open(opts, base)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.BatchInsert(batch); err != nil {
			t.Fatal(err)
		}
		if db.Len() != len(all) {
			t.Fatalf("Len = %d, want %d", db.Len(), len(all))
		}
		if got, want := db.Skyline(), geom.Skyline(all); !sameAnswer(got, want) {
			t.Fatalf("opts=%+v post-batch skyline mismatch", opts)
		}
		removed, err := db.BatchDelete(append([]geom.Point(nil), batch...))
		if err != nil || removed != len(batch) {
			t.Fatalf("BatchDelete = %d, %v; want %d", removed, err, len(batch))
		}
		// A second batch delete of the same points is all misses.
		removed, err = db.BatchDelete(append([]geom.Point(nil), batch...))
		if err != nil || removed != 0 {
			t.Fatalf("repeat BatchDelete = %d, %v; want 0", removed, err)
		}
		if db.Len() != len(base) {
			t.Fatalf("Len = %d, want %d", db.Len(), len(base))
		}
		if got, want := db.Skyline(), geom.Skyline(base); !sameAnswer(got, want) {
			t.Fatalf("opts=%+v post-batch-delete skyline mismatch", opts)
		}
	}
	// Static indexes reject the batched paths.
	db, err := Open(Options{Machine: cfg}, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BatchInsert(batch); err == nil {
		t.Fatal("static index accepted BatchInsert")
	}
	if _, err := db.BatchDelete(batch); err == nil {
		t.Fatal("static index accepted BatchDelete")
	}
}

// TestConcurrentShardedDB drives a sharded core.DB from concurrent
// goroutines — queriers over both families, per-point and batched
// updaters, Len/Stats pollers — then verifies against the oracle after
// quiescence. Under -race (CI's race job covers this package) it proves
// the routed path, including the DB's size accounting, is safe for the
// concurrent callers the sharded engine admits.
func TestConcurrentShardedDB(t *testing.T) {
	const nBase, perUpdater, nUpdaters = 600, 200, 2
	all := geom.GenUniform(nBase+nUpdaters*perUpdater, 40000, 215)
	base := append([]geom.Point(nil), all[:nBase]...)
	db, err := Open(Options{Machine: emio.Config{B: 32, M: 32 * 32}, Dynamic: true, Shards: 4, Workers: 4}, base)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for u := 0; u < nUpdaters; u++ {
		pool := all[nBase+u*perUpdater : nBase+(u+1)*perUpdater]
		batched := u%2 == 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			if batched {
				if err := db.BatchInsert(pool); err != nil {
					t.Error(err)
					return
				}
				var victims []geom.Point
				for i := 1; i < len(pool); i += 2 {
					victims = append(victims, pool[i])
				}
				if got, err := db.BatchDelete(victims); err != nil || got != len(victims) {
					t.Errorf("BatchDelete = %d, %v", got, err)
				}
			} else {
				for _, p := range pool {
					if err := db.Insert(p); err != nil {
						t.Error(err)
						return
					}
				}
				for i := 1; i < len(pool); i += 2 {
					if ok, err := db.Delete(pool[i]); err != nil || !ok {
						t.Errorf("Delete(%v) = %t, %v", pool[i], ok, err)
					}
				}
			}
		}()
	}
	for g := 0; g < 3; g++ {
		seed := int64(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < 120; q++ {
				x1 := geom.Coord(rng.Int63n(40000))
				y1 := geom.Coord(rng.Int63n(40000))
				if q%2 == 0 {
					db.TopOpen(x1, x1+8000, y1)
				} else {
					db.RangeSkyline(geom.Rect{X1: x1, X2: x1 + 8000, Y1: y1, Y2: y1 + 8000})
				}
				_ = db.Len()
				_ = db.Stats()
			}
		}()
	}
	wg.Wait()
	ref := append([]geom.Point(nil), base...)
	for u := 0; u < nUpdaters; u++ {
		pool := all[nBase+u*perUpdater : nBase+(u+1)*perUpdater]
		for i := 0; i < len(pool); i += 2 {
			ref = append(ref, pool[i])
		}
	}
	if db.Len() != len(ref) {
		t.Fatalf("final Len = %d, want %d", db.Len(), len(ref))
	}
	rng := rand.New(rand.NewSource(216))
	for q := 0; q < 30; q++ {
		x1 := geom.Coord(rng.Int63n(40000))
		y1 := geom.Coord(rng.Int63n(40000))
		r := geom.Rect{X1: x1, X2: x1 + 12000, Y1: y1, Y2: y1 + 12000}
		if got, want := db.RangeSkyline(r), geom.RangeSkyline(ref, r); !sameAnswer(got, want) {
			t.Fatalf("final q=%d: %v vs %v", q, got, want)
		}
	}
}

func TestGeneralPositionRejected(t *testing.T) {
	if _, err := Open(Options{}, []geom.Point{{X: 1, Y: 2}, {X: 1, Y: 3}}); err == nil {
		t.Fatal("duplicate x accepted")
	}
}

func TestSkylineWhole(t *testing.T) {
	pts := geom.GenUniform(300, 3000, 206)
	db, err := Open(Options{Machine: emio.Config{B: 16, M: 16 * 64}}, pts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := db.Skyline(), geom.Skyline(pts); !sameAnswer(got, want) {
		t.Fatalf("Skyline = %v, want %v", got, want)
	}
}

// TestMirrorRouting pins Options.Mirrors end to end: the planner serves
// the grounded-right-edge family from the mirror backend, every other
// shape keeps its pre-mirror route, and all answers stay byte-identical
// to a mirror-less index — static and dynamic, unsharded and sharded.
func TestMirrorRouting(t *testing.T) {
	cfg := emio.Config{B: 32, M: 32 * 32}
	const n = 260
	span := geom.Coord(n * 16)
	pts := geom.GenUniform(n, span, 61)
	for _, opts := range []Options{
		{Machine: cfg, Mirrors: true},
		{Machine: cfg, Mirrors: true, Dynamic: true},
		{Machine: cfg, Mirrors: true, Dynamic: true, Shards: 4, Workers: 3},
	} {
		db, err := Open(opts, pts)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Open(Options{Machine: cfg, Dynamic: opts.Dynamic, Shards: opts.Shards, Workers: opts.Workers}, pts)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(db.Planner().Mirrors()); got != 1 {
			t.Fatalf("Mirrors: registered %d mirror backends, want 1", got)
		}
		mirror := db.Planner().Mirrors()[0]
		rng := rand.New(rand.NewSource(62))
		for i := 0; i < 60; i++ {
			x := rng.Int63n(span)
			y1 := rng.Int63n(span)
			y2 := y1 + rng.Int63n(span/2+1)
			x2 := x + rng.Int63n(span/2+1)
			fast := []geom.Rect{
				geom.RightOpen(x, y1, y2),
				{X1: x, X2: geom.PosInf, Y1: geom.NegInf, Y2: y2},
				{X1: geom.NegInf, X2: geom.PosInf, Y1: y1, Y2: y2},
			}
			slow := []geom.Rect{
				geom.BottomOpen(x, x2, y2),
				geom.LeftOpen(x, y1, y2),
				geom.AntiDominance(x, y2),
				{X1: x, X2: x2, Y1: y1, Y2: y2},
			}
			for _, q := range fast {
				if db.Planner().Route(q) != engine.Backend(mirror) {
					t.Fatalf("%v should route to the mirror", q)
				}
				if !sameAnswer(db.RangeSkyline(q), plain.RangeSkyline(q)) {
					t.Fatalf("%v: mirrored answer differs from Theorem 6 answer", q)
				}
			}
			for _, q := range slow {
				if db.Planner().Route(q) == engine.Backend(mirror) {
					t.Fatalf("%v must not route to the mirror (Theorem 5)", q)
				}
				if !sameAnswer(db.RangeSkyline(q), plain.RangeSkyline(q)) {
					t.Fatalf("%v: answer differs with mirrors enabled", q)
				}
			}
			// Top-open family stays on the primary top-open backend.
			if to := geom.TopOpen(x, x2, y1); db.Planner().Route(to) == engine.Backend(mirror) {
				t.Fatalf("%v must not route to the mirror", to)
			}
		}
	}
}

// TestMirrorUpdatesStaySynchronized drives single and batched updates
// through a mirrored dynamic DB and checks the mirror's answers track
// the primary's exactly.
func TestMirrorUpdatesStaySynchronized(t *testing.T) {
	cfg := emio.Config{B: 32, M: 32 * 32}
	const n, extra = 200, 140
	span := geom.Coord((n + extra) * 16)
	all := geom.GenUniform(n+extra, span, 63)
	base := append([]geom.Point(nil), all[:n]...)
	pool := all[n:]
	for _, shards := range []int{1, 4} {
		db, err := Open(Options{Machine: cfg, Dynamic: true, Shards: shards, Workers: 3, Mirrors: true}, base)
		if err != nil {
			t.Fatal(err)
		}
		ref := append([]geom.Point(nil), base...)
		check := func(ctx string) {
			t.Helper()
			rng := rand.New(rand.NewSource(64))
			for i := 0; i < 40; i++ {
				x := rng.Int63n(span)
				y1 := rng.Int63n(span)
				q := geom.RightOpen(x, y1, y1+rng.Int63n(span/2+1))
				if !sameAnswer(db.RangeSkyline(q), geom.RangeSkyline(ref, q)) {
					t.Fatalf("shards=%d %s: %v wrong after updates", shards, ctx, q)
				}
			}
		}
		for _, p := range pool[:40] {
			if err := db.Insert(p); err != nil {
				t.Fatal(err)
			}
			ref = append(ref, p)
		}
		check("inserts")
		if err := db.BatchInsert(pool[40:]); err != nil {
			t.Fatal(err)
		}
		ref = append(ref, pool[40:]...)
		check("batch insert")
		if ok, err := db.Delete(pool[0]); err != nil || !ok {
			t.Fatalf("Delete = %t, %v", ok, err)
		}
		ref = ref[:0]
		for _, p := range append(append([]geom.Point(nil), base...), pool[1:]...) {
			ref = append(ref, p)
		}
		check("delete")
		victims := append([]geom.Point(nil), pool[1:80]...)
		victims = append(victims, pool[1], geom.Point{X: span * 2, Y: span * 2}) // dup + absentee
		removed, err := db.BatchDelete(victims)
		if err != nil || removed != 79 {
			t.Fatalf("BatchDelete = %d, %v; want 79", removed, err)
		}
		ref = append(append([]geom.Point(nil), base...), pool[80:]...)
		check("batch delete")
		if db.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d", db.Len(), len(ref))
		}
	}
}

// TestStatsAggregationWithMirrors pins DB.Stats truthfulness (the
// skybench contract): stats aggregate over every registered backend
// including the mirror's private storage, each distinct disk counted
// once, and ResetStats really zeroes the total.
func TestStatsAggregationWithMirrors(t *testing.T) {
	cfg := emio.Config{B: 32, M: 32 * 32}
	pts := geom.GenUniform(500, 500*16, 65)
	db, err := Open(Options{Machine: cfg, Mirrors: true}, pts)
	if err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	if got := db.Stats().IOs(); got != 0 {
		t.Fatalf("after ResetStats, IOs = %d", got)
	}
	// A right-open query touches only the mirror's disk.
	db.RangeSkyline(geom.RightOpen(0, 0, 500*16))
	mirrorIOs := db.Stats().IOs()
	if mirrorIOs == 0 {
		t.Fatal("mirror query reported zero I/Os through DB.Stats")
	}
	if got := db.Disk().Stats().IOs(); got != 0 {
		t.Fatalf("mirror query charged %d I/Os to the primary disk", got)
	}
	// A 4-sided query touches only the primary disk; the total must be
	// the exact sum of the two disks (no double counting).
	db.RangeSkyline(geom.Rect{X1: 10, X2: 5000, Y1: 10, Y2: 5000})
	primaryIOs := db.Disk().Stats().IOs()
	if primaryIOs == 0 {
		t.Fatal("4-sided query reported zero I/Os on the primary disk")
	}
	if got, want := db.Stats().IOs(), primaryIOs+mirrorIOs; got != want {
		t.Fatalf("Stats().IOs() = %d, want primary+mirror = %d", got, want)
	}
	db.ResetStats()
	if got := db.Stats().IOs(); got != 0 {
		t.Fatalf("ResetStats left IOs = %d", got)
	}
	if got := db.Disk().Stats().IOs(); got != 0 {
		t.Fatalf("ResetStats left primary disk IOs = %d", got)
	}
}

// TestStorageAccounting pins core's storage accounting on every layout
// Open builds. The units it sums are exactly the layout's storage —
// the unsharded disk (shared by two structures) or the sharded engine,
// plus the mirror's — so with one snapshot open Stats, Space,
// DeferredBlocks and RetainedCount count each disk once, a sharded
// engine's retired shards included: I/O charged before a rebalance
// transition is still counted after it, and so are the retentions the
// snapshot holds on the retired disks. ResetStats zeroes the I/O and the
// cache counters.
func TestStorageAccounting(t *testing.T) {
	const n = 600
	span := geom.Coord(n * 16)
	pts := geom.GenUniform(n, span, 6501)
	for _, tc := range []struct {
		name string
		opts Options
		// pins is the retentions one snapshot holds: one per pinned
		// structure per disk — two on the shared unsharded disk, one on
		// an unsharded mirror's disk, one per shard of a sharded engine.
		pins int
	}{
		{"unsharded", Options{}, 2},
		{"unsharded+mirrors", Options{Mirrors: true}, 3},
		{"shards", Options{Shards: 4}, 4},
		{"shards+mirrors", Options{Shards: 4, Mirrors: true}, 8},
		{"rebalance", Options{Shards: 4, Rebalance: true}, 4},
		{"rebalance+mirrors", Options{Shards: 4, Mirrors: true, Rebalance: true}, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.opts
			o.Machine, o.Dynamic, o.Workers, o.CacheEntries = emio.Config{B: 32, M: 32 * 32}, true, 2, 8
			db, err := Open(o, pts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			want := []storage{db.disk}
			if db.eng != nil {
				want = []storage{db.eng}
			}
			switch {
			case db.meng != nil:
				want = append(want, db.meng)
			case o.Mirrors && len(db.units) == 2:
				if d, ok := db.units[1].(*emio.Disk); ok && d != db.disk {
					want = append(want, d) // the unsharded mirror's private disk
				}
			}
			if len(db.units) != len(want) {
				t.Fatalf("units = %v, want %v", db.units, want)
			}
			for i := range want {
				if db.units[i] != want[i] {
					t.Fatalf("unit %d = %v, want %v", i, db.units[i], want[i])
				}
			}
			check := func(stage string) {
				t.Helper()
				var io emio.Stats
				var sp SpaceStats
				for _, u := range want {
					io = io.Add(u.Stats())
					sp.LiveBlocks += u.LiveBlocks()
					sp.PeakWords += u.PeakWords()
					sp.DeferredBlocks += u.DeferredBlocks()
				}
				if got := db.Stats(); got != io {
					t.Fatalf("%s: Stats = %+v, want %+v", stage, got, io)
				}
				if got := db.Space(); got != sp {
					t.Fatalf("%s: Space = %+v, want %+v", stage, got, sp)
				}
				if got := db.DeferredBlocks(); got != sp.DeferredBlocks {
					t.Fatalf("%s: DeferredBlocks = %d, want %d", stage, got, sp.DeferredBlocks)
				}
				if got := db.RetainedCount(); got != tc.pins {
					t.Fatalf("%s: RetainedCount = %d, want %d", stage, got, tc.pins)
				}
			}

			db.ResetStats()
			for _, r := range sevenShapes(span) {
				db.RangeSkyline(r)
			}
			if db.Stats().IOs() == 0 || db.CacheCounters().Misses == 0 {
				t.Fatalf("queries charged nothing: %+v, %+v", db.Stats(), db.CacheCounters())
			}
			snap, err := db.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.BatchDelete(pts[:60]); err != nil {
				t.Fatal(err)
			}
			if db.DeferredBlocks() == 0 {
				t.Fatal("deletes under an open snapshot deferred no blocks")
			}
			check("pinned")
			if o.Rebalance {
				for _, step := range []struct {
					name string
					run  func(int) error
				}{{"split", db.ForceSplit}, {"merge", db.ForceMerge}} {
					before := db.Stats()
					if err := step.run(-1); err != nil {
						t.Fatal(err)
					}
					after := db.Stats()
					if after.Reads < before.Reads || after.Writes < before.Writes {
						t.Fatalf("%s dropped I/O: %+v -> %+v", step.name, before, after)
					}
					check("after " + step.name)
				}
				if st := db.RebalanceStats(); st.Splits == 0 || st.Merges == 0 {
					t.Fatalf("no transition ran: %+v", st)
				}
			}

			db.ResetStats()
			if got := db.Stats(); got.IOs() != 0 {
				t.Fatalf("ResetStats left %+v", got)
			}
			if got := db.CacheCounters(); got != (engine.CacheCounters{}) {
				t.Fatalf("ResetStats left cache counters %+v", got)
			}
			snap.Close()
			if db.DeferredBlocks() != 0 || db.RetainedCount() != 0 {
				t.Fatalf("after Close: %d blocks deferred, %d retentions open", db.DeferredBlocks(), db.RetainedCount())
			}
		})
	}
}

// TestAsyncWritesRequireDynamic pins the option validation: a static
// index cannot buffer writes it would reject anyway.
func TestAsyncWritesRequireDynamic(t *testing.T) {
	pts := geom.GenUniform(64, 1024, 6001)
	if _, err := Open(Options{AsyncWrites: true}, pts); err == nil {
		t.Fatal("Open(AsyncWrites, static) succeeded; want error")
	}
}

// TestNegativeCacheEntriesRejected: a negative cache capacity is a
// refusal, like it is on the wire, not a silent "no cache"; zero opens
// without one.
func TestNegativeCacheEntriesRejected(t *testing.T) {
	pts := geom.GenUniform(64, 1024, 6002)
	if db, err := Open(Options{Dynamic: true, CacheEntries: -1}, pts); err == nil {
		db.Close()
		t.Fatal("Open(CacheEntries: -1) succeeded; want error")
	}
	db, err := Open(Options{Dynamic: true}, pts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Cache() != nil {
		t.Fatal("CacheEntries 0 built a cache")
	}
}

// TestAsyncQueueStacking pins the layer order Open builds: the queue is
// the outermost front (reads must drain before a cache hit can be
// served) and the cache sits between queue and planner, with the queue
// learning the sharded engine's cuts through it.
func TestAsyncQueueStacking(t *testing.T) {
	pts := geom.GenUniform(256, 4096, 6101)
	db, err := Open(Options{
		Machine: emio.Config{B: 32, M: 32 * 32}, Dynamic: true,
		Shards: 4, Workers: 2, AsyncWrites: true, CacheEntries: 8, FlushInterval: -1,
	}, pts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	q := db.Queue()
	if q == nil {
		t.Fatal("Open(AsyncWrites) built no queue")
	}
	if q.Inner() != engine.Backend(db.Cache()) {
		t.Fatal("queue does not drain through the cache")
	}
	if db.Cache().Inner() != engine.Backend(db.Planner()) {
		t.Fatal("cache does not wrap the planner")
	}
	if q.NumSlabs() != db.Sharded().NumShards() {
		t.Fatalf("queue slabs %d, want %d shards", q.NumSlabs(), db.Sharded().NumShards())
	}
}

// TestAsyncLenExact pins Len's flushing-read contract: buffered inserts,
// coalesced pairs and delete misses must all resolve before counting,
// so Len matches a synchronous index at every quiescent point.
func TestAsyncLenExact(t *testing.T) {
	pts := geom.GenUniform(200, 3200, 6201)
	db, err := Open(Options{
		Machine: emio.Config{B: 32, M: 32 * 32}, Dynamic: true,
		Shards: 4, Workers: 2, AsyncWrites: true, FlushPoints: 1 << 20, FlushInterval: -1,
	}, pts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	span := geom.Coord(3200)
	fresh := []geom.Point{{X: span + 1, Y: span + 1}, {X: span + 2, Y: span + 2}, {X: span + 3, Y: span + 3}}
	if err := db.BatchInsert(fresh); err != nil {
		t.Fatal(err)
	}
	if got := db.Len(); got != len(pts)+3 {
		t.Fatalf("Len after buffered batch = %d, want %d", got, len(pts)+3)
	}
	// A delete miss buffered alongside a real delete: only the hit may
	// count.
	if _, err := db.Delete(geom.Point{X: span + 99, Y: span + 99}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Delete(fresh[0]); err != nil {
		t.Fatal(err)
	}
	if got := db.Len(); got != len(pts)+2 {
		t.Fatalf("Len after miss+hit deletes = %d, want %d", got, len(pts)+2)
	}
	if ctr := db.QueueCounters(); ctr.Enqueued == 0 {
		t.Fatalf("queue counters never moved: %+v", ctr)
	}
}

// TestCloseDuringWritesNoGoroutineLeak is the Close regression test:
// closing while writers are in flight must stop the queue's background
// drainer, quiesce the sharded engines' worker pools, and leave no
// goroutine owned by the index behind (checked against the pre-Open
// baseline, with retries for scheduler lag).
func TestCloseDuringWritesNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	all := geom.GenUniform(1200, 1200*16, 6301)
	base := append([]geom.Point(nil), all[:800]...)
	geom.SortByX(base)
	db, err := Open(Options{
		Machine: emio.Config{B: 32, M: 32 * 32}, Dynamic: true,
		Shards: 4, Workers: 4, Mirrors: true, AsyncWrites: true,
		FlushPoints: 16, FlushInterval: time.Millisecond,
	}, base)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		pool := all[800+w*200 : 800+(w+1)*200]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range pool {
				var err error
				if i%3 == 0 {
					err = db.BatchInsert(pool[i : i+1])
				} else {
					err = db.Insert(p)
				}
				// A writer racing Close may be rejected; that is the
				// contract, not a failure.
				if err != nil {
					return
				}
			}
		}()
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := db.Insert(geom.Point{X: 1 << 30, Y: 1 << 30}); err == nil {
		t.Fatal("Insert after Close succeeded")
	}
	if _, err := db.BatchDelete([]geom.Point{base[0]}); err == nil {
		t.Fatal("BatchDelete after Close succeeded")
	}
	// Reads keep working against the quiesced state.
	if got := db.RangeSkyline(geom.Contour(geom.PosInf)); len(got) == 0 {
		t.Fatal("read after Close returned nothing")
	}
	// The drainer and every worker goroutine must be gone; allow the
	// runtime a moment to reap exited goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after Close: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
