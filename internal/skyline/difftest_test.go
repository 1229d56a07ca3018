// Differential test harness: randomized workloads (inserts, deletes,
// mixed x/β queries) cross-checked against a naive O(n²) skyline oracle
// for every query engine in the repository — the Theorem 1 static index
// (topopen), the Theorem 4 dynamic tree (dyntop), the Theorem 6 4-sided
// structure (foursided), the sharded concurrent engine
// (internal/shard, both directly and routed through core.Open), and the
// mirrored fast paths (core.Options.Mirrors, unsharded and sharded,
// which must stay byte-identical to the Theorem 6 answers on the whole
// mirror family). Every
// workload is seeded and each seed runs as its own subtest, so a failure
// names the exact subtest to replay:
//
//	go test ./internal/skyline -run 'TestDifferentialDynamic/seed=3'
package skyline_test

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dyntop"
	"repro/internal/emio"
	"repro/internal/engine"
	"repro/internal/extsort"
	"repro/internal/foursided"
	"repro/internal/geom"
	"repro/internal/shard"
	"repro/internal/topopen"
)

var diffCfg = emio.Config{B: 32, M: 32 * 32}

// naiveRangeSkyline is the O(n²) oracle: a point of pts ∩ r is reported
// iff no other point of pts ∩ r dominates it. It is deliberately
// independent of geom.Skyline so the harness cross-checks that oracle
// too.
func naiveRangeSkyline(pts []geom.Point, r geom.Rect) []geom.Point {
	var in []geom.Point
	for _, p := range pts {
		if r.Contains(p) {
			in = append(in, p)
		}
	}
	var out []geom.Point
	for _, p := range in {
		maximal := true
		for _, q := range in {
			if q.Dominates(p) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return geom.Less(out[i], out[j]) })
	return out
}

func diffPoints(t *testing.T, got, want []geom.Point, ctx string) {
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

// randTopOpen mixes bounded and grounded query sides.
func randTopOpen(rng *rand.Rand, span geom.Coord) (x1, x2, beta geom.Coord) {
	x1 = rng.Int63n(span)
	x2 = x1 + rng.Int63n(span/2+1)
	beta = rng.Int63n(span)
	switch rng.Intn(8) {
	case 0:
		x1 = geom.NegInf
	case 1:
		x2 = geom.PosInf
	case 2:
		beta = geom.NegInf
	case 3:
		x1, x2, beta = geom.NegInf, geom.PosInf, geom.NegInf
	case 4:
		x2 = x1 // degenerate slab
	}
	return x1, x2, beta
}

// randFourSided draws a rectangle whose top edge may or may not be
// bounded, exercising both dispatch paths of core.DB.
func randFourSided(rng *rand.Rand, span geom.Coord) geom.Rect {
	x1 := rng.Int63n(span)
	y1 := rng.Int63n(span)
	r := geom.Rect{X1: x1, X2: x1 + rng.Int63n(span/2+1), Y1: y1, Y2: y1 + rng.Int63n(span/2+1)}
	switch rng.Intn(6) {
	case 0:
		r.X1 = geom.NegInf
	case 1:
		r.Y1 = geom.NegInf
	case 2:
		r.X2 = geom.PosInf
	}
	return r
}

// TestDifferentialStatic cross-checks the static engines — topopen,
// foursided, and the static sharded engine — on random query mixes.
func TestDifferentialStatic(t *testing.T) {
	const n = 300
	span := geom.Coord(n * 16)
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			pts := geom.GenUniform(n, span, seed+500)
			geom.SortByX(pts)
			d := emio.NewDisk(diffCfg)
			f := extsort.FromSlice(d, 2, pts)
			top := topopen.Build(d, f)
			four := foursided.Build(emio.NewDisk(diffCfg), 0.5, pts)
			eng, err := shard.New(shard.Options{Machine: diffCfg, Shards: 4, Workers: 2}, pts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < 80; q++ {
				x1, x2, beta := randTopOpen(rng, span)
				r := geom.TopOpen(x1, x2, beta)
				want := naiveRangeSkyline(pts, r)
				ctx := fmt.Sprintf("seed=%d q=%d %v", seed, q, r)
				diffPoints(t, top.Query(x1, x2, beta), want, ctx+" topopen")
				diffPoints(t, eng.TopOpen(x1, x2, beta), want, ctx+" shard")
				diffPoints(t, geom.RangeSkyline(pts, r), want, ctx+" geom oracle")

				fr := randFourSided(rng, span)
				fctx := fmt.Sprintf("seed=%d q=%d %v", seed, q, fr)
				single := four.Query(fr)
				diffPoints(t, single, naiveRangeSkyline(pts, fr), fctx+" foursided")
				// The static sharded engine serves the 4-sided family
				// too, byte-identically to the single-disk structure.
				diffPoints(t, eng.RangeSkyline(fr), single, fctx+" shard 4-sided vs single")
			}
		})
	}
}

// TestDifferentialDynamic drives a mixed insert/delete/query workload
// against three engines at once: a single-disk dyntop tree, a direct
// sharded engine, and a sharded core.DB (which also exercises foursided
// and the Figure 2 dispatch). The sharded answers must be byte-identical
// to the single-disk tree's, and all must match the naive oracle.
func TestDifferentialDynamic(t *testing.T) {
	const n, extra = 220, 260
	span := geom.Coord((n + extra) * 16)
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			all := geom.GenUniform(n+extra, span, seed+900)
			base := append([]geom.Point(nil), all[:n]...)
			pool := append([]geom.Point(nil), all[n:]...)
			geom.SortByX(base)

			tree := dyntop.BuildSABE(emio.NewDisk(diffCfg), 0.5, base)
			four := foursided.Build(emio.NewDisk(diffCfg), 0.5, base)
			eng, err := shard.New(shard.Options{Machine: diffCfg, Shards: 4, Workers: 3, Dynamic: true}, base)
			if err != nil {
				t.Fatal(err)
			}
			db, err := core.Open(core.Options{Machine: diffCfg, Dynamic: true, Shards: 4, Workers: 3}, base)
			if err != nil {
				t.Fatal(err)
			}
			if db.Sharded() == nil {
				t.Fatal("core.Open(Shards: 4) did not build the sharded engine")
			}
			ref := append([]geom.Point(nil), base...)

			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < 250; op++ {
				ctx := fmt.Sprintf("seed=%d op=%d", seed, op)
				switch rng.Intn(10) {
				case 0, 1, 2: // insert
					if len(pool) == 0 {
						continue
					}
					p := pool[len(pool)-1]
					pool = pool[:len(pool)-1]
					tree.Insert(p)
					four.Insert(p)
					if err := eng.Insert(p); err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					if err := db.Insert(p); err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					ref = append(ref, p)
				case 3, 4: // delete
					if len(ref) == 0 {
						continue
					}
					j := rng.Intn(len(ref))
					p := ref[j]
					if !tree.Delete(p) {
						t.Fatalf("%s: dyntop lost %v", ctx, p)
					}
					if !four.Delete(p) {
						t.Fatalf("%s: foursided lost %v", ctx, p)
					}
					if ok, err := eng.Delete(p); err != nil || !ok {
						t.Fatalf("%s: shard Delete(%v) = %t, %v", ctx, p, ok, err)
					}
					if ok, err := db.Delete(p); err != nil || !ok {
						t.Fatalf("%s: db Delete(%v) = %t, %v", ctx, p, ok, err)
					}
					ref = append(ref[:j], ref[j+1:]...)
				default: // query
					x1, x2, beta := randTopOpen(rng, span)
					r := geom.TopOpen(x1, x2, beta)
					want := naiveRangeSkyline(ref, r)
					single := tree.Query(x1, x2, beta)
					diffPoints(t, single, want, ctx+fmt.Sprintf(" %v dyntop", r))
					diffPoints(t, eng.TopOpen(x1, x2, beta), single, ctx+fmt.Sprintf(" %v shard vs dyntop", r))
					diffPoints(t, db.RangeSkyline(r), single, ctx+fmt.Sprintf(" %v db vs dyntop", r))

					fr := randFourSided(rng, span)
					single4 := four.Query(fr)
					diffPoints(t, single4, naiveRangeSkyline(ref, fr),
						ctx+fmt.Sprintf(" %v foursided", fr))
					diffPoints(t, eng.RangeSkyline(fr), single4,
						ctx+fmt.Sprintf(" %v shard 4-sided vs single", fr))
					diffPoints(t, db.RangeSkyline(fr), single4,
						ctx+fmt.Sprintf(" %v db 4-sided vs single", fr))
				}
			}
			if db.Len() != len(ref) || eng.Len() != len(ref) || tree.Len() != len(ref) {
				t.Fatalf("seed=%d: Len db=%d eng=%d tree=%d, want %d",
					seed, db.Len(), eng.Len(), tree.Len(), len(ref))
			}
		})
	}
}

// TestDifferentialBatch drives batched updates — BatchInsert and
// BatchDelete, through both the sharded engine directly and the routed
// core.DB — against the O(n²) oracle. Batches mix fresh points, present
// points, and absent points, and every round cross-checks both query
// families.
func TestDifferentialBatch(t *testing.T) {
	const n, extra = 200, 400
	span := geom.Coord((n + extra) * 16)
	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			all := geom.GenUniform(n+extra, span, seed+1300)
			base := append([]geom.Point(nil), all[:n]...)
			pool := append([]geom.Point(nil), all[n:]...)
			geom.SortByX(base)

			eng, err := shard.New(shard.Options{Machine: diffCfg, Shards: 4, Workers: 4, Dynamic: true}, base)
			if err != nil {
				t.Fatal(err)
			}
			db, err := core.Open(core.Options{Machine: diffCfg, Dynamic: true, Shards: 4, Workers: 4}, base)
			if err != nil {
				t.Fatal(err)
			}
			ref := append([]geom.Point(nil), base...)
			rng := rand.New(rand.NewSource(seed + 77))
			for round := 0; round < 12; round++ {
				ctx := fmt.Sprintf("seed=%d round=%d", seed, round)
				if rng.Intn(2) == 0 && len(pool) > 0 {
					// Insert a batch drawn from the fresh pool.
					k := 1 + rng.Intn(len(pool))
					batch := append([]geom.Point(nil), pool[:k]...)
					pool = pool[k:]
					if err := eng.BatchInsert(batch); err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					if err := db.BatchInsert(batch); err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					ref = append(ref, batch...)
				} else if len(ref) > 0 {
					// Delete a batch: some present points (possibly
					// duplicated within the batch) plus guaranteed
					// absentees.
					k := 1 + rng.Intn(len(ref))
					perm := rng.Perm(len(ref))[:k]
					sort.Ints(perm)
					var batch []geom.Point
					for _, j := range perm {
						batch = append(batch, ref[j])
					}
					for i := len(perm) - 1; i >= 0; i-- {
						j := perm[i]
						ref = append(ref[:j], ref[j+1:]...)
					}
					want := len(batch)
					// Duplicates in the batch: the second delete of the
					// same point is a miss, not an error.
					if len(batch) > 0 && rng.Intn(2) == 0 {
						batch = append(batch, batch[0])
					}
					batch = append(batch, geom.Point{X: span + geom.Coord(round) + 1, Y: span + geom.Coord(round) + 1})
					removed, err := eng.Apply(batch, nil)
					if err != nil || len(removed) != want {
						t.Fatalf("%s: eng.Apply = %d, %v; want %d", ctx, len(removed), err, want)
					}
					got, err := db.BatchDelete(batch)
					if err != nil || got != want {
						t.Fatalf("%s: db.BatchDelete = %d, %v; want %d", ctx, got, err, want)
					}
				}
				if eng.Len() != len(ref) || db.Len() != len(ref) {
					t.Fatalf("%s: Len eng=%d db=%d, want %d", ctx, eng.Len(), db.Len(), len(ref))
				}
				for q := 0; q < 10; q++ {
					x1, x2, beta := randTopOpen(rng, span)
					r := geom.TopOpen(x1, x2, beta)
					want := naiveRangeSkyline(ref, r)
					diffPoints(t, eng.TopOpen(x1, x2, beta), want, ctx+fmt.Sprintf(" %v shard", r))
					diffPoints(t, db.RangeSkyline(r), want, ctx+fmt.Sprintf(" %v db", r))

					fr := randFourSided(rng, span)
					want4 := naiveRangeSkyline(ref, fr)
					diffPoints(t, eng.RangeSkyline(fr), want4, ctx+fmt.Sprintf(" %v shard 4-sided", fr))
					diffPoints(t, db.RangeSkyline(fr), want4, ctx+fmt.Sprintf(" %v db 4-sided", fr))
				}
			}
		})
	}
}

// randMirrorFamily draws from the four bounded-top shapes whose
// rectangles reflect onto top-open ones — right-open, bottom-open,
// left-open, anti-dominance — plus the unnamed
// grounded-right rectangles the mirror also serves (lower-right
// quadrant, horizontal band, horizontal contour). Only the
// grounded-right ones ride the mirrored fast path; the rest must keep
// their Theorem 6 answers bit for bit.
func randMirrorFamily(rng *rand.Rand, span geom.Coord) geom.Rect {
	x := rng.Int63n(span)
	x2 := x + rng.Int63n(span/2+1)
	y1 := rng.Int63n(span)
	y2 := y1 + rng.Int63n(span/2+1)
	switch rng.Intn(7) {
	case 0:
		return geom.RightOpen(x, y1, y2)
	case 1:
		return geom.BottomOpen(x, x2, y2)
	case 2:
		return geom.LeftOpen(x, y1, y2)
	case 3:
		return geom.AntiDominance(x, y2)
	case 4: // lower-right quadrant [x,∞) × (-∞,y2]
		return geom.Rect{X1: x, X2: geom.PosInf, Y1: geom.NegInf, Y2: y2}
	case 5: // horizontal band (-∞,∞) × [y1,y2]
		return geom.Rect{X1: geom.NegInf, X2: geom.PosInf, Y1: y1, Y2: y2}
	default: // horizontal contour (-∞,∞) × (-∞,y2]
		return geom.Rect{X1: geom.NegInf, X2: geom.PosInf, Y1: geom.NegInf, Y2: y2}
	}
}

// TestDifferentialMirrors drives mixed single/batched updates and
// mirror-family queries against three engines at once — a mirror-less
// core.DB (the Theorem 6 reference), an unsharded mirrored DB, and a
// sharded mirrored DB — asserting all answers byte-identical to each
// other and to the O(n²) oracle, and that right-open really routes to
// the mirror while the Theorem 5 shapes never do.
func TestDifferentialMirrors(t *testing.T) {
	const n, extra = 200, 240
	span := geom.Coord((n + extra) * 16)
	for seed := int64(0); seed < 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			all := geom.GenUniform(n+extra, span, seed+1700)
			base := append([]geom.Point(nil), all[:n]...)
			pool := append([]geom.Point(nil), all[n:]...)
			geom.SortByX(base)

			ref6, err := core.Open(core.Options{Machine: diffCfg, Dynamic: true}, base)
			if err != nil {
				t.Fatal(err)
			}
			dbM, err := core.Open(core.Options{Machine: diffCfg, Dynamic: true, Mirrors: true}, base)
			if err != nil {
				t.Fatal(err)
			}
			dbMS, err := core.Open(core.Options{Machine: diffCfg, Dynamic: true, Mirrors: true, Shards: 4, Workers: 3}, base)
			if err != nil {
				t.Fatal(err)
			}
			for _, db := range []*core.DB{dbM, dbMS} {
				if len(db.Planner().Mirrors()) != 1 {
					t.Fatal("mirrored DB did not register a mirror backend")
				}
			}
			ref := append([]geom.Point(nil), base...)
			dbs := []*core.DB{ref6, dbM, dbMS}

			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < 220; op++ {
				ctx := fmt.Sprintf("seed=%d op=%d", seed, op)
				switch rng.Intn(12) {
				case 0, 1: // single insert
					if len(pool) == 0 {
						continue
					}
					p := pool[len(pool)-1]
					pool = pool[:len(pool)-1]
					for _, db := range dbs {
						if err := db.Insert(p); err != nil {
							t.Fatalf("%s: %v", ctx, err)
						}
					}
					ref = append(ref, p)
				case 2: // batch insert
					if len(pool) < 2 {
						continue
					}
					k := 1 + rng.Intn(len(pool)/2)
					batch := append([]geom.Point(nil), pool[:k]...)
					pool = pool[k:]
					for _, db := range dbs {
						if err := db.BatchInsert(batch); err != nil {
							t.Fatalf("%s: %v", ctx, err)
						}
					}
					ref = append(ref, batch...)
				case 3, 4: // single delete
					if len(ref) == 0 {
						continue
					}
					j := rng.Intn(len(ref))
					p := ref[j]
					for _, db := range dbs {
						if ok, err := db.Delete(p); err != nil || !ok {
							t.Fatalf("%s: Delete(%v) = %t, %v", ctx, p, ok, err)
						}
					}
					ref = append(ref[:j], ref[j+1:]...)
				case 5: // batch delete with dup + absentee
					if len(ref) < 4 {
						continue
					}
					k := 1 + rng.Intn(len(ref)/2)
					perm := rng.Perm(len(ref))[:k]
					sort.Ints(perm)
					var batch []geom.Point
					for _, j := range perm {
						batch = append(batch, ref[j])
					}
					for i := len(perm) - 1; i >= 0; i-- {
						j := perm[i]
						ref = append(ref[:j], ref[j+1:]...)
					}
					want := len(batch)
					batch = append(batch, batch[0],
						geom.Point{X: span + geom.Coord(op) + 1, Y: span + geom.Coord(op) + 1})
					for i, db := range dbs {
						got, err := db.BatchDelete(batch)
						if err != nil || got != want {
							t.Fatalf("%s: db%d.BatchDelete = %d, %v; want %d", ctx, i, got, err, want)
						}
					}
				default: // mirror-family queries
					q := randMirrorFamily(rng, span)
					want := naiveRangeSkyline(ref, q)
					from6 := ref6.RangeSkyline(q)
					diffPoints(t, from6, want, ctx+fmt.Sprintf(" %v theorem6", q))
					diffPoints(t, dbM.RangeSkyline(q), from6, ctx+fmt.Sprintf(" %v mirrored vs theorem6", q))
					diffPoints(t, dbMS.RangeSkyline(q), from6, ctx+fmt.Sprintf(" %v sharded-mirrored vs theorem6", q))
					// Routing honesty: grounded right edge ⇔ mirror.
					for i, db := range []*core.DB{dbM, dbMS} {
						m := db.Planner().Mirrors()[0]
						toMirror := db.Planner().Route(q) == engine.Backend(m)
						if wantMirror := q.X2 == geom.PosInf && q.Y2 != geom.PosInf; toMirror != wantMirror {
							t.Fatalf("%s: db%d routes %v to mirror=%t, want %t", ctx, i, q, toMirror, wantMirror)
						}
					}
				}
			}
			for i, db := range dbs {
				if db.Len() != len(ref) {
					t.Fatalf("seed=%d: db%d.Len = %d, want %d", seed, i, db.Len(), len(ref))
				}
			}
		})
	}
}

// TestMirrorRaceStress is the -race variant with mirrors enabled: four
// queriers sweep the mirror family (so both the mirrored sharded engine
// and the primary engine serve concurrently) while two updaters mix
// single and batched updates and a poller reads stats. Mid-flight
// answers are checked structurally (containment + staircase); full
// answers are verified against the oracle after quiescence.
func TestMirrorRaceStress(t *testing.T) {
	const (
		nBase      = 900
		perUpdater = 240
		nQueriers  = 4
		queries    = 150
	)
	span := geom.Coord((nBase + 2*perUpdater) * 16)
	all := geom.GenUniform(nBase+2*perUpdater, span, 1900)
	base := append([]geom.Point(nil), all[:nBase]...)
	geom.SortByX(base)
	db, err := core.Open(core.Options{Machine: diffCfg, Dynamic: true, Shards: 4, Workers: 4, Mirrors: true}, base)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for u := 0; u < 2; u++ {
		pool := all[nBase+u*perUpdater : nBase+(u+1)*perUpdater]
		batched := u == 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			if batched {
				const chunk = 48
				for lo := 0; lo < len(pool); lo += chunk {
					hi := lo + chunk
					if hi > len(pool) {
						hi = len(pool)
					}
					if err := db.BatchInsert(pool[lo:hi]); err != nil {
						t.Error(err)
						return
					}
				}
				var victims []geom.Point
				for i := 1; i < len(pool); i += 2 {
					victims = append(victims, pool[i])
				}
				if got, err := db.BatchDelete(victims); err != nil || got != len(victims) {
					t.Errorf("BatchDelete = %d, %v; want %d", got, err, len(victims))
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
						return
					}
				}
			}
		}()
	}
	for g := 0; g < nQueriers; g++ {
		seed := int64(g + 3000)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < queries; q++ {
				r := randMirrorFamily(rng, span)
				sky := db.RangeSkyline(r)
				for i, p := range sky {
					if !r.Contains(p) {
						t.Errorf("query %d: %v outside %v", q, p, r)
						return
					}
					if i > 0 && (sky[i-1].X >= p.X || sky[i-1].Y <= p.Y) {
						t.Errorf("query %d: not a staircase at %d: %v, %v", q, i, sky[i-1], p)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			_ = db.Stats()
			_ = db.Len()
		}
	}()
	wg.Wait()

	ref := append([]geom.Point(nil), base...)
	for u := 0; u < 2; u++ {
		pool := all[nBase+u*perUpdater : nBase+(u+1)*perUpdater]
		for i := 0; i < len(pool); i += 2 {
			ref = append(ref, pool[i])
		}
	}
	if db.Len() != len(ref) {
		t.Fatalf("final Len = %d, want %d", db.Len(), len(ref))
	}
	rng := rand.New(rand.NewSource(1901))
	for q := 0; q < 40; q++ {
		r := randMirrorFamily(rng, span)
		diffPoints(t, db.RangeSkyline(r), naiveRangeSkyline(ref, r), fmt.Sprintf("final q=%d %v", q, r))
	}
}

// TestConcurrentOverlappingApply pins the presence-check-first batch
// fan-out: two goroutines Apply batches that delete the SAME victim set
// (and each insert a private fresh pool) on a sharded mirrored DB. The
// primary engine serializes per shard and resolves every contended
// point to exactly one caller, so the planner fans disjoint confirmed
// subsets out to the mirror — no spurious "backends disagree"
// corruption errors, removed subsets that partition the victims, and a
// final state byte-identical to the oracle.
func TestConcurrentOverlappingApply(t *testing.T) {
	const n, nVictims, nFresh = 800, 300, 40
	span := geom.Coord(n * 16)
	all := geom.GenUniform(n+2*nFresh, span, 2500)
	pts, fresh := all[:n], all[n:]
	geom.SortByX(pts)
	db, err := core.Open(core.Options{Machine: diffCfg, Dynamic: true, Shards: 4, Workers: 4, Mirrors: true}, pts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2501))
	perm := rng.Perm(n)[:nVictims]
	victims := make([]geom.Point, nVictims)
	for i, j := range perm {
		victims[i] = pts[j]
	}
	var wg sync.WaitGroup
	removed := make([][]geom.Point, 2)
	errs := make([]error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			removed[g], errs[g] = db.Apply(victims, fresh[g*nFresh:(g+1)*nFresh])
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: Apply error: %v", g, err)
		}
	}
	dead := make(map[geom.Point]bool, nVictims)
	for _, rm := range removed {
		for _, p := range rm {
			if dead[p] {
				t.Fatalf("%v removed by both callers", p)
			}
			dead[p] = true
		}
	}
	if len(dead) != nVictims {
		t.Fatalf("removed subsets cover %d of %d victims", len(dead), nVictims)
	}
	ref := append([]geom.Point(nil), fresh...)
	for _, p := range pts {
		if !dead[p] {
			ref = append(ref, p)
		}
	}
	if db.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", db.Len(), len(ref))
	}
	for q := 0; q < 40; q++ {
		r := randMirrorFamily(rng, span)
		diffPoints(t, db.RangeSkyline(r), naiveRangeSkyline(ref, r), fmt.Sprintf("q=%d %v", q, r))
	}
}

// randAnyShape draws from every Figure-2 shape plus the general 4-sided
// rectangle: the full query surface the read-through cache must keep
// byte-identical to the uncached engines.
func randAnyShape(rng *rand.Rand, span geom.Coord) geom.Rect {
	x1 := rng.Int63n(span)
	x2 := x1 + rng.Int63n(span/2+1)
	y1 := rng.Int63n(span)
	y2 := y1 + rng.Int63n(span/2+1)
	switch rng.Intn(9) {
	case 0:
		return geom.TopOpen(x1, x2, y1)
	case 1:
		return geom.RightOpen(x1, y1, y2)
	case 2:
		return geom.BottomOpen(x1, x2, y2)
	case 3:
		return geom.LeftOpen(x2, y1, y2)
	case 4:
		return geom.Dominance(x1, y1)
	case 5:
		return geom.AntiDominance(x2, y2)
	case 6:
		return geom.Contour(x2)
	case 7:
		return geom.Rect{X1: geom.NegInf, X2: geom.PosInf, Y1: geom.NegInf, Y2: geom.PosInf}
	default:
		return geom.Rect{X1: x1, X2: x2, Y1: y1, Y2: y2}
	}
}

// TestDifferentialCache drives mixed workloads against cached and
// uncached DBs side by side — unsharded, sharded, and sharded+mirrored,
// all dynamic — cross-checking every answer against the uncached DB and
// the O(n²) oracle across all seven Figure-2 shapes. Queries are drawn
// from a recurring pool so the cache actually serves hits, and updates
// (single and batched, hits and misses) run between query rounds so
// invalidation is exercised on every configuration.
func TestDifferentialCache(t *testing.T) {
	configs := []struct {
		name string
		opts core.Options
	}{
		{"unsharded", core.Options{Machine: diffCfg, Dynamic: true, CacheEntries: 32}},
		{"sharded", core.Options{Machine: diffCfg, Dynamic: true, Shards: 4, Workers: 3, CacheEntries: 32}},
		{"sharded-mirrored", core.Options{Machine: diffCfg, Dynamic: true, Shards: 4, Workers: 3, Mirrors: true, CacheEntries: 32}},
	}
	const n, extra = 200, 160
	span := geom.Coord((n + extra) * 16)
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					all := geom.GenUniform(n+extra, span, seed+3100)
					base := append([]geom.Point(nil), all[:n]...)
					pool := append([]geom.Point(nil), all[n:]...)
					geom.SortByX(base)
					uncachedOpts := cfg.opts
					uncachedOpts.CacheEntries = 0
					plain, err := core.Open(uncachedOpts, base)
					if err != nil {
						t.Fatal(err)
					}
					cached, err := core.Open(cfg.opts, base)
					if err != nil {
						t.Fatal(err)
					}
					if cached.Cache() == nil {
						t.Fatal("core.Open(CacheEntries: 32) did not build a cache")
					}
					ref := append([]geom.Point(nil), base...)

					rng := rand.New(rand.NewSource(seed + 31))
					// A recurring pool of rectangles, refreshed slowly, so
					// repeats hit the cache while updates invalidate.
					qpool := make([]geom.Rect, 12)
					for i := range qpool {
						qpool[i] = randAnyShape(rng, span)
					}
					for op := 0; op < 160; op++ {
						ctx := fmt.Sprintf("%s seed=%d op=%d", cfg.name, seed, op)
						switch rng.Intn(12) {
						case 0: // single insert
							if len(pool) == 0 {
								continue
							}
							p := pool[len(pool)-1]
							pool = pool[:len(pool)-1]
							if err := plain.Insert(p); err != nil {
								t.Fatalf("%s: %v", ctx, err)
							}
							if err := cached.Insert(p); err != nil {
								t.Fatalf("%s: %v", ctx, err)
							}
							ref = append(ref, p)
						case 1: // batch insert
							if len(pool) < 2 {
								continue
							}
							k := 1 + rng.Intn(len(pool)/2)
							batch := append([]geom.Point(nil), pool[:k]...)
							pool = pool[k:]
							if err := plain.BatchInsert(batch); err != nil {
								t.Fatalf("%s: %v", ctx, err)
							}
							if err := cached.BatchInsert(batch); err != nil {
								t.Fatalf("%s: %v", ctx, err)
							}
							ref = append(ref, batch...)
						case 2, 3: // single delete (sometimes a miss)
							if rng.Intn(4) == 0 || len(ref) == 0 {
								absent := geom.Point{X: span + geom.Coord(op) + 1, Y: span + geom.Coord(op) + 1}
								if ok, err := cached.Delete(absent); ok || err != nil {
									t.Fatalf("%s: Delete(absent) = %t, %v", ctx, ok, err)
								}
								if ok, err := plain.Delete(absent); ok || err != nil {
									t.Fatalf("%s: Delete(absent) = %t, %v", ctx, ok, err)
								}
								continue
							}
							j := rng.Intn(len(ref))
							p := ref[j]
							for _, db := range []*core.DB{plain, cached} {
								if ok, err := db.Delete(p); err != nil || !ok {
									t.Fatalf("%s: Delete(%v) = %t, %v", ctx, p, ok, err)
								}
							}
							ref = append(ref[:j], ref[j+1:]...)
						case 4: // batch delete with dup + absentee
							if len(ref) < 4 {
								continue
							}
							k := 1 + rng.Intn(len(ref)/2)
							perm := rng.Perm(len(ref))[:k]
							sort.Ints(perm)
							var batch []geom.Point
							for _, j := range perm {
								batch = append(batch, ref[j])
							}
							for i := len(perm) - 1; i >= 0; i-- {
								j := perm[i]
								ref = append(ref[:j], ref[j+1:]...)
							}
							want := len(batch)
							batch = append(batch, batch[0],
								geom.Point{X: span + geom.Coord(op) + 1, Y: span + geom.Coord(op) + 1})
							for _, db := range []*core.DB{plain, cached} {
								if got, err := db.BatchDelete(batch); err != nil || got != want {
									t.Fatalf("%s: BatchDelete = %d, %v; want %d", ctx, got, err, want)
								}
							}
						default: // query, mostly from the recurring pool
							var q geom.Rect
							if rng.Intn(4) == 0 {
								q = randAnyShape(rng, span)
								qpool[rng.Intn(len(qpool))] = q
							} else {
								q = qpool[rng.Intn(len(qpool))]
							}
							want := naiveRangeSkyline(ref, q)
							diffPoints(t, plain.RangeSkyline(q), want, ctx+fmt.Sprintf(" %v uncached", q))
							diffPoints(t, cached.RangeSkyline(q), want, ctx+fmt.Sprintf(" %v cached", q))
						}
					}
					if cached.Len() != len(ref) || plain.Len() != len(ref) {
						t.Fatalf("%s seed=%d: Len cached=%d plain=%d, want %d",
							cfg.name, seed, cached.Len(), plain.Len(), len(ref))
					}
					ctr := cached.Cache().Counters()
					if ctr.Hits == 0 {
						t.Fatalf("%s seed=%d: cache served no hits (counters %+v)", cfg.name, seed, ctr)
					}
				})
			}
		})
	}
}

// TestCacheRaceStress is the -race mix the cache's fill guard exists
// for: concurrent readers hammering a fixed rectangle pool (so entries
// are repeatedly filled and hit) while writers invalidate with single
// and batched updates and a poller reads counters. Each writer reads
// its own writes: right after an insert or delete returns it queries
// the point-sized rectangle of every point it wrote and must see the
// point present or absent — the eviction sweep completes before Apply
// returns. Mid-flight answers are checked structurally; after
// quiescence the exact pool rectangles — the entries most likely to
// have cached a stale fill — are verified against the oracle.
func TestCacheRaceStress(t *testing.T) {
	const (
		nBase      = 800
		perUpdater = 200
		nQueriers  = 4
		queries    = 200
	)
	span := geom.Coord((nBase + 2*perUpdater) * 16)
	all := geom.GenUniform(nBase+2*perUpdater, span, 4100)
	base := append([]geom.Point(nil), all[:nBase]...)
	geom.SortByX(base)
	db, err := core.Open(core.Options{
		Machine: diffCfg, Dynamic: true, Shards: 4, Workers: 4, Mirrors: true, CacheEntries: 48,
	}, base)
	if err != nil {
		t.Fatal(err)
	}
	prng := rand.New(rand.NewSource(4101))
	qpool := make([]geom.Rect, 32)
	for i := range qpool {
		qpool[i] = randAnyShape(prng, span)
	}

	// sees reports whether p's point-sized rectangle answers p alone
	// (present) or nothing (absent); any other answer is an error.
	sees := func(p geom.Point, present bool) bool {
		got := db.RangeSkyline(geom.Rect{X1: p.X, X2: p.X, Y1: p.Y, Y2: p.Y})
		if present {
			return len(got) == 1 && got[0] == p
		}
		return len(got) == 0
	}
	var wg sync.WaitGroup
	for u := 0; u < 2; u++ {
		pool := all[nBase+u*perUpdater : nBase+(u+1)*perUpdater]
		batched := u == 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			if batched {
				const chunk = 40
				for lo := 0; lo < len(pool); lo += chunk {
					hi := lo + chunk
					if hi > len(pool) {
						hi = len(pool)
					}
					if err := db.BatchInsert(pool[lo:hi]); err != nil {
						t.Error(err)
						return
					}
					for _, p := range pool[lo:hi] {
						if !sees(p, true) {
							t.Errorf("inserted %v not visible after BatchInsert returned", p)
							return
						}
					}
				}
				var victims []geom.Point
				for i := 1; i < len(pool); i += 2 {
					victims = append(victims, pool[i])
				}
				// Delete in chunks small enough that the victims' own
				// rectangles, read just before, are still cached.
				for lo := 0; lo < len(victims); lo += chunk / 4 {
					batch := victims[lo:min(lo+chunk/4, len(victims))]
					for _, p := range batch {
						if !sees(p, true) {
							t.Errorf("live %v not visible before BatchDelete", p)
							return
						}
					}
					if got, err := db.BatchDelete(batch); err != nil || got != len(batch) {
						t.Errorf("BatchDelete = %d, %v; want %d", got, err, len(batch))
						return
					}
					for _, p := range batch {
						if !sees(p, false) {
							t.Errorf("deleted %v still visible after BatchDelete returned", p)
							return
						}
					}
				}
			} else {
				for _, p := range pool {
					if err := db.Insert(p); err != nil {
						t.Error(err)
						return
					}
					if !sees(p, true) {
						t.Errorf("inserted %v not visible after Insert returned", p)
						return
					}
				}
				for i := 1; i < len(pool); i += 2 {
					if !sees(pool[i], true) {
						t.Errorf("live %v not visible before Delete", pool[i])
						return
					}
					if ok, err := db.Delete(pool[i]); err != nil || !ok {
						t.Errorf("Delete(%v) = %t, %v", pool[i], ok, err)
						return
					}
					if !sees(pool[i], false) {
						t.Errorf("deleted %v still visible after Delete returned", pool[i])
						return
					}
				}
			}
		}()
	}
	for g := 0; g < nQueriers; g++ {
		seed := int64(g + 4200)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < queries; q++ {
				r := qpool[rng.Intn(len(qpool))]
				sky := db.RangeSkyline(r)
				for i, p := range sky {
					if !r.Contains(p) {
						t.Errorf("query %d: %v outside %v", q, p, r)
						return
					}
					if i > 0 && (sky[i-1].X >= p.X || sky[i-1].Y <= p.Y) {
						t.Errorf("query %d: not a staircase at %d: %v, %v", q, i, sky[i-1], p)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			_ = db.Cache().Counters()
			_ = db.Cache().Len()
			_ = db.Stats()
			_ = db.Len()
		}
	}()
	wg.Wait()

	ref := append([]geom.Point(nil), base...)
	for u := 0; u < 2; u++ {
		pool := all[nBase+u*perUpdater : nBase+(u+1)*perUpdater]
		for i := 0; i < len(pool); i += 2 {
			ref = append(ref, pool[i])
		}
	}
	if db.Len() != len(ref) {
		t.Fatalf("final Len = %d, want %d", db.Len(), len(ref))
	}
	// The pool rectangles are exactly the entries that could have
	// cached a stale fill during the race; each must now answer
	// byte-identically to the oracle (a hit on a poisoned entry would
	// differ).
	for i, r := range qpool {
		diffPoints(t, db.RangeSkyline(r), naiveRangeSkyline(ref, r), fmt.Sprintf("pool q=%d %v", i, r))
	}
	if ctr := db.Cache().Counters(); ctr.Hits == 0 || ctr.Invalidations == 0 {
		t.Fatalf("stress exercised no cache traffic: counters %+v", ctr)
	}
}

// TestDifferentialQueue drives the asynchronous write queue
// (core.Options.AsyncWrites) against a synchronous twin DB and the
// O(n²) oracle across every configuration axis — unsharded, sharded,
// sharded+mirrored, sharded+mirrored+cached — and all seven Figure-2
// shapes. Writes mix singles, batches, misses and coalescing
// insert/delete pairs; every query must be byte-identical to both
// references, and — the delete-aware visibility rule — a point whose
// delete is still buffered must already be invisible to the very next
// read. FlushPoints is small enough that size-triggered drains
// interleave with drain-on-read; the background drainer is disabled so
// failures replay deterministically by seed.
func TestDifferentialQueue(t *testing.T) {
	configs := []struct {
		name string
		opts core.Options
	}{
		{"unsharded", core.Options{Machine: diffCfg, Dynamic: true}},
		{"sharded", core.Options{Machine: diffCfg, Dynamic: true, Shards: 4, Workers: 3}},
		{"sharded-mirrored", core.Options{Machine: diffCfg, Dynamic: true, Shards: 4, Workers: 3, Mirrors: true}},
		{"sharded-mirrored-cached", core.Options{Machine: diffCfg, Dynamic: true, Shards: 4, Workers: 3, Mirrors: true, CacheEntries: 32}},
	}
	const n, extra = 180, 200
	span := geom.Coord((n + extra) * 16)
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					all := geom.GenUniform(n+extra, span, seed+5100)
					base := append([]geom.Point(nil), all[:n]...)
					pool := append([]geom.Point(nil), all[n:]...)
					geom.SortByX(base)
					syncDB, err := core.Open(cfg.opts, base)
					if err != nil {
						t.Fatal(err)
					}
					asyncOpts := cfg.opts
					asyncOpts.AsyncWrites = true
					asyncOpts.FlushPoints = 16
					asyncOpts.FlushInterval = -1
					queued, err := core.Open(asyncOpts, base)
					if err != nil {
						t.Fatal(err)
					}
					if queued.Queue() == nil {
						t.Fatal("core.Open(AsyncWrites) built no queue")
					}
					ref := append([]geom.Point(nil), base...)

					// checkGone asserts the delete-before-drain rule: a
					// just-deleted point must not be visible as live,
					// buffered or not.
					checkGone := func(ctx string, p geom.Point) {
						t.Helper()
						probe := geom.Rect{X1: p.X, X2: p.X, Y1: p.Y, Y2: p.Y}
						if got := queued.RangeSkyline(probe); len(got) != 0 {
							t.Fatalf("%s: buffered-deleted %v still visible: %v", ctx, p, got)
						}
					}

					rng := rand.New(rand.NewSource(seed + 41))
					qpool := make([]geom.Rect, 12)
					for i := range qpool {
						qpool[i] = randAnyShape(rng, span)
					}
					for op := 0; op < 170; op++ {
						ctx := fmt.Sprintf("%s seed=%d op=%d", cfg.name, seed, op)
						switch rng.Intn(14) {
						case 0, 1: // single insert
							if len(pool) == 0 {
								continue
							}
							p := pool[len(pool)-1]
							pool = pool[:len(pool)-1]
							for _, db := range []*core.DB{syncDB, queued} {
								if err := db.Insert(p); err != nil {
									t.Fatalf("%s: %v", ctx, err)
								}
							}
							ref = append(ref, p)
						case 2: // batch insert
							if len(pool) < 2 {
								continue
							}
							k := 1 + rng.Intn(len(pool)/2)
							batch := append([]geom.Point(nil), pool[:k]...)
							pool = pool[k:]
							for _, db := range []*core.DB{syncDB, queued} {
								if err := db.BatchInsert(batch); err != nil {
									t.Fatalf("%s: %v", ctx, err)
								}
							}
							ref = append(ref, batch...)
						case 3, 4: // single delete: hit, or a guaranteed miss
							if rng.Intn(4) == 0 || len(ref) == 0 {
								absent := geom.Point{X: span + geom.Coord(op) + 1, Y: span + geom.Coord(op) + 1}
								if ok, err := syncDB.Delete(absent); ok || err != nil {
									t.Fatalf("%s: sync Delete(absent) = %t, %v", ctx, ok, err)
								}
								// The queue ACCEPTS the miss; it must
								// resolve to nothing at drain.
								if ok, err := queued.Delete(absent); !ok || err != nil {
									t.Fatalf("%s: queued Delete(absent) = %t, %v", ctx, ok, err)
								}
								continue
							}
							j := rng.Intn(len(ref))
							p := ref[j]
							ref = append(ref[:j], ref[j+1:]...)
							for i, db := range []*core.DB{syncDB, queued} {
								if ok, err := db.Delete(p); !ok || err != nil {
									t.Fatalf("%s: db%d.Delete(%v) = %t, %v", ctx, i, p, ok, err)
								}
							}
							checkGone(ctx, p)
						case 5: // batch delete with dup + absentee
							if len(ref) < 4 {
								continue
							}
							k := 1 + rng.Intn(len(ref)/2)
							perm := rng.Perm(len(ref))[:k]
							sort.Ints(perm)
							var batch []geom.Point
							for _, j := range perm {
								batch = append(batch, ref[j])
							}
							for i := len(perm) - 1; i >= 0; i-- {
								j := perm[i]
								ref = append(ref[:j], ref[j+1:]...)
							}
							want := len(batch)
							batch = append(batch, batch[0],
								geom.Point{X: span + geom.Coord(op) + 1, Y: span + geom.Coord(op) + 1})
							if got, err := syncDB.BatchDelete(batch); err != nil || got != want {
								t.Fatalf("%s: sync BatchDelete = %d, %v; want %d", ctx, got, err, want)
							}
							// The queue reports the ACCEPTED batch size;
							// the dup and the absentee resolve to nothing.
							if got, err := queued.BatchDelete(batch); err != nil || got != len(batch) {
								t.Fatalf("%s: queued BatchDelete = %d, %v; want accepted %d", ctx, got, err, len(batch))
							}
							checkGone(ctx, batch[0])
						case 6: // coalescing pair: insert fresh, delete at once
							if len(pool) == 0 {
								continue
							}
							p := pool[len(pool)-1]
							pool = pool[:len(pool)-1]
							for i, db := range []*core.DB{syncDB, queued} {
								if err := db.Insert(p); err != nil {
									t.Fatalf("%s: db%d insert: %v", ctx, i, err)
								}
								if ok, err := db.Delete(p); !ok || err != nil {
									t.Fatalf("%s: db%d.Delete(%v) = %t, %v", ctx, i, p, ok, err)
								}
							}
							checkGone(ctx, p)
						case 7: // explicit flush + exact length
							if err := queued.Flush(); err != nil {
								t.Fatalf("%s: %v", ctx, err)
							}
							if got := queued.Len(); got != len(ref) {
								t.Fatalf("%s: Len = %d, want %d", ctx, got, len(ref))
							}
						default: // query, mostly from the recurring pool
							var q geom.Rect
							if rng.Intn(4) == 0 {
								q = randAnyShape(rng, span)
								qpool[rng.Intn(len(qpool))] = q
							} else {
								q = qpool[rng.Intn(len(qpool))]
							}
							want := naiveRangeSkyline(ref, q)
							fromSync := syncDB.RangeSkyline(q)
							diffPoints(t, fromSync, want, ctx+fmt.Sprintf(" %v sync", q))
							diffPoints(t, queued.RangeSkyline(q), fromSync, ctx+fmt.Sprintf(" %v queued vs sync", q))
						}
					}
					if err := queued.Flush(); err != nil {
						t.Fatal(err)
					}
					if queued.Len() != len(ref) || syncDB.Len() != len(ref) {
						t.Fatalf("%s seed=%d: Len queued=%d sync=%d, want %d",
							cfg.name, seed, queued.Len(), syncDB.Len(), len(ref))
					}
					ctr := queued.QueueCounters()
					if ctr.Enqueued == 0 || ctr.Drained == 0 {
						t.Fatalf("%s seed=%d: queue never exercised: %+v", cfg.name, seed, ctr)
					}
					if ctr.Enqueued != ctr.Drained+ctr.Coalesced {
						t.Fatalf("%s seed=%d: quiescent invariant violated: %+v", cfg.name, seed, ctr)
					}
					if err := queued.Close(); err != nil {
						t.Fatal(err)
					}
					// A closed index still answers, from fully-applied
					// state.
					for i := 0; i < 5; i++ {
						q := qpool[i]
						diffPoints(t, queued.RangeSkyline(q), naiveRangeSkyline(ref, q),
							fmt.Sprintf("%s seed=%d post-close %v", cfg.name, seed, q))
					}
				})
			}
		})
	}
}

// TestQueueRaceStress is the -race mix the queue's drain locking exists
// for: concurrent readers racing the background drainer (FlushInterval
// 1ms) and two writers on a sharded+mirrored+cached async DB. Phase 1
// races structural-only readers against in-flight writes; once the
// writers have issued every delete (a happens-before edge via channel
// close), phase 2 readers assert the victims NEVER resurface — a
// drained delete must stay drained, and a buffered one must hide behind
// drain-on-read — while timer drains, flushing Len reads and cache
// fills keep running. After quiescence the full point set is verified
// against the oracle.
func TestQueueRaceStress(t *testing.T) {
	const (
		nBase      = 700
		perUpdater = 200
		nQueriers  = 4
		queries    = 120
	)
	span := geom.Coord((nBase + 2*perUpdater) * 16)
	all := geom.GenUniform(nBase+2*perUpdater, span, 7100)
	base := append([]geom.Point(nil), all[:nBase]...)
	geom.SortByX(base)
	db, err := core.Open(core.Options{
		Machine: diffCfg, Dynamic: true, Shards: 4, Workers: 4, Mirrors: true,
		CacheEntries: 32, AsyncWrites: true, FlushPoints: 16,
		FlushInterval: time.Millisecond,
	}, base)
	if err != nil {
		t.Fatal(err)
	}
	victims := make(map[geom.Point]bool)
	for u := 0; u < 2; u++ {
		pool := all[nBase+u*perUpdater : nBase+(u+1)*perUpdater]
		for i := 1; i < len(pool); i += 2 {
			victims[pool[i]] = true
		}
	}
	deleted := make(chan struct{}) // closed when every victim's delete was accepted
	prng := rand.New(rand.NewSource(7101))
	qpool := make([]geom.Rect, 24)
	for i := range qpool {
		qpool[i] = randAnyShape(prng, span)
	}

	var wg sync.WaitGroup
	var deletersDone sync.WaitGroup
	for u := 0; u < 2; u++ {
		pool := all[nBase+u*perUpdater : nBase+(u+1)*perUpdater]
		batched := u == 0
		wg.Add(1)
		deletersDone.Add(1)
		go func() {
			defer wg.Done()
			defer deletersDone.Done()
			if batched {
				const chunk = 40
				for lo := 0; lo < len(pool); lo += chunk {
					hi := lo + chunk
					if hi > len(pool) {
						hi = len(pool)
					}
					if err := db.BatchInsert(pool[lo:hi]); err != nil {
						t.Error(err)
						return
					}
				}
				var vs []geom.Point
				for i := 1; i < len(pool); i += 2 {
					vs = append(vs, pool[i])
				}
				if got, err := db.BatchDelete(vs); err != nil || got != len(vs) {
					t.Errorf("BatchDelete = %d, %v; want accepted %d", got, err, len(vs))
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
						return
					}
				}
			}
		}()
	}
	go func() {
		deletersDone.Wait()
		close(deleted)
	}()
	for g := 0; g < nQueriers; g++ {
		seed := int64(g + 7200)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			checkVictims := false
			for q := 0; q < queries; q++ {
				select {
				case <-deleted:
					checkVictims = true
				default:
				}
				r := qpool[rng.Intn(len(qpool))]
				sky := db.RangeSkyline(r)
				for i, p := range sky {
					if !r.Contains(p) {
						t.Errorf("query %d: %v outside %v", q, p, r)
						return
					}
					if i > 0 && (sky[i-1].X >= p.X || sky[i-1].Y <= p.Y) {
						t.Errorf("query %d: not a staircase at %d: %v, %v", q, i, sky[i-1], p)
						return
					}
					if checkVictims && victims[p] {
						t.Errorf("query %d: deleted point %v resurfaced in %v", q, p, r)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = db.Len() // a flushing read racing the timer drains
			_ = db.QueueCounters()
			_ = db.Stats()
		}
	}()
	wg.Wait()

	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	ref := append([]geom.Point(nil), base...)
	for u := 0; u < 2; u++ {
		pool := all[nBase+u*perUpdater : nBase+(u+1)*perUpdater]
		for i := 0; i < len(pool); i += 2 {
			ref = append(ref, pool[i])
		}
	}
	if db.Len() != len(ref) {
		t.Fatalf("final Len = %d, want %d", db.Len(), len(ref))
	}
	rng := rand.New(rand.NewSource(7102))
	for q := 0; q < 40; q++ {
		r := randAnyShape(rng, span)
		diffPoints(t, db.RangeSkyline(r), naiveRangeSkyline(ref, r), fmt.Sprintf("final q=%d %v", q, r))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if ctr := db.QueueCounters(); ctr.Enqueued != ctr.Drained+ctr.Coalesced {
		t.Fatalf("quiescent invariant violated after Close: %+v", ctr)
	}
}
