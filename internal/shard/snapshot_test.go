package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// TestSnapshotFrozenAnswers pins a dynamic sharded engine and asserts
// the pinned view keeps answering both query families byte-identically
// to the oracle frozen at the pin while the live engine absorbs
// inserts and deletes of pinned points — then that Release returns
// every retention and deferred block.
func TestSnapshotFrozenAnswers(t *testing.T) {
	const n = 500
	span := geom.Coord(n * 16)
	all := geom.GenUniform(n+150, span, 5100)
	pts := append([]geom.Point(nil), all[:n]...)
	pool := all[n:]
	geom.SortByX(pts)

	eng, err := New(Options{Machine: testCfg, Shards: 4, Workers: 2, Dynamic: true}, pts)
	if err != nil {
		t.Fatal(err)
	}
	v, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sv := v.(*Snapshot)
	frozen := append([]geom.Point(nil), pts...)
	if sv.Len() != len(frozen) {
		t.Fatalf("Len() = %d, want %d", sv.Len(), len(frozen))
	}
	if eng.Retained() == 0 {
		t.Fatal("Retained() = 0 with a pinned snapshot open")
	}

	rng := rand.New(rand.NewSource(51))
	check := func(stage string) {
		t.Helper()
		for i := 0; i < 25; i++ {
			x1, x2, beta := randTopOpen(rng, span)
			samePoints(t, sv.TopOpen(x1, x2, beta),
				geom.RangeSkyline(frozen, geom.TopOpen(x1, x2, beta)),
				fmt.Sprintf("%s topopen %d", stage, i))
			y1 := rng.Int63n(span)
			q := geom.Rect{X1: rng.Int63n(span), X2: rng.Int63n(span), Y1: y1, Y2: y1 + rng.Int63n(span/2+1)}
			if q.X1 > q.X2 {
				q.X1, q.X2 = q.X2, q.X1
			}
			samePoints(t, sv.FourSided(q), geom.RangeSkyline(frozen, q),
				fmt.Sprintf("%s foursided %d", stage, i))
			samePoints(t, sv.RangeSkyline(q), geom.RangeSkyline(frozen, q),
				fmt.Sprintf("%s routed %d", stage, i))
		}
		// Degenerate rectangles answer empty without fanning out.
		if got := sv.TopOpen(10, 5, 0); got != nil {
			t.Fatalf("%s: inverted x range answered %v", stage, got)
		}
		if got := sv.FourSided(geom.Rect{X1: 0, X2: span, Y1: 10, Y2: 5}); got != nil {
			t.Fatalf("%s: inverted y range answered %v", stage, got)
		}
	}
	check("at pin")

	// Mutate the live engine: fresh inserts plus deletes of pinned
	// points, so live rebuilds retire spans the snapshot references.
	for _, p := range pool {
		if err := eng.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	victims := append([]geom.Point(nil), frozen[:60]...)
	if removed, err := eng.Apply(victims, nil); err != nil || len(removed) != len(victims) {
		t.Fatalf("Apply(deletes) = %d, %v", len(removed), err)
	}
	check("after live updates")
	if eng.DeferredBlocks() == 0 {
		t.Fatal("deleting pinned points deferred no blocks — retention not holding")
	}

	sv.Release()
	sv.Release() // idempotent
	if got := eng.Retained(); got != 0 {
		t.Fatalf("Retained() = %d after release", got)
	}
	if got := eng.DeferredBlocks(); got != 0 {
		t.Fatalf("DeferredBlocks() = %d after release — spans leaked", got)
	}

	// The live engine itself was never frozen.
	live := append(append([]geom.Point(nil), frozen[60:]...), pool...)
	q := geom.TopOpen(geom.NegInf, geom.PosInf, geom.NegInf)
	samePoints(t, eng.TopOpen(q.X1, q.X2, q.Y1), geom.RangeSkyline(live, q), "live after release")
}

// TestSnapshotStaticEngine pins a static (Dynamic: false) engine, at
// one shard and at four: the per-shard Theorem 1 indexes are immutable,
// so the handle is the index itself and only the retention machinery
// engages — one retention per shard disk, all dropped by Release.
func TestSnapshotStaticEngine(t *testing.T) {
	const n = 300
	span := geom.Coord(n * 16)
	pts := geom.GenUniform(n, span, 5200)
	geom.SortByX(pts)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eng, err := New(Options{Machine: testCfg, Shards: shards, Dynamic: false}, pts)
			if err != nil {
				t.Fatal(err)
			}
			cuts := eng.Cuts()
			if len(cuts) != shards-1 {
				t.Fatalf("Cuts() = %v, want %d cuts", cuts, shards-1)
			}
			for i := 1; i < len(cuts); i++ {
				if cuts[i-1] >= cuts[i] {
					t.Fatalf("Cuts() not strictly increasing: %v", cuts)
				}
			}
			v, err := eng.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if got := eng.Retained(); got != shards {
				t.Fatalf("Retained() = %d while pinned, want %d", got, shards)
			}
			sv := v.(*Snapshot)
			rng := rand.New(rand.NewSource(52))
			for i := 0; i < 25; i++ {
				x1, x2, beta := randTopOpen(rng, span)
				samePoints(t, sv.TopOpen(x1, x2, beta),
					geom.RangeSkyline(pts, geom.TopOpen(x1, x2, beta)),
					fmt.Sprintf("static topopen %d", i))
			}
			sv.Release()
			if got := eng.Retained(); got != 0 {
				t.Fatalf("Retained() = %d after release", got)
			}
		})
	}
}

// TestSnapshotTopOnly pins a TopOnly engine: the top-open family works,
// and a 4-sided query panics exactly like the live engine's would.
func TestSnapshotTopOnly(t *testing.T) {
	pts := geom.GenUniform(200, 3200, 5300)
	geom.SortByX(pts)
	eng, err := New(Options{Machine: testCfg, Shards: 3, Dynamic: true, TopOnly: true}, pts)
	if err != nil {
		t.Fatal(err)
	}
	v, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sv := v.(*Snapshot)
	defer sv.Release()
	samePoints(t, sv.TopOpen(geom.NegInf, geom.PosInf, geom.NegInf),
		geom.RangeSkyline(pts, geom.TopOpen(geom.NegInf, geom.PosInf, geom.NegInf)), "toponly")
	defer func() {
		if recover() == nil {
			t.Fatal("FourSided on a TopOnly snapshot should panic")
		}
	}()
	sv.FourSided(geom.Rect{X1: 0, X2: 100, Y1: 0, Y2: 100})
}
