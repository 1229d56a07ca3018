package shard

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
)

// TestConcurrentQueryUpdateStress runs 4 concurrent queriers against 2
// concurrent updaters (plus a stats poller) on one engine. It is the
// test the CI race job exists for: under -race it proves the shard
// mutexes and the guarded disks fence every shared access. Queriers
// check structural sanity of every answer (a linearizable snapshot
// cannot be pinned down mid-update); full answers are verified against
// the oracle once the updaters are done.
func TestConcurrentQueryUpdateStress(t *testing.T) {
	const (
		nBase      = 1200
		perUpdater = 300
		nQueriers  = 4
		nUpdaters  = 2
		queries    = 250
	)
	span := geom.Coord((nBase + nUpdaters*perUpdater) * 16)
	all := geom.GenUniform(nBase+nUpdaters*perUpdater, span, 99)
	base := append([]geom.Point(nil), all[:nBase]...)
	geom.SortByX(base)
	eng, err := New(Options{Machine: testCfg, Shards: 4, Workers: 4, Dynamic: true}, base)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	// Updaters own disjoint point pools, so general position holds no
	// matter how their operations interleave. Each inserts its whole
	// pool, then deletes the odd-indexed half.
	for u := 0; u < nUpdaters; u++ {
		pool := all[nBase+u*perUpdater : nBase+(u+1)*perUpdater]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range pool {
				if err := eng.Insert(p); err != nil {
					t.Error(err)
					return
				}
			}
			for i := 1; i < len(pool); i += 2 {
				if ok, err := eng.Delete(pool[i]); err != nil || !ok {
					t.Errorf("Delete(%v) = %t, %v", pool[i], ok, err)
					return
				}
			}
		}()
	}
	for g := 0; g < nQueriers; g++ {
		seed := int64(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < queries; q++ {
				x1, x2, beta := randTopOpen(rng, span)
				sky := eng.TopOpen(x1, x2, beta)
				r := geom.TopOpen(x1, x2, beta)
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
	// A poller reads the atomic aggregates while everything runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			_ = eng.Stats()
			_ = eng.Counters()
			_ = eng.Len()
		}
	}()
	wg.Wait()

	// Quiesced: the surviving set is base + even-indexed pool points.
	ref := append([]geom.Point(nil), base...)
	for u := 0; u < nUpdaters; u++ {
		pool := all[nBase+u*perUpdater : nBase+(u+1)*perUpdater]
		for i := 0; i < len(pool); i += 2 {
			ref = append(ref, pool[i])
		}
	}
	if eng.Len() != len(ref) {
		t.Fatalf("final Len = %d, want %d", eng.Len(), len(ref))
	}
	rng := rand.New(rand.NewSource(123))
	for q := 0; q < 40; q++ {
		x1, x2, beta := randTopOpen(rng, span)
		got := eng.TopOpen(x1, x2, beta)
		want := geom.RangeSkyline(ref, geom.TopOpen(x1, x2, beta))
		samePoints(t, got, want, "final q="+itoa(q))
	}
}

// TestConcurrentFourSidedBatchStress races 4-sided-family queriers
// against batched updaters: two goroutines BatchInsert disjoint pools
// and delete half of them back, while four queriers issue mixed
// top-open and 4-sided queries and a poller reads the aggregates. Under
// -race this proves the per-shard foursided structures and the batched
// per-shard grouping share no unfenced state. Full answers are verified
// against the oracle after quiescence.
func TestConcurrentFourSidedBatchStress(t *testing.T) {
	const (
		nBase      = 1000
		perUpdater = 300
		nQueriers  = 4
		nUpdaters  = 2
		queries    = 200
	)
	span := geom.Coord((nBase + nUpdaters*perUpdater) * 16)
	all := geom.GenUniform(nBase+nUpdaters*perUpdater, span, 131)
	base := append([]geom.Point(nil), all[:nBase]...)
	geom.SortByX(base)
	eng, err := New(Options{Machine: testCfg, Shards: 4, Workers: 4, Dynamic: true}, base)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	// Updaters batch-load disjoint pools in slices, then batch-delete
	// the odd-indexed half.
	for u := 0; u < nUpdaters; u++ {
		pool := all[nBase+u*perUpdater : nBase+(u+1)*perUpdater]
		wg.Add(1)
		go func() {
			defer wg.Done()
			const chunk = 64
			for lo := 0; lo < len(pool); lo += chunk {
				hi := lo + chunk
				if hi > len(pool) {
					hi = len(pool)
				}
				if err := eng.BatchInsert(pool[lo:hi]); err != nil {
					t.Error(err)
					return
				}
			}
			var victims []geom.Point
			for i := 1; i < len(pool); i += 2 {
				victims = append(victims, pool[i])
			}
			got, err := eng.Apply(victims, nil)
			if err != nil || len(got) != len(victims) {
				t.Errorf("Apply(deletes) = %d, %v; want %d", len(got), err, len(victims))
			}
		}()
	}
	for g := 0; g < nQueriers; g++ {
		seed := int64(g + 1000)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < queries; q++ {
				var r geom.Rect
				if q%2 == 0 {
					r = randFourSided(rng, span)
				} else {
					x1, x2, beta := randTopOpen(rng, span)
					r = geom.TopOpen(x1, x2, beta)
				}
				sky := eng.RangeSkyline(r)
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
		for i := 0; i < 500; i++ {
			_ = eng.Stats()
			_ = eng.Counters()
			_ = eng.Len()
		}
	}()
	wg.Wait()

	ref := append([]geom.Point(nil), base...)
	for u := 0; u < nUpdaters; u++ {
		pool := all[nBase+u*perUpdater : nBase+(u+1)*perUpdater]
		for i := 0; i < len(pool); i += 2 {
			ref = append(ref, pool[i])
		}
	}
	if eng.Len() != len(ref) {
		t.Fatalf("final Len = %d, want %d", eng.Len(), len(ref))
	}
	rng := rand.New(rand.NewSource(132))
	for q := 0; q < 40; q++ {
		fr := randFourSided(rng, span)
		samePoints(t, eng.FourSided(fr), geom.RangeSkyline(ref, fr), "final four q="+itoa(q))
		x1, x2, beta := randTopOpen(rng, span)
		samePoints(t, eng.TopOpen(x1, x2, beta),
			geom.RangeSkyline(ref, geom.TopOpen(x1, x2, beta)), "final top q="+itoa(q))
	}
}
