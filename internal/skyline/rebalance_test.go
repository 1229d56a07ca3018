// Differential and race coverage for online shard rebalancing
// (core.Options.Rebalance). The correctness claim under test: cut
// placement never affects answers — the sharded engine's right-to-left
// merge is indifferent to where the x-partition sits — so a DB whose
// shards split and merge mid-stream must stay byte-identical to a
// fixed-cut twin running the same ops, and a snapshot pinned before a
// transition must keep serving its frozen view untouched.
package skyline_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
)

// forceTransition drives one forced split or merge on the rebalancing
// DB, tolerating only the legitimate refusals (a shard too small to
// split, nothing left to merge).
func forceTransition(t *testing.T, db *core.DB, split bool, ctx string) {
	t.Helper()
	var err error
	if split {
		err = db.ForceSplit(-1)
	} else {
		err = db.ForceMerge(-1)
	}
	if err != nil && !strings.Contains(err.Error(), "too small") && !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("%s: forced transition: %v", ctx, err)
	}
}

// TestDifferentialRebalance runs seeded mixed workloads on a
// rebalancing DB and a fixed-cut twin side by side, forcing splits and
// merges throughout (the load policy may add its own), and checks
// every answer across all seven Figure-2 shapes byte-identical to the
// twin and the O(n²) oracle. A snapshot pinned mid-stream must keep
// answering from its frozen view across every later transition. The
// matrix covers mirrors (transitions on both axes), the read-through
// cache (whose entries survive every cut change), the async queue (slabs
// migrated with coalescing state intact), and a durable directory.
func TestDifferentialRebalance(t *testing.T) {
	configs := []struct {
		name    string
		opts    core.Options
		durable bool
	}{
		{"sharded", core.Options{Machine: diffCfg, Dynamic: true, Shards: 4, Workers: 3}, false},
		{"mirrored", core.Options{Machine: diffCfg, Dynamic: true, Shards: 4, Workers: 3, Mirrors: true}, false},
		{"cached", core.Options{Machine: diffCfg, Dynamic: true, Shards: 4, Workers: 3, CacheEntries: 32}, false},
		{"mirrored-cached-async", core.Options{Machine: diffCfg, Dynamic: true, Shards: 4, Workers: 3,
			Mirrors: true, CacheEntries: 32, AsyncWrites: true, FlushPoints: 16, FlushInterval: -1}, false},
		{"durable", core.Options{Machine: diffCfg, Dynamic: true, Shards: 4, Workers: 3}, true},
	}
	const n, extra = 200, 200
	span := geom.Coord((n + extra) * 16)
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					all := geom.GenUniform(n+extra, span, seed+9100)
					base := append([]geom.Point(nil), all[:n]...)
					pool := append([]geom.Point(nil), all[n:]...)
					geom.SortByX(base)
					fixedOpts := cfg.opts
					if cfg.durable {
						fixedOpts.Dir = t.TempDir()
					}
					fixed, err := core.Open(fixedOpts, base)
					if err != nil {
						t.Fatal(err)
					}
					rebalOpts := cfg.opts
					rebalOpts.Rebalance = true
					if cfg.durable {
						rebalOpts.Dir = t.TempDir()
					}
					rebal, err := core.Open(rebalOpts, base)
					if err != nil {
						t.Fatal(err)
					}
					ref := append([]geom.Point(nil), base...)
					dbs := []*core.DB{fixed, rebal}

					rng := rand.New(rand.NewSource(seed + 91))
					qpool := make([]geom.Rect, 12)
					for i := range qpool {
						qpool[i] = randAnyShape(rng, span)
					}

					// Pinned mid-stream: its view must survive every
					// later transition bit for bit.
					var snap *core.Snapshot
					var snapRects []geom.Rect
					var snapWant [][]geom.Point
					checkSnap := func(ctx string) {
						if snap == nil {
							return
						}
						for i, r := range snapRects {
							diffPoints(t, snap.RangeSkyline(r), snapWant[i],
								fmt.Sprintf("%s: pinned snapshot drifted on %v", ctx, r))
						}
					}

					for op := 0; op < 170; op++ {
						ctx := fmt.Sprintf("%s seed=%d op=%d", cfg.name, seed, op)
						if op == 60 {
							snap, err = rebal.Snapshot()
							if err != nil {
								t.Fatalf("%s: %v", ctx, err)
							}
							frozen := append([]geom.Point(nil), ref...)
							for i := 0; i < 6; i++ {
								r := randAnyShape(rng, span)
								snapRects = append(snapRects, r)
								snapWant = append(snapWant, naiveRangeSkyline(frozen, r))
							}
							checkSnap(ctx)
						}
						if op%20 == 10 {
							forceTransition(t, rebal, op%40 == 10, ctx)
							checkSnap(ctx)
						}
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
						case 3, 4: // single delete (sometimes a miss)
							if rng.Intn(4) == 0 || len(ref) == 0 {
								absent := geom.Point{X: span + geom.Coord(op) + 1, Y: span + geom.Coord(op) + 1}
								for _, db := range dbs {
									if ok, err := db.Delete(absent); err != nil {
										t.Fatalf("%s: Delete(absent) = %t, %v", ctx, ok, err)
									}
								}
								continue
							}
							j := rng.Intn(len(ref))
							p := ref[j]
							ref = append(ref[:j], ref[j+1:]...)
							for i, db := range dbs {
								if ok, err := db.Delete(p); !ok || err != nil {
									t.Fatalf("%s: db%d.Delete(%v) = %t, %v", ctx, i, p, ok, err)
								}
							}
						case 5: // flush the queued config, exact length
							for _, db := range dbs {
								if err := db.Flush(); err != nil {
									t.Fatalf("%s: %v", ctx, err)
								}
								if got := db.Len(); got != len(ref) {
									t.Fatalf("%s: Len = %d, want %d", ctx, got, len(ref))
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
							fromFixed := fixed.RangeSkyline(q)
							diffPoints(t, fromFixed, want, ctx+fmt.Sprintf(" %v fixed", q))
							diffPoints(t, rebal.RangeSkyline(q), fromFixed, ctx+fmt.Sprintf(" %v rebal vs fixed", q))
						}
					}

					st := rebal.RebalanceStats()
					if st.Splits == 0 && st.Merges == 0 {
						t.Fatalf("%s seed=%d: no transition completed — the test exercised nothing", cfg.name, seed)
					}
					checkSnap("final")
					if snap != nil {
						snap.Close()
					}
					for _, db := range dbs {
						if err := db.Flush(); err != nil {
							t.Fatal(err)
						}
						if db.Len() != len(ref) {
							t.Fatalf("%s seed=%d: Len = %d, want %d", cfg.name, seed, db.Len(), len(ref))
						}
					}
					rng2 := rand.New(rand.NewSource(seed + 92))
					for q := 0; q < 40; q++ {
						r := randAnyShape(rng2, span)
						diffPoints(t, rebal.RangeSkyline(r), naiveRangeSkyline(ref, r),
							fmt.Sprintf("%s seed=%d final q=%d %v", cfg.name, seed, q, r))
					}
					if eng := rebal.Sharded(); eng.Retained() != 0 {
						t.Fatalf("%s seed=%d: %d retentions leaked after snapshot release", cfg.name, seed, eng.Retained())
					}
					for _, db := range dbs {
						if err := db.Close(); err != nil {
							t.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// TestRebalanceRaceStress is the -race mix the transition protocol
// exists for: concurrent readers, two writers, snapshot holders, and a
// dedicated goroutine forcing splits and merges, all on one
// sharded+mirrored+cached+async rebalancing DB (the load policy runs
// too). Snapshot holders assert their pinned views never drift while
// the topology changes beneath them; readers assert staircase shape
// and, once every delete was issued, that victims never resurface.
// After quiescence the full point set is verified against the oracle
// and the retention ledger must be empty — transitions must not leak
// retired storage.
func TestRebalanceRaceStress(t *testing.T) {
	const (
		nBase       = 600
		perUpdater  = 200
		nQueriers   = 3
		queries     = 100
		transitions = 30
	)
	span := geom.Coord((nBase + 2*perUpdater) * 16)
	all := geom.GenUniform(nBase+2*perUpdater, span, 9300)
	base := append([]geom.Point(nil), all[:nBase]...)
	geom.SortByX(base)
	db, err := core.Open(core.Options{
		Machine: diffCfg, Dynamic: true, Shards: 4, Workers: 4, Mirrors: true,
		CacheEntries: 32, AsyncWrites: true, FlushPoints: 16,
		FlushInterval: time.Millisecond,
		Rebalance:     true,
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
	deleted := make(chan struct{})
	prng := rand.New(rand.NewSource(9301))
	qpool := make([]geom.Rect, 24)
	for i := range qpool {
		qpool[i] = randAnyShape(prng, span)
	}

	var wg sync.WaitGroup
	var deletersDone sync.WaitGroup

	// The transition driver: alternating forced splits and merges racing
	// everything else (plus whatever the load policy decides on its own).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < transitions; i++ {
			forceTransition(t, db, i%2 == 0, fmt.Sprintf("driver i=%d", i))
		}
	}()

	for u := 0; u < 2; u++ {
		pool := all[nBase+u*perUpdater : nBase+(u+1)*perUpdater]
		wg.Add(1)
		deletersDone.Add(1)
		go func() {
			defer wg.Done()
			defer deletersDone.Done()
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
		}()
	}
	go func() {
		deletersDone.Wait()
		close(deleted)
	}()

	for g := 0; g < nQueriers; g++ {
		seed := int64(g + 9400)
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

	// Snapshot holders: pin, capture three answers, then re-query while
	// transitions land — the pinned view must never drift — and release.
	for h := 0; h < 2; h++ {
		seed := int64(h + 9500)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for round := 0; round < 5; round++ {
				snap, err := db.Snapshot()
				if err != nil {
					t.Error(err)
					return
				}
				rects := make([]geom.Rect, 3)
				want := make([][]geom.Point, 3)
				for i := range rects {
					rects[i] = qpool[rng.Intn(len(qpool))]
					want[i] = snap.RangeSkyline(rects[i])
				}
				for rep := 0; rep < 10; rep++ {
					i := rng.Intn(len(rects))
					got := snap.RangeSkyline(rects[i])
					if len(got) != len(want[i]) {
						t.Errorf("snapshot drifted on %v: %d points, want %d", rects[i], len(got), len(want[i]))
						snap.Close()
						return
					}
					for j := range got {
						if got[j] != want[i][j] {
							t.Errorf("snapshot drifted on %v at %d", rects[i], j)
							snap.Close()
							return
						}
					}
				}
				snap.Close()
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 150; i++ {
			_ = db.Len()
			_ = db.QueueCounters()
			_ = db.RebalanceStats()
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
	rng := rand.New(rand.NewSource(9302))
	for q := 0; q < 40; q++ {
		r := randAnyShape(rng, span)
		diffPoints(t, db.RangeSkyline(r), naiveRangeSkyline(ref, r), fmt.Sprintf("final q=%d %v", q, r))
	}
	st := db.RebalanceStats()
	if st.Splits == 0 && st.Merges == 0 {
		t.Fatal("no transition completed under race — the stress exercised nothing")
	}
	if got := db.Sharded().Retained(); got != 0 {
		t.Fatalf("%d retentions leaked after every snapshot was released", got)
	}
	if ctr := db.QueueCounters(); ctr.Enqueued != ctr.Drained+ctr.Coalesced {
		t.Fatalf("quiescent invariant violated: %+v", ctr)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
