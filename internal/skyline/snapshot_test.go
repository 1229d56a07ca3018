// Differential and stress tests for DB.Snapshot: a pinned view must
// answer every Figure-2 shape byte-identically to a synchronous twin
// DB frozen at the pin point, no matter how many writes, drains or
// checkpoints the live index absorbs afterwards — and closing the last
// snapshot must reclaim every retired span (the generation-accounting
// no-leak invariant).
package skyline_test

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// pinnedTwin pairs a live snapshot with a synchronous twin DB built
// from the reference set frozen at the pin, plus the frozen set itself
// for the O(n²) oracle.
type pinnedTwin struct {
	snap   *core.Snapshot
	twin   *core.DB
	frozen []geom.Point
	op     int
}

// checkPin asserts one query answers identically on the snapshot, the
// frozen twin, and the oracle.
func checkPin(t *testing.T, pin pinnedTwin, q geom.Rect, ctx string) {
	t.Helper()
	fromTwin := pin.twin.RangeSkyline(q)
	diffPoints(t, fromTwin, naiveRangeSkyline(pin.frozen, q),
		ctx+fmt.Sprintf(" %v twin vs oracle (pin at op %d)", q, pin.op))
	diffPoints(t, pin.snap.RangeSkyline(q), fromTwin,
		ctx+fmt.Sprintf(" %v snapshot vs twin (pin at op %d)", q, pin.op))
}

// sevenShapes checks every named Figure-2 entry point of the snapshot
// against the twin's corresponding rectangle query.
func sevenShapes(t *testing.T, pin pinnedTwin, rng *rand.Rand, span geom.Coord, ctx string) {
	t.Helper()
	x1 := rng.Int63n(span)
	x2 := x1 + rng.Int63n(span/2+1)
	y1 := rng.Int63n(span)
	y2 := y1 + rng.Int63n(span/2+1)
	cases := []struct {
		name string
		got  []geom.Point
		rect geom.Rect
	}{
		{"TopOpen", pin.snap.TopOpen(x1, x2, y1), geom.TopOpen(x1, x2, y1)},
		{"RightOpen", pin.snap.RightOpen(x1, y1, y2), geom.RightOpen(x1, y1, y2)},
		{"BottomOpen", pin.snap.BottomOpen(x1, x2, y2), geom.BottomOpen(x1, x2, y2)},
		{"LeftOpen", pin.snap.LeftOpen(x2, y1, y2), geom.LeftOpen(x2, y1, y2)},
		{"Dominance", pin.snap.Dominance(x1, y1), geom.Dominance(x1, y1)},
		{"AntiDominance", pin.snap.AntiDominance(x2, y2), geom.AntiDominance(x2, y2)},
		{"Contour", pin.snap.Contour(x2), geom.Contour(x2)},
		{"Skyline", pin.snap.Skyline(), geom.Rect{X1: geom.NegInf, X2: geom.PosInf, Y1: geom.NegInf, Y2: geom.PosInf}},
	}
	for _, c := range cases {
		diffPoints(t, c.got, pin.twin.RangeSkyline(c.rect),
			ctx+fmt.Sprintf(" %s%v snapshot vs twin (pin at op %d)", c.name, c.rect, pin.op))
	}
}

// TestDifferentialSnapshot drives random workloads against every
// configuration axis — unsharded, sharded, mirrors, cache, async
// writes, durable storage — pinning snapshots mid-stream and holding
// them across later writes, drains, flushes and checkpoints. Each open
// snapshot must keep answering all seven Figure-2 shapes
// byte-identically to a synchronous twin DB opened over the reference
// set frozen at its pin, and to the O(n²) oracle. After the workload
// the snapshots close and the retirement accounting must read zero.
func TestDifferentialSnapshot(t *testing.T) {
	configs := []struct {
		name    string
		opts    func(t *testing.T) core.Options
		durable bool
	}{
		{"unsharded", func(*testing.T) core.Options {
			return core.Options{Machine: diffCfg, Dynamic: true}
		}, false},
		{"sharded", func(*testing.T) core.Options {
			return core.Options{Machine: diffCfg, Dynamic: true, Shards: 4, Workers: 3}
		}, false},
		{"sharded-mirrored-cached", func(*testing.T) core.Options {
			return core.Options{Machine: diffCfg, Dynamic: true, Shards: 4, Workers: 3, Mirrors: true, CacheEntries: 32}
		}, false},
		{"sharded-mirrored-async", func(*testing.T) core.Options {
			return core.Options{Machine: diffCfg, Dynamic: true, Shards: 4, Workers: 3, Mirrors: true,
				AsyncWrites: true, FlushPoints: 16, FlushInterval: -1}
		}, false},
		{"durable-async", func(t *testing.T) core.Options {
			return core.Options{Machine: diffCfg, Dynamic: true, Shards: 4, Workers: 3,
				AsyncWrites: true, FlushPoints: 16, FlushInterval: -1, Dir: t.TempDir()}
		}, true},
	}
	const n, extra = 160, 180
	span := geom.Coord((n + extra) * 16)
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					all := geom.GenUniform(n+extra, span, seed+8100)
					base := append([]geom.Point(nil), all[:n]...)
					pool := append([]geom.Point(nil), all[n:]...)
					geom.SortByX(base)
					live, err := core.Open(cfg.opts(t), base)
					if err != nil {
						t.Fatal(err)
					}
					ref := append([]geom.Point(nil), base...)
					var pins []pinnedTwin

					rng := rand.New(rand.NewSource(seed + 83))
					for op := 0; op < 150; op++ {
						ctx := fmt.Sprintf("%s seed=%d op=%d", cfg.name, seed, op)
						switch rng.Intn(14) {
						case 0, 1: // single insert
							if len(pool) == 0 {
								continue
							}
							p := pool[len(pool)-1]
							pool = pool[:len(pool)-1]
							if err := live.Insert(p); err != nil {
								t.Fatalf("%s: %v", ctx, err)
							}
							ref = append(ref, p)
						case 2: // batch insert
							if len(pool) < 2 {
								continue
							}
							k := 1 + rng.Intn(len(pool)/2)
							batch := append([]geom.Point(nil), pool[:k]...)
							pool = pool[k:]
							if err := live.BatchInsert(batch); err != nil {
								t.Fatalf("%s: %v", ctx, err)
							}
							ref = append(ref, batch...)
						case 3, 4: // single delete
							if len(ref) == 0 {
								continue
							}
							j := rng.Intn(len(ref))
							p := ref[j]
							ref = append(ref[:j], ref[j+1:]...)
							if ok, err := live.Delete(p); !ok || err != nil {
								t.Fatalf("%s: Delete(%v) = %t, %v", ctx, p, ok, err)
							}
						case 5: // batch delete
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
							if _, err := live.BatchDelete(batch); err != nil {
								t.Fatalf("%s: %v", ctx, err)
							}
						case 6: // flush: drains the queue, checkpoints durable storage
							if err := live.Flush(); err != nil {
								t.Fatalf("%s: %v", ctx, err)
							}
						case 7: // pin a snapshot + its frozen twin
							if len(pins) >= 4 {
								continue
							}
							snap, err := live.Snapshot()
							if err != nil {
								t.Fatalf("%s: Snapshot: %v", ctx, err)
							}
							frozen := append([]geom.Point(nil), ref...)
							sorted := append([]geom.Point(nil), frozen...)
							geom.SortByX(sorted)
							twin, err := core.Open(core.Options{Machine: diffCfg, Dynamic: true}, sorted)
							if err != nil {
								t.Fatalf("%s: twin: %v", ctx, err)
							}
							pins = append(pins, pinnedTwin{snap: snap, twin: twin, frozen: frozen, op: op})
						default: // query live + every open pin
							q := randAnyShape(rng, span)
							diffPoints(t, live.RangeSkyline(q), naiveRangeSkyline(ref, q), ctx+fmt.Sprintf(" %v live", q))
							for _, pin := range pins {
								checkPin(t, pin, randAnyShape(rng, span), ctx)
							}
						}
					}

					// The pins have now survived every later write, drain
					// and checkpoint; sweep all seven shapes on each.
					for _, pin := range pins {
						sevenShapes(t, pin, rng, span, fmt.Sprintf("%s seed=%d final", cfg.name, seed))
					}
					if got := live.OpenSnapshots(); got != len(pins) {
						t.Fatalf("OpenSnapshots = %d, want %d", got, len(pins))
					}
					if len(pins) > 0 && live.RetainedCount() == 0 {
						t.Fatal("open snapshots but no storage retentions")
					}
					for _, pin := range pins {
						pin.snap.Close()
						pin.snap.Close() // idempotent
					}
					if got := live.OpenSnapshots(); got != 0 {
						t.Fatalf("OpenSnapshots after close = %d, want 0", got)
					}
					if got := live.DeferredBlocks(); got != 0 {
						t.Fatalf("DeferredBlocks after close = %d, want 0 (leaked retired spans)", got)
					}
					if got := live.RetainedCount(); got != 0 {
						t.Fatalf("RetainedCount after close = %d, want 0", got)
					}
					// The live index is unharmed by the pins' lifecycle.
					for q := 0; q < 10; q++ {
						r := randAnyShape(rng, span)
						diffPoints(t, live.RangeSkyline(r), naiveRangeSkyline(ref, r),
							fmt.Sprintf("%s seed=%d post-close %v", cfg.name, seed, r))
					}
					if err := live.Close(); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}

// TestSnapshotRaceStress is the -race mix DB.Snapshot exists for:
// snapshot readers hammering pinned views while two writers stream
// single and batched updates into a sharded+mirrored+cached+async DB,
// snapshots are pinned and closed mid-flight, and a poller reads the
// counters. Each reader pins once and asserts its answers NEVER change
// across the writers' progress (the point-in-time contract, checked
// against the view's own first answers); after quiescence the final
// state matches the oracle and the retirement accounting reads zero —
// no leaked retired roots.
func TestSnapshotRaceStress(t *testing.T) {
	const (
		nBase      = 800
		perUpdater = 220
		nReaders   = 4
		queries    = 120
	)
	span := geom.Coord((nBase + 2*perUpdater) * 16)
	all := geom.GenUniform(nBase+2*perUpdater, span, 9100)
	base := append([]geom.Point(nil), all[:nBase]...)
	geom.SortByX(base)
	db, err := core.Open(core.Options{
		Machine: diffCfg, Dynamic: true, Shards: 4, Workers: 4, Mirrors: true,
		CacheEntries: 32, AsyncWrites: true, FlushPoints: 24, FlushInterval: -1,
	}, base)
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
				const chunk = 44
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
				if _, err := db.BatchDelete(victims); err != nil {
					t.Error(err)
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
	for g := 0; g < nReaders; g++ {
		seed := int64(g + 9200)
		wg.Add(1)
		go func() {
			defer wg.Done()
			snap, err := db.Snapshot()
			if err != nil {
				t.Error(err)
				return
			}
			defer snap.Close()
			rng := rand.New(rand.NewSource(seed))
			qpool := make([]geom.Rect, 8)
			first := make([][]geom.Point, len(qpool))
			for i := range qpool {
				qpool[i] = randAnyShape(rng, span)
				first[i] = snap.RangeSkyline(qpool[i])
				// Sanity: a pinned answer is a staircase inside its
				// rectangle.
				for j, p := range first[i] {
					if !qpool[i].Contains(p) {
						t.Errorf("pin q=%d: %v outside %v", i, p, qpool[i])
						return
					}
					if j > 0 && (first[i][j-1].X >= p.X || first[i][j-1].Y <= p.Y) {
						t.Errorf("pin q=%d: not a staircase", i)
						return
					}
				}
			}
			for q := 0; q < queries; q++ {
				i := rng.Intn(len(qpool))
				got := snap.RangeSkyline(qpool[i])
				if len(got) != len(first[i]) {
					t.Errorf("reader %d: pinned answer for %v changed: %d points, first saw %d",
						seed, qpool[i], len(got), len(first[i]))
					return
				}
				for j := range got {
					if got[j] != first[i][j] {
						t.Errorf("reader %d: pinned answer for %v changed at %d: %v vs %v",
							seed, qpool[i], j, got[j], first[i][j])
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			_ = db.QueueCounters()
			_ = db.Stats()
			_ = db.OpenSnapshots()
			_ = db.DeferredBlocks()
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
	rng := rand.New(rand.NewSource(9101))
	for q := 0; q < 40; q++ {
		r := randAnyShape(rng, span)
		diffPoints(t, db.RangeSkyline(r), naiveRangeSkyline(ref, r), fmt.Sprintf("final q=%d %v", q, r))
	}
	// Quiescence: every snapshot closed, every retired span reclaimed.
	if got := db.OpenSnapshots(); got != 0 {
		t.Fatalf("OpenSnapshots = %d, want 0", got)
	}
	if got := db.DeferredBlocks(); got != 0 {
		t.Fatalf("DeferredBlocks = %d, want 0 (leaked retired roots)", got)
	}
	if got := db.RetainedCount(); got != 0 {
		t.Fatalf("RetainedCount = %d, want 0", got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotAcrossReclamation holds one snapshot while the live index
// gives up, one way or another, every block the snapshot reads: leaf
// rewrites and representative blocks on every update, whole Theorem 6
// structures at the foursided rebuilds (each shard sees several times the
// n/2 updates that trigger one), and entire shards — released at every
// split and merge. The pinned view must keep answering all seven
// shapes byte-identically while those frees sit deferred, and closing it
// must leave no residue: nothing deferred, nothing retained, and exactly
// the live set of a twin that ran the same stream and never pinned
// anything.
func TestSnapshotAcrossReclamation(t *testing.T) {
	const n, updates = 600, 1800
	span := geom.Coord((n + updates) * 16)
	all := geom.GenUniform(n+updates/2, span, 8200)
	base := append([]geom.Point(nil), all[:n]...)
	geom.SortByX(base)
	// Every insert lands right of the base, so the load policy splits
	// the hot shards on its own besides the forced transitions below.
	// Snapshot reads add no load, so both runs make the same transitions
	// at the same ops.
	opts := core.Options{Machine: diffCfg, Dynamic: true, Shards: 2, Workers: 2, Mirrors: true,
		Rebalance: true}

	run := func(pinned bool) int {
		db, err := core.Open(opts, base)
		if err != nil {
			t.Fatal(err)
		}
		var pin pinnedTwin
		if pinned {
			snap, err := db.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			twin, err := core.Open(core.Options{Machine: diffCfg, Dynamic: true}, base)
			if err != nil {
				t.Fatal(err)
			}
			defer twin.Close() //errlint:ok — test twin, nothing to lose
			pin = pinnedTwin{snap: snap, twin: twin, frozen: base}
		}
		rng := rand.New(rand.NewSource(8201))
		qrng := rand.New(rand.NewSource(8202))
		present := append([]geom.Point(nil), base...)
		pool := all[n:]
		for u := 0; u < updates; u++ {
			ctx := fmt.Sprintf("pinned=%t op=%d", pinned, u)
			if u%2 == 0 {
				p := pool[len(pool)-1]
				pool = pool[:len(pool)-1]
				if err := db.Insert(p); err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				present = append(present, p)
			} else {
				i := rng.Intn(len(present))
				if ok, err := db.Delete(present[i]); err != nil || !ok {
					t.Fatalf("%s: Delete(%v) = %t, %v", ctx, present[i], ok, err)
				}
				present[i] = present[len(present)-1]
				present = present[:len(present)-1]
			}
			switch u {
			case updates / 3:
				forceTransition(t, db, true, ctx)
			case 2 * updates / 3:
				forceTransition(t, db, false, ctx)
			}
			if pinned && u%150 == 149 {
				if db.DeferredBlocks() == 0 {
					t.Fatalf("%s: nothing deferred under an open snapshot", ctx)
				}
				sevenShapes(t, pin, qrng, span, ctx)
			}
		}
		if st := db.RebalanceStats(); st.Splits == 0 || st.Merges == 0 {
			t.Fatalf("pinned=%t: %d splits, %d merges: the stream was meant to cross both", pinned, st.Splits, st.Merges)
		}
		if pinned {
			sevenShapes(t, pin, qrng, span, "before close")
			pin.snap.Close()
		}
		if db.DeferredBlocks() != 0 || db.RetainedCount() != 0 {
			t.Fatalf("pinned=%t: %d blocks deferred, %d retentions open at quiescence", pinned, db.DeferredBlocks(), db.RetainedCount())
		}
		r := geom.Rect{X1: geom.NegInf, X2: geom.PosInf, Y1: geom.NegInf, Y2: geom.PosInf}
		diffPoints(t, db.RangeSkyline(r), naiveRangeSkyline(present, r), fmt.Sprintf("pinned=%t final skyline", pinned))
		live := db.Space().LiveBlocks
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		return live
	}
	if with, without := run(true), run(false); with != without {
		t.Fatalf("live set after pin, churn and close is %d blocks; the same stream without a snapshot leaves %d", with, without)
	}
}
