package repro

// One benchmark per experiment of EXPERIMENTS.md (E1–E12), each
// regenerating a row of the paper's Table 1, a claimed bound, or an
// engine-level scaling claim (E11–E12). Every
// benchmark reports ios/op — the quantity the paper's theorems bound —
// alongside Go's wall-clock metrics; ios/op comes from one cold pass
// of a fixed, seeded operation set (reportIOs), so it does not depend
// on b.N. cmd/skybench prints the full parameter sweeps; these benches
// pin one representative configuration each.

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cpqa"
	"repro/internal/emio"
	"repro/internal/extsort"
	"repro/internal/foursided"
	"repro/internal/geom"
	"repro/internal/lowerbound"
	"repro/internal/ppb"
	"repro/internal/rankspace"
	"repro/internal/shard"
	"repro/internal/skyline"
	"repro/internal/topopen"

	"repro/internal/dyntop"
)

var benchCfg = emio.Config{B: 64, M: 64 * 64}

// benchOps is the size of the fixed, seeded operation set an ios/op
// benchmark measures.
const benchOps = 1000

// ioCounter is what reportIOs measures: a simulated disk, a sharded
// engine or a DB.
type ioCounter interface {
	DropCache()
	ResetStats()
	Stats() emio.Stats
}

// reportIOs reports ios/op over one cold pass of the operations
// op(0), …, op(benchOps-1), run before the timed loop, so the figure
// does not depend on b.N; the timed loop then cycles the same set.
func reportIOs(b *testing.B, d ioCounter, op func(i int)) {
	b.Helper()
	d.DropCache()
	d.ResetStats()
	for i := 0; i < benchOps; i++ {
		op(i)
	}
	ios := float64(d.Stats().IOs()) / benchOps
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i % benchOps)
	}
	b.StopTimer()
	b.ReportMetric(ios, "ios/op")
}

// seeded draws the benchOps operations of a benchmark from a generator
// seeded with seed, before anything is measured.
func seeded[T any](seed int64, draw func(rng *rand.Rand) T) []T {
	rng := rand.New(rand.NewSource(seed))
	out := make([]T, benchOps)
	for i := range out {
		out[i] = draw(rng)
	}
	return out
}

// topOpens draws top-open queries [x1, x1+width] × [β, ∞) with x1 and
// β uniform in [0, span).
func topOpens(seed int64, span, width int64) []geom.Rect {
	return seeded(seed, func(rng *rand.Rand) geom.Rect {
		x1 := geom.Coord(rng.Int63n(span))
		return geom.TopOpen(x1, x1+width, geom.Coord(rng.Int63n(span)))
	})
}

// squares draws 4-sided queries of side width with the lower-left
// corner uniform in [0, span)².
func squares(seed int64, span, width int64) []geom.Rect {
	return seeded(seed, func(rng *rand.Rand) geom.Rect {
		x1, y1 := geom.Coord(rng.Int63n(span)), geom.Coord(rng.Int63n(span))
		return geom.Rect{X1: x1, X2: x1 + width, Y1: y1, Y2: y1 + width}
	})
}

// farPoints draws points right of and above every point of a
// [0, 2^24)² benchmark set, for insert+delete update pairs.
func farPoints(seed int64) []geom.Point {
	return seeded(seed, func(rng *rand.Rand) geom.Point {
		return geom.Point{X: (1 << 25) + rng.Int63n(1<<24), Y: (1 << 25) + rng.Int63n(1<<24)}
	})
}

// BenchmarkE1StaticTopOpen — Table 1 row 1: O(log_B n + k/B) queries.
func BenchmarkE1StaticTopOpen(b *testing.B) {
	d := emio.NewDisk(benchCfg)
	pts := geom.GenUniform(1<<15, 1<<24, 1)
	geom.SortByX(pts)
	f := extsort.FromSlice(d, 2, pts)
	ix := topopen.Build(d, f)
	qs := topOpens(2, 1<<24, 1<<20)
	reportIOs(b, d, func(i int) { ix.Query(qs[i].X1, qs[i].X2, qs[i].Y1) })
}

// BenchmarkE2GridTopOpen — Table 1 row 2: O(log log_B U + k/B).
func BenchmarkE2GridTopOpen(b *testing.B) {
	d := emio.NewDisk(benchCfg)
	u := int64(1) << 40
	pts := geom.GenUniform(1<<13, u, 3)
	g := rankspace.BuildGrid(d, u, pts)
	qs := topOpens(4, u, 1<<35)
	reportIOs(b, d, func(i int) { g.Query(qs[i].X1, qs[i].X2, qs[i].Y1) })
}

// BenchmarkE3RankSpace — Table 1 row 3: O(1 + k/B).
func BenchmarkE3RankSpace(b *testing.B) {
	d := emio.NewDisk(benchCfg)
	n := 1 << 15
	pts := geom.GenPermutation(n, 5)
	ix := rankspace.Build(d, int64(n), pts)
	qs := topOpens(6, int64(n), 512)
	reportIOs(b, d, func(i int) { ix.Query(qs[i].X1, qs[i].X2, qs[i].Y1) })
}

// BenchmarkE4AntiDominance — Table 1 row 4: the Lemma 8 adversarial
// workload against the optimal Theorem 6 structure.
func BenchmarkE4AntiDominance(b *testing.B) {
	d := emio.NewDisk(benchCfg)
	pts := lowerbound.Input(16, 3) // 4096 points
	qs := lowerbound.Queries(16, 3)
	ix := foursided.Build(d, 0.5, pts)
	reportIOs(b, d, func(i int) { ix.Query(qs[i%len(qs)]) })
}

// BenchmarkE5FourSided — Table 1 row 5: O((n/B)^ε + k/B).
func BenchmarkE5FourSided(b *testing.B) {
	d := emio.NewDisk(benchCfg)
	pts := geom.GenUniform(1<<14, 1<<24, 7)
	ix := foursided.Build(d, 0.5, pts)
	qs := squares(8, 1<<24, 1<<21)
	reportIOs(b, d, func(i int) { ix.Query(qs[i]) })
}

// BenchmarkE6DynamicTopOpen — Table 1 row 6: queries and updates of the
// Theorem 4 structure across ε.
func BenchmarkE6DynamicTopOpen(b *testing.B) {
	for _, eps := range []float64{0, 0.5, 1} {
		b.Run(epsName(eps)+"/query", func(b *testing.B) {
			d := emio.NewDisk(benchCfg)
			pts := geom.GenUniform(1<<14, 1<<24, 9)
			geom.SortByX(pts)
			tr := dyntop.BuildSABE(d, eps, pts)
			qs := topOpens(10, 1<<24, 1<<21)
			reportIOs(b, d, func(i int) { tr.Query(qs[i].X1, qs[i].X2, qs[i].Y1) })
		})
		b.Run(epsName(eps)+"/update", func(b *testing.B) {
			d := emio.NewDisk(benchCfg)
			pts := geom.GenUniform(1<<14, 1<<24, 11)
			geom.SortByX(pts)
			tr := dyntop.BuildSABE(d, eps, pts)
			ps := farPoints(12)
			reportIOs(b, d, func(i int) {
				tr.Insert(ps[i])
				tr.Delete(ps[i])
			})
		})
	}
}

func epsName(e float64) string {
	switch e {
	case 0:
		return "eps0"
	case 0.5:
		return "eps0.5"
	default:
		return "eps1"
	}
}

// BenchmarkE7DynamicFourSided — Table 1 row 7: O(log(n/B)) amortized
// updates of the Theorem 6 structure.
func BenchmarkE7DynamicFourSided(b *testing.B) {
	d := emio.NewDisk(benchCfg)
	pts := geom.GenUniform(1<<13, 1<<24, 13)
	ix := foursided.Build(d, 0.5, pts)
	ps := farPoints(14)
	reportIOs(b, d, func(i int) {
		ix.Insert(ps[i])
		ix.Delete(ps[i])
	})
}

// BenchmarkE8CPQA — Theorem 3: I/O-CPQA operation cost (worst-case O(1);
// o(1) amortized with resident criticals).
func BenchmarkE8CPQA(b *testing.B) {
	b.Run("mixed", func(b *testing.B) {
		d := emio.NewDisk(emio.Config{B: 64, M: 1 << 22})
		q := cpqa.New(d, 64)
		// A key of -1 is a DeleteMin; one op in three.
		keys := seeded(15, func(rng *rand.Rand) int64 {
			if rng.Intn(3) == 2 {
				return -1
			}
			return rng.Int63n(1 << 30)
		})
		reportIOs(b, d, func(i int) {
			if keys[i] < 0 {
				_, q, _ = q.DeleteMin()
				return
			}
			q = q.InsertAndAttrite(cpqa.Elem{Key: keys[i]})
		})
	})
	b.Run("catenate", func(b *testing.B) {
		d := emio.NewDisk(emio.Config{B: 64, M: 1 << 22})
		keys := seeded(16, func(rng *rand.Rand) int64 { return rng.Int63n(1 << 30) })
		q := cpqa.New(d, 64)
		reportIOs(b, d, func(i int) {
			q2 := cpqa.New(d, 64).InsertAndAttrite(cpqa.Elem{Key: keys[i]})
			q = cpqa.CatenateAndAttrite(q, q2)
		})
	})
}

// BenchmarkE9SABEBuild — §2.3: SABE O(n/B) PPB-tree load versus the
// generic O(n log_B n) loader.
func BenchmarkE9SABEBuild(b *testing.B) {
	pts := geom.GenUniform(1<<14, 1<<24, 17)
	geom.SortByX(pts)
	b.Run("sabe", func(b *testing.B) {
		var ios uint64
		for i := 0; i < b.N; i++ {
			d := emio.NewDisk(benchCfg)
			f := extsort.FromSlice(d, 2, pts)
			d.DropCache()
			d.ResetStats()
			ppb.BuildSABE(d, f)
			d.DropCache()
			ios += d.Stats().IOs()
		}
		b.ReportMetric(float64(ios)/float64(b.N), "ios/op")
	})
	b.Run("classic", func(b *testing.B) {
		var ios uint64
		for i := 0; i < b.N; i++ {
			d := emio.NewDisk(benchCfg)
			f := extsort.FromSlice(d, 2, pts)
			d.DropCache()
			d.ResetStats()
			ppb.BuildClassic(d, f)
			d.DropCache()
			ios += d.Stats().IOs()
		}
		b.ReportMetric(float64(ios)/float64(b.N), "ios/op")
	})
}

// BenchmarkE10NaiveBaseline — §1.2: the scan-and-sort baseline every
// index is compared against.
func BenchmarkE10NaiveBaseline(b *testing.B) {
	d := emio.NewDisk(benchCfg)
	pts := geom.GenUniform(1<<14, 1<<24, 18)
	f := extsort.FromSlice(d, 2, pts)
	qs := topOpens(19, 1<<24, 1<<20)
	reportIOs(b, d, func(i int) { skyline.NaiveRangeSkyline(d, f, qs[i]) })
}

// BenchmarkE11ShardedTopOpen — the scaling layer: top-open queries
// through the 4-shard concurrent engine.
func BenchmarkE11ShardedTopOpen(b *testing.B) {
	pts := geom.GenUniform(1<<14, 1<<24, 21)
	geom.SortByX(pts)
	eng, err := shard.New(shard.Options{Machine: benchCfg, Shards: 4, Workers: 4, Dynamic: true}, pts)
	if err != nil {
		b.Fatal(err)
	}
	qs := topOpens(22, 1<<24, 1<<20)
	reportIOs(b, eng, func(i int) { eng.TopOpen(qs[i].X1, qs[i].X2, qs[i].Y1) })
}

// BenchmarkE12ShardedFourSided — 4-sided-family queries through the
// per-shard Theorem 6 structures and the right-to-left merge.
func BenchmarkE12ShardedFourSided(b *testing.B) {
	pts := geom.GenUniform(1<<14, 1<<24, 23)
	geom.SortByX(pts)
	eng, err := shard.New(shard.Options{Machine: benchCfg, Shards: 4, Workers: 4, Dynamic: true}, pts)
	if err != nil {
		b.Fatal(err)
	}
	qs := squares(24, 1<<24, 1<<21)
	reportIOs(b, eng, func(i int) { eng.FourSided(qs[i]) })
}

// BenchmarkE12BatchInsert vs BenchmarkE12SingleInsert — the batched
// update path: one shard-lock acquisition per shard per batch instead of
// one per point. Each op loads the same 512-point batch into a fresh
// 4-shard engine.
func benchBatchLoad(b *testing.B, batched bool) {
	const nBase, nBatch = 1 << 13, 512
	all := geom.GenUniform(nBase+nBatch, 1<<24, 25)
	base := append([]geom.Point(nil), all[:nBase]...)
	batch := all[nBase:]
	geom.SortByX(base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, err := shard.New(shard.Options{Machine: benchCfg, Shards: 4, Workers: 4, Dynamic: true}, base)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if batched {
			if err := eng.BatchInsert(batch); err != nil {
				b.Fatal(err)
			}
		} else {
			for _, p := range batch {
				if err := eng.Insert(p); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(nBatch, "points/op")
}

func BenchmarkE12BatchInsert(b *testing.B)  { benchBatchLoad(b, true) }
func BenchmarkE12SingleInsert(b *testing.B) { benchBatchLoad(b, false) }

// BenchmarkE13MirroredRightOpen — mirrored fast path: right-open
// queries served by the transposed top-open structure in O(log_B n)
// I/Os, vs the Theorem 6 path's (n/B)^eps on the same index without
// mirrors (BenchmarkE13Theorem6RightOpen).
func benchRightOpen(b *testing.B, mirrors bool) {
	const n = 1 << 14
	pts := geom.GenUniform(n, int64(n)*16, 29)
	db, err := core.Open(core.Options{Machine: benchCfg, Mirrors: mirrors}, pts)
	if err != nil {
		b.Fatal(err)
	}
	qs := seeded(30, func(rng *rand.Rand) geom.Rect {
		y1 := rng.Int63n(int64(n) * 16)
		return geom.RightOpen(rng.Int63n(int64(n)*16), y1, y1+int64(n)*2)
	})
	reportIOs(b, db, func(i int) { db.RangeSkyline(qs[i]) })
}

func BenchmarkE13MirroredRightOpen(b *testing.B) { benchRightOpen(b, true) }
func BenchmarkE13Theorem6RightOpen(b *testing.B) { benchRightOpen(b, false) }
