package foursided

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/emio"
	"repro/internal/geom"
	"repro/internal/xtree"
)

func pt(x, y geom.Coord) geom.Point { return geom.Point{X: x, Y: y} }

func sameAnswer(got, want []geom.Point) bool {
	if len(got) == 0 && len(want) == 0 {
		return true
	}
	return reflect.DeepEqual(got, want)
}

func TestQueryMatchesOracle(t *testing.T) {
	pts := geom.GenUniform(500, 5000, 111)
	for _, eps := range []float64{0.3, 0.5, 1} {
		d := emio.NewDisk(emio.Config{B: 16, M: 16 * 64})
		ix := Build(d, eps, pts)
		rng := rand.New(rand.NewSource(112))
		for q := 0; q < 200; q++ {
			x1 := geom.Coord(rng.Int63n(5500)) - 250
			x2 := x1 + geom.Coord(rng.Int63n(3500))
			y1 := geom.Coord(rng.Int63n(5500)) - 250
			y2 := y1 + geom.Coord(rng.Int63n(3500))
			r := geom.Rect{X1: x1, X2: x2, Y1: y1, Y2: y2}
			got := ix.Query(r)
			want := geom.RangeSkyline(pts, r)
			if !sameAnswer(got, want) {
				t.Fatalf("eps=%.1f Query(%v) = %v, want %v", eps, r, got, want)
			}
		}
	}
}

func TestVariantQueries(t *testing.T) {
	pts := geom.GenUniform(300, 3000, 113)
	d := emio.NewDisk(emio.Config{B: 16, M: 16 * 64})
	ix := Build(d, 0.5, pts)
	rng := rand.New(rand.NewSource(114))
	for q := 0; q < 100; q++ {
		x := geom.Coord(rng.Int63n(3300)) - 150
		y1 := geom.Coord(rng.Int63n(3300)) - 150
		y2 := y1 + geom.Coord(rng.Int63n(2000))
		if got, want := ix.Query(geom.LeftOpen(x, y1, y2)), geom.RangeSkyline(pts, geom.LeftOpen(x, y1, y2)); !sameAnswer(got, want) {
			t.Fatalf("LeftOpen(%d,%d,%d) = %v, want %v", x, y1, y2, got, want)
		}
		if got, want := ix.Query(geom.AntiDominance(x, y1)), geom.RangeSkyline(pts, geom.AntiDominance(x, y1)); !sameAnswer(got, want) {
			t.Fatalf("AntiDominance(%d,%d) = %v, want %v", x, y1, got, want)
		}
	}
}

func TestDynamicMatchesOracle(t *testing.T) {
	d := emio.NewDisk(emio.Config{B: 16, M: 16 * 64})
	base := geom.GenUniform(200, 1<<20, 115)
	ix := Build(d, 0.5, base)
	present := append([]geom.Point(nil), base...)
	extra := geom.GenUniform(400, 1<<20, 116)
	// Shift extras to avoid coordinate collisions with base.
	for i := range extra {
		extra[i].X += 1 << 21
		extra[i].Y += 1 << 21
	}
	rng := rand.New(rand.NewSource(117))
	for op := 0; op < 400; op++ {
		if len(extra) > 0 && (len(present) == 0 || rng.Intn(2) == 0) {
			p := extra[0]
			extra = extra[1:]
			ix.Insert(p)
			present = append(present, p)
		} else {
			i := rng.Intn(len(present))
			p := present[i]
			present = append(present[:i], present[i+1:]...)
			if !ix.Delete(p) {
				t.Fatalf("op %d: Delete(%v) failed", op, p)
			}
		}
		if op%29 == 0 {
			x1 := geom.Coord(rng.Int63n(1 << 22))
			x2 := x1 + geom.Coord(rng.Int63n(1<<21))
			y1 := geom.Coord(rng.Int63n(1 << 22))
			y2 := y1 + geom.Coord(rng.Int63n(1<<21))
			r := geom.Rect{X1: x1, X2: x2, Y1: y1, Y2: y2}
			got := ix.Query(r)
			want := geom.RangeSkyline(present, r)
			if !sameAnswer(got, want) {
				t.Fatalf("op %d: Query(%v) = %v, want %v", op, r, got, want)
			}
		}
	}
	if ix.Len() != len(present) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(present))
	}
}

func TestDeleteAbsent(t *testing.T) {
	d := emio.NewDisk(emio.Config{B: 16, M: 16 * 64})
	ix := Build(d, 0.5, []geom.Point{pt(1, 1), pt(2, 2)})
	if ix.Delete(pt(3, 3)) {
		t.Error("deleting absent point succeeded")
	}
	if ix.Len() != 2 {
		t.Errorf("Len changed to %d on failed delete", ix.Len())
	}
}

// TestDeleteReportsDrift: the point store's delete is the presence
// check, so a delete of a point the secondaries hold but the store does
// not misses without touching them; a delete of a point the store holds
// but an R(u) does not is corruption, which Err reports while the store
// still drops the point, until the next global rebuild.
func TestDeleteReportsDrift(t *testing.T) {
	d := emio.NewDisk(emio.Config{B: 16, M: 16 * 64})
	pts := geom.GenUniform(300, 3000, 63)
	ix := Build(d, 0.5, pts)
	p, q := pts[10], pts[20]
	ix.Top().Delete(p)
	if ix.Delete(p) || ix.Err() != nil {
		t.Fatalf("Delete of a point only the secondaries hold = true or err %v", ix.Err())
	}
	if got := ix.Query(geom.Rect{X1: p.X, X2: geom.PosInf, Y1: p.Y, Y2: p.Y}); len(got) != 1 || got[0] != p {
		t.Fatalf("R(root) lost %v on a miss: %v", p, got)
	}
	ix.xt.Root.Data.Delete(transpose(q))
	if !ix.Delete(q) || ix.Err() == nil {
		t.Fatalf("Delete of a point R(root) had lost: err %v", ix.Err())
	}
	if ix.Len() != len(pts)-2 {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(pts)-2)
	}
	// The global rebuild derives every R(u) from the point store again.
	ix.rebuild()
	if ix.Err() != nil {
		t.Fatalf("Err = %v after a global rebuild, want nil", ix.Err())
	}
}

// TestPruneEmptyLeaf deletes every point of one leaf, fewer updates
// than a global rebuild needs: the emptied leaf leaves the tree, its
// parent's range shrinks to its remaining children's, and every answer
// matches the oracle.
func TestPruneEmptyLeaf(t *testing.T) {
	const n = 2000
	d := emio.NewDisk(emio.Config{B: 8, M: 8 * 64})
	pts := make([]geom.Point, n)
	for i, y := range rand.New(rand.NewSource(65)).Perm(n) {
		pts[i] = pt(geom.Coord(10*(i+1)), geom.Coord(10*(y+1)))
	}
	ix := Build(d, 0.5, pts)
	path := ix.xt.Descend(pts[n/2].X, nil)
	leaf, parent := path[len(path)-1], path[len(path)-2]
	lo, hi, children := leaf.MinX, leaf.MaxX, len(parent.Children)
	var present []geom.Point
	for _, p := range pts {
		if p.X < lo || p.X > hi {
			present = append(present, p)
		} else if !ix.Delete(p) {
			t.Fatalf("Delete(%v) reported absent", p)
		}
	}
	if ix.updates == 0 || len(parent.Children) != children-1 || parent.MinX != parent.Children[0].MinX || parent.MaxX != parent.Children[len(parent.Children)-1].MaxX {
		t.Fatalf("leaf [%d,%d] not pruned: parent has %d of %d children, range [%d,%d] (%d updates since a rebuild)",
			lo, hi, len(parent.Children), children, parent.MinX, parent.MaxX, ix.updates)
	}
	rng := rand.New(rand.NewSource(66))
	for q := 0; q < 200; q++ {
		x1, y1 := geom.Coord(rng.Int63n(10*n)), geom.Coord(rng.Int63n(10*n))
		r := geom.Rect{X1: x1, X2: x1 + geom.Coord(rng.Int63n(4*n)), Y1: y1, Y2: y1 + geom.Coord(rng.Int63n(10*n))}
		if got, want := ix.Query(r), geom.RangeSkyline(present, r); !sameAnswer(got, want) {
			t.Fatalf("Query(%v) = %v, want %v", r, got, want)
		}
	}
}

// TestDeleteShrinksRanges: after deletes that take the largest x out of
// the tree, emptying and pruning the last leaf, every internal node's
// range is exactly its children's, so a rectangle ending at the new
// largest x asks R(u) once instead of decomposing u.
func TestDeleteShrinksRanges(t *testing.T) {
	const n = 4000
	d := emio.NewDisk(emio.Config{B: 8, M: 8 * 64})
	pts := make([]geom.Point, n)
	for i, y := range rand.New(rand.NewSource(61)).Perm(n) {
		pts[i] = pt(geom.Coord(10*(i+1)), geom.Coord(10*(y+1)))
	}
	ix := Build(d, 0.5, pts)
	for _, p := range pts[n-8:] {
		if !ix.Delete(p) {
			t.Fatalf("Delete(%v) reported absent", p)
		}
	}
	for nd := range xtree.Nodes(ix.xt.Root) {
		if nd.Leaf() {
			continue
		}
		first, last := nd.Children[0], nd.Children[len(nd.Children)-1]
		if nd.MinX != first.MinX || nd.MaxX != last.MaxX {
			t.Fatalf("internal node range [%d, %d], its children's [%d, %d]", nd.MinX, nd.MaxX, first.MinX, last.MaxX)
		}
	}
}

func TestEmptyIndex(t *testing.T) {
	d := emio.NewDisk(emio.Config{B: 16, M: 16 * 64})
	ix := Build(d, 0.5, nil)
	if got := ix.Query(geom.Rect{X1: 0, X2: 10, Y1: 0, Y2: 10}); got != nil {
		t.Errorf("empty query = %v", got)
	}
	ix.Insert(pt(5, 5))
	if got := ix.Query(geom.Rect{X1: 0, X2: 10, Y1: 0, Y2: 10}); len(got) != 1 {
		t.Errorf("query after first insert = %v", got)
	}
}

// TestQueryIOPolynomial measures the Theorem 6 shape: query cost grows
// like (n/B)^ε, far below the naive n/B scan, and reporting adds k/B.
func TestQueryIOPolynomial(t *testing.T) {
	cfg := emio.Config{B: 64, M: 64 * 32}
	eps := 0.5
	for _, n := range []int{4000, 16000, 64000} {
		d := emio.NewDisk(cfg)
		pts := geom.GenUniform(n, int64(n)*16, int64(n))
		ix := Build(d, eps, pts)
		rng := rand.New(rand.NewSource(3))
		var worst uint64
		for q := 0; q < 15; q++ {
			span := int64(n) * 4
			x1 := geom.Coord(rng.Int63n(span * 2))
			x2 := x1 + geom.Coord(rng.Int63n(span))
			y1 := geom.Coord(rng.Int63n(span * 2))
			y2 := y1 + geom.Coord(rng.Int63n(span))
			var res []geom.Point
			st := d.Measure(func() { res = ix.Query(geom.Rect{X1: x1, X2: x2, Y1: y1, Y2: y2}) })
			cost := st.IOs() - uint64(8*len(res)/cfg.B)
			if cost > worst {
				worst = cost
			}
		}
		nb := float64(n) / float64(cfg.B)
		budget := 400 * math.Pow(nb, eps) // generous constant, shape check
		if float64(worst) > budget {
			t.Errorf("n=%d: worst query cost %d, (n/B)^eps budget %.0f", n, worst, budget)
		}
	}
}

// TestAmortizedUpdateCost: Theorem 6's O(log(n/B)) amortized updates,
// including the periodic global rebuilds.
func TestAmortizedUpdateCost(t *testing.T) {
	cfg := emio.Config{B: 64, M: 64 * 64}
	d := emio.NewDisk(cfg)
	n := 8000
	pts := geom.GenUniform(n, int64(n)*16, 7)
	ix := Build(d, 0.5, pts)
	extra := geom.GenUniform(n, int64(n)*16, 8)
	for i := range extra {
		extra[i].X += int64(n) * 32
		extra[i].Y += int64(n) * 32
	}
	d.DropCache()
	d.ResetStats()
	for _, p := range extra {
		ix.Insert(p)
	}
	total := d.Stats().IOs()
	perOp := float64(total) / float64(len(extra))
	logNB := math.Log2(float64(n) / float64(cfg.B))
	if perOp > 60*logNB {
		t.Errorf("amortized insert cost %.1f I/Os, budget %.1f", perOp, 60*logNB)
	}
}

func TestRebuildKeepsAnswers(t *testing.T) {
	d := emio.NewDisk(emio.Config{B: 16, M: 16 * 64})
	pts := geom.GenUniform(100, 10000, 9)
	ix := Build(d, 0.5, pts)
	present := append([]geom.Point(nil), pts...)
	// Force several global rebuilds.
	for i := 0; i < 300; i++ {
		p := pt(geom.Coord(20000+i*3), geom.Coord(20000+i*7))
		ix.Insert(p)
		present = append(present, p)
	}
	r := geom.Rect{X1: 0, X2: 30000, Y1: 0, Y2: 30000}
	if got, want := ix.Query(r), geom.RangeSkyline(present, r); !sameAnswer(got, want) {
		t.Fatalf("after rebuilds: %v, want %v", got, want)
	}
}

// TestWarmStreamCost: at ε = 0.5 on the served machine, a warm stream
// alternating inserts at random x with deletes of random live points
// costs at most 11.6 I/Os per update, from a cold cache through a final
// DropCache that writes back every frame the stream dirtied. An update
// goes through the index's point store and every R(u) on its path, and
// in nearly every one the point is dominated inside its leaf, where that
// tree's update ends: the leaf's parent summarizes the leaf's blocks,
// so the update reads and rewrites the point's block alone. The stream
// measures 10.63. With the fan-out 2⌈B^ε⌉, binary R(u) trees and a point
// store whose parents had room for the blocks' fences only (read from
// the point's block on), it cost 14.65. When every leaf
// update read the whole leaf (a delete from the point's block on) and
// wrote from the point's block to the end, it cost 24.90; when each tree
// re-catenated every queue on its own path, 40.67; when every leaf
// update rewrote its whole span to a fresh one, 27.77; and when the
// index kept a second copy of its points in leaves of its own, with no
// point store, 25.15.
func TestWarmStreamCost(t *testing.T) {
	const n0, updates = 10000, 2000
	all := geom.GenUniform(n0+updates/2, 1<<40, 71)
	rng := rand.New(rand.NewSource(72))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	d := emio.NewDisk(emio.DefaultConfig())
	ix := Build(d, 0.5, all[:n0])
	live := slices.Clone(all[:n0])
	d.DropCache()
	before := d.Stats()
	for _, p := range all[n0:] {
		ix.Insert(p)
		live = append(live, p)
		i := rng.Intn(len(live))
		if !ix.Delete(live[i]) {
			t.Fatalf("Delete(%v) reported absent", live[i])
		}
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	d.DropCache()
	got := float64(d.Stats().Sub(before).IOs()) / updates
	t.Logf("%.2f I/Os per update", got)
	if got > 11.6 {
		t.Errorf("%.2f I/Os per update, want <= 11.6", got)
	}
}

// TestBatchReadsWhatSingleInsertsRead: a point of a multi-point Insert
// reads, in the point store and in every R(u) it reaches, what it reads
// when inserted alone — its leaf block, or the whole leaf when its
// leaf's staircase changes. From the same cold state, on a cache that
// holds every block, a batch therefore reads exactly the blocks the
// same points read inserted one at a time in the same order. Half of
// the points sit just left of and below an indexed point, so they are
// dominated inside their leaves; the other half are random.
func TestBatchReadsWhatSingleInsertsRead(t *testing.T) {
	// The point store's CPQA buffer size differs between the two ε; its
	// leaves' parents summarize their blocks at both.
	for _, eps := range []float64{0.25, 0.5} {
		batch, single := batchVsSingle(t, eps)
		if batch != single {
			t.Errorf("eps=%.2f: the batch cost %v, the same points one at a time %v", eps, batch, single)
		}
		if batch.Reads == 0 {
			t.Errorf("eps=%.2f: the batch read nothing from a cold cache", eps)
		}
	}
}

// batchVsSingle builds the same index twice, drops its cache, and
// inserts the same points into one as a batch and into the other one at
// a time, returning the I/O each cost.
func batchVsSingle(t *testing.T, eps float64) (batch, single emio.Stats) {
	base := geom.GenUniform(2000, 1<<20, 81)
	for i := range base {
		base[i] = pt(4*base[i].X, 4*base[i].Y)
	}
	perm := rand.New(rand.NewSource(82)).Perm(len(base))
	var pts []geom.Point
	for n, k := range perm[len(base)/8 : len(base)/8+20] {
		if n%2 == 0 {
			pts = append(pts, pt(base[k].X-1, base[k].Y-1))
		} else {
			pts = append(pts, pt(base[k].Y+2, base[k].X+2))
		}
	}
	run := func(insert func(ix *Index)) emio.Stats {
		d := emio.NewDisk(emio.Config{B: 16, M: 16 * 16384})
		ix := Build(d, eps, base)
		for _, k := range perm[:len(base)/8] {
			ix.Delete(base[k])
		}
		d.DropCache()
		before := d.Stats()
		insert(ix)
		cost := d.Stats().Sub(before)
		if err := ix.Err(); err != nil {
			t.Fatal(err)
		}
		return cost
	}
	batch = run(func(ix *Index) { ix.Insert(pts...) })
	single = run(func(ix *Index) {
		for _, p := range pts {
			ix.Insert(p)
		}
	})
	return batch, single
}
