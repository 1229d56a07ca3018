package foursided

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/emio"
	"repro/internal/geom"
)

// FuzzFourSidedQuery checks one 4-sided rectangle against the oracle on
// a live index and on a Handle pinned halfway through a run of updates.
// The seed picks ε and 100–299 points on the grid x, y ∈ 10·ℕ; ops is a
// run of updates, two bytes each: an odd first byte inserts a point at
// x = 10·i + 5 (skipped if taken), an even one deletes the i-th point.
// An insert's y is fresh and highest when the first byte's upper bits
// s = byte/8 are 0, and otherwise the free slot lowY picks at s/32 of
// the way up: such a point is usually dominated inside its leaf of
// R(u), which takes that secondary's leaf-only update path. B = 8 makes
// the tree several levels deep, so the rectangle cuts nodes on the
// left, the right or both. The grow seeds pin the Handle after one
// insert and then insert 100 points right of every other, highest
// first: the last leaf splits and the updates pass n0/2, which rebuilds
// every secondary from the point store, while the Handle holds the
// secondaries and the point store it pinned. Run with:
//
//	go test ./internal/foursided -fuzz FuzzFourSidedQuery -fuzztime 30s
func FuzzFourSidedQuery(f *testing.F) {
	ops := []byte{1, 50, 0, 7, 1, 51, 3, 52, 0, 90, 5, 53, 2, 8, 7, 54, 41, 55, 0, 12, 129, 56, 251, 57, 97, 58, 4, 30, 17, 59, 203, 60}
	inf, ninf := geom.PosInf, geom.NegInf
	for _, r := range []geom.Rect{
		{X1: 1005, X2: 1995, Y1: 200, Y2: 2400},  // left cut on nodes that end by x2
		{X1: ninf, X2: 1005, Y1: ninf, Y2: 1500}, // right cut only
		{X1: 505, X2: 555, Y1: ninf, Y2: inf},    // both cuts inside one leaf
		{X1: 501, X2: 509, Y1: ninf, Y2: inf},    // no point in range
		{X1: 505, X2: inf, Y1: 300, Y2: 2000},    // right-grounded: R(root)
		{X1: ninf, X2: ninf, Y1: ninf, Y2: inf},  // X2 = −∞: empty
		{X1: ninf, X2: inf, Y1: ninf, Y2: inf},   // the whole skyline
	} {
		f.Add(int64(1), ops, r.X1, r.X2, r.Y1, r.Y2)
		f.Add(int64(5), ops[:4], r.X1, r.X2, r.Y1, r.Y2)
	}
	// The first half inserts x = 5 once and then repeats it, which is
	// skipped; the second half inserts at x = 1555 … 2545.
	var grow []byte
	for range 100 {
		grow = append(grow, 1, 0)
	}
	for i := 155; i < 255; i++ {
		grow = append(grow, 1, byte(i))
	}
	// Seeds 3, 4 and 20 hold 108–130 points, at ε = 1, 0.5 and 0.3.
	for _, seed := range []int64{3, 4, 20} {
		f.Add(seed, grow, int64(505), int64(1805), int64(200), inf)   // the split leaf and the old last one
		f.Add(seed, grow, ninf, int64(2000), int64(200), int64(2500)) // right cut among the new points
	}
	f.Fuzz(func(t *testing.T, seed int64, ops []byte, x1, x2, y1, y2 int64) {
		if len(ops) > 400 {
			ops = ops[:400]
		}
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(200)
		eps := []float64{0.3, 0.5, 1}[rng.Intn(3)]
		pts := make([]geom.Point, n)
		xs := make(map[geom.Coord]bool, n)
		for i, y := range rng.Perm(n) {
			pts[i] = pt(geom.Coord(10*(i+1)), geom.Coord(10*(y+1)))
			xs[pts[i].X] = true
		}
		d := emio.NewDisk(emio.Config{B: 8, M: 8 * 64})
		ix := Build(d, eps, pts)
		nextY := geom.Coord(10*n + 5)
		apply := func(ops []byte) {
			for ; len(ops) >= 2; ops = ops[2:] {
				if ops[0]%2 == 1 {
					p := pt(geom.Coord(10*int(ops[1])+5), nextY)
					if xs[p.X] {
						continue
					}
					if s := int(ops[0] / 8); s == 0 {
						nextY += 10
					} else if y, ok := lowY(pts, nextY, s); ok {
						p.Y = y
					} else {
						continue
					}
					xs[p.X] = true
					ix.Insert(p)
					pts = append(pts, p)
				} else if len(pts) > 0 {
					i := int(ops[1]) % len(pts)
					if !ix.Delete(pts[i]) {
						t.Fatalf("Delete(%v) reported absent", pts[i])
					}
					delete(xs, pts[i].X)
					pts = append(pts[:i:i], pts[i+1:]...)
				}
			}
		}
		half := len(ops) / 4 * 2
		apply(ops[:half])
		ret := d.RetainFrees()
		defer ret.Release()
		h := ix.Snapshot()
		pinned := append([]geom.Point(nil), pts...)
		apply(ops[half:])

		r := geom.Rect{X1: x1, X2: x2, Y1: y1, Y2: y2}
		if got, want := ix.Query(r), geom.RangeSkyline(pts, r); !sameAnswer(got, want) {
			t.Fatalf("live Query(%v) = %v, want %v", r, got, want)
		}
		if got, want := h.Query(r), geom.RangeSkyline(pinned, r); !sameAnswer(got, want) {
			t.Fatalf("pinned Query(%v) = %v, want %v", r, got, want)
		}
	})
}

// lowY returns the highest y = 10·j + 5 at or below top·s/32 that no
// point of pts has, or false if every such slot is taken.
func lowY(pts []geom.Point, top geom.Coord, s int) (geom.Coord, bool) {
	for j := top * geom.Coord(s) / 320; j >= 0; j-- {
		if y := 10*j + 5; !slices.ContainsFunc(pts, func(q geom.Point) bool { return q.Y == y }) {
			return y, true
		}
	}
	return 0, false
}
