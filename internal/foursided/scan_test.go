package foursided

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/emio"
	"repro/internal/geom"
)

// leafOf returns the leaf whose x-range holds x and its parent.
func leafOf(ix *Index, x geom.Coord) (leaf, parent *node) {
	path := ix.xt.Descend(x, nil)
	return path[len(path)-1], path[len(path)-2]
}

// TestBoundaryLeafChargesScannedBlocks pins the query accounting rule on
// a leaf grown to four blocks (B = 8, four points a block) that is not
// its parent's last child. Every rectangle ends inside the parent, so
// the parent is cut on the right and the leaf is a boundary leaf, read
// from a grounded end (foursided leaves have no fences): a leaf cut on
// one side is charged only the blocks a scan from its grounded end
// reads — through the block of the boundary point just before, at and
// just after a block edge — and a leaf cut on both sides or holding no
// point in range is charged whole, through the live index and through a
// Handle.
func TestBoundaryLeafChargesScannedBlocks(t *testing.T) {
	const n = 240
	rng := rand.New(rand.NewSource(9))
	pts := make([]geom.Point, n)
	for i, y := range rng.Perm(n) {
		pts[i] = pt(geom.Coord(10*(i+1)), geom.Coord(10*(y+1)))
	}
	d := emio.NewDisk(emio.Config{B: 8, M: 8 * 1024})
	ix := Build(d, 0.5, pts)
	// Grow a leaf that is not its parent's last child from B to 2B
	// points by inserting just left of each of its points.
	leaf, parent := leafOf(ix, pts[n/2].X)
	if sibs := parent.Children; sibs[len(sibs)-1] == leaf {
		leaf = sibs[len(sibs)-2]
	}
	x := leaf.MaxX
	for i, p := range append([]geom.Point(nil), leaf.Pts...) {
		q := pt(p.X-5, geom.Coord(10*(n+i+1)+5))
		ix.Insert(q)
		pts = append(pts, q)
	}
	leaf, parent = leafOf(ix, x)
	B := d.Config().B
	if blocks := d.Config().BlocksFor(leaf.PtsWords); blocks != 4 {
		t.Fatalf("leaf spans %d blocks, want 4", blocks)
	}
	lp := leaf.Pts
	xmin, xmax := geom.Coord(math.MinInt64+1), geom.Coord(math.MaxInt64-1)
	// A left cut ends just past the leaf, still inside its parent.
	xend := lp[len(lp)-1].X + 1
	if parent.MaxX <= xend {
		t.Fatalf("leaf [%d,%d] ends its parent [%d,%d]", leaf.MinX, leaf.MaxX, parent.MinX, parent.MaxX)
	}
	ret := d.RetainFrees()
	defer ret.Release()
	h := ix.Snapshot()

	type scanCase struct {
		name        string
		x1, x2      geom.Coord
		first, last int // the leaf blocks the scan charges
	}
	var cs []scanCase
	for _, c := range []int{B/2 - 1, B / 2, B/2 + 1} { // around the edge of blocks 0 and 1
		cs = append(cs,
			scanCase{fmt.Sprintf("left cut after point %d", c), lp[c].X + 1, xend, 2 * c / B, 3},
			scanCase{fmt.Sprintf("right cut before point %d", c), xmin, lp[c].X - 1, 0, (2*c + 1) / B})
	}
	cs = append(cs,
		scanCase{"both cuts inside the leaf", lp[1].X + 1, lp[len(lp)-2].X - 1, 0, 3},
		scanCase{"no point in range", lp[4].X + 1, lp[5].X - 1, 0, 3})

	for _, c := range cs {
		for _, via := range []string{"index", "handle"} {
			r := geom.Rect{X1: c.x1, X2: c.x2, Y1: geom.NegInf, Y2: xmax}
			d.DropCache()
			var got []geom.Point
			if via == "index" {
				got = ix.Query(r)
			} else {
				got = h.Query(r)
			}
			if want := geom.RangeSkyline(pts, r); !sameAnswer(got, want) {
				t.Fatalf("%s via %s: Query = %v, want %v", c.name, via, got, want)
			}
			for b := 0; b < 4; b++ {
				want := b >= c.first && b <= c.last
				if got := d.Resident(leaf.PtsBlock + emio.BlockID(b)); got != want {
					t.Errorf("%s via %s: block %d charged = %v, want %v", c.name, via, b, got, want)
				}
			}
			// Every point the scan sees — the in-range points and the
			// boundary point that stops a one-sided scan — lies in a
			// charged block.
			lo, hi := 0, len(lp)
			for lo < hi && lp[lo].X < c.x1 {
				lo++
			}
			for hi > lo && lp[hi-1].X > c.x2 {
				hi--
			}
			if lo > 0 && hi == len(lp) {
				lo--
			}
			if hi < len(lp) && lo == 0 {
				hi++
			}
			for i := lo; i < hi; i++ {
				if !d.Resident(leaf.PtsBlock + emio.BlockID(2*i/B)) {
					t.Errorf("%s via %s: point %d is scanned but its block %d was not charged", c.name, via, i, 2*i/B)
				}
			}
		}
	}
}

// TestRightGroundedReadsNoLeaf: a rectangle with X2 = +∞ is one query on
// R(root), so it reads no leaf of the primary tree, live or pinned.
func TestRightGroundedReadsNoLeaf(t *testing.T) {
	pts := geom.GenUniform(2000, 1<<20, 13)
	d := emio.NewDisk(emio.Config{B: 16, M: 16 * 1024})
	ix := Build(d, 0.5, pts)
	ret := d.RetainFrees()
	defer ret.Release()
	h := ix.Snapshot()
	rng := rand.New(rand.NewSource(14))
	var ls []*node
	var walk func(nd *node)
	walk = func(nd *node) {
		if nd.Leaf() {
			ls = append(ls, nd)
		}
		for _, c := range nd.Children {
			walk(c)
		}
	}
	walk(ix.xt.Root)
	for q := 0; q < 100; q++ {
		y1 := geom.Coord(rng.Int63n(1 << 20))
		r := geom.RightOpen(geom.Coord(rng.Int63n(1<<20)), y1, y1+geom.Coord(rng.Int63n(1<<19)))
		if q%4 == 0 {
			r = geom.Dominance(r.X1, y1)
		}
		for _, view := range []func(geom.Rect) []geom.Point{ix.Query, h.Query} {
			d.DropCache()
			if got, want := view(r), geom.RangeSkyline(pts, r); !sameAnswer(got, want) {
				t.Fatalf("Query(%v) = %v, want %v", r, got, want)
			}
			for _, l := range ls {
				for b := 0; b < d.Config().BlocksFor(l.PtsWords); b++ {
					if d.Resident(l.PtsBlock + emio.BlockID(b)) {
						t.Fatalf("Query(%v) read leaf [%d,%d]", r, l.MinX, l.MaxX)
					}
				}
			}
		}
	}
}

// TestRightGroundedIOBudget holds right-grounded queries to R(root)'s
// O(log(n/B) + k/B): at n = 16 384 and B = 64, from a cold cache, the
// mean cost stays within log2(n/B) I/Os and every query within
// 3·log2(n/B) + k/B. A canonical-node decomposition of [x1,∞) — up to
// f − 1 R(u) band queries and two leaves a level — exceeds both (mean
// 11.9, worst 75 on these queries).
func TestRightGroundedIOBudget(t *testing.T) {
	const n = 16384
	cfg := emio.Config{B: 64, M: 64 * 64}
	d := emio.NewDisk(cfg)
	pts := geom.GenUniform(n, 1<<30, 21)
	ix := Build(d, 0.5, pts)
	rng := rand.New(rand.NewSource(22))
	logNB := math.Log2(float64(n) / float64(cfg.B))
	const queries = 300
	var total uint64
	for q := 0; q < queries; q++ {
		y1 := geom.Coord(rng.Int63n(1 << 30))
		r := geom.RightOpen(geom.Coord(rng.Int63n(1<<30)), y1, y1+geom.Coord(rng.Int63n(1<<29)))
		var res []geom.Point
		st := d.Measure(func() { res = ix.Query(r) })
		total += st.IOs()
		if budget := 3*logNB + float64(len(res))/float64(cfg.B); float64(st.IOs()) > budget {
			t.Errorf("Query(%v): %d I/Os for k = %d, budget %.1f", r, st.IOs(), len(res), budget)
		}
	}
	if mean := float64(total) / queries; mean > logNB {
		t.Errorf("mean right-grounded query cost %.2f I/Os, budget log2(n/B) = %.0f", mean, logNB)
	}
}

// TestLeftCutIOBudget holds rectangles with a finite right edge to the
// decomposition in which every internal node whose subtree ends by x2
// asks its own R(u): at n = 16 384 and B = 64, from a cold cache, the
// mean cost of 300 bottom-open and of 300 4-sided rectangles stays
// within log2(n/B) I/Os each (6.3 and 4.4). Splitting a node cut only on
// its left into canonical children and a boundary leaf costs more (mean
// 14.2 and 10.0 on these queries). After every query, live and through
// a Handle, no leaf below such a node is resident: R(u) answered it
// alone.
func TestLeftCutIOBudget(t *testing.T) {
	const n = 16384
	cfg := emio.Config{B: 64, M: 64 * 64}
	d := emio.NewDisk(cfg)
	pts := geom.GenUniform(n, 1<<30, 21)
	ix := Build(d, 0.5, pts)
	ret := d.RetainFrees()
	defer ret.Release()
	h := ix.Snapshot()
	logNB := math.Log2(float64(n) / float64(cfg.B))

	// leftCut lists the leaves below every internal node that r cuts on
	// its left only.
	leftCut := func(r geom.Rect) []*node {
		var out []*node
		var walk func(nd *node, below bool)
		walk = func(nd *node, below bool) {
			if nd.Leaf() {
				if below {
					out = append(out, nd)
				}
				return
			}
			below = below || (nd.MinX < r.X1 && r.X1 <= nd.MaxX && nd.MaxX <= r.X2)
			for _, c := range nd.Children {
				walk(c, below)
			}
		}
		walk(ix.xt.Root, false)
		return out
	}
	shapes := []struct {
		name string
		make func(rng *rand.Rand) geom.Rect
	}{
		{"bottom-open", func(rng *rand.Rand) geom.Rect {
			x1 := geom.Coord(rng.Int63n(1 << 30))
			return geom.BottomOpen(x1, x1+geom.Coord(rng.Int63n(1<<29)), geom.Coord(rng.Int63n(1<<30)))
		}},
		{"4-sided", func(rng *rand.Rand) geom.Rect {
			x1, y1 := geom.Coord(rng.Int63n(1<<30)), geom.Coord(rng.Int63n(1<<30))
			return geom.Rect{X1: x1, X2: x1 + geom.Coord(rng.Int63n(1<<29)), Y1: y1, Y2: y1 + geom.Coord(rng.Int63n(1<<29))}
		}},
	}
	const queries = 300
	for _, s := range shapes {
		for _, via := range []string{"index", "handle"} {
			query := ix.Query
			if via == "handle" {
				query = h.Query
			}
			rng := rand.New(rand.NewSource(22))
			var total uint64
			for q := 0; q < queries; q++ {
				r := s.make(rng)
				var got []geom.Point
				total += d.Measure(func() { got = query(r) }).IOs()
				if want := geom.RangeSkyline(pts, r); !sameAnswer(got, want) {
					t.Fatalf("%s via %s: Query(%v) = %v, want %v", s.name, via, r, got, want)
				}
				for _, l := range leftCut(r) {
					for b := 0; b < cfg.BlocksFor(l.PtsWords); b++ {
						if d.Resident(l.PtsBlock + emio.BlockID(b)) {
							t.Fatalf("%s via %s: Query(%v) read leaf [%d,%d] below a left-cut node",
								s.name, via, r, l.MinX, l.MaxX)
						}
					}
				}
			}
			if mean := float64(total) / queries; mean > logNB {
				t.Errorf("%s via %s: mean cost %.2f I/Os, budget log2(n/B) = %.0f", s.name, via, mean, logNB)
			}
		}
	}
}
