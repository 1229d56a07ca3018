package dyntop

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/emio"
	"repro/internal/geom"
	"repro/internal/xtree"
)

// scanCase is one boundary-leaf query against a leaf of n points stored
// B/2 to a block: the x-range and the blocks of that leaf a scan of it
// must charge, [first, last].
type scanCase struct {
	name        string
	x1, x2      geom.Coord
	first, last int
}

// groundedCases builds the accounting cases for a leaf read without
// fences, pts (x-sorted, with gaps between consecutive x) stored two
// words per point in B-word blocks. Every one-sided case cuts pts at a
// point index c relative to the block edge e between blocks 0 and 1:
// the boundary point sits just before, at and just after the edge.
func groundedCases(pts []geom.Point, B int) []scanCase {
	per := B / 2
	n := len(pts)
	last := (2*n - 1) / B
	e := per // first point of block 1
	var cs []scanCase
	for _, c := range []int{e - 1, e, e + 1} {
		// Cut on the left: the scan runs from the last block back
		// through the block of the last point left of x1, pts[c].
		cs = append(cs, scanCase{fmt.Sprintf("left cut after point %d", c),
			pts[c].X + 1, geom.PosInf, 2 * c / B, last})
		// Cut on the right: the scan runs from the first block through
		// the block of the first point right of x2, pts[c].
		cs = append(cs, scanCase{fmt.Sprintf("right cut before point %d", c),
			geom.NegInf, pts[c].X - 1, 0, (2*c + 1) / B})
	}
	cs = append(cs,
		scanCase{"both cuts inside the leaf", pts[1].X + 1, pts[n-2].X - 1, 0, last},
		scanCase{"no point in range", pts[e].X + 1, pts[e+1].X - 1, 0, last})
	return cs
}

// fencedCases builds the accounting cases for a leaf whose block fences
// (each block's first x) are resident: the scan reads from the last
// block whose fence is ≤ x1 through the last block whose fence is ≤ x2.
// The leaf must span at least three blocks.
func fencedCases(pts []geom.Point, B int) []scanCase {
	per := B / 2
	last := (2*len(pts) - 1) / B
	e := per // first point of block 1, whose fence is pts[e].X
	return []scanCase{
		{"left cut after the last point of block 0", pts[e-1].X + 1, geom.PosInf, 0, last},
		{"left cut at the fence of block 1", pts[e].X, geom.PosInf, 1, last},
		{"left cut after the fence of block 1", pts[e].X + 1, geom.PosInf, 1, last},
		// The first point past x2 opens block 1: its fence says the
		// scan can stop before it.
		{"right cut before the fence of block 1", geom.NegInf, pts[e].X - 1, 0, 0},
		{"right cut at the fence of block 1", geom.NegInf, pts[e].X, 0, 1},
		{"both cuts inside block 1", pts[e].X + 1, pts[e+per-1].X - 1, 1, 1},
		{"both cuts across blocks 0 and 1", pts[1].X + 1, pts[e+1].X + 1, 0, 1},
		{"no point in range", pts[e].X + 1, pts[e+1].X - 1, 1, 1},
		{"no point in range, left of a fence", pts[e-1].X + 1, pts[e].X - 1, 0, 0},
	}
}

// checkScan asserts, after a cold-cache query, that exactly the blocks
// [c.first, c.last] of the leaf span at id are resident — the blocks the
// query charged — and that every in-range point lies in a charged block.
func checkScan(t *testing.T, d *emio.Disk, id emio.BlockID, pts []geom.Point, c scanCase) {
	t.Helper()
	B := d.Config().B
	blocks := d.Config().BlocksFor(2 * len(pts))
	for b := 0; b < blocks; b++ {
		want := b >= c.first && b <= c.last
		if got := d.Resident(id + emio.BlockID(b)); got != want {
			t.Errorf("%s: block %d of %d charged = %v, want %v", c.name, b, blocks, got, want)
		}
	}
	for i, p := range pts {
		if p.X < c.x1 || p.X > c.x2 {
			continue
		}
		for _, w := range []int{2 * i, 2*i + 1} {
			if !d.Resident(id + emio.BlockID(w/B)) {
				t.Errorf("%s: point %d (%v) is in range but its block %d was not charged", c.name, i, p, w/B)
			}
		}
	}
}

// leaves lists the tree's leaves in x order.
func leaves(nd *node) []*node { return slices.Collect(xtree.Leaves(nd, geom.NegInf, geom.PosInf)) }

// parentOf returns nd's parent in the tree under root, nil for the root.
func parentOf(root, nd *node) *node {
	for u := range xtree.Nodes(root) {
		if slices.Contains(u.Children, nd) {
			return u
		}
	}
	return nil
}

// leafFor returns the leaf whose x-range should contain x.
func leafFor(tr *Tree, x geom.Coord) *node {
	path := tr.xt.Descend(x, nil)
	return path[len(path)-1]
}

// runScanCases answers every case cold through the tree and through a
// Handle, checks the answer against the oracle, the blocks charged to
// leaf, and that no other leaf of the tree was read.
func runScanCases(t *testing.T, d *emio.Disk, tr *Tree, pts []geom.Point, leaf *node, cs []scanCase) {
	t.Helper()
	ret := d.RetainFrees()
	defer ret.Release()
	h := tr.Snapshot()
	ls := leaves(tr.xt.Root)
	for _, c := range cs {
		for _, via := range []string{"tree", "handle"} {
			d.DropCache()
			var got []geom.Point
			if via == "tree" {
				got = tr.Query(c.x1, c.x2, geom.NegInf)
			} else {
				got = h.Query(c.x1, c.x2, geom.NegInf)
			}
			if want := geom.RangeSkyline(pts, geom.TopOpen(c.x1, c.x2, geom.NegInf)); !sameAnswer(got, want) {
				t.Fatalf("%s via %s: Query = %v, want %v", c.name, via, got, want)
			}
			cv := c
			cv.name += " via " + via
			checkScan(t, d, leaf.PtsBlock, leaf.Pts, cv)
			for _, other := range ls {
				if other == leaf {
					continue
				}
				for b := 0; b < d.Config().BlocksFor(other.PtsWords); b++ {
					if d.Resident(other.PtsBlock + emio.BlockID(b)) {
						t.Errorf("%s: leaf [%d,%d] was read, only the boundary leaf should be",
							cv.name, other.MinX, other.MaxX)
					}
				}
			}
		}
	}
}

// permPoints returns n points in general position, x = 10, 20, … and y
// a seeded permutation of the same grid.
func permPoints(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i, y := range rng.Perm(n) {
		pts[i] = pt(geom.Coord(10*(i+1)), geom.Coord(10*(y+1)))
	}
	return pts
}

// leafUnder returns a middle leaf of three or four blocks whose parent's
// representative block holds its fences (fenced) or has no room for
// them (!fenced).
func leafUnder(t *testing.T, tr *Tree, fenced bool) *node {
	t.Helper()
	cfg := tr.disk.Config()
	ls := leaves(tr.xt.Root)
	for i := range ls {
		l := ls[(len(ls)/2+i)%len(ls)]
		blocks := cfg.BlocksFor(l.PtsWords)
		if _, f := repLayout(cfg, parentOf(tr.xt.Root, l)); f == fenced && blocks >= 3 && blocks <= 4 {
			return l
		}
	}
	t.Fatalf("no leaf of 3–4 blocks with fenced = %v among %d leaves", fenced, len(ls))
	return nil
}

// TestBoundaryLeafChargesScannedBlocks pins the query accounting rule on
// leaves of three or four blocks (B = 8, four points a block). A leaf
// whose fences its parent's representative block holds is scanned from
// them: a leaf cut on both sides is charged only the fenced blocks, a
// leaf with no point in range exactly one, and a right cut stops before
// a block that its first point past x2 opens. A leaf whose parent has no
// room for its fences, and the leaf of a single-leaf tree, which has no
// parent block, keep the grounded-end rule: a one-sided cut reads from
// the grounded end through the boundary point, any other cut the whole
// leaf. No other leaf is read, through the live tree and through a
// Handle.
func TestBoundaryLeafChargesScannedBlocks(t *testing.T) {
	cfg := emio.Config{B: 8, M: 8 * 1024}
	// At B = 8 the critical records of ε = 0.5's six or more children
	// leave no room for fences; ε = 0's two to four children do.
	for _, c := range []struct {
		name   string
		eps    float64
		fenced bool
	}{{"fenced", 0, true}, {"no room for fences", 0.5, false}} {
		t.Run(c.name, func(t *testing.T) {
			pts := permPoints(240, 7)
			d := emio.NewDisk(cfg)
			tr := BuildSABE(d, c.eps, pts)
			leaf := leafUnder(t, tr, c.fenced)
			cs := groundedCases(leaf.Pts, cfg.B)
			if c.fenced {
				cs = fencedCases(leaf.Pts, cfg.B)
			}
			runScanCases(t, d, tr, pts, leaf, cs)
		})
	}
	t.Run("single leaf", func(t *testing.T) {
		pts := permPoints(12, 8)
		d := emio.NewDisk(cfg)
		tr := BuildSABE(d, 0.5, pts)
		if !tr.xt.Root.Leaf() || cfg.BlocksFor(tr.xt.Root.PtsWords) != 3 {
			t.Fatalf("want a root leaf of 3 blocks, got leaf=%v over %d words", tr.xt.Root.Leaf(), tr.xt.Root.PtsWords)
		}
		runScanCases(t, d, tr, pts, tr.xt.Root, groundedCases(tr.xt.Root.Pts, cfg.B))
	})
}

// TestScanChargesGroundedBlocks: Scan reads no representative block, so
// it charges a leaf the range cuts by the grounded-end rule even where
// the leaf's parent holds its fences, reads every leaf inside the range
// whole, and lists exactly the points in range in x order.
func TestScanChargesGroundedBlocks(t *testing.T) {
	cfg := emio.Config{B: 8, M: 8 * 1024}
	pts := permPoints(240, 7)
	d := emio.NewDisk(cfg)
	tr := BuildSABE(d, 0, pts)
	for _, fenced := range []bool{true, false} {
		leaf := leafUnder(t, tr, fenced)
		for _, c := range groundedCases(leaf.Pts, cfg.B) {
			d.DropCache()
			got := tr.Scan(c.x1, c.x2, nil)
			var want []geom.Point
			for _, p := range pts {
				if p.X >= c.x1 && p.X <= c.x2 {
					want = append(want, p)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: Scan listed %d points, want the %d in range", c.name, len(got), len(want))
			}
			checkScan(t, d, leaf.PtsBlock, leaf.Pts, c)
			for _, l := range leaves(tr.xt.Root) {
				if l.MinX >= c.x1 && l.MaxX <= c.x2 && !d.Resident(l.PtsBlock+emio.BlockID(cfg.BlocksFor(l.PtsWords)-1)) {
					t.Errorf("%s: leaf [%d,%d] inside the range was not read whole", c.name, l.MinX, l.MaxX)
				}
			}
		}
	}
}

// TestRepLayoutMatchesStoredBlock: a query decides from repLayout whether
// a parent holds its leaves' fences, so after builds, inserts, deletes,
// splits and merges every internal node's representative block must
// have the size repLayout derives from its children now.
func TestRepLayoutMatchesStoredBlock(t *testing.T) {
	for _, eps := range []float64{0, 0.5, 1} {
		d := emio.NewDisk(emio.Config{B: 8, M: 8 * 1024})
		pts := permPoints(300, 11)
		tr := BuildSABE(d, eps, pts)
		rng := rand.New(rand.NewSource(12))
		check := func(when string) {
			var rec func(nd *node)
			rec = func(nd *node) {
				if nd == nil || nd.Leaf() {
					return
				}
				if w, _ := repLayout(d.Config(), nd); w != nd.Data.repWords {
					t.Fatalf("eps=%.1f %s: node [%d,%d] stores %d representative words, repLayout says %d",
						eps, when, nd.MinX, nd.MaxX, nd.Data.repWords, w)
				}
				for _, c := range nd.Children {
					rec(c)
				}
			}
			rec(tr.xt.Root)
		}
		check("after build")
		for i, j := range rng.Perm(len(pts)) {
			if i%3 == 0 {
				tr.Insert(pt(pts[j].X+5, geom.Coord(10*(len(pts)+i)+5)))
			} else {
				tr.Delete(pts[j])
			}
			check(fmt.Sprintf("after update %d", i))
		}
	}
}
