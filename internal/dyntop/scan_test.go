package dyntop

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/emio"
	"repro/internal/geom"
)

// scanCase is one boundary-leaf query against a leaf of n points stored
// B/2 to a block: the x-range and the blocks of that leaf a scan of it
// must charge, [first, last].
type scanCase struct {
	name        string
	x1, x2      geom.Coord
	first, last int
}

// scanCases builds the accounting cases for leaf pts (x-sorted, with gaps
// between consecutive x) stored two words per point in B-word blocks.
// Every case cuts pts at a point index c relative to the block edge e
// between blocks 0 and 1: the boundary point sits just before, at and
// just after the edge.
func scanCases(pts []geom.Point, B int) []scanCase {
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

// checkScan asserts, after a cold-cache query, that exactly the blocks
// [c.first, c.last] of the leaf span at id are resident — the blocks the
// query charged — and that every point the scan must see (the in-range
// points and, on a one-sided cut, the boundary point that stops it) lies
// in a charged block.
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
	lo, hi := 0, len(pts)
	for lo < hi && pts[lo].X < c.x1 {
		lo++
	}
	for hi > lo && pts[hi-1].X > c.x2 {
		hi--
	}
	if lo > 0 && hi == len(pts) {
		lo-- // the scan from the right stops on the last point left of x1
	}
	if hi < len(pts) && lo == 0 {
		hi++ // the scan from the left stops on the first point right of x2
	}
	for i := lo; i < hi; i++ {
		for _, w := range []int{2 * i, 2*i + 1} {
			if !d.Resident(id + emio.BlockID(w/B)) {
				t.Errorf("%s: point %d (%v) is scanned but its block %d was not charged", c.name, i, pts[i], w/B)
			}
		}
	}
}

// leaves lists the tree's leaves in x order.
func leaves(nd *node) []*node {
	if nd == nil {
		return nil
	}
	if nd.leaf() {
		return []*node{nd}
	}
	var out []*node
	for _, c := range nd.children {
		out = append(out, leaves(c)...)
	}
	return out
}

// TestBoundaryLeafChargesScannedBlocks pins the query accounting rule on
// a leaf of many blocks (B = 8, four points a block): a boundary leaf cut
// on one side is charged only the blocks a scan from its grounded end
// reads, a leaf cut on both sides or holding no point in range is
// charged whole, and no other leaf is read — through the live tree and
// through a Handle.
func TestBoundaryLeafChargesScannedBlocks(t *testing.T) {
	const n = 240
	rng := rand.New(rand.NewSource(7))
	pts := make([]geom.Point, n)
	for i, y := range rng.Perm(n) {
		pts[i] = pt(geom.Coord(10*(i+1)), geom.Coord(10*(y+1)))
	}
	d := emio.NewDisk(emio.Config{B: 8, M: 8 * 1024})
	tr := BuildSABE(d, 0.5, pts)
	ret := d.RetainFrees()
	defer ret.Release()
	h := tr.Snapshot()

	ls := leaves(tr.root)
	leaf := ls[len(ls)/2]
	if blocks := d.Config().BlocksFor(leaf.ptsWords); blocks < 3 {
		t.Fatalf("leaf spans %d blocks; the cases need at least 3", blocks)
	}
	for _, c := range scanCases(leaf.pts, d.Config().B) {
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
			checkScan(t, d, leaf.ptsBlock, leaf.pts, c)
			for _, other := range ls {
				if other == leaf {
					continue
				}
				for b := 0; b < d.Config().BlocksFor(other.ptsWords); b++ {
					if d.Resident(other.ptsBlock + emio.BlockID(b)) {
						t.Errorf("%s via %s: leaf [%d,%d] was read, only the boundary leaf should be",
							c.name, via, other.minX, other.maxX)
					}
				}
			}
		}
	}
}
