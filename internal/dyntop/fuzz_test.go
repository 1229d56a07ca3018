package dyntop

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/emio"
	"repro/internal/geom"
)

// FuzzTreeSnapshots drives a tree through inserts, deletes, Snapshots,
// handle releases and top-open queries, and after every op checks each
// open Handle against the point set captured at its pin: its Len, its
// Points, and one top-open query. The seed picks ε (seed mod 3: 0, 0.5,
// 1), the block size (B = 64 when seed bit 3 is set, else 8) and 0–59
// points on the grid x, y ∈ 10·ℕ, sixteen times as many at B = 64, so
// that the tree has as many leaves; ops is a run of two-byte
// ops, the first byte choosing the op (mod 8: 0–2 insert at x = 10·i + 5,
// skipped if taken; 3–4 delete the i-th point; 5 pin a handle, at most
// four open; 6 release the i-th open handle; 7 query the live tree) and
// the second giving i and the query's corners. An insert's y is fresh
// and highest when the first byte's upper bits s = byte/8 are 0, and
// otherwise the free slot lowY picks at s/32 of the way up: such a point
// is usually dominated inside its leaf, which takes the update's
// leaf-only path. B = 8 keeps leaves at 8–16 points and nodes at 2–4
// children; B = 64 keeps leaves at 64–128 points and nodes at 4–8
// children, so multi-way nodes split and merge too. Leaf and internal
// splits, merges, root growth and root shrink all happen while handles
// are open. At the end every handle is released with its
// retention and the tree with it, and the disk must hold nothing. Run
// with:
//
//	go test ./internal/dyntop -fuzz FuzzTreeSnapshots -fuzztime 30s
func FuzzTreeSnapshots(f *testing.F) {
	// Grow by 100 points with handles pinned along the way, shrink to
	// nothing, and grow again: every split, merge, root growth and
	// root shrink happens under an open handle.
	var grow, shrink []byte
	for i := 0; i < 170; i++ {
		if i < 100 {
			// One insert in four takes a fresh highest y.
			grow = append(grow, byte(i%3)+8*byte(i%4*7), byte(i*37))
		}
		shrink = append(shrink, 3, byte(i*11))
		if i%40 == 0 {
			grow = append(grow, 5, 0, 7, byte(i))
			shrink = append(shrink, 5, 0, 6, byte(i), 7, byte(i))
		}
	}
	long := slices.Concat(grow, shrink, grow[:60])
	for seed := int64(0); seed < 3; seed++ {
		f.Add(seed, long)
	}
	f.Add(int64(4), []byte{5, 0, 0, 9, 3, 2, 5, 0, 7, 40, 6, 0, 4, 1, 7, 200})
	// Under a handle, insert eight dominated points at x = 205 … 275,
	// which overfill the blocks of their leaves, then, under a second
	// handle, delete the eight points from x = 200 on, which let the
	// leaves pack into a block less; at ε = 0 (seed 6, 48 points) and
	// ε = 0.5 (seed 4, 49 points).
	blocks := []byte{5, 0}
	for i := 20; i < 28; i++ {
		blocks = append(blocks, 8*16, byte(i))
	}
	blocks = append(blocks, 7, 20, 5, 0)
	for range 8 {
		blocks = append(blocks, 3, 19)
	}
	blocks = append(blocks, 7, 30, 6, 0, 7, 40, 6, 0)
	f.Add(int64(6), blocks)
	f.Add(int64(4), blocks)
	// At B = 64 (seeds 27, 13 and 44: 800–848 points in nine leaves
	// under a root of two nodes of four and five children, at ε = 0, 0.5
	// and 1), pin a handle and delete the 80 leftmost points: the first
	// two leaves merge, the first node, left with three children, merges
	// into its sibling, and the root shrinks to that 8-child node. Then
	// pin a second handle and insert 200 points at x = 5 … 1995, one in
	// four highest: the leftmost leaves split until the root has nine
	// children, which split four and five under a new root.
	wide := []byte{5, 0}
	for range 80 {
		wide = append(wide, 3, 0)
	}
	wide = append(wide, 7, 100, 5, 0)
	for i := range 200 {
		wide = append(wide, byte(i%3)+8*byte(i%4*7), byte(i))
	}
	wide = append(wide, 7, 20, 6, 0, 7, 60)
	for _, seed := range []int64{27, 13, 44} {
		f.Add(seed, wide)
	}
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 640 {
			ops = ops[:640]
		}
		rng := rand.New(rand.NewSource(seed))
		B, scale := 8, 1
		if seed&8 != 0 {
			B, scale = 64, 16
		}
		n := scale * rng.Intn(60)
		eps := []float64{0, 0.5, 1}[uint64(seed)%3]
		var present []geom.Point
		for i, y := range rng.Perm(n) {
			present = append(present, pt(geom.Coord(10*(i+1)), geom.Coord(10*(y+1))))
		}
		d := emio.NewDisk(emio.Config{B: B, M: B * 64})
		tr := BuildSABE(d, eps, present)
		nextY := geom.Coord(10*n + 5)

		type pin struct {
			h   *Handle
			ret *emio.Retention
			pts []geom.Point // x-sorted
		}
		var pins []pin
		// rect derives a top-open query from one byte: x-range corners
		// on the grid's scale and a threshold below most points.
		rect := func(b byte) (x1, x2, beta geom.Coord) {
			x1 = geom.Coord(10 * int(b))
			return x1, x1 + geom.Coord(10*int(b^0x5a)), geom.Coord(5 * int(b>>1))
		}
		for ; len(ops) >= 2; ops = ops[2:] {
			op, arg := ops[0]%8, ops[1]
			switch {
			case op < 3:
				p := pt(geom.Coord(10*int(arg)+5), nextY)
				if slices.ContainsFunc(present, func(q geom.Point) bool { return q.X == p.X }) {
					break
				}
				if s := int(ops[0] / 8); s == 0 {
					nextY += 10
				} else if y, ok := lowY(present, nextY, s); ok {
					p.Y = y
				} else {
					break
				}
				tr.Insert(p)
				present = append(present, p)
			case op < 5:
				if len(present) == 0 {
					break
				}
				i := int(arg) % len(present)
				if !tr.Delete(present[i]) {
					t.Fatalf("Delete(%v) reported absent", present[i])
				}
				present = slices.Delete(slices.Clone(present), i, i+1)
			case op == 5:
				if len(pins) < 4 {
					ret := d.RetainFrees()
					pts := slices.Clone(present)
					geom.SortByX(pts)
					pins = append(pins, pin{tr.Snapshot(), ret, pts})
				}
			case op == 6:
				if len(pins) > 0 {
					i := int(arg) % len(pins)
					pins[i].ret.Release()
					pins = slices.Delete(pins, i, i+1)
				}
			default:
				x1, x2, beta := rect(arg)
				if got, want := tr.Query(x1, x2, beta), geom.RangeSkyline(present, geom.TopOpen(x1, x2, beta)); !sameAnswer(got, want) {
					t.Fatalf("live Query(%d,%d,%d) = %v, want %v", x1, x2, beta, got, want)
				}
			}
			if tr.Len() != len(present) {
				t.Fatalf("Len = %d, want %d", tr.Len(), len(present))
			}
			for i, p := range pins {
				if got := p.h.Scan(geom.NegInf, geom.PosInf, nil); p.h.Len() != len(p.pts) || !sameAnswer(got, p.pts) {
					t.Fatalf("handle %d: Len %d, Points %v; want the %d points pinned, %v", i, p.h.Len(), got, len(p.pts), p.pts)
				}
				x1, x2, beta := rect(arg ^ byte(i))
				if got, want := p.h.Query(x1, x2, beta), geom.RangeSkyline(p.pts, geom.TopOpen(x1, x2, beta)); !sameAnswer(got, want) {
					t.Fatalf("handle %d: Query(%d,%d,%d) = %v, want %v", i, x1, x2, beta, got, want)
				}
			}
		}
		for _, p := range pins {
			p.ret.Release()
		}
		tr.Release()
		if d.LiveBlocks() != 0 || d.DeferredBlocks() != 0 {
			t.Fatalf("%d blocks live, %d deferred after every handle and the tree were released", d.LiveBlocks(), d.DeferredBlocks())
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
