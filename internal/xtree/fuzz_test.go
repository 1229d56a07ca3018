package xtree

import (
	"slices"
	"testing"

	"repro/internal/emio"
	"repro/internal/geom"
)

// FuzzLeafBlocks drives one leaf through single-point inserts and
// deletes, RewriteLeaf, Pin and the release of the pin, checked against
// a sorted slice of the points. The first byte picks B (4, 6, 8 or 16:
// 2, 3, 4 or 8 points a block) and the initial points; the rest is a run
// of two-byte ops, the first byte choosing the op (mod 8: 0–3 insert at
// x = 2·byte2 + 1, skipped if taken; 4–5 delete the i-th point; 6 pin,
// or release the open pin; 7 rewrite the leaf packed). While a pin is
// open, every write first owns the leaf, as the trees' updates do.
//
// After every op: the points are the model's, in order, held in the
// fewest blocks, each holding one point to full (all full but the last
// after a rewrite); LiveWords and LiveBlocks are exactly the leaf's and
// the pinned copy's, and PeakWords the highest LiveWords seen; an update
// in place writes back exactly the blocks whose points changed; and the
// pinned copy's points, runs and span are untouched. Run with:
//
//	go test ./internal/xtree -fuzz FuzzLeafBlocks -fuzztime 30s
func FuzzLeafBlocks(f *testing.F) {
	// Fill a leaf of 4-point blocks past full, pin it, churn, release,
	// drain it and refill it.
	var long []byte
	long = append(long, 2)
	for i := 0; i < 120; i++ {
		long = append(long, 0, byte(i*37))
		switch {
		case i%3 == 2:
			long = append(long, 4, byte(i*11))
		case i%40 == 20:
			long = append(long, 6, 0)
		case i%50 == 49:
			long = append(long, 7, 0)
		}
	}
	for i := 0; i < 100; i++ {
		long = append(long, 5, byte(i*7))
	}
	f.Add(long)
	f.Add([]byte{0, 0, 1, 0, 3, 6, 0, 1, 5, 4, 0, 6, 0, 7, 0})
	f.Add([]byte{3, 0, 200, 0, 201, 0, 202, 6, 0, 4, 9, 4, 9, 4, 9, 6, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		if len(ops) > 801 {
			ops = ops[:801]
		}
		B := []int{4, 6, 8, 16}[ops[0]%4]
		d := emio.NewDisk(emio.Config{B: B, M: B * 256})
		full := B / 2
		tr := New[int](d, nil)
		var model []geom.Point
		for x := range int(ops[0]/4) % 20 {
			model = append(model, geom.Point{X: geom.Coord(4*x + 2), Y: geom.Coord(4*x + 2)})
		}
		tr.Root = tr.NewLeaf(slices.Clone(model))
		tr.RewriteLeaf(tr.Root)
		peak := d.LiveWords()

		var ret *emio.Retention
		var pinned *Node[int]
		var pinPts []geom.Point
		var pinRuns []int
		var pinSpan emio.BlockID
		// blockPts lists each block's points.
		blockPts := func(nd *Node[int]) [][]geom.Point {
			var out [][]geom.Point
			i := 0
			for _, r := range nd.Runs {
				out = append(out, nd.Pts[i:min(i+r, len(nd.Pts))])
				i += r
			}
			return out
		}
		// update applies one insert or delete at index i to the leaf,
		// owning it first under a pin, as the trees do.
		update := func(i int, p geom.Point, insert bool) {
			path := tr.Descend(p.X, nil)
			tr.Own(path)
			leaf := path[0]
			before := slices.Clone(blockPts(leaf))
			for k := range before {
				before[k] = slices.Clone(before[k])
			}
			span := leaf.PtsBlock
			d.DropCache()
			j := leaf.BlockFor(i, insert)
			ReadBlocks(d, leaf, j, j)
			if insert {
				leaf.Pts = slices.Insert(leaf.Pts, i, p)
				model = slices.Insert(model, i, p)
			} else {
				leaf.Pts = slices.Delete(leaf.Pts, i, i+1)
				model = slices.Delete(model, i, i+1)
			}
			at := d.Stats()
			tr.UpdateLeaf(leaf, i, insert)
			d.DropCache()
			if len(leaf.Runs) > 0 && leaf.PtsBlock == span {
				after := blockPts(leaf)
				changed := 0
				for k := range after {
					if !slices.Equal(after[k], before[k]) {
						changed++
					}
				}
				if w := d.Stats().Sub(at).Writes; w != uint64(changed) {
					t.Fatalf("in place: %d blocks written back, %d changed (runs %v)", w, changed, leaf.Runs)
				}
			}
		}
		for k := 1; k+1 < len(ops); k += 2 {
			op, arg := ops[k]%8, int(ops[k+1])
			leaf := tr.Root
			switch {
			case op < 4:
				p := geom.Point{X: geom.Coord(2*arg + 1), Y: geom.Coord(2*arg + 1)}
				i, found := slices.BinarySearchFunc(model, p.X, func(q geom.Point, x geom.Coord) int { return int(q.X - x) })
				if found {
					continue
				}
				if len(model) == 0 {
					tr.Root = tr.NewLeaf([]geom.Point{p})
					tr.RewriteLeaf(tr.Root)
					model = []geom.Point{p}
					break
				}
				update(i, p, true)
			case op < 6:
				if len(model) == 0 {
					continue
				}
				i := arg % len(model)
				update(i, model[i], false)
				if len(tr.Root.Pts) == 0 {
					tr.Root = nil
				}
			case op == 6 && ret == nil:
				if leaf == nil {
					continue
				}
				ret = d.RetainFrees()
				pinned = tr.Pin()
				pinPts, pinRuns, pinSpan = slices.Clone(pinned.Pts), slices.Clone(pinned.Runs), pinned.PtsBlock
			case op == 6:
				ret.Release()
				ret, pinned = nil, nil
			default:
				if leaf == nil {
					continue
				}
				path := tr.Descend(0, nil)
				tr.Own(path)
				tr.RewriteLeaf(path[0])
				for j, r := range path[0].Runs {
					if r != full && j < len(path[0].Runs)-1 {
						t.Fatalf("runs %v after a rewrite", path[0].Runs)
					}
				}
			}

			leaf = tr.Root
			var pts []geom.Point
			words, blocks := int64(0), 0
			if leaf != nil {
				pts, words, blocks = leaf.Pts, int64(2*len(leaf.Pts)), len(leaf.Runs)
				if len(leaf.Pts) > 0 && (leaf.MinX != leaf.Pts[0].X || leaf.MaxX != leaf.Pts[len(leaf.Pts)-1].X) {
					t.Fatalf("range [%d,%d] over %d points", leaf.MinX, leaf.MaxX, len(leaf.Pts))
				}
			}
			if !slices.Equal(pts, model) && len(pts)+len(model) > 0 {
				t.Fatalf("points %v, model %v", pts, model)
			}
			if leaf != nil {
				sum := 0
				for _, r := range leaf.Runs {
					if r < 1 || r > full {
						t.Fatalf("runs %v of blocks of %d points", leaf.Runs, full)
					}
					sum += r
				}
				if sum != len(leaf.Pts) || len(leaf.Runs) != (len(leaf.Pts)+full-1)/full {
					t.Fatalf("runs %v hold %d points in blocks of %d", leaf.Runs, len(leaf.Pts), full)
				}
			}
			if pinned != nil {
				if !slices.Equal(pinned.Pts, pinPts) || !slices.Equal(pinned.Runs, pinRuns) || pinned.PtsBlock != pinSpan {
					t.Fatal("a write reached the pinned leaf")
				}
				if pinned != leaf {
					words += int64(2 * len(pinPts))
					blocks += len(pinRuns)
				}
			}
			peak = max(peak, d.LiveWords())
			if ret == nil && (d.LiveWords() != words || d.LiveBlocks() != blocks) {
				t.Fatalf("%d words in %d blocks live, want %d in %d", d.LiveWords(), d.LiveBlocks(), words, blocks)
			}
			if ret != nil && (d.LiveWords() < words || d.LiveBlocks() < blocks) {
				t.Fatalf("%d words in %d blocks live under a pin, want at least %d in %d", d.LiveWords(), d.LiveBlocks(), words, blocks)
			}
			if d.PeakWords() != peak {
				t.Fatalf("PeakWords %d, want %d", d.PeakWords(), peak)
			}
		}
		if ret != nil {
			ret.Release()
		}
		if tr.Root != nil {
			tr.Root.Pts = nil
			tr.RewriteLeaf(tr.Root)
		}
		if d.LiveWords() != 0 || d.LiveBlocks() != 0 {
			t.Fatalf("%d words in %d blocks live after the leaf emptied", d.LiveWords(), d.LiveBlocks())
		}
	})
}
