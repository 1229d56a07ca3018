package dyntop

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/emio"
	"repro/internal/geom"
)

// Space bounds of Theorem 4, measured on what the disk actually holds
// (Disk.LiveBlocks / LiveWords), not on what is reachable. Every block is
// accounted for: scratch dies with its operation, a node owns its leaf
// span, representative block and current queue version, and the versions
// refreshes replaced sit on the tree's history until FreeHistory. The
// bounds below are on the disk minus that history.
const (
	// spaceBlocksPerDataBlock bounds the blocks the nodes hold by
	// c·⌈n/B⌉. Measured after the churn below: 3.0–3.6 on uniform points
	// (the leaves alone are ~1.4: two words a point at two-thirds
	// occupancy), 4.9–7.9 when every point is on the skyline and every
	// queue is full.
	spaceBlocksPerDataBlock = 10
	// spaceLiveOverReachable bounds the words the nodes hold and
	// SpaceWords() by each other: kept spans are whole, so a version
	// that shares part of a span keeps all of it (held > reachable), and
	// SpaceWords counts a record once per node version that shares it
	// (reachable > held).
	spaceLiveOverReachable = 2
)

// held returns what the tree's nodes hold on d: everything live minus
// the history of replaced versions.
func held(d *emio.Disk, tr *Tree) (blocks int, words int64) {
	blocks, words = d.LiveBlocks(), d.LiveWords()
	for _, sp := range tr.history {
		blocks -= max(1, d.Config().BlocksFor(sp.Words))
		words -= int64(max(1, sp.Words))
	}
	return blocks, words
}

// churn runs updates alternating inserts and deletes against tr and
// returns the surviving points.
func churn(t *testing.T, tr *Tree, present, pool []geom.Point, updates int, rng *rand.Rand) []geom.Point {
	t.Helper()
	for u := 0; u < updates; u++ {
		if u%2 == 0 {
			p := pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			tr.Insert(p)
			present = append(present, p)
			continue
		}
		i := rng.Intn(len(present))
		if !tr.Delete(present[i]) {
			t.Fatalf("Delete(%v) reported absent", present[i])
		}
		present[i] = present[len(present)-1]
		present = present[:len(present)-1]
	}
	return present
}

func TestSpaceBoundAfterChurn(t *testing.T) {
	cfg := emio.DefaultConfig()
	for _, tc := range []struct {
		name                 string
		n0, updates, queries int
		gen                  func(n int) []geom.Point
	}{
		{"uniform", 10000, 10000, 5000, func(n int) []geom.Point { return geom.GenUniform(n, 1<<30, 401) }},
		{"staircase", 3000, 3000, 500, func(n int) []geom.Point { return geom.GenStaircase(n, 401) }},
	} {
		for _, eps := range []float64{0, 0.5, 1} {
			all := tc.gen(tc.n0 + tc.updates/2)
			span := all[len(all)-1].X + 1
			rng := rand.New(rand.NewSource(402))
			rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			d, tr := buildTree(t, cfg, eps, all[:tc.n0])
			present := churn(t, tr, append([]geom.Point(nil), all[:tc.n0]...), all[tc.n0:], tc.updates, rng)

			for q := 0; q < tc.queries; q++ {
				x1 := geom.Coord(rng.Int63n(int64(span)))
				x2 := x1 + geom.Coord(rng.Int63n(int64(span)))
				beta := geom.Coord(rng.Int63n(int64(span)))
				before := d.LiveBlocks()
				got := tr.Query(x1, x2, beta)
				if after := d.LiveBlocks(); after != before {
					t.Fatalf("%s eps=%.1f: Query(%d,%d,%d) moved LiveBlocks %d -> %d", tc.name, eps, x1, x2, beta, before, after)
				}
				if q%500 == 0 {
					if want := geom.RangeSkyline(present, geom.TopOpen(x1, x2, beta)); !sameAnswer(got, want) {
						t.Fatalf("%s eps=%.1f: Query(%d,%d,%d) = %v, want %v", tc.name, eps, x1, x2, beta, got, want)
					}
				}
			}

			// The paper's M = Ω(ℓb): what the tree pins fits in memory.
			// TestServedMachinePins checks it at every ε.
			if peak := d.PeakPinned(); peak > cfg.Frames() {
				t.Errorf("%s eps=%.1f: %d blocks pinned at once, want <= M/B = %d", tc.name, eps, peak, cfg.Frames())
			}
			blocks, words := held(d, tr)
			if limit := spaceBlocksPerDataBlock * cfg.BlocksFor(tr.Len()); blocks > limit {
				t.Errorf("%s eps=%.1f: nodes hold %d blocks after %d updates, want <= %d·⌈n/B⌉ = %d",
					tc.name, eps, blocks, tc.updates, spaceBlocksPerDataBlock, limit)
			}
			if reach := int64(tr.SpaceWords()); words > spaceLiveOverReachable*reach || reach > spaceLiveOverReachable*words {
				t.Errorf("%s eps=%.1f: nodes hold %d words, SpaceWords = %d: want within %d× of each other",
					tc.name, eps, words, reach, spaceLiveOverReachable)
			}

			// FreeHistory leaves exactly what the nodes hold, and the
			// tree answers as before.
			tr.FreeHistory()
			if d.LiveBlocks() != blocks || d.LiveWords() != words {
				t.Errorf("%s eps=%.1f: FreeHistory left %d blocks / %d words, the nodes hold %d / %d",
					tc.name, eps, d.LiveBlocks(), d.LiveWords(), blocks, words)
			}
			if got, want := tr.Query(0, span, 0), geom.RangeSkyline(present, geom.TopOpen(0, span, 0)); !sameAnswer(got, want) {
				t.Errorf("%s eps=%.1f: after FreeHistory Query = %v, want %v", tc.name, eps, got, want)
			}

			tr.Release()
			if d.LiveBlocks() != 0 || d.LiveWords() != 0 {
				t.Errorf("%s eps=%.1f: Release left %d blocks / %d words live", tc.name, eps, d.LiveBlocks(), d.LiveWords())
			}
			if tr.Len() != 0 || tr.Query(0, span, 0) != nil {
				t.Errorf("%s eps=%.1f: released tree is not empty", tc.name, eps)
			}
		}
	}
}

// TestDrainFreesEverything deletes every point one by one: the tree
// shrinks through every merge and root-shrink path, after which only the
// history may be left on the disk, and Release clears that.
func TestDrainFreesEverything(t *testing.T) {
	pts := geom.GenUniform(3000, 1<<20, 403)
	for _, eps := range []float64{0, 0.5, 1} {
		d, tr := buildTree(t, emio.Config{B: 16, M: 16 * 64}, eps, pts)
		rng := rand.New(rand.NewSource(404))
		for _, i := range rng.Perm(len(pts)) {
			if !tr.Delete(pts[i]) {
				t.Fatalf("eps=%.1f: Delete(%v) reported absent", eps, pts[i])
			}
		}
		if blocks, _ := held(d, tr); blocks != 0 {
			t.Errorf("eps=%.1f: the nodes of an empty tree hold %d blocks", eps, blocks)
		}
		tr.Release()
		if d.LiveBlocks() != 0 {
			t.Errorf("eps=%.1f: Release left %d blocks live", eps, d.LiveBlocks())
		}
	}
}

// TestSnapshotSurvivesReclamation pins a handle, churns the tree under
// it and finally releases the whole tree: the retention defers every
// free, so the handle keeps reading spans the live tree has given up,
// and dropping the retention empties the disk.
func TestSnapshotSurvivesReclamation(t *testing.T) {
	all := geom.GenUniform(3000, 1<<20, 405)
	rng := rand.New(rand.NewSource(406))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	d, tr := buildTree(t, emio.Config{B: 16, M: 16 * 64}, 0.5, all[:2000])
	pinned := append([]geom.Point(nil), all[:2000]...)

	ret := d.RetainFrees()
	h := tr.Snapshot()
	check := func(stage string) {
		t.Helper()
		for q := 0; q < 100; q++ {
			x1 := geom.Coord(rng.Int63n(1 << 20))
			x2 := x1 + geom.Coord(rng.Int63n(1<<20))
			beta := geom.Coord(rng.Int63n(1 << 20))
			before := d.LiveBlocks()
			got := h.Query(x1, x2, beta)
			if want := geom.RangeSkyline(pinned, geom.TopOpen(x1, x2, beta)); !sameAnswer(got, want) {
				t.Fatalf("%s: pinned Query(%d,%d,%d) = %v, want %v", stage, x1, x2, beta, got, want)
			}
			if after := d.LiveBlocks(); after != before {
				t.Fatalf("%s: pinned query moved LiveBlocks %d -> %d", stage, before, after)
			}
		}
	}
	churn(t, tr, append([]geom.Point(nil), pinned...), all[2000:], 2000, rng)
	if d.DeferredBlocks() == 0 {
		t.Fatal("churn under a retention deferred no frees")
	}
	check("after churn")
	tr.Release()
	check("after Release")
	ret.Release()
	if d.DeferredBlocks() != 0 || d.LiveBlocks() != 0 {
		t.Fatalf("%d blocks deferred, %d live after the retention dropped", d.DeferredBlocks(), d.LiveBlocks())
	}
}

// TestLeafWritesCopyOnlyAfterSnapshot pins down who may shift a leaf
// array, or write its span in place, and which blocks of the span a
// single-point update touches: the live tree writes in place until a
// Snapshot shares the array and the span with a Handle; the first write
// after that copies the array and moves the leaf to a fresh span,
// leaving the shared one to the handle, and later writes are in place
// again. In place, the delete of a point dominated inside its leaf, and
// the insert that restores it, read and write only the point's block:
// the parent summarizes its leaves' blocks at every ε. Two handles
// pinned at different times each keep answering for their own point
// set.
func TestLeafWritesCopyOnlyAfterSnapshot(t *testing.T) {
	for _, eps := range []float64{0, 0.5} {
		t.Run(fmt.Sprintf("eps=%.1f", eps), func(t *testing.T) { leafWritesCopyOnlyAfterSnapshot(t, eps) })
	}
}

func leafWritesCopyOnlyAfterSnapshot(t *testing.T, eps float64) {
	all := geom.GenUniform(1200, 1<<20, 407)
	rng := rand.New(rand.NewSource(408))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	d, tr := buildTree(t, emio.Config{B: 16, M: 16 * 64}, eps, all[:600])
	present := append([]geom.Point(nil), all[:600]...)
	pool := all[600:]
	// touched checks, after a DropCache before the update, that the
	// only block of leaf in memory is the one it reads, block j.
	touched := func(when string, leaf *node, j int) {
		t.Helper()
		for k := range leaf.Runs {
			if want := k == j; d.Resident(leaf.PtsBlock+emio.BlockID(k)) != want {
				t.Fatalf("%s: block %d of the leaf's %d is resident %v (point in block %d)", when, k, len(leaf.Runs), !want, j)
			}
		}
	}

	// Without a snapshot, a delete shifts in place and the insert that
	// follows finds room in the same array; both rewrite the point's
	// block of the leaf's own span.
	p := blockVictim(t, tr, present)
	leaf := leafFor(tr, p.X)
	span, j := leaf.PtsBlock, leaf.Block(slices.Index(leaf.Pts, p))
	d.DropCache()
	tr.Delete(p)
	touched("delete", leaf, j)
	arr := &leaf.Pts[0]
	if leaf.PtsBlock != span {
		t.Fatal("a delete moved an unshared leaf span")
	}
	d.DropCache()
	tr.Insert(p)
	touched("insert", leaf, j)
	if leafFor(tr, p.X) != leaf || &leaf.Pts[0] != arr || leaf.PtsBlock != span {
		t.Fatal("an unshared leaf array or span was copied on write")
	}

	type pin struct {
		h   *Handle
		pts []geom.Point
	}
	ret := d.RetainFrees()
	var pins []pin
	for round := 0; round < 3; round++ {
		pins = append(pins, pin{tr.Snapshot(), append([]geom.Point(nil), present...)})
		p := blockVictim(t, tr, present)
		pinned := leafFor(tr, p.X)
		shared, span, runs := pinned.Pts, pinned.PtsBlock, slices.Clone(pinned.Runs)
		frozen := append([]geom.Point(nil), shared...)
		tr.Delete(p)
		moved := leafFor(tr, p.X)
		if moved.PtsBlock == span || pinned.PtsBlock != span || !slices.Equal(pinned.Runs, runs) {
			t.Fatalf("round %d: the first write after a Snapshot kept the span a handle shares", round)
		}
		own := moved.PtsBlock
		d.DropCache()
		tr.Insert(p)
		touched(fmt.Sprintf("round %d: insert after the move", round), moved, moved.Block(slices.Index(moved.Pts, p)))
		if !sameAnswer(shared, frozen) {
			t.Fatalf("round %d: a write reached the array a handle shares", round)
		}
		if leafFor(tr, p.X) != moved || moved.PtsBlock != own {
			t.Fatalf("round %d: the second write after a Snapshot moved the leaf's own span", round)
		}
		present = churn(t, tr, present, pool[round*100:(round+1)*100], 200, rng)
		for i, p := range pins {
			for q := 0; q < 50; q++ {
				x1 := geom.Coord(rng.Int63n(1 << 20))
				x2 := x1 + geom.Coord(rng.Int63n(1<<20))
				beta := geom.Coord(rng.Int63n(1 << 20))
				got := p.h.Query(x1, x2, beta)
				if want := geom.RangeSkyline(p.pts, geom.TopOpen(x1, x2, beta)); !sameAnswer(got, want) {
					t.Fatalf("round %d: handle %d Query(%d,%d,%d) = %v, want %v", round, i, x1, x2, beta, got, want)
				}
			}
		}
	}
	ret.Release()
}

// blockVictim returns a point of present whose delete, and the insert
// that restores it, each rewrite the point's block alone, in place: the
// point is dominated inside a leaf that is not the root and keeps its
// block count and occupancy without the point.
func blockVictim(t *testing.T, tr *Tree, present []geom.Point) geom.Point {
	t.Helper()
	full := max(1, tr.disk.Config().B/2)
	for _, q := range present {
		path := tr.xt.Descend(q.X, nil)
		if len(path) < 2 {
			continue
		}
		leaf := path[len(path)-1]
		i := slices.Index(leaf.Pts, q)
		n := len(leaf.Pts)
		if slices.ContainsFunc(leaf.Pts[i+1:], func(o geom.Point) bool { return o.Y > q.Y }) && n > tr.kMin && n-1 > (len(leaf.Runs)-1)*full {
			return q
		}
	}
	t.Fatal("no point rewrites one block in place")
	return geom.Point{}
}
