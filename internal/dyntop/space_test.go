package dyntop

import (
	"math/rand"
	"testing"

	"repro/internal/emio"
	"repro/internal/geom"
)

// Space bounds of Theorem 4, measured on what the disk actually holds
// (Disk.LiveBlocks / LiveWords), not on what is reachable. Every block is
// accounted for: scratch dies with its operation, a node owns its leaf
// span, representative block and current queue version, and the versions
// refreshes replaced sit on the tree's history until Release. The bounds
// below are on the disk minus that history.
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
// array, or write its span, in place: the live tree, until a Snapshot
// shares them with a Handle; the first write after that copies the
// array and moves the leaf to a fresh span, leaving the shared one to
// the handle, and later writes are in place again. Two handles pinned at
// different times each keep answering for their own point set.
func TestLeafWritesCopyOnlyAfterSnapshot(t *testing.T) {
	all := geom.GenUniform(1200, 1<<20, 407)
	rng := rand.New(rand.NewSource(408))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	d, tr := buildTree(t, emio.Config{B: 16, M: 16 * 64}, 0.5, all[:600])
	present := append([]geom.Point(nil), all[:600]...)
	pool := all[600:]

	// Without a snapshot, a delete shifts in place and the insert that
	// follows finds room in the same array; both write the leaf's own
	// span, which keeps its block count.
	leaf := leafFor(tr, present[0].X)
	span := leaf.PtsBlock
	if !keepsBlocks(tr, leaf) {
		t.Fatalf("a leaf of %d points changes its block count on a delete", len(leaf.Pts))
	}
	tr.Delete(present[0])
	arr := &leaf.Pts[0]
	if leaf.PtsBlock != span {
		t.Fatal("a delete moved an unshared leaf span")
	}
	tr.Insert(present[0])
	if leafFor(tr, present[0].X) != leaf || &leaf.Pts[0] != arr || leaf.PtsBlock != span {
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
		pinned := leafFor(tr, present[0].X)
		shared, span, words := pinned.Pts, pinned.PtsBlock, pinned.PtsWords
		frozen := append([]geom.Point(nil), shared...)
		if !keepsBlocks(tr, pinned) {
			t.Fatalf("round %d: a leaf of %d points changes its block count on a delete", round, len(pinned.Pts))
		}
		tr.Delete(present[0])
		moved := leafFor(tr, present[0].X)
		if moved.PtsBlock == span || pinned.PtsBlock != span || pinned.PtsWords != words {
			t.Fatalf("round %d: the first write after a Snapshot kept the span a handle shares", round)
		}
		own := moved.PtsBlock
		tr.Insert(present[0])
		if !sameAnswer(shared, frozen) {
			t.Fatalf("round %d: a write reached the array a handle shares", round)
		}
		if leafFor(tr, present[0].X) != moved || moved.PtsBlock != own {
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

// keepsBlocks reports whether leaf keeps its block count and its
// occupancy through the delete of one of its points and the insert that
// restores it, so both are written in place when its span is its own.
func keepsBlocks(tr *Tree, leaf *node) bool {
	n, cfg := len(leaf.Pts), tr.disk.Config()
	return n > tr.kMin && cfg.BlocksFor(2*n-2) == cfg.BlocksFor(2*n)
}
