package foursided

import (
	"math/rand"
	"testing"

	"repro/internal/emio"
	"repro/internal/geom"
	"repro/internal/xtree"
)

// spaceBlocksPerDataBlock bounds LiveBlocks of a freshly built index
// by c·⌈n/B⌉ (Theorem 6's linear space): its point store, a Theorem 4
// tree, plus a Theorem 4 secondary over every node's subtree — each
// level of them indexes all n points at ~3.5 blocks per ⌈n/B⌉. The tree
// has at most ⌈1/ε⌉+1 levels above the points, so at n = 10⁴ the
// deepest case is ε = 0.3 with four levels (measured: 16.1; ε = 0.5
// has three, 12.85).
const spaceBlocksPerDataBlock = 20

// secondaryWords sums the words the secondaries of ix hold.
func secondaryWords(ix *Index) int {
	total := 0
	for nd := range xtree.Nodes(ix.xt.Root) {
		total += nd.Data.SpaceWords()
	}
	return total
}

// TestSpaceBoundAfterChurn runs a long mixed update stream — through
// several whole-index rebuilds, node splits and leaf prunes — and checks
// that what the index replaced on the way is gone: queries leave the disk
// as they found it, a rebuild brings the disk back within the linear
// bound — its secondaries as large as a fresh build's, and the point
// store rid of the queue versions its updates replaced (the store keeps
// its churned leaves, so the disk need not match a fresh build's block
// for block) — and Release empties it.
func TestSpaceBoundAfterChurn(t *testing.T) {
	const n0, updates, queries = 10000, 10000, 5000
	cfg := emio.DefaultConfig()
	for _, eps := range []float64{0.3, 0.5, 1} {
		all := geom.GenUniform(n0+updates/2, 1<<30, 501)
		rng := rand.New(rand.NewSource(502))
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		d := emio.NewDisk(cfg)
		ix := Build(d, eps, all[:n0])
		present, pool := append([]geom.Point(nil), all[:n0]...), all[n0:]
		for u := 0; u < updates; u++ {
			if u%2 == 0 {
				p := pool[len(pool)-1]
				pool = pool[:len(pool)-1]
				ix.Insert(p)
				present = append(present, p)
				continue
			}
			i := rng.Intn(len(present))
			if !ix.Delete(present[i]) {
				t.Fatalf("Delete(%v) reported absent", present[i])
			}
			present[i] = present[len(present)-1]
			present = present[:len(present)-1]
		}

		for q := 0; q < queries; q++ {
			x1 := geom.Coord(rng.Int63n(1 << 30))
			y1 := geom.Coord(rng.Int63n(1 << 30))
			r := geom.Rect{X1: x1, X2: x1 + geom.Coord(rng.Int63n(1<<30)), Y1: y1, Y2: y1 + geom.Coord(rng.Int63n(1<<30))}
			before := d.LiveBlocks()
			got := ix.Query(r)
			if after := d.LiveBlocks(); after != before {
				t.Fatalf("eps=%.1f: Query(%v) moved LiveBlocks %d -> %d", eps, r, before, after)
			}
			if q%500 == 0 {
				if want := geom.RangeSkyline(present, r); !sameAnswer(got, want) {
					t.Fatalf("eps=%.1f: Query(%v) = %v, want %v", eps, r, got, want)
				}
			}
		}

		// The paper's M = Ω(ℓb): what the index and its secondaries
		// pin fits in memory, at every ε here.
		if peak := d.PeakPinned(); peak > cfg.Frames() {
			t.Errorf("eps=%.1f: %d blocks pinned at once, want <= M/B = %d", eps, peak, cfg.Frames())
		}
		ix.rebuild()
		if live, limit := d.LiveBlocks(), spaceBlocksPerDataBlock*cfg.BlocksFor(ix.Len()); live > limit {
			t.Errorf("eps=%.1f: LiveBlocks = %d after a rebuild, want <= %d·⌈n/B⌉ = %d",
				eps, live, spaceBlocksPerDataBlock, limit)
		}
		fresh := emio.NewDisk(cfg)
		if got, want := secondaryWords(ix), secondaryWords(Build(fresh, eps, present)); got != want {
			t.Errorf("eps=%.1f: rebuilt secondaries hold %d words, a fresh build's of the same points %d",
				eps, got, want)
		}

		ix.Release()
		if d.LiveBlocks() != 0 || d.LiveWords() != 0 {
			t.Errorf("eps=%.1f: Release left %d blocks / %d words live", eps, d.LiveBlocks(), d.LiveWords())
		}
		if ix.Len() != 0 || ix.Query(geom.Rect{X2: 1 << 30, Y2: 1 << 30}) != nil {
			t.Errorf("eps=%.1f: released index is not empty", eps)
		}
	}
}

// TestSnapshotsKeepTheirLeaves pins handles at different times while the
// live index shifts its leaf arrays in place between pins: every handle
// keeps answering for the point set it was pinned on.
func TestSnapshotsKeepTheirLeaves(t *testing.T) {
	all := geom.GenUniform(1500, 1<<20, 511)
	rng := rand.New(rand.NewSource(512))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	d := emio.NewDisk(emio.Config{B: 16, M: 16 * 64})
	ix := Build(d, 0.5, all[:1000])
	present := append([]geom.Point(nil), all[:1000]...)
	pool := all[1000:]

	type pin struct {
		h   *Handle
		pts []geom.Point
	}
	ret := d.RetainFrees()
	var pins []pin
	for round := 0; round < 4; round++ {
		pins = append(pins, pin{ix.Snapshot(), append([]geom.Point(nil), present...)})
		// Fewer updates than a whole-index rebuild needs, so the leaves
		// written are the ones the handles share.
		for u := 0; u < 100; u++ {
			if u%2 == 0 {
				p := pool[len(pool)-1]
				pool = pool[:len(pool)-1]
				ix.Insert(p)
				present = append(present, p)
				continue
			}
			i := rng.Intn(len(present))
			if !ix.Delete(present[i]) {
				t.Fatalf("Delete(%v) reported absent", present[i])
			}
			present[i] = present[len(present)-1]
			present = present[:len(present)-1]
		}
		for i, p := range append(pins, pin{pts: present}) {
			for q := 0; q < 50; q++ {
				x1 := geom.Coord(rng.Int63n(1 << 20))
				y1 := geom.Coord(rng.Int63n(1 << 20))
				r := geom.Rect{X1: x1, X2: x1 + geom.Coord(rng.Int63n(1<<20)), Y1: y1, Y2: y1 + geom.Coord(rng.Int63n(1<<20))}
				var got []geom.Point
				if p.h != nil {
					got = p.h.Query(r)
				} else {
					got = ix.Query(r)
				}
				if want := geom.RangeSkyline(p.pts, r); !sameAnswer(got, want) {
					t.Fatalf("round %d: view %d Query(%v) = %v, want %v", round, i, r, got, want)
				}
			}
		}
	}
	ret.Release()
}
