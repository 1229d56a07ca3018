package dyntop

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/emio"
	"repro/internal/geom"
)

// snapSink keeps TestSnapshotCost's handles on the heap.
var snapSink *Handle

// pathTo returns a copy of the root-to-leaf path to x.
func pathTo(tr *Tree, x geom.Coord) []*node {
	return slices.Clone(tr.xt.Descend(x, nil))
}

// TestSnapshotCost pins the copy-on-write contract at the served
// machine's size (emio.DefaultConfig(), ε = 0.5, n = 2^16): with no
// Snapshot since the nodes were made, a delete and the insert that
// undoes it leave every node of the path and the leaf's point array
// where they were; after a Snapshot the first write copies every node of
// its path and leaves the handle's nodes as they were, and the next
// write to the same path copies nothing; and Snapshot itself allocates
// O(1), where copying the node graph took 182 allocations.
func TestSnapshotCost(t *testing.T) {
	const n = 1 << 16
	pts := geom.GenUniform(n, 1<<30, 801)
	geom.SortByX(pts)
	d := emio.NewDisk(emio.DefaultConfig())
	tr := BuildSABE(d, 0.5, pts)
	p := pts[n/2]

	before := pathTo(tr, p.X)
	arr := &before[len(before)-1].Pts[0]
	tr.Delete(p)
	tr.Insert(p)
	after := pathTo(tr, p.X)
	if !slices.Equal(before, after) || &after[len(after)-1].Pts[0] != arr {
		t.Fatal("a write with no Snapshot open moved a node of its path or the leaf's array")
	}

	ret := d.RetainFrees()
	defer ret.Release()
	h := tr.Snapshot()
	leafPts := slices.Clone(before[len(before)-1].Pts)
	tr.Delete(p)
	first := pathTo(tr, p.X)
	for i, nd := range first {
		if nd == before[i] {
			t.Fatalf("the first write after a Snapshot left level %d of its path in place", i)
		}
	}
	if h.root != before[0] || !slices.Equal(before[len(before)-1].Pts, leafPts) {
		t.Fatal("the first write after a Snapshot changed a node the handle reaches")
	}
	arr = &first[len(first)-1].Pts[0]
	tr.Insert(p)
	second := pathTo(tr, p.X)
	if !slices.Equal(first, second) || &second[len(second)-1].Pts[0] != arr {
		t.Fatal("the second write to a path after a Snapshot copied it again")
	}

	if allocs := testing.AllocsPerRun(100, func() { snapSink = tr.Snapshot() }); allocs > 10 {
		t.Errorf("Snapshot allocates %.0f times at n = %d, want <= 10", allocs, n)
	}
}

// TestHandleQueriesRaceLiveWrites runs top-open queries on a pinned
// Handle from several goroutines while the live tree takes inserts and
// deletes on a guarded disk. Every answer must match the points pinned,
// and under -race no live write may touch memory a handle reads.
func TestHandleQueriesRaceLiveWrites(t *testing.T) {
	all := geom.GenUniform(3000, 1<<20, 811)
	d := emio.NewConcurrentDisk(emio.Config{B: 16, M: 16 * 64})
	present := slices.Clone(all[:1500])
	geom.SortByX(present)
	tr := BuildSABE(d, 0.5, present)
	ret := d.RetainFrees()
	defer ret.Release()
	h, pinned := tr.Snapshot(), slices.Clone(present)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; ; q++ {
				select {
				case <-done:
					if q >= 20 {
						return
					}
				default:
				}
				x1 := geom.Coord(rng.Int63n(1 << 20))
				x2 := x1 + geom.Coord(rng.Int63n(1<<19))
				beta := geom.Coord(rng.Int63n(1 << 20))
				if got, want := h.Query(x1, x2, beta), geom.RangeSkyline(pinned, geom.TopOpen(x1, x2, beta)); !sameAnswer(got, want) {
					t.Errorf("pinned Query(%d,%d,%d) = %v, want %v", x1, x2, beta, got, want)
					return
				}
			}
		}(int64(812 + g))
	}
	churn(t, tr, present, all[1500:], 1500, rand.New(rand.NewSource(813)))
	close(done)
	wg.Wait()
}
