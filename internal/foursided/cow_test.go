package foursided

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
func pathTo(ix *Index, x geom.Coord) []*node {
	return slices.Clone(ix.xt.Descend(x, nil))
}

// TestSnapshotCost pins the copy-on-write contract at the served
// machine's size (emio.DefaultConfig(), ε = 0.5, n = 2^16): with no
// Snapshot since the nodes were made, a delete and the insert that
// undoes it leave every node of the path and every R(u) on it where
// they were; after a Snapshot the first write copies every node of its
// path and forks its R(u)s, leaving the handle's nodes, secondaries and
// point store as they were, and the next write to the same path copies
// nothing; and Snapshot itself allocates O(1), where copying the node
// graph and every secondary's took 1 495 allocations.
func TestSnapshotCost(t *testing.T) {
	const n = 1 << 16
	pts := geom.GenUniform(n, 1<<30, 821)
	d := emio.NewDisk(emio.DefaultConfig())
	ix := Build(d, 0.5, pts)
	p := pts[n/2]

	before := pathTo(ix, p.X)
	rs := make([]any, len(before))
	for i, nd := range before {
		rs[i] = nd.Data
	}
	ix.Delete(p)
	ix.Insert(p)
	after := pathTo(ix, p.X)
	if !slices.Equal(before, after) {
		t.Fatal("a write with no Snapshot open moved a node of its path")
	}
	for i, nd := range after {
		if rs[i] != any(nd.Data) {
			t.Fatalf("a write with no Snapshot open replaced R(u) at level %d", i)
		}
	}

	ret := d.RetainFrees()
	defer ret.Release()
	h := ix.Snapshot()
	leafLen, rootLen := before[len(before)-1].Data.Len(), before[0].Data.Len()
	ix.Delete(p)
	first := pathTo(ix, p.X)
	for i, nd := range first {
		if nd == before[i] {
			t.Fatalf("the first write after a Snapshot left level %d of its path in place", i)
		}
		if nd.Data == before[i].Data {
			t.Fatalf("the first write after a Snapshot wrote the handle's R(u) at level %d", i)
		}
	}
	if h.root != before[0] || before[len(before)-1].Data.Len() != leafLen || before[0].Data.Len() != rootLen || h.Len() != n || h.Top().Len() != n {
		t.Fatal("the first write after a Snapshot changed a node, a secondary or the point store the handle reaches")
	}
	ix.Insert(p)
	second := pathTo(ix, p.X)
	if !slices.Equal(first, second) {
		t.Fatal("the second write to a path after a Snapshot copied it again")
	}
	for i, nd := range second {
		if nd.Data != first[i].Data {
			t.Fatalf("the second write to a path after a Snapshot forked R(u) at level %d again", i)
		}
	}

	if allocs := testing.AllocsPerRun(100, func() { snapSink = ix.Snapshot() }); allocs > 10 {
		t.Errorf("Snapshot allocates %.0f times at n = %d, want <= 10", allocs, n)
	}
}

// TestHandleQueriesRaceLiveWrites runs 4-sided queries on a pinned
// Handle from several goroutines while the live index takes inserts and
// deletes on a guarded disk — enough of them for splits and a
// whole-index rebuild. Every answer must match the points pinned, and
// under -race no live write may touch memory a handle reads: not the
// primary nodes, and not the secondaries they carry.
func TestHandleQueriesRaceLiveWrites(t *testing.T) {
	all := geom.GenUniform(2200, 1<<20, 831)
	d := emio.NewConcurrentDisk(emio.Config{B: 16, M: 16 * 64})
	present := slices.Clone(all[:1000])
	ix := Build(d, 0.5, present)
	ret := d.RetainFrees()
	defer ret.Release()
	h, pinned := ix.Snapshot(), slices.Clone(present)

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
				x1, y1 := geom.Coord(rng.Int63n(1<<20)), geom.Coord(rng.Int63n(1<<20))
				r := geom.Rect{X1: x1, X2: x1 + geom.Coord(rng.Int63n(1<<19)), Y1: y1, Y2: y1 + geom.Coord(rng.Int63n(1<<20))}
				if got, want := h.Query(r), geom.RangeSkyline(pinned, r); !sameAnswer(got, want) {
					t.Errorf("pinned Query(%v) = %v, want %v", r, got, want)
					return
				}
			}
		}(int64(832 + g))
	}
	churn(t, ix, present, all[1000:], 1200, 2, rand.New(rand.NewSource(833)), func() {})
	close(done)
	wg.Wait()
}
