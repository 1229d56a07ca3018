package dyntop

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/cpqa"
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

// TestLeafOnlyUpdate: an insert or delete of a point dominated inside
// its leaf leaves every queue on its path pointer-identical and gives
// the leaf's parent a new representative block (it holds the leaf's
// fences); one that changes the leaf's staircase replaces every queue on
// its path.
func TestLeafOnlyUpdate(t *testing.T) {
	const n = 3000
	pts := make([]geom.Point, n)
	for i, y := range rand.New(rand.NewSource(821)).Perm(n) {
		pts[i] = pt(geom.Coord(10*(i+1)), geom.Coord(10*(y+1)))
	}
	_, tr := buildTree(t, emio.Config{B: 16, M: 16 * 64}, 0.5, pts)
	if tr.Height() < 3 {
		t.Fatalf("height %d, want an internal level above the leaves' parents", tr.Height())
	}
	// update runs one write on the path to x and reports, level by
	// level, whether its queue is the one it had before, and whether
	// the leaf's parent got a new representative block.
	update := func(x geom.Coord, write func()) (same []bool, newRep bool) {
		path := pathTo(tr, x)
		qs := make([]*cpqa.Queue, len(path))
		for i, nd := range path {
			qs[i] = nd.Data.q
		}
		rep := path[len(path)-2].Data.repBlock
		write()
		for i, nd := range path {
			if i == 0 && tr.xt.Root != nd || i > 0 && !slices.Contains(path[i-1].Children, nd) {
				t.Fatal("a write with no Snapshot open moved a node of its path")
			}
			same = append(same, qs[i] == nd.Data.q)
		}
		return same, path[len(path)-2].Data.repBlock != rep
	}
	leaf := pathTo(tr, 10*n/2)[tr.Height()-1]
	a, b := leaf.Pts[1], leaf.Pts[len(leaf.Pts)-1]
	for _, c := range []struct {
		name  string
		x     geom.Coord
		write func()
		kept  bool
	}{
		// y = 5 lies below every point: dominated by every point right
		// of it.
		{"dominated insert", a.X + 5, func() { tr.Insert(pt(a.X+5, 5)) }, true},
		{"dominated delete", a.X + 5, func() { tr.Delete(pt(a.X+5, 5)) }, true},
		// The leaf's last point is on its staircase, and so is a point
		// above every other.
		{"staircase delete", b.X, func() { tr.Delete(b) }, false},
		{"staircase insert", a.X + 5, func() { tr.Insert(pt(a.X+5, 10*n+5)) }, false},
	} {
		same, newRep := update(c.x, c.write)
		for i, s := range same {
			if s != c.kept {
				t.Errorf("%s: level %d kept its queue = %v, want %v", c.name, i, s, c.kept)
			}
		}
		if !newRep {
			t.Errorf("%s: the leaf's parent kept its representative block", c.name)
		}
	}
	// A dominated insert left of every point lowers the range of every
	// node on its path, or a query around it alone skips the root.
	p := pt(5, 5)
	if same, _ := update(p.X, func() { tr.Insert(p) }); !same[0] {
		t.Fatal("an insert below every point replaced the root's queue")
	}
	if got := tr.Query(0, 9, 0); !sameAnswer(got, []geom.Point{p}) {
		t.Errorf("Query(0, 9, 0) = %v, want [%v]", got, p)
	}
}
