package xtree

import (
	"slices"
	"testing"

	"repro/internal/emio"
	"repro/internal/geom"
)

// grid returns n points at x = 10, 20, … with y = x.
func grid(n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: geom.Coord(10 * (i + 1)), Y: geom.Coord(10 * (i + 1))}
	}
	return pts
}

// build bulk-loads a tree whose payload counts the node's refreshes.
func build(d *emio.Disk, pts []geom.Point, forks *int) Tree[int] {
	t := New(d, func(v int) int { *forks++; return v })
	leaf := func(nd *Node[int]) { t.RewriteLeaf(nd); nd.Data++ }
	t.Build(pts, 6, 4, leaf, 3, 2, func(nd *Node[int]) { nd.SetRange(); nd.Data++ })
	return t
}

func sizes(nds []*Node[int]) []int {
	var out []int
	for _, nd := range nds {
		out = append(out, len(nd.Pts)+len(nd.Children))
	}
	return out
}

// TestBuildGroups: a last group short of its level's minimum takes half
// that minimum from the group before it, which is refreshed again.
func TestBuildGroups(t *testing.T) {
	d := emio.NewDisk(emio.Config{B: 8, M: 8 * 64})
	var forks int
	tr := build(d, grid(20), &forks)
	ls := slices.Collect(Leaves(tr.Root, geom.NegInf, geom.PosInf))
	if got := sizes(ls); !slices.Equal(got, []int{6, 6, 4, 4}) {
		t.Fatalf("leaf sizes %v, want [6 6 4 4]", got)
	}
	if ls[2].Data != 2 || ls[1].Data != 1 {
		t.Errorf("refreshes %d and %d, want the stolen-from leaf refreshed twice", ls[2].Data, ls[1].Data)
	}
	if got := sizes(tr.Root.Children); !slices.Equal(got, []int{2, 2}) || tr.Height() != 3 {
		t.Fatalf("root over %v at height %d, want [2 2] at 3", got, tr.Height())
	}
	if tr.Root.MinX != 10 || tr.Root.MaxX != 200 || ls[3].PtsWords != 8 {
		t.Errorf("root range [%d,%d], last leaf %d words", tr.Root.MinX, tr.Root.MaxX, ls[3].PtsWords)
	}
	var empty Tree[int]
	empty.Build(nil, 6, 4, nil, 3, 2, nil)
	if empty.Root != nil || empty.Height() != 0 {
		t.Error("an empty build has a root")
	}
}

// TestOwnCopiesOncePerPin: a path is copied only for a write after a Pin,
// once, with every copy's payload forked, and the pinned nodes stay as
// they were.
func TestOwnCopiesOncePerPin(t *testing.T) {
	d := emio.NewDisk(emio.Config{B: 8, M: 8 * 64})
	var forks int
	tr := build(d, grid(20), &forks)
	visits := 0
	path := tr.Descend(125, func(*Node[int]) { visits++ })
	if len(path) != 3 || visits != 2 || path[2] != slices.Collect(Leaves(tr.Root, geom.NegInf, geom.PosInf))[2] {
		t.Fatalf("Descend(125) visited %d nodes to a path of %d", visits, len(path))
	}
	before := slices.Clone(path)
	tr.Own(path)
	if !slices.Equal(path, before) || forks != 0 {
		t.Fatal("Own copied with no Pin since the nodes were made")
	}

	pinned := tr.Pin()
	leafPts := slices.Clone(before[2].Pts)
	tr.Own(path)
	for i := range path {
		if path[i] == before[i] {
			t.Fatalf("level %d was not copied after a Pin", i)
		}
	}
	if tr.Root != path[0] || path[0].Children[1] != path[1] || path[1].Children[0] != path[2] || forks != 3 {
		t.Fatalf("copies not relinked (%d forks)", forks)
	}
	path[2].Pts[0].Y = -1
	path[1].Children[0] = nil
	if pinned != before[0] || !slices.Equal(before[2].Pts, leafPts) || before[1].Children[0] == nil {
		t.Fatal("a write to the copies reached the pinned nodes")
	}
	copied := slices.Clone(path)
	tr.Own(path)
	if !slices.Equal(path, copied) || forks != 3 {
		t.Fatal("a second Own after one Pin copied again")
	}
}

// TestSplitAttachRemove: splits hand the upper half to a new right
// sibling, Attach places it after its node or under a new root, and
// RemoveChild takes a child out.
func TestSplitAttachRemove(t *testing.T) {
	d := emio.NewDisk(emio.Config{B: 8, M: 8 * 64})
	tr := New[int](d, nil)
	tr.Root = tr.NewLeaf(grid(5))
	right := tr.Split(tr.Root)
	left := tr.Root
	refreshed := 0
	tr.Attach(nil, left, right, func(nd *Node[int]) { nd.SetRange(); refreshed++ })
	if tr.Root.Leaf() || refreshed != 1 || len(left.Pts) != 2 || len(right.Pts) != 3 {
		t.Fatalf("root split: %d refreshes, halves %d and %d", refreshed, len(left.Pts), len(right.Pts))
	}
	third := tr.Split(right)
	tr.Attach(tr.Root, right, third, nil)
	if !slices.Equal(tr.Root.Children, []*Node[int]{left, right, third}) || ChildIndex(tr.Root, third) != 2 {
		t.Fatal("Attach did not place the new sibling after its node")
	}
	split := tr.Split(tr.Root)
	if len(tr.Root.Children) != 1 || len(split.Children) != 2 {
		t.Fatalf("internal split kept %d, moved %d", len(tr.Root.Children), len(split.Children))
	}
	RemoveChild(split, right)
	if !slices.Equal(split.Children, []*Node[int]{third}) {
		t.Fatal("RemoveChild left the child in place")
	}
	defer func() {
		if recover() == nil {
			t.Error("ChildIndex of a missing child did not panic")
		}
	}()
	ChildIndex(split, right)
}

// TestNodesOrder: Nodes yields children before their parent, Leaves the
// leaves in increasing x, and both stop when the loop does.
func TestNodesOrder(t *testing.T) {
	d := emio.NewDisk(emio.Config{B: 8, M: 8 * 64})
	var forks int
	tr := build(d, grid(20), &forks)
	seen := map[*Node[int]]bool{}
	for nd := range Nodes(tr.Root) {
		for _, c := range nd.Children {
			if !seen[c] {
				t.Fatal("a parent came before its child")
			}
		}
		seen[nd] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Nodes yielded %d nodes, want 7", len(seen))
	}
	var xs []geom.Coord
	for l := range Leaves(tr.Root, geom.NegInf, geom.PosInf) {
		xs = append(xs, l.MinX)
		if len(xs) == 3 {
			break
		}
	}
	if !slices.Equal(xs, []geom.Coord{10, 70, 130}) {
		t.Fatalf("first leaves start at %v", xs)
	}
	for l := range Leaves(tr.Root, geom.NegInf, geom.PosInf) {
		l.Pts = nil
		tr.RewriteLeaf(l)
	}
	if d.LiveBlocks() != 0 {
		t.Fatalf("emptied leaves hold %d blocks, want 0", d.LiveBlocks())
	}
}

// TestUpdateLeafInPlace: with no pin, an update keeps the leaf's span,
// writes back only the blocks from the changed point's through the last,
// and keeps LiveWords and PeakWords exact as the leaf grows and shrinks
// within its block count; a change of block count moves the leaf to a
// fresh span. After a Pin the first write moves to a fresh span without
// touching the pinned one, and the next is in place again.
func TestUpdateLeafInPlace(t *testing.T) {
	d := emio.NewDisk(emio.Config{B: 8, M: 8 * 64}) // 4 points a block
	tr := New[int](d, nil)
	tr.Root = tr.NewLeaf(grid(14))
	tr.RewriteLeaf(tr.Root)
	leaf := tr.Root
	peak := d.PeakWords()
	// update reads the leaf's span as the trees' updates do, applies
	// change, whose points differ from index i on, and returns the
	// blocks written back by the end of a DropCache.
	update := func(name string, i int, change func([]geom.Point) []geom.Point, moves bool, writes uint64) {
		t.Helper()
		d.DropCache()
		before, span := d.Stats(), leaf.PtsBlock
		d.ReadSpan(leaf.PtsBlock, leaf.PtsWords)
		leaf.Pts = change(leaf.Pts)
		tr.UpdateLeaf(leaf, i)
		d.DropCache()
		peak = max(peak, int64(2*len(leaf.Pts)))
		got := d.Stats().Sub(before)
		switch {
		case (leaf.PtsBlock != span) != moves:
			t.Fatalf("%s: span moved %v, want %v", name, leaf.PtsBlock != span, moves)
		case got.Writes != writes:
			t.Fatalf("%s: %d blocks written back, want %d", name, got.Writes, writes)
		case leaf.PtsWords != 2*len(leaf.Pts) || d.LiveWords() != int64(leaf.PtsWords) || d.PeakWords() != peak:
			t.Fatalf("%s: %d points in %d words, %d live (peak %d, want %d)", name, len(leaf.Pts), leaf.PtsWords, d.LiveWords(), d.PeakWords(), peak)
		case leaf.MinX != leaf.Pts[0].X || leaf.MaxX != leaf.Pts[len(leaf.Pts)-1].X:
			t.Fatalf("%s: range [%d,%d]", name, leaf.MinX, leaf.MaxX)
		}
	}
	insert := func(i int, p geom.Point) func([]geom.Point) []geom.Point {
		return func(pts []geom.Point) []geom.Point { return slices.Insert(pts, i, p) }
	}
	remove := func(i int) func([]geom.Point) []geom.Point {
		return func(pts []geom.Point) []geom.Point { return slices.Delete(pts, i, i+1) }
	}
	// 14 points, 28 words in 4 blocks of points 0–3, 4–7, 8–11, 12–13.
	update("insert in block 2", 9, insert(9, geom.Point{X: 95, Y: 95}), false, 2)
	update("delete the last point", 14, remove(14), false, 1)
	update("delete the first point", 0, remove(0), false, 4)
	update("insert at the end", 13, insert(13, geom.Point{X: 150, Y: 150}), false, 1)
	update("insert at the end again", 14, insert(14, geom.Point{X: 160, Y: 160}), false, 1)
	update("fill the last block", 15, insert(15, geom.Point{X: 170, Y: 170}), false, 1)
	update("grow to 5 blocks", 16, insert(16, geom.Point{X: 180, Y: 180}), true, 5)
	update("shrink to 4 blocks", 0, remove(0), true, 4)
	update("grow to 5 blocks again", 16, insert(16, geom.Point{X: 190, Y: 190}), true, 5)

	ret := d.RetainFrees()
	pinned := tr.Pin()
	span, words := pinned.PtsBlock, pinned.PtsWords
	path := tr.Descend(200, nil)
	tr.Own(path)
	leaf = path[0]
	d.DropCache()
	leaf.Pts = append(leaf.Pts, geom.Point{X: 200, Y: 200})
	tr.UpdateLeaf(leaf, len(leaf.Pts)-1)
	if leaf.PtsBlock == span || pinned.PtsBlock != span || pinned.PtsWords != words {
		t.Fatal("the first write after a Pin did not move the copy to a fresh span")
	}
	for k := range d.Config().BlocksFor(words) {
		if d.Resident(span + emio.BlockID(k)) {
			t.Fatalf("the first write after a Pin touched block %d of the pinned span", k)
		}
	}
	if want := int64(words + leaf.PtsWords); d.LiveWords() != want {
		t.Fatalf("%d words live under the retention, want %d", d.LiveWords(), want)
	}
	peak = d.PeakWords()
	ret.Release()
	update("in place after the copy's own write", 0, remove(0), false, 5)
	if d.LiveBlocks() != 5 {
		t.Fatalf("%d blocks live, want the leaf's 5", d.LiveBlocks())
	}
}
