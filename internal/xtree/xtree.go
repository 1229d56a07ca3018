// Package xtree is the x-ordered base tree under the Theorem 4 and
// Theorem 6 structures (internal/dyntop, internal/foursided): a dyntop
// leaf holds Θ(B) points sorted by x in a charged span of its own (a
// foursided leaf, none), and an internal node routes on its children's
// x-ranges. Every node carries a payload D of the owning structure's — a
// CPQA and a representative block, or the secondary R(u) — and the
// owner decides what to rebuild, what to charge and how to rebalance;
// this package owns only the shape.
//
// Nodes are copy-on-write, by path copying (Driscoll, Sarnak, Sleator and
// Tarjan, "Making Data Structures Persistent", 1989) gated by epochs. Pin
// captures the root for a reader and bumps the tree's epoch; a node whose
// epoch predates the last Pin may be reachable from a pinned root, so a
// write first makes its root-to-leaf path private with Own, which copies
// each such node once, and never a node created or copied since. A
// pinned root therefore never sees a write, Pin costs O(1), and a tree
// nobody pins copies nothing. Nodes carry no parent pointer: a write
// works along the path its descent returned.
//
// A leaf's points live in one span of consecutive blocks, in x order,
// each block a sorted run of one point to full, in the fewest blocks
// that hold them: the slack a delete leaves in a block lets a later
// one-point update rewrite that block alone. Bulk loads, splits, merges
// and prunes write a leaf packed full (RewriteLeaf). A one-point update
// (UpdateLeaf) rewrites its block in place, and a full block passes a
// point on to the nearest block with room; a leaf moves to a fresh span
// one block longer only when every block is full, and one block shorter
// when its points fit in one block less, as a packed leaf would.
//
// A leaf's span follows the copy-on-write rule on the disk: a leaf copy
// shares its span with the pinned original, so the copy's first write
// moves it to a fresh span, and a span no pin can reach is updated in
// place.
package xtree

import (
	"iter"
	"slices"

	"repro/internal/emio"
	"repro/internal/geom"
)

// Node is one node of the tree. A leaf has nil Children and holds Pts;
// an internal node has at least one child. MinX and MaxX bound the
// subtree's x-range.
type Node[D any] struct {
	Children []*Node[D]

	// Pts are a leaf's points in x order, stored two words a point in
	// the span at PtsBlock: block j holds the next Runs[j] of them. Runs
	// is nil while the leaf has no span.
	Pts      []geom.Point
	PtsBlock emio.BlockID
	Runs     []int

	// shared marks a leaf copy whose span is still the pinned
	// original's: the span must not be written in place.
	shared bool

	MinX, MaxX geom.Coord

	// Data is the owner's payload. A copy made by Own takes it by
	// value, or through the tree's fork function.
	Data D

	// epoch is the tree's Pin count when the node was made or copied:
	// the node is the live tree's own exactly while no Pin has happened
	// since.
	epoch uint64
}

// Leaf reports whether nd is a leaf.
func (nd *Node[D]) Leaf() bool { return nd.Children == nil }

// SetRange recomputes an internal node's x-range from its children.
func (nd *Node[D]) SetRange() {
	nd.MinX = nd.Children[0].MinX
	nd.MaxX = nd.Children[len(nd.Children)-1].MaxX
}

// Tree is the live tree: its root, the disk its leaf spans live on and
// the epoch state of copy-on-write. It is written by one goroutine at a
// time; pinned roots may be read concurrently with those writes.
type Tree[D any] struct {
	Root *Node[D]

	disk  *emio.Disk
	fork  func(D) D
	snaps uint64
	path  []*Node[D] // Descend's buffer
}

// New returns an empty tree over d. fork, if not nil, returns the
// payload a copy of a node carries in place of the original's (foursided
// forks R(u), so that the original keeps answering for pinned roots);
// nil copies payloads by value.
func New[D any](d *emio.Disk, fork func(D) D) Tree[D] {
	return Tree[D]{disk: d, fork: fork}
}

// NewLeaf returns a leaf over pts, which it takes over. Its span is not
// written until RewriteLeaf.
func (t *Tree[D]) NewLeaf(pts []geom.Point) *Node[D] {
	return &Node[D]{Pts: pts, epoch: t.snaps}
}

// newInternal returns an internal node over children, which it takes
// over. Its range is not set until SetRange.
func (t *Tree[D]) newInternal(children []*Node[D]) *Node[D] {
	return &Node[D]{Children: children, epoch: t.snaps}
}

// Build bulk-loads an empty tree bottom-up from x-sorted points: leaves
// of leafSize points, then levels of internal nodes of fan children, the
// owner refreshing each node once its members are in place. A last group
// shorter than its level's minimum (leafMin, fanMin; 0 for none) first
// takes half that minimum from the end of the group before it, whose
// node is refreshed again. pts is not retained.
func (t *Tree[D]) Build(pts []geom.Point, leafSize, leafMin int, refreshLeaf func(*Node[D]), fan, fanMin int, refreshInternal func(*Node[D])) {
	level := group(pts, leafSize, leafMin, t.NewLeaf, func(nd *Node[D]) *[]geom.Point { return &nd.Pts }, refreshLeaf)
	for len(level) > 1 {
		level = group(level, fan, fanMin, t.newInternal, func(nd *Node[D]) *[]*Node[D] { return &nd.Children }, refreshInternal)
	}
	if len(level) > 0 {
		t.Root = level[0]
	}
}

// group cuts one level's items into runs of size, left to right, and
// makes (mk) and refreshes a node over each; members names a node's
// items, for a short last run to take least/2 of them (see Build).
func group[T, D any](items []T, size, least int, mk func([]T) *Node[D], members func(*Node[D]) *[]T, refresh func(*Node[D])) []*Node[D] {
	var out []*Node[D]
	for lo := 0; lo < len(items); lo += size {
		run := slices.Clone(items[lo:min(lo+size, len(items))])
		if len(run) < least && len(out) > 0 {
			prev := out[len(out)-1]
			m := members(prev)
			cut := len(*m) - least/2
			run = append(slices.Clone((*m)[cut:]), run...)
			*m = (*m)[:cut]
			refresh(prev)
		}
		nd := mk(run)
		refresh(nd)
		out = append(out, nd)
	}
	return out
}

// blockPts returns the points a block of the tree's disk holds when full.
func (t *Tree[D]) blockPts() int { return max(1, t.disk.Config().B/2) }

// RewriteLeaf replaces a leaf's span with a freshly written one holding
// its current points packed full, every block but the last holding
// blockPts of them, and resets its range: the old span is freed, the
// new one allocated and written, O(1) I/Os for a leaf of O(B) points.
// The new span is the leaf's own. Splits, merges, prunes and bulk loads
// write leaves this way; an update of one point goes through UpdateLeaf.
func (t *Tree[D]) RewriteLeaf(nd *Node[D]) { t.moveLeaf(nd, packed(len(nd.Pts), t.blockPts())) }

// packed returns the runs of n points packed full blocks of full.
func packed(n, full int) []int {
	var runs []int
	for ; n > 0; n -= full {
		runs = append(runs, min(n, full))
	}
	return runs
}

// moveLeaf frees nd's span, if any, and writes its points to a fresh
// one of the given runs, the leaf's own.
func (t *Tree[D]) moveLeaf(nd *Node[D], runs []int) {
	if len(nd.Runs) > 0 {
		t.disk.FreeBlocks(nd.PtsBlock, len(nd.Runs))
	}
	nd.Runs = runs
	if len(runs) > 0 {
		words := make([]int, len(runs))
		for j, r := range runs {
			words[j] = 2 * r
		}
		nd.PtsBlock = t.disk.AllocBlocks(words)
		t.disk.WriteSpanWords(nd.PtsBlock, 0, len(runs)*t.disk.Config().B)
	}
	nd.shared = false
	nd.setLeafRange()
}

// UpdateLeaf writes a leaf whose Pts just gained a point at index i
// (insert) or lost the one at i, and resets its range. The change lands
// in block j = BlockFor(i, insert), which the caller has read. A leaf
// keeps the fewest blocks its points fit in, each holding between one
// point and full. A block an insert overfills passes a point on, block
// by block, to the nearest block with room, shifting the blocks between
// by one point; when no block has room, it splits in two. A delete that
// lets the points fit in one block less packs them full. Where the leaf
// keeps its block count and no pin can reach its span, the blocks from
// j through the nearest one with room are read and rewritten in place —
// block j alone, unless it was full. Otherwise the leaf moves to a fresh
// span, reading the rest of the old one and writing all of the new.
func (t *Tree[D]) UpdateLeaf(nd *Node[D], i int, insert bool) {
	j := nd.BlockFor(i, insert)
	full := t.blockPts()
	// Block b gains (delta 1) or loses a point and blocks lo through hi
	// change, unless the leaf changes its block count: then it moves to
	// runs.
	b, delta, lo, hi := j, 1, j, j
	var runs []int
	move := nd.shared
	switch {
	case insert && nd.Runs[j] == full:
		if b = roomNear(nd.Runs, j, full); b >= 0 {
			lo, hi = min(j, b), max(j, b)
			if b > j && i == sum(nd.Runs[:j+1]) {
				lo++ // p opens block j+1; block j keeps its points
			}
		} else {
			runs = slices.Insert(slices.Clone(nd.Runs), j+1, (full+1)/2)
			runs[j] = full + 1 - runs[j+1]
			move = true
		}
	case !insert && len(nd.Pts) <= (len(nd.Runs)-1)*full:
		runs, move = packed(len(nd.Pts), full), true
	case !insert:
		delta = -1
	}
	if !move {
		ReadBlocks(t.disk, nd, lo, hi)
		t.disk.ResizeBlock(nd.PtsBlock+emio.BlockID(b), 2*nd.Runs[b], 2*(nd.Runs[b]+delta))
		nd.Runs[b] += delta
		B := t.disk.Config().B
		t.disk.WriteSpanWords(nd.PtsBlock, lo*B, hi*B+1)
		nd.setLeafRange()
		return
	}
	if runs == nil && len(nd.Pts) > 0 {
		// Only a pin moves the leaf: it keeps its layout, with block b's
		// change.
		runs = slices.Clone(nd.Runs)
		runs[b] += delta
	}
	ReadBlocks(t.disk, nd, 0, len(nd.Runs)-1)
	t.moveLeaf(nd, runs)
}

// sum returns the points runs hold.
func sum(runs []int) int {
	n := 0
	for _, r := range runs {
		n += r
	}
	return n
}

// roomNear returns the block nearest to j, after it on a tie, that holds
// fewer than full points, or -1 when every block is full.
func roomNear(runs []int, j, full int) int {
	for d := 1; d < len(runs); d++ {
		for _, m := range [2]int{j + d, j - d} {
			if m >= 0 && m < len(runs) && runs[m] < full {
				return m
			}
		}
	}
	return -1
}

// Block returns the block of nd's span that holds point i.
func (nd *Node[D]) Block(i int) int {
	for j, r := range nd.Runs {
		if i < r {
			return j
		}
		i -= r
	}
	return len(nd.Runs) - 1
}

// BlockFor returns the block of nd's span that an insert at index i, or
// the delete of point i, changes: the block that holds point i-1 (block
// 0 for i = 0), where the first x of every block routes the new point,
// or the block that holds point i.
func (nd *Node[D]) BlockFor(i int, insert bool) int {
	if insert {
		i = max(i-1, 0)
	}
	return nd.Block(i)
}

// ReadBlocks charges d a read of blocks first through last of nd's span;
// none when last < first.
func ReadBlocks[D any](d *emio.Disk, nd *Node[D], first, last int) {
	B := d.Config().B
	d.ReadSpanWords(nd.PtsBlock, first*B, last*B+1)
}

// setLeafRange resets a non-empty leaf's range from its points.
func (nd *Node[D]) setLeafRange() {
	if len(nd.Pts) > 0 {
		nd.MinX, nd.MaxX = nd.Pts[0].X, nd.Pts[len(nd.Pts)-1].X
	}
}

// Descend returns the root-to-leaf path to the leaf whose x-range should
// hold x: from each internal node it takes the first child whose MaxX is
// at least x, or the last child. visit, if not nil, is called on each
// internal node before its child is chosen; the descent itself charges
// nothing. The path is nil for an empty tree, and it lives in a buffer
// that the next Descend reuses.
func (t *Tree[D]) Descend(x geom.Coord, visit func(*Node[D])) []*Node[D] {
	t.path = t.path[:0]
	for nd := t.Root; nd != nil; {
		t.path = append(t.path, nd)
		if nd.Leaf() {
			break
		}
		if visit != nil {
			visit(nd)
		}
		next := nd.Children[len(nd.Children)-1]
		for _, c := range nd.Children {
			if x <= c.MaxX {
				next = c
				break
			}
		}
		nd = next
	}
	return t.path
}

// Own makes every node of path, a root-to-leaf path from Descend, the
// live tree's own before a write, top-down. A node made before the last
// Pin is copied — its Children slice or its Pts array cloned — relinked
// into its parent, which is already private, or made the root, and
// replaced in path. A leaf copy keeps the original's span, marked
// shared until RewriteLeaf gives the copy one of its own. Every other
// node is left where it is.
func (t *Tree[D]) Own(path []*Node[D]) {
	for i, nd := range path {
		if nd.epoch == t.snaps {
			continue
		}
		c := *nd
		c.epoch = t.snaps
		if nd.Leaf() {
			c.Pts = slices.Clone(nd.Pts)
			c.Runs = slices.Clone(nd.Runs)
			c.shared = true
		} else {
			c.Children = slices.Clone(nd.Children)
		}
		if t.fork != nil {
			c.Data = t.fork(nd.Data)
		}
		if i == 0 {
			t.Root = &c
		} else {
			par := path[i-1]
			par.Children[ChildIndex(par, nd)] = &c
		}
		path[i] = &c
	}
}

// Pin returns the current root for a reader to keep: later writes copy
// every node it reaches before changing it. O(1), no I/O.
func (t *Tree[D]) Pin() *Node[D] {
	t.snaps++
	return t.Root
}

// Split moves the upper half of nd's points or children into a new
// right sibling and returns it. Neither node's span, range or payload is
// rewritten.
func (t *Tree[D]) Split(nd *Node[D]) *Node[D] {
	if nd.Leaf() {
		half := len(nd.Pts) / 2
		right := t.NewLeaf(append([]geom.Point(nil), nd.Pts[half:]...))
		nd.Pts = nd.Pts[:half]
		return right
	}
	half := len(nd.Children) / 2
	right := t.newInternal(append([]*Node[D](nil), nd.Children[half:]...))
	nd.Children = nd.Children[:half]
	return right
}

// Attach places right, split off nd, just after nd under par. If nd is
// the root (par is nil), a new root over the two becomes the tree's root,
// and refresh is called on it.
func (t *Tree[D]) Attach(par, nd, right *Node[D], refresh func(*Node[D])) {
	if par == nil {
		t.Root = t.newInternal([]*Node[D]{nd, right})
		refresh(t.Root)
		return
	}
	par.Children = slices.Insert(par.Children, ChildIndex(par, nd)+1, right)
}

// ChildIndex returns the position of nd among par's children.
func ChildIndex[D any](par, nd *Node[D]) int {
	if i := slices.Index(par.Children, nd); i >= 0 {
		return i
	}
	panic("xtree: node not found among its parent's children")
}

// RemoveChild takes nd out of par's children.
func RemoveChild[D any](par, nd *Node[D]) {
	i := ChildIndex(par, nd)
	par.Children = slices.Delete(par.Children, i, i+1)
}

// Height returns the number of levels of the tree.
func (t *Tree[D]) Height() int {
	h := 0
	for nd := t.Root; nd != nil; nd = nd.Children[0] {
		h++
		if nd.Leaf() {
			break
		}
	}
	return h
}

// Leaves yields the leaves below nd whose x-range meets [x1, x2], in
// increasing x, skipping every subtree outside it. It charges nothing: a
// caller that reads the points charges their spans itself.
func Leaves[D any](nd *Node[D], x1, x2 geom.Coord) iter.Seq[*Node[D]] {
	return func(yield func(*Node[D]) bool) { leaves(nd, x1, x2, yield) }
}

func leaves[D any](nd *Node[D], x1, x2 geom.Coord, yield func(*Node[D]) bool) bool {
	switch {
	case nd == nil || nd.MaxX < x1 || nd.MinX > x2:
		return true
	case nd.Leaf():
		return yield(nd)
	}
	for _, c := range nd.Children {
		if !leaves(c, x1, x2, yield) {
			return false
		}
	}
	return true
}

// Nodes yields every node below nd, children before their parent — the
// order a release frees them in.
func Nodes[D any](nd *Node[D]) iter.Seq[*Node[D]] {
	return func(yield func(*Node[D]) bool) { walk(nd, yield) }
}

func walk[D any](nd *Node[D], yield func(*Node[D]) bool) bool {
	if nd == nil {
		return true
	}
	for _, c := range nd.Children {
		if !walk(c, yield) {
			return false
		}
	}
	return yield(nd)
}
