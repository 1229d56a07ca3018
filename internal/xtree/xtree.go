// Package xtree is the x-ordered base tree under the Theorem 4 and
// Theorem 6 structures (internal/dyntop, internal/foursided): leaves hold
// Θ(B) points sorted by x, each leaf in a charged span of its own, and an
// internal node routes on its children's x-ranges. Every node carries a
// payload D of the owning structure's — a CPQA and a representative
// block, or the secondary R(u) — and the owner decides what to rebuild,
// what to charge and how to rebalance; this package owns only the shape.
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
// A leaf's point span follows the same rule on the disk. A leaf copy
// shares its span with the pinned original, so the copy's first write
// moves it to a fresh span (RewriteLeaf); a span no pin can reach is
// updated in place (UpdateLeaf), which writes only the blocks the update
// changed, as long as the leaf keeps its block count.
package xtree

import (
	"iter"
	"slices"

	"repro/internal/emio"
	"repro/internal/geom"
)

// Node is one node of the tree. A leaf has nil Children and holds Pts,
// stored two words a point in the span at PtsBlock; an internal node has
// at least one child. MinX and MaxX bound the subtree's x-range.
type Node[D any] struct {
	Children []*Node[D]

	Pts      []geom.Point
	PtsBlock emio.BlockID
	PtsWords int

	// shared marks a leaf copy whose span is still the pinned
	// original's: the span must not be written in place.
	shared bool

	MinX, MaxX geom.Coord

	// Data is the owner's payload. A copy made by Own takes it by
	// value, or through the tree's fork function on internal nodes.
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
// payload a copy of an internal node carries in place of the original's
// (foursided forks R(u), so that the original keeps answering for pinned
// roots); nil copies payloads by value.
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

// RewriteLeaf replaces a leaf's span with a freshly written one holding
// its current points and resets its range: the old span is freed, the
// new one allocated and written, O(1) I/Os for a leaf of O(B) points.
// The new span is the leaf's own. Splits, merges, prunes and bulk loads
// write leaves this way; an update of one leaf goes through UpdateLeaf.
func (t *Tree[D]) RewriteLeaf(nd *Node[D]) {
	if nd.PtsWords > 0 {
		t.disk.FreeSpan(nd.PtsBlock, nd.PtsWords)
	}
	nd.PtsWords = 2 * len(nd.Pts)
	if nd.PtsWords > 0 {
		nd.PtsBlock = t.disk.AllocSpan(nd.PtsWords)
		t.disk.WriteSpan(nd.PtsBlock, nd.PtsWords)
	}
	nd.shared = false
	nd.setLeafRange()
}

// UpdateLeaf writes a leaf whose points changed from index i on, and
// resets its range. When no pin can reach the span and the leaf keeps
// its block count, the span is updated in place: its last block is
// re-accounted and only the blocks from the one holding point i through
// the last are written, so an update of one point writes 1 to 4 blocks
// of a 4-block leaf where RewriteLeaf writes all 4. Otherwise it is
// RewriteLeaf. The caller has read the span.
func (t *Tree[D]) UpdateLeaf(nd *Node[D], i int) {
	words, cfg := 2*len(nd.Pts), t.disk.Config()
	if nd.shared || nd.PtsWords == 0 || cfg.BlocksFor(words) != cfg.BlocksFor(nd.PtsWords) {
		t.RewriteLeaf(nd)
		return
	}
	t.disk.ResizeSpan(nd.PtsBlock, nd.PtsWords, words)
	nd.PtsWords = words
	// A delete at the end changes only the last block, which holds no
	// point from i on.
	t.disk.WriteSpanWords(nd.PtsBlock, min(2*i, words-1), words)
	nd.setLeafRange()
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
			c.shared = true
		} else {
			c.Children = slices.Clone(nd.Children)
			if t.fork != nil {
				c.Data = t.fork(nd.Data)
			}
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

// Leaves yields the leaves below nd in increasing x. It charges nothing:
// a caller that reads the points charges their spans itself.
func Leaves[D any](nd *Node[D]) iter.Seq[*Node[D]] {
	return func(yield func(*Node[D]) bool) {
		for u := range Nodes(nd) {
			if u.Leaf() && !yield(u) {
				return
			}
		}
	}
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
