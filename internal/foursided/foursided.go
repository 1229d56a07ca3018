// Package foursided implements Theorem 6: a linear-size dynamic
// structure answering general (4-sided) range skyline queries — and so
// also left-open, bottom-open and anti-dominance queries — in
// O((n/B)^ε + k/B) I/Os, with O(log(n/B)) amortized update cost. By
// Theorem 5 the query cost is optimal for linear space in the
// indexability model.
//
// The points live once, in a Theorem 4 tree (dyntop) whose leaves keep
// them in x order: the index's point store, the shard's own tree in a
// shard and one built at the index's ε by a standalone Build. Above it
// stands a fan-out tree over x with f = max(2, ⌊(n/B)^ε / log2(n/B)⌋,
// ⌈(n/B)^{1/(⌈1/ε⌉+1)}⌉) children per internal node: the paper's f, raised
// where needed so the tree has at most ⌈1/ε⌉+1 levels at every n/B the
// benchmarks run (DESIGN.md, "The Theorem 6 tree's height"). Its leaves,
// f·B points each when built, hold no points; every node u keeps its
// x-range and R(u), a Theorem 4 structure over the transposed points of
// its subtree, answering the right-open band queries [x1,∞) × [β*, y2]
// the 4-sided algorithm issues while sweeping its parts right to left
// and maintaining the running threshold β*. A leaf's range grows with an
// insert and may stay wider than its points after a delete; sibling
// ranges never overlap, which is all the walk needs. Every point the
// index reads comes from one charged range scan of the point store
// (dyntop.Tree.Scan): a query's boundary, a split and a rebuild.
//
// A subtree that ends by x2 needs no decomposition: P(u) ∩ [x1,∞) ×
// [β*, y2] is u's whole share of the rectangle, and transposed it is the
// top-open query [β*, y2] × [x1,∞), which R(u) answers alone in
// O(log(n/B) + k/B) I/Os whether or not x1 cuts u. So Query splits only
// the nodes cut on the right, which form one root-to-leaf path, and
// scans the points of [max(x1, lo), x2] under the leaf at its end. A
// rectangle with X2 = +∞ is one query on R(root).
//
// An update goes through the point store once — a delete there is the
// presence check — and then into every R(u) on its path (O(1/ε) nodes ×
// O(log(n/B)) each). A leaf splits past 2f·B points and an internal node
// past 2f children, rebuilding the halves' secondaries (amortized
// against the Ω(fB) updates between splits), and every secondary is
// rebuilt after n/2 updates — when the point store also frees the queue
// versions it replaced — which keeps the parameters calibrated, the space
// linear and the update cost O(log(n/B)) amortized.
//
// The base tree is internal/xtree's copy-on-write x-tree, shared with
// dyntop: Snapshot pins its root and the point store's in O(1), and an
// update copies the nodes of its path that a pin may reach — forking
// each copy's R(u) — before it writes them.
package foursided

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/dyntop"
	"repro/internal/emio"
	"repro/internal/geom"
	"repro/internal/xtree"
)

// node carries the right-open secondary R(u) over its subtree: a dyntop
// tree on transposed points.
type node = xtree.Node[*dyntop.Tree]

// Index is the 4-sided range skyline structure.
type Index struct {
	disk *emio.Disk
	eps  float64

	top     *dyntop.Tree // the point store
	xt      xtree.Tree[*dyntop.Tree]
	n0      int // size at last rebuild
	updates int // updates since last rebuild
	fanout  int
	err     error // the first R(u) delete that missed; see Err
}

// Build constructs the index over pts (any order; they are sorted here)
// with query exponent ε ∈ (0, 1], and the Theorem 4 tree at the same ε
// that holds its points.
func Build(d *emio.Disk, eps float64, pts []geom.Point) *Index {
	if eps <= 0 || eps > 1 {
		panic("foursided: epsilon must be in (0,1]")
	}
	sorted := append([]geom.Point(nil), pts...)
	geom.SortByX(sorted)
	// A node copied after a Snapshot forks its R(u): the copy writes the
	// fork, and the original keeps answering for the handles.
	ix := &Index{disk: d, eps: eps, top: dyntop.BuildSABE(d, eps, sorted), xt: xtree.New(d, (*dyntop.Tree).Fork)}
	ix.build(sorted)
	return ix
}

// build replaces every secondary with fresh ones over the x-sorted
// points — leaves of f·B points, internal nodes of f children — which
// clears Err, and frees the point store's history.
func (ix *Index) build(sorted []geom.Point) {
	ix.release(ix.xt.Root)
	ix.xt.Root = nil
	ix.n0, ix.updates, ix.err = len(sorted), 0, nil
	ix.top.FreeHistory()
	B := ix.disk.Config().B
	ix.fanout = fanout(float64(len(sorted))/float64(B), ix.eps)
	// The bulk load hands each leaf its points, which it keeps only as
	// long as its R(u) takes to build; an internal node's are a run of
	// sorted.
	refresh := func(nd *node) {
		pts := nd.Pts
		nd.Pts = nil
		if !nd.Leaf() {
			nd.SetRange()
			lo := sort.Search(len(sorted), func(i int) bool { return sorted[i].X >= nd.MinX })
			hi := sort.Search(len(sorted), func(i int) bool { return sorted[i].X > nd.MaxX })
			pts = sorted[lo:hi]
		}
		ix.refresh(nd, pts)
	}
	ix.xt.Build(sorted, ix.fanout*B, 0, refresh, ix.fanout, 0, refresh)
}

// rebuild replaces every secondary from one charged scan of the point
// store.
func (ix *Index) rebuild() { ix.build(ix.top.Scan(geom.NegInf, geom.PosInf, nil)) }

// maxLevels is the cap ⌈1/ε⌉+1 on the levels above the points that
// fanout keeps the tree within.
func maxLevels(eps float64) int { return int(math.Ceil(1/eps)) + 1 }

// fanout picks f for nb = n/B blocks of points (see the package
// comment): the paper's (n/B)^ε / log2(n/B), raised where needed to the
// smallest f whose maxLevels-th power reaches nb.
func fanout(nb, eps float64) int {
	nb = math.Max(1, nb)
	paper := int(math.Pow(nb, eps) / math.Max(1, math.Log2(nb)))
	height := int(math.Ceil(math.Pow(nb, 1/float64(maxLevels(eps)))))
	return max(2, paper, height)
}

// release frees every secondary beneath nd, each through a fork, which
// leaves the tree a Handle may still reach intact.
func (ix *Index) release(nd *node) {
	for u := range xtree.Nodes(nd) {
		u.Data.Fork().Release()
	}
}

// Release frees every block the index holds, its point store included,
// and leaves it empty.
func (ix *Index) Release() {
	ix.build(nil)
	ix.top.Release()
}

// refresh (re)builds nd's R(u) over pts, its subtree's points in x
// order, and a leaf's range from them.
func (ix *Index) refresh(nd *node, pts []geom.Point) {
	if nd.Data != nil {
		nd.Data.Release()
	}
	if nd.Leaf() {
		nd.MinX, nd.MaxX = pts[0].X, pts[len(pts)-1].X
	}
	tp := make([]geom.Point, len(pts))
	for i, p := range pts {
		tp[i] = transpose(p)
	}
	geom.SortByX(tp)
	// Right-open secondaries use ε = 0: query O(log(n/B) + k/B),
	// update O(log(n/B)) worst case — exactly what Theorem 6 needs.
	nd.Data = dyntop.BuildSABE(ix.disk, 0, tp)
}

// refreshInternal rebuilds an internal node's range and, from a scan of
// the point store, its R(u).
func (ix *Index) refreshInternal(nd *node) {
	nd.SetRange()
	ix.refresh(nd, ix.top.Scan(nd.MinX, nd.MaxX, nil))
}

func transpose(p geom.Point) geom.Point { return geom.Point{X: p.Y, Y: p.X} }

// Len returns the number of indexed points.
func (ix *Index) Len() int { return ix.top.Len() }

// Top returns the index's point store, a Theorem 4 tree.
func (ix *Index) Top() *dyntop.Tree { return ix.top }

// Err reports corruption: the first R(u) that missed the delete of a
// point the point store held since the last global rebuild, which
// derives every R(u) from the point store again and clears the report.
func (ix *Index) Err() error { return ix.err }

// bandSkyline appends to out the answer of R(u) to the right-open query
// [x1,∞) × [y1, y2]: the skyline of P(u) within the y-band right of x1,
// in decreasing-x order. It is the top-open query [y1,y2] × [x1,∞) on
// the transposed points, whose answer ascends in the original y.
func bandSkyline(out []geom.Point, r *dyntop.Tree, x1, y1, y2 geom.Coord) []geom.Point {
	for _, p := range r.Query(y1, y2, x1) {
		out = append(out, transpose(p))
	}
	return out
}

// scanner is the point store's range scan, live or pinned.
type scanner interface {
	Scan(x1, x2 geom.Coord, dst []geom.Point) []geom.Point
}

// view is the read-only query machinery, shared between the live Index
// and its pinned snapshots.
type view struct {
	root *node
	pts  scanner
}

// Query answers the 4-sided range skyline query [x1,x2] × [y1,y2] in
// O((n/B)^ε + k/B) I/Os, returning the maxima in increasing-x order.
func (ix *Index) Query(q geom.Rect) []geom.Point {
	return view{root: ix.xt.Root, pts: ix.top}.query(q)
}

func (v view) query(q geom.Rect) []geom.Point {
	if v.root == nil || q.X1 > q.X2 || q.Y1 > q.Y2 {
		return nil
	}
	// Decompose [x1,x2] into parts in ascending x: every node whose
	// subtree ends by x2 is one part, answered by its own R(u) in
	// O(log(n/B) + k/B) whether or not x1 cuts it; the leaf that x2
	// cuts, if any, is the last. A right-grounded rectangle is one part,
	// R(root).
	var parts []*node
	var walk func(nd *node)
	walk = func(nd *node) {
		if nd.MaxX < q.X1 || nd.MinX > q.X2 {
			return
		}
		if nd.Leaf() || nd.MaxX <= q.X2 {
			parts = append(parts, nd)
			return
		}
		for _, c := range nd.Children {
			walk(c)
		}
	}
	walk(v.root)

	// Sweep right to left maintaining β*, the highest y seen so far
	// (any point below it is dominated by a point to its right inside
	// Q). Every part appends its answer in decreasing x, so the answer
	// is built in one slice and reversed once.
	betaStar := q.Y1
	var out []geom.Point
	for i := len(parts) - 1; i >= 0; i-- {
		nd, n := parts[i], len(out)
		if nd.MaxX > q.X2 {
			out = v.boundary(out, nd, q)
		} else {
			out = bandSkyline(out, nd.Data, q.X1, betaStar, q.Y2)
		}
		if len(out) > n {
			// The part's last (leftmost) point is its highest, and
			// every point it reports lies above β*.
			betaStar = out[len(out)-1].Y
		}
	}
	slices.Reverse(out)
	return out
}

// boundary appends to out, in decreasing-x order, the skyline of q over
// the points of [max(x1, lo), x2] under the leaf nd that q cuts on the
// right: one scan of the point store, swept right to left keeping the
// running maximum y. It is the sweep's first part, so β* is still y1.
func (v view) boundary(out []geom.Point, nd *node, q geom.Rect) []geom.Point {
	pts := v.pts.Scan(max(q.X1, nd.MinX), q.X2, nil)
	best := geom.Coord(math.MinInt64)
	for i := len(pts) - 1; i >= 0; i-- {
		if p := pts[i]; p.Y > best && q.Contains(p) {
			out = append(out, p)
			best = p.Y
		}
	}
	return out
}

// Insert adds points, O(log(n/B)) amortized I/Os each: into every R(u)
// on their paths first and the point store last, so a batch ends on the
// blocks every top-open read of the store goes through; the splits it
// makes due follow. A batch that passes n0/2 updates since the last
// rebuild rebuilds every secondary instead.
func (ix *Index) Insert(pts ...geom.Point) {
	ix.updates += len(pts)
	if ix.xt.Root == nil || ix.updates*2 > ix.n0+2 {
		all := append(ix.top.Scan(geom.NegInf, geom.PosInf, nil), pts...)
		geom.SortByX(all)
		ix.build(all)
		ix.top.Insert(pts...)
		return
	}
	for _, p := range pts {
		path := ix.xt.Descend(p.X, nil)
		ix.xt.Own(path)
		for _, u := range path {
			u.Data.Insert(transpose(p))
			u.MinX, u.MaxX = min(u.MinX, p.X), max(u.MaxX, p.X)
		}
	}
	ix.top.Insert(pts...)
	for _, p := range pts {
		ix.splitUp(ix.xt.Descend(p.X, nil))
	}
}

// Delete removes the point and reports whether it was present,
// O(log(n/B)) amortized I/Os. The point store's delete is the presence
// check; an R(u) that then misses the point is corruption (Err).
func (ix *Index) Delete(p geom.Point) bool {
	if !ix.top.Delete(p) {
		return false
	}
	ix.updates++
	if ix.updates*2 > ix.n0+2 {
		ix.rebuild()
		return true
	}
	path := ix.xt.Descend(p.X, nil)
	ix.xt.Own(path)
	for depth, u := range path {
		if !u.Data.Delete(transpose(p)) && ix.err == nil {
			ix.err = fmt.Errorf("foursided: R(u) at depth %d misses %v, which the point store held", depth, p)
		}
	}
	if path[len(path)-1].Data.Len() == 0 {
		path = ix.pruneEmpty(path)
		for i := len(path) - 1; i >= 0; i-- {
			path[i].SetRange()
		}
	}
	return true
}

// splitUp splits, bottom-up along a private root-to-leaf path, a leaf of
// more than 2f·B points and an internal node of more than 2f children,
// each half's secondary rebuilt from a scan of the point store.
func (ix *Index) splitUp(path []*node) {
	leafMax := 2 * ix.fanout * ix.disk.Config().B
	for i := len(path) - 1; i >= 0; i-- {
		nd, par := path[i], (*node)(nil)
		if i > 0 {
			par = path[i-1]
		}
		switch {
		case nd.Leaf() && nd.Data.Len() > leafMax:
			pts := ix.top.Scan(nd.MinX, nd.MaxX, nil)
			right := ix.xt.NewLeaf(nil)
			ix.refresh(nd, pts[:len(pts)/2])
			ix.refresh(right, pts[len(pts)/2:])
			ix.xt.Attach(par, nd, right, ix.refreshInternal)
		case !nd.Leaf() && len(nd.Children) > 2*ix.fanout:
			right := ix.xt.Split(nd)
			ix.refreshInternal(nd)
			ix.refreshInternal(right)
			ix.xt.Attach(par, nd, right, ix.refreshInternal)
		case !nd.Leaf():
			nd.SetRange()
		}
	}
}

// pruneEmpty takes the emptied leaf at the end of a private root-to-leaf
// path out of the tree, with every ancestor it leaves childless, and
// returns the surviving part of the path (nil if the tree is empty).
func (ix *Index) pruneEmpty(path []*node) []*node {
	for i := len(path) - 1; i > 0; i-- {
		path[i].Data.Release()
		par := path[i-1]
		xtree.RemoveChild(par, path[i])
		if len(par.Children) > 0 {
			return path[:i]
		}
	}
	path[0].Data.Release()
	ix.xt.Root = nil
	return nil
}

// Height returns the number of levels of the tree, the point store's
// leaves counted as the lowest (0 for an empty index).
func (ix *Index) Height() int { return ix.xt.Height() + min(1, ix.xt.Height()) }

// Handle is an immutable point-in-time view of an Index, pinned by
// Snapshot: copy-on-write nodes (internal/xtree), forked R(u)s
// (dyntop.Tree.Fork) and a pinned point store keep everything it
// reaches as it was. The spans the live index frees meanwhile must be
// held by an emio retention (Disk.RetainFrees) opened before Snapshot.
type Handle struct {
	view
	top *dyntop.Handle
}

// Snapshot captures the current index as an immutable Handle in O(1)
// and zero I/Os: the roots are kept and the epochs advanced, so the
// first write that reaches a node afterwards copies it and forks its
// R(u).
func (ix *Index) Snapshot() *Handle {
	top := ix.top.Snapshot()
	return &Handle{view: view{root: ix.xt.Pin(), pts: top}, top: top}
}

// Query answers the 4-sided query as the live index did at the pin.
func (h *Handle) Query(q geom.Rect) []geom.Point { return h.view.query(q) }

// Top returns the pinned point store, for top-open queries.
func (h *Handle) Top() *dyntop.Handle { return h.top }

// Len returns the number of points in the pinned state.
func (h *Handle) Len() int { return h.top.Len() }
