// Package foursided implements Theorem 6: a linear-size dynamic
// structure answering general (4-sided) range skyline queries — and so
// also left-open, bottom-open and anti-dominance queries — in
// O((n/B)^ε + k/B) I/Os, with O(log(n/B)) amortized update cost. By
// Theorem 5 the query cost is optimal for linear space in the
// indexability model.
//
// The structure is a constant-height fan-out tree over the
// x-coordinates: leaves hold Θ(B) points and internal nodes have Θ(f)
// children, with f = max(2, ⌊(n/B)^ε / log2(n/B)⌋, ⌈(n/B)^{1/(⌈1/ε⌉+1)}⌉),
// so the tree has at most ⌈1/ε⌉+1 internal levels. The paper's
// f ≈ (n/B)^ε / log(n/B) alone gives that height only asymptotically:
// the log divisor keeps f at 2–5 for every n/B up to 2^12 at ε = 0.5,
// which leaves the tree 6–8 levels deep at the sizes the benchmarks
// run, and every level costs each update one secondary update. The
// third term is the smallest fan-out that meets the height. Its
// exponent 1/(⌈1/ε⌉+1) is below ε, so it decides only up to a constant
// n/B (≈ 2^30 at ε = 0.5) and the query bound keeps its form: O(f/ε)
// canonical nodes at O(log(n/B)) I/Os each. Every
// internal node u carries a secondary structure R(u): a Theorem 4
// (dyntop) structure over the transposed points of its subtree,
// answering the right-open band queries [x1,∞) × [β*, β2] the 4-sided
// algorithm issues while sweeping its parts right to left and
// maintaining the running threshold β*.
//
// A subtree that ends by x2 needs no decomposition: P(u) ∩ [x1,∞) ×
// [β*, y2] is u's whole share of the rectangle, and transposed it is the
// top-open query [β*, y2] × [x1,∞), which R(u) answers alone in
// O(log(n/B) + k/B) I/Os whether or not x1 cuts u. So Query splits only
// the nodes cut on the right and reads only the leaves those cut; a
// rectangle with X2 = +∞ is one query on R(root). Live indexes and
// snapshot Handles share the walk. Boundary leaves are charged only the
// blocks a scan from a grounded end reads (dyntop.ScanLeaf): internal
// nodes here own no charged block that could hold leaf fences.
//
// Updates go into the leaf array and into every R(u) along the path
// (O(1/ε) nodes × O(log(n/B)) each). The leaf and each R(u) write only
// the blocks of their leaf spans that the update changed, in place,
// unless a Snapshot still shares the span or the leaf changes its block
// count (xtree.Tree.UpdateLeaf). Internal nodes split when their
// fan-out doubles, rebuilding the two halves' secondaries (amortized
// against the Ω(fB) updates between splits), and the entire structure is
// rebuilt after n/2 updates, which keeps every parameter calibrated and
// makes the total update cost O(log(n/B)) amortized.
//
// The base tree is internal/xtree's copy-on-write x-tree, shared with
// dyntop: Snapshot pins the root in O(1), and an update copies the nodes
// of its path that a pin may reach — forking each copy's R(u) — before
// it writes them.
package foursided

import (
	"math"
	"slices"
	"sort"

	"repro/internal/dyntop"
	"repro/internal/emio"
	"repro/internal/geom"
	"repro/internal/xtree"
)

// node carries, on an internal node, the right-open secondary R(u) over
// its subtree: a dyntop tree on transposed points. Leaves carry nil.
type node = xtree.Node[*dyntop.Tree]

// Index is the 4-sided range skyline structure.
type Index struct {
	disk *emio.Disk
	eps  float64

	xt      xtree.Tree[*dyntop.Tree]
	n       int
	n0      int // size at last rebuild
	updates int // updates since last rebuild
	fanout  int
}

// Build constructs the index over pts (any order; they are sorted here)
// with query exponent ε ∈ (0, 1].
func Build(d *emio.Disk, eps float64, pts []geom.Point) *Index {
	if eps <= 0 || eps > 1 {
		panic("foursided: epsilon must be in (0,1]")
	}
	// A node copied after a Snapshot forks its R(u): the copy writes the
	// fork, and the original keeps answering for the handles.
	ix := &Index{disk: d, eps: eps, xt: xtree.New(d, (*dyntop.Tree).Fork)}
	sorted := append([]geom.Point(nil), pts...)
	geom.SortByX(sorted)
	ix.rebuild(sorted)
	return ix
}

// rebuild reconstructs the whole structure from x-sorted points,
// releasing the one it replaces.
func (ix *Index) rebuild(sorted []geom.Point) {
	ix.release(ix.xt.Root)
	ix.xt.Root = nil
	ix.n = len(sorted)
	ix.n0 = len(sorted)
	ix.updates = 0
	if len(sorted) == 0 {
		return
	}
	B := ix.disk.Config().B
	ix.fanout = fanout(float64(len(sorted))/float64(B), ix.eps)
	ix.xt.Build(sorted, B, 0, ix.xt.RewriteLeaf, ix.fanout, 0, ix.refreshInternal)
}

// maxLevels is the internal-level cap ⌈1/ε⌉+1 that fanout keeps the
// tree within.
func maxLevels(eps float64) int { return int(math.Ceil(1/eps)) + 1 }

// fanout picks f for nb = n/B leaf blocks (see the package comment):
// the paper's (n/B)^ε / log2(n/B), raised where needed to the smallest
// f whose maxLevels-th power reaches nb.
func fanout(nb, eps float64) int {
	nb = math.Max(1, nb)
	paper := int(math.Pow(nb, eps) / math.Max(1, math.Log2(nb)))
	height := int(math.Ceil(math.Pow(nb, 1/float64(maxLevels(eps)))))
	return max(2, paper, height)
}

// release frees every block held beneath nd: leaf point spans and whole
// secondaries. Pinned Handles keep answering — their retention defers
// the frees — and each R(u) is released through a fork, which leaves
// the tree a Handle may still reach intact.
func (ix *Index) release(nd *node) {
	for u := range xtree.Nodes(nd) {
		if u.PtsWords > 0 {
			ix.disk.FreeSpan(u.PtsBlock, u.PtsWords)
		}
		if u.Data != nil {
			u.Data.Fork().Release()
		}
	}
}

// Release frees every block the index holds and leaves it empty.
func (ix *Index) Release() {
	ix.release(ix.xt.Root)
	ix.xt.Root, ix.n, ix.n0, ix.updates = nil, 0, 0, 0
}

// refreshInternal (re)builds R(u) from scratch over the subtree's
// transposed points, sorted by y, releasing the secondary it replaces.
func (ix *Index) refreshInternal(nd *node) {
	if nd.Data != nil {
		nd.Data.Release()
	}
	var tp []geom.Point
	for l := range xtree.Leaves(nd) {
		for _, p := range l.Pts {
			tp = append(tp, geom.Point{X: p.Y, Y: p.X})
		}
	}
	sort.Slice(tp, func(i, j int) bool { return tp[i].X < tp[j].X })
	// Right-open secondaries use ε = 0: query O(log(n/B) + k/B),
	// update O(log(n/B)) worst case — exactly what Theorem 6 needs.
	nd.Data = dyntop.BuildSABE(ix.disk, 0, tp)
	nd.SetRange()
}

// Len returns the number of indexed points.
func (ix *Index) Len() int { return ix.n }

// bandSkyline appends to out the answer of R(u) to the right-open query
// [x1,∞) × [y1, y2]: the skyline of P(u) within the y-band right of x1,
// in decreasing-x order. It is the top-open query [y1,y2] × [x1,∞) on
// the transposed points, whose answer ascends in the original y.
func bandSkyline(out []geom.Point, r *dyntop.Tree, x1, y1, y2 geom.Coord) []geom.Point {
	for _, p := range r.Query(y1, y2, x1) {
		out = append(out, geom.Point{X: p.Y, Y: p.X})
	}
	return out
}

// view is the read-only query machinery, shared between the live Index
// and its pinned snapshots.
type view struct {
	disk *emio.Disk
	root *node
}

// leafSkyline appends to out the skyline of the leaf's points inside
// rect, in decreasing-x order, charging the blocks dyntop.ScanLeaf says
// a scan of [r.X1, r.X2] from a grounded end reads. The leaf is sorted
// by x and in general position, so one right-to-left scan of the
// in-range points keeping the running maximum y finds the maxima
// without the oracle's copy and sort.
func (v view) leafSkyline(out []geom.Point, nd *node, r geom.Rect) []geom.Point {
	lo, hi := dyntop.ScanLeaf(v.disk, nd.PtsBlock, nd.Pts, r.X1, r.X2, false)
	best := geom.Coord(math.MinInt64)
	for i := hi - 1; i >= lo; i-- {
		if p := nd.Pts[i]; p.Y > best && r.Contains(p) {
			out = append(out, p)
			best = p.Y
		}
	}
	return out
}

// Query answers the 4-sided range skyline query [x1,x2] × [y1,y2] in
// O((n/B)^ε + k/B) I/Os, returning the maxima in increasing-x order.
func (ix *Index) Query(q geom.Rect) []geom.Point {
	return view{disk: ix.disk, root: ix.xt.Root}.query(q)
}

func (v view) query(q geom.Rect) []geom.Point {
	if v.root == nil || q.X1 > q.X2 || q.Y1 > q.Y2 {
		return nil
	}
	// Decompose [x1,x2] into parts in ascending x: every internal node
	// whose subtree ends by x2 is one part, answered by its own R(u) in
	// O(log(n/B) + k/B) whether or not x1 cuts it; the boundary leaves
	// of the right-cut nodes are the others. A right-grounded rectangle
	// is one part, R(root).
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
		if nd.Leaf() {
			out = v.leafSkyline(out, nd, geom.Rect{X1: q.X1, X2: q.X2, Y1: betaStar, Y2: q.Y2})
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

// LeftOpen answers the left-open query (-∞,x] × [y1,y2].
func (ix *Index) LeftOpen(x, y1, y2 geom.Coord) []geom.Point {
	return ix.Query(geom.LeftOpen(x, y1, y2))
}

// AntiDominance answers the anti-dominance query (-∞,x] × (-∞,y].
func (ix *Index) AntiDominance(x, y geom.Coord) []geom.Point {
	return ix.Query(geom.AntiDominance(x, y))
}

// Insert adds a point: O(log(n/B)) amortized I/Os.
func (ix *Index) Insert(p geom.Point) {
	ix.updates++
	if ix.xt.Root == nil || ix.updates*2 > ix.n0+2 {
		ix.rebuild(ix.allPoints(p, geom.Point{}, true))
		return
	}
	path := ix.xt.Descend(p.X, nil)
	ix.xt.Own(path)
	for _, u := range path[:len(path)-1] {
		u.Data.Insert(geom.Point{X: p.Y, Y: p.X})
	}
	nd := path[len(path)-1]
	ix.disk.ReadSpan(nd.PtsBlock, nd.PtsWords)
	i := sort.Search(len(nd.Pts), func(j int) bool { return nd.Pts[j].X >= p.X })
	nd.Pts = slices.Insert(nd.Pts, i, p)
	ix.xt.UpdateLeaf(nd, i)
	ix.n++
	ix.splitUp(path)
}

// Delete removes the point; reports whether it was present.
// O(log(n/B)) amortized I/Os.
func (ix *Index) Delete(p geom.Point) bool {
	if ix.xt.Root == nil {
		return false
	}
	// Verify presence first so failed deletes do not corrupt R(u)s.
	path := ix.xt.Descend(p.X, nil)
	nd := path[len(path)-1]
	ix.disk.ReadSpan(nd.PtsBlock, nd.PtsWords)
	i := sort.Search(len(nd.Pts), func(j int) bool { return nd.Pts[j].X >= p.X })
	if i >= len(nd.Pts) || nd.Pts[i] != p {
		return false
	}
	ix.updates++
	if ix.updates*2 > ix.n0+2 {
		ix.rebuild(ix.allPoints(geom.Point{}, p, false))
		return true
	}
	ix.xt.Own(path)
	for _, u := range path[:len(path)-1] {
		u.Data.Delete(geom.Point{X: p.Y, Y: p.X})
	}
	nd = path[len(path)-1]
	nd.Pts = slices.Delete(nd.Pts, i, i+1)
	ix.xt.UpdateLeaf(nd, i)
	ix.n--
	if len(nd.Pts) == 0 {
		path = ix.pruneEmpty(path)
	}
	// The 4-sided walk asks R(u) alone for a node that ends by x2, so
	// every range on the path must shrink with its subtree.
	for i := len(path) - 1; i >= 0; i-- {
		if !path[i].Leaf() {
			path[i].SetRange()
		}
	}
	return true
}

// splitUp restores occupancy along a private root-to-leaf path: leaves
// split at 2B, internal nodes at 2*fanout (rebuilding the halves'
// secondaries, amortized against the updates that grew them).
func (ix *Index) splitUp(path []*node) {
	B := ix.disk.Config().B
	for i := len(path) - 1; i >= 0; i-- {
		nd, par := path[i], (*node)(nil)
		if i > 0 {
			par = path[i-1]
		}
		switch {
		case nd.Leaf() && len(nd.Pts) > 2*B:
			right := ix.xt.Split(nd)
			ix.xt.RewriteLeaf(nd)
			ix.xt.RewriteLeaf(right)
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
// path out of the tree, with every ancestor that it leaves childless,
// and returns the part of the path that survives, ending at an internal
// node (nil if the tree is left empty).
func (ix *Index) pruneEmpty(path []*node) []*node {
	for i := len(path) - 1; i > 0; i-- {
		par := path[i-1]
		xtree.RemoveChild(par, path[i])
		if len(par.Children) > 0 {
			return path[:i]
		}
		par.Data.Release()
	}
	ix.xt.Root = nil
	return nil
}

// allPoints gathers the current point set (plus an optional pending
// insert, minus an optional pending delete), x-sorted, for rebuilds.
func (ix *Index) allPoints(add, del geom.Point, doAdd bool) []geom.Point {
	var out []geom.Point
	for l := range xtree.Leaves(ix.xt.Root) {
		out = append(out, l.Pts...)
	}
	if !doAdd {
		for i, p := range out {
			if p == del {
				out = append(out[:i], out[i+1:]...)
				break
			}
		}
	} else {
		out = append(out, add)
	}
	geom.SortByX(out)
	return out
}

// Fanout exposes the internal fan-out chosen for the current n and ε.
func (ix *Index) Fanout() int { return ix.fanout }

// Height returns the tree height.
func (ix *Index) Height() int { return ix.xt.Height() }

// Handle is an immutable point-in-time view of an Index, pinned by
// Snapshot. It answers from the root captured at the pin while the live
// index keeps mutating: the base tree's nodes are copy-on-write (see
// internal/xtree), and a node copied after the pin writes a fork of its
// R(u) (dyntop.Tree.Fork), so every node and every secondary the handle
// reaches stays as it was. The spans the live index frees under the
// snapshot (leaf spans, secondaries' spans) must be held by an emio
// retention (Disk.RetainFrees) opened before the Snapshot call.
type Handle struct {
	view
	n int
}

// Snapshot captures the current index as an immutable Handle in O(1):
// zero simulated I/Os, the root kept and the index's epoch advanced, so
// that each node is copied, and its R(u) forked, by the first write that
// reaches it afterwards. Rebuilds and splits in the live index replace
// secondaries wholesale and release the old ones; the retention defers
// those frees and a freed block's id never becomes valid again, so a
// pinned secondary stays valid for the snapshot's lifetime.
func (ix *Index) Snapshot() *Handle {
	return &Handle{view: view{disk: ix.disk, root: ix.xt.Pin()}, n: ix.n}
}

// Query answers the 4-sided query against the pinned state,
// byte-identically to what the live index would have answered at the
// pin point.
func (h *Handle) Query(q geom.Rect) []geom.Point { return h.view.query(q) }

// LeftOpen answers the left-open query (-∞,x] × [y1,y2] on the pinned
// state.
func (h *Handle) LeftOpen(x, y1, y2 geom.Coord) []geom.Point {
	return h.Query(geom.LeftOpen(x, y1, y2))
}

// AntiDominance answers the anti-dominance query (-∞,x] × (-∞,y] on
// the pinned state.
func (h *Handle) AntiDominance(x, y geom.Coord) []geom.Point {
	return h.Query(geom.AntiDominance(x, y))
}

// Len returns the number of points in the pinned state.
func (h *Handle) Len() int { return h.n }
