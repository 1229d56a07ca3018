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
// answering the right-open band queries (-∞,∞) × [β*, β2] the 4-sided
// algorithm issues while sweeping the canonical nodes right to left and
// maintaining the running threshold β*.
//
// Updates go into the leaf array and into every R(u) along the path
// (O(1/ε) nodes × O(log(n/B)) each); internal nodes split when their
// fan-out doubles, rebuilding the two halves' secondaries (amortized
// against the Ω(fB) updates between splits), and the entire structure is
// rebuilt after n/2 updates, which keeps every parameter calibrated and
// makes the total update cost O(log(n/B)) amortized.
package foursided

import (
	"math"
	"slices"
	"sort"

	"repro/internal/dyntop"
	"repro/internal/emio"
	"repro/internal/geom"
)

type node struct {
	parent   *node
	children []*node

	// Leaves: points sorted by x, in a charged span. ptsEpoch is the
	// index's snapshot count when the pts array was last made private
	// to the live index (see ownPts).
	pts      []geom.Point
	ptsEpoch uint64
	ptsBlock emio.BlockID
	ptsWords int

	// Internal nodes: the right-open secondary over the subtree,
	// i.e. a dyntop tree on transposed points. Live nodes hold the
	// mutable tree in r; snapshot clones hold a pinned handle in rh.
	r  *dyntop.Tree
	rh *dyntop.Handle

	minX, maxX geom.Coord
}

func (nd *node) leaf() bool { return nd.r == nil && nd.rh == nil && nd.children == nil }

// Index is the 4-sided range skyline structure.
type Index struct {
	disk *emio.Disk
	eps  float64

	root    *node
	n       int
	n0      int // size at last rebuild
	updates int // updates since last rebuild
	fanout  int

	// snaps counts Snapshot calls: a leaf array is shared with a Handle
	// exactly when a Snapshot happened after the array became the live
	// index's own.
	snaps uint64
}

// Build constructs the index over pts (any order; they are sorted here)
// with query exponent ε ∈ (0, 1].
func Build(d *emio.Disk, eps float64, pts []geom.Point) *Index {
	if eps <= 0 || eps > 1 {
		panic("foursided: epsilon must be in (0,1]")
	}
	ix := &Index{disk: d, eps: eps}
	sorted := append([]geom.Point(nil), pts...)
	geom.SortByX(sorted)
	ix.rebuild(sorted)
	return ix
}

// rebuild reconstructs the whole structure from x-sorted points,
// releasing the one it replaces.
func (ix *Index) rebuild(sorted []geom.Point) {
	d := ix.disk
	ix.release(ix.root)
	ix.root = nil
	ix.n = len(sorted)
	ix.n0 = len(sorted)
	ix.updates = 0
	if len(sorted) == 0 {
		return
	}
	B := d.Config().B
	f := fanout(float64(len(sorted))/float64(B), ix.eps)
	ix.fanout = f

	var level []*node
	for lo := 0; lo < len(sorted); lo += B {
		hi := lo + B
		if hi > len(sorted) {
			hi = len(sorted)
		}
		nd := &node{pts: append([]geom.Point(nil), sorted[lo:hi]...)}
		ix.refreshLeaf(nd)
		level = append(level, nd)
	}
	for len(level) > 1 {
		var up []*node
		for lo := 0; lo < len(level); lo += f {
			hi := lo + f
			if hi > len(level) {
				hi = len(level)
			}
			nd := &node{children: append([]*node(nil), level[lo:hi]...)}
			for _, c := range nd.children {
				c.parent = nd
			}
			ix.refreshInternal(nd)
			up = append(up, nd)
		}
		level = up
	}
	ix.root = level[0]
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

func (ix *Index) refreshLeaf(nd *node) {
	if nd.ptsWords > 0 {
		ix.disk.FreeSpan(nd.ptsBlock, nd.ptsWords)
	}
	nd.ptsWords = 2 * len(nd.pts)
	if nd.ptsWords > 0 {
		nd.ptsBlock = ix.disk.AllocSpan(nd.ptsWords)
		ix.disk.WriteSpan(nd.ptsBlock, nd.ptsWords)
	}
	if len(nd.pts) > 0 {
		nd.minX, nd.maxX = nd.pts[0].X, nd.pts[len(nd.pts)-1].X
	}
}

// release frees every block held beneath nd: leaf point spans and whole
// secondaries. Pinned Handles keep answering — their retention defers
// the frees.
func (ix *Index) release(nd *node) {
	if nd == nil {
		return
	}
	for _, c := range nd.children {
		ix.release(c)
	}
	if nd.ptsWords > 0 {
		ix.disk.FreeSpan(nd.ptsBlock, nd.ptsWords)
	}
	if nd.r != nil {
		nd.r.Release()
	}
}

// Release frees every block the index holds and leaves it empty.
func (ix *Index) Release() {
	ix.release(ix.root)
	ix.root, ix.n, ix.n0, ix.updates = nil, 0, 0, 0
}

// refreshInternal (re)builds R(u) from scratch over the subtree's
// transposed points, sorted by y, releasing the secondary it replaces.
func (ix *Index) refreshInternal(nd *node) {
	if nd.r != nil {
		nd.r.Release()
	}
	var tp []geom.Point
	var collect func(*node)
	collect = func(c *node) {
		if c.leaf() {
			for _, p := range c.pts {
				tp = append(tp, geom.Point{X: p.Y, Y: p.X})
			}
			return
		}
		for _, cc := range c.children {
			collect(cc)
		}
	}
	for _, c := range nd.children {
		collect(c)
	}
	sort.Slice(tp, func(i, j int) bool { return tp[i].X < tp[j].X })
	// Right-open secondaries use ε = 0: query O(log(n/B) + k/B),
	// update O(log(n/B)) worst case — exactly what Theorem 6 needs.
	nd.r = dyntop.BuildSABE(ix.disk, 0, tp)
	nd.minX = nd.children[0].minX
	nd.maxX = nd.children[len(nd.children)-1].maxX
}

// Len returns the number of indexed points.
func (ix *Index) Len() int { return ix.n }

// bandSkyline answers the right-open query (-∞,∞) × [y1, y2] on R(u):
// the skyline of P(u) within the y-band, in increasing-x order. The
// node dispatches to its live tree or, on snapshot clones, the pinned
// handle — both run the same Theorem 4 query.
func (nd *node) bandSkyline(y1, y2 geom.Coord) []geom.Point {
	var tq []geom.Point
	if nd.rh != nil {
		tq = nd.rh.Query(y1, y2, geom.NegInf)
	} else {
		tq = nd.r.Query(y1, y2, geom.NegInf)
	}
	out := make([]geom.Point, len(tq))
	for i, p := range tq {
		// Transposed results ascend in y of the original points;
		// reverse to ascend in x.
		out[len(tq)-1-i] = geom.Point{X: p.Y, Y: p.X}
	}
	return out
}

// view is the read-only query machinery, shared between the live Index
// and its pinned snapshots.
type view struct {
	disk *emio.Disk
	root *node
}

// leafSkyline computes the skyline of the leaf's points inside rect,
// charging the leaf read. The leaf is sorted by x and in general
// position, so one right-to-left scan keeping the running maximum y
// finds the maxima without the oracle's copy and sort.
func (v view) leafSkyline(nd *node, r geom.Rect) []geom.Point {
	v.disk.ReadSpan(nd.ptsBlock, nd.ptsWords)
	var sky []geom.Point
	best := geom.Coord(math.MinInt64)
	for i := len(nd.pts) - 1; i >= 0; i-- {
		if p := nd.pts[i]; p.Y > best && r.Contains(p) {
			sky = append(sky, p)
			best = p.Y
		}
	}
	slices.Reverse(sky)
	return sky
}

// Query answers the 4-sided range skyline query [x1,x2] × [y1,y2] in
// O((n/B)^ε + k/B) I/Os, returning the maxima in increasing-x order.
func (ix *Index) Query(q geom.Rect) []geom.Point {
	return view{disk: ix.disk, root: ix.root}.query(q)
}

func (v view) query(q geom.Rect) []geom.Point {
	if v.root == nil || q.X1 > q.X2 || q.Y1 > q.Y2 {
		return nil
	}
	// Canonical decomposition of [x1,x2]: partial leaves on the two
	// boundaries plus maximal fully-contained nodes in between,
	// gathered in ascending x order.
	type part struct {
		leafNode *node // set for boundary leaves
		inner    *node // set for contained subtrees
	}
	var parts []part
	var walk func(nd *node)
	walk = func(nd *node) {
		if nd.maxX < q.X1 || nd.minX > q.X2 {
			return
		}
		if nd.leaf() {
			parts = append(parts, part{leafNode: nd})
			return
		}
		if nd.minX >= q.X1 && nd.maxX <= q.X2 {
			parts = append(parts, part{inner: nd})
			return
		}
		for _, c := range nd.children {
			if c.maxX < q.X1 || c.minX > q.X2 {
				continue
			}
			if c.minX >= q.X1 && c.maxX <= q.X2 && !c.leaf() {
				parts = append(parts, part{inner: c})
			} else {
				walk(c)
			}
		}
	}
	walk(v.root)

	// Sweep right to left maintaining β*, the highest y seen so far
	// (any point below it is dominated by a point to its right
	// inside Q).
	betaStar := q.Y1
	groups := make([][]geom.Point, len(parts))
	for i := len(parts) - 1; i >= 0; i-- {
		p := parts[i]
		band := geom.Rect{X1: q.X1, X2: q.X2, Y1: betaStar, Y2: q.Y2}
		var res []geom.Point
		if p.leafNode != nil {
			res = v.leafSkyline(p.leafNode, band)
		} else {
			res = p.inner.bandSkyline(betaStar, q.Y2)
		}
		groups[i] = res
		if len(res) > 0 {
			// The first (leftmost) reported point is the highest.
			if top := res[0].Y; top > betaStar {
				betaStar = top
			}
		}
	}
	var out []geom.Point
	for _, g := range groups {
		out = append(out, g...)
	}
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
	if ix.root == nil || ix.updates*2 > ix.n0+2 {
		ix.rebuild(ix.allPoints(p, geom.Point{}, true))
		return
	}
	nd := ix.root
	for !nd.leaf() {
		nd.r.Insert(geom.Point{X: p.Y, Y: p.X})
		next := nd.children[len(nd.children)-1]
		for _, c := range nd.children {
			if p.X <= c.maxX {
				next = c
				break
			}
		}
		nd = next
	}
	ix.disk.ReadSpan(nd.ptsBlock, nd.ptsWords)
	i := sort.Search(len(nd.pts), func(j int) bool { return nd.pts[j].X >= p.X })
	ix.ownPts(nd)
	nd.pts = slices.Insert(nd.pts, i, p)
	ix.refreshLeaf(nd)
	ix.n++
	ix.splitUp(nd)
}

// Delete removes the point; reports whether it was present.
// O(log(n/B)) amortized I/Os.
func (ix *Index) Delete(p geom.Point) bool {
	if ix.root == nil {
		return false
	}
	// Verify presence first so failed deletes do not corrupt R(u)s.
	nd := ix.root
	for !nd.leaf() {
		next := nd.children[len(nd.children)-1]
		for _, c := range nd.children {
			if p.X <= c.maxX {
				next = c
				break
			}
		}
		nd = next
	}
	ix.disk.ReadSpan(nd.ptsBlock, nd.ptsWords)
	i := sort.Search(len(nd.pts), func(j int) bool { return nd.pts[j].X >= p.X })
	if i >= len(nd.pts) || nd.pts[i] != p {
		return false
	}
	ix.updates++
	if ix.updates*2 > ix.n0+2 {
		ix.rebuild(ix.allPoints(geom.Point{}, p, false))
		return true
	}
	for u := ix.root; !u.leaf(); {
		u.r.Delete(geom.Point{X: p.Y, Y: p.X})
		next := u.children[len(u.children)-1]
		for _, c := range u.children {
			if p.X <= c.maxX {
				next = c
				break
			}
		}
		u = next
	}
	ix.ownPts(nd)
	nd.pts = slices.Delete(nd.pts, i, i+1)
	ix.refreshLeaf(nd)
	ix.n--
	if len(nd.pts) == 0 {
		ix.pruneEmpty(nd)
	}
	return true
}

// ownPts makes the leaf's point array safe to shift in place. Handles
// share leaf arrays with the live index, so the first write to a leaf
// after a Snapshot copies its array; later writes find it private and
// cost no host allocation.
func (ix *Index) ownPts(leaf *node) {
	if leaf.ptsEpoch != ix.snaps {
		leaf.pts, leaf.ptsEpoch = slices.Clone(leaf.pts), ix.snaps
	}
}

// splitUp restores occupancy: leaves split at 2B, internal nodes at
// 2*fanout (rebuilding the halves' secondaries, amortized against the
// updates that grew them).
func (ix *Index) splitUp(nd *node) {
	B := ix.disk.Config().B
	for nd != nil {
		par := nd.parent
		if nd.leaf() && len(nd.pts) > 2*B {
			half := len(nd.pts) / 2
			right := &node{pts: append([]geom.Point(nil), nd.pts[half:]...), parent: par}
			nd.pts = nd.pts[:half]
			ix.refreshLeaf(nd)
			ix.refreshLeaf(right)
			ix.attachSibling(nd, right)
		} else if !nd.leaf() && len(nd.children) > 2*ix.fanout {
			half := len(nd.children) / 2
			right := &node{children: append([]*node(nil), nd.children[half:]...), parent: par}
			nd.children = nd.children[:half]
			for _, c := range right.children {
				c.parent = right
			}
			ix.refreshInternal(nd)
			ix.refreshInternal(right)
			ix.attachSibling(nd, right)
		} else if !nd.leaf() {
			nd.minX = nd.children[0].minX
			nd.maxX = nd.children[len(nd.children)-1].maxX
		}
		nd = par
	}
}

func (ix *Index) attachSibling(nd, right *node) {
	par := nd.parent
	if par == nil {
		r := &node{children: []*node{nd, right}}
		nd.parent, right.parent = r, r
		ix.refreshInternal(r)
		ix.root = r
		return
	}
	for i, c := range par.children {
		if c == nd {
			par.children = append(par.children, nil)
			copy(par.children[i+2:], par.children[i+1:])
			par.children[i+1] = right
			return
		}
	}
	panic("foursided: attachSibling parent mismatch")
}

func (ix *Index) pruneEmpty(nd *node) {
	par := nd.parent
	if par == nil {
		ix.root = nil
		return
	}
	for i, c := range par.children {
		if c == nd {
			par.children = append(par.children[:i], par.children[i+1:]...)
			break
		}
	}
	if len(par.children) == 0 {
		par.r.Release()
		ix.pruneEmpty(par)
		return
	}
	par.minX = par.children[0].minX
	par.maxX = par.children[len(par.children)-1].maxX
}

// allPoints gathers the current point set (plus an optional pending
// insert, minus an optional pending delete), x-sorted, for rebuilds.
func (ix *Index) allPoints(add, del geom.Point, doAdd bool) []geom.Point {
	var out []geom.Point
	var rec func(*node)
	rec = func(nd *node) {
		if nd == nil {
			return
		}
		if nd.leaf() {
			out = append(out, nd.pts...)
			return
		}
		for _, c := range nd.children {
			rec(c)
		}
	}
	rec(ix.root)
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
func (ix *Index) Height() int {
	h := 0
	for nd := ix.root; nd != nil; {
		h++
		if nd.leaf() {
			break
		}
		nd = nd.children[0]
	}
	return h
}

// Handle is an immutable point-in-time view of an Index, pinned by
// Snapshot. As with dyntop, the payloads (leaf point arrays, CPQA
// queues inside the secondaries, block ids) are shared with the live
// index and immutable from the snapshot's perspective; the node graph
// and the secondaries' node graphs are copied, because the live index
// mutates both in place. The spans the live index recycles under the
// snapshot (leaf spans, secondary-internal spans) must be held by an
// emio retention (Disk.RetainFrees) opened before the Snapshot call.
type Handle struct {
	view
	n int
}

// Snapshot captures the current index as an immutable Handle: zero
// simulated I/Os, O(n/B) host words for the primary node graph plus
// the secondaries' graphs. Rebuilds and splits in the live index
// replace secondaries wholesale and release the old ones; the
// retention defers those frees and block ids are never reused, so a
// pinned secondary handle stays valid for the snapshot's lifetime.
func (ix *Index) Snapshot() *Handle {
	ix.snaps++
	return &Handle{view: view{disk: ix.disk, root: cloneNodes(ix.root, nil)}, n: ix.n}
}

// cloneNodes deep-copies the node graph, pinning each internal node's
// secondary via dyntop's own Snapshot.
func cloneNodes(nd, parent *node) *node {
	if nd == nil {
		return nil
	}
	c := &node{
		parent:   parent,
		pts:      nd.pts,
		ptsBlock: nd.ptsBlock,
		ptsWords: nd.ptsWords,
		minX:     nd.minX,
		maxX:     nd.maxX,
	}
	if nd.r != nil {
		c.rh = nd.r.Snapshot()
	}
	if nd.children != nil {
		c.children = make([]*node, len(nd.children))
		for i, ch := range nd.children {
			c.children[i] = cloneNodes(ch, c)
		}
	}
	return c
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
