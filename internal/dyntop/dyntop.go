// Package dyntop implements the dynamic top-open range skyline structure
// of Theorem 4 (§4.2): an (a,2a)-tree over the mirrored point set
// P̃ = {(x, −y)}, augmented with confluently persistent I/O-CPQAs, with
//
//	query  O(log_{2B^ε}(n/B) + k/B^{1−ε}) I/Os,
//	update O(log_{2B^ε}(n/B)) I/Os,
//	space  O(n/B) blocks, construction O(n/B) I/Os after x-sorting (SABE),
//
// for any parameter 0 ≤ ε ≤ 1. The base tree has fan-out a = 2⌈B^ε⌉ and
// leaves of [B, 2B] points; the CPQAs use buffer size b = ⌊B^{1−ε}⌋, so
// the critical records of a node's Θ(B^ε) children total O(B) words and
// fit in the node's O(1)-block representative block. A point (x, y)
// becomes the element (key = −y, aux = x) inserted at "time" x; a point
// is attrited exactly when it is dominated (Figure 7), so a node's queue
// — the left-to-right catenation of its children's queues — holds the
// skyline of its subtree, and a top-open query drains the catenation of
// O(log) canonical queues until y < β.
//
// Block lifetime: queries and refreshes run in an emio.Scope and keep
// only the queue version that survives them, each node owns the spans of
// its current version, and Release frees everything. The O(n/B) space
// figure is what the nodes hold; replaced versions are still held on the
// tree's history until Release (DESIGN.md, "Block lifetime and
// reclamation").
package dyntop

import (
	"math"
	"slices"
	"sort"

	"repro/internal/cpqa"
	"repro/internal/emio"
	"repro/internal/geom"
)

type node struct {
	parent   *node
	children []*node // nil for leaves

	// Leaves hold the raw points sorted by x in a span of their own.
	// ptsEpoch is the tree's snapshot count when the pts array was last
	// made private to the live tree (see ownPts).
	pts      []geom.Point
	ptsEpoch uint64
	ptsBlock emio.BlockID
	ptsWords int

	// Every node carries the I/O-CPQA over its subtree and, for
	// internal nodes, the packed representative block holding copies
	// of the children's critical records. owned lists the spans this
	// node's queue version added on top of what its children's versions
	// hold (DESIGN.md, "Block lifetime and reclamation").
	q        *cpqa.Queue
	owned    []emio.Span
	repBlock emio.BlockID
	repWords int

	minX, maxX geom.Coord
}

func (nd *node) leaf() bool { return nd.children == nil }

// Tree is the dynamic top-open index.
type Tree struct {
	disk *emio.Disk
	eps  float64
	a    int // internal fan-out in [a, 2a]
	b    int // CPQA buffer parameter
	kMin int // leaf occupancy in [kMin, 2*kMin]
	root *node
	n    int

	// snaps counts Snapshot calls: a leaf array is shared with a Handle
	// exactly when a Snapshot happened after the array became the live
	// tree's own.
	snaps uint64

	// history lists the spans of queue versions that refreshes have
	// replaced. Nothing can read them — rebalanceUp rebuilds every
	// ancestor that shared their records before anything reads it — and
	// they are held until Release all the same; DESIGN.md says why.
	history []emio.Span
}

// New returns an empty tree with the given ε.
func New(d *emio.Disk, eps float64) *Tree {
	if eps < 0 || eps > 1 {
		panic("dyntop: epsilon must be in [0,1]")
	}
	B := float64(d.Config().B)
	a := int(math.Ceil(2 * math.Pow(B, eps)))
	if a < 2 {
		a = 2
	}
	b := int(math.Pow(B, 1-eps))
	if b < 1 {
		b = 1
	}
	kMin := d.Config().B
	if kMin < 4 {
		kMin = 4
	}
	return &Tree{disk: d, eps: eps, a: a, b: b, kMin: kMin}
}

// BuildSABE bulk-loads the tree from points sorted by x in O(n/B) I/Os.
func BuildSABE(d *emio.Disk, eps float64, pts []geom.Point) *Tree {
	t := New(d, eps)
	for i := 1; i < len(pts); i++ {
		if pts[i-1].X >= pts[i].X {
			panic("dyntop: input not sorted by x")
		}
	}
	if len(pts) == 0 {
		return t
	}
	t.n = len(pts)
	// Leaves of ~1.5·kMin points.
	target := t.kMin + t.kMin/2
	var level []*node
	for lo := 0; lo < len(pts); lo += target {
		hi := lo + target
		if hi > len(pts) {
			hi = len(pts)
		}
		chunk := append([]geom.Point(nil), pts[lo:hi]...)
		// Avoid an undersized final leaf.
		if len(chunk) < t.kMin && len(level) > 0 {
			prev := level[len(level)-1]
			cut := len(prev.pts) - t.kMin/2
			steal := append([]geom.Point(nil), prev.pts[cut:]...)
			chunk = append(steal, chunk...)
			prev.pts = prev.pts[:cut]
			t.refreshLeaf(prev)
		}
		nd := &node{pts: chunk}
		t.refreshLeaf(nd)
		level = append(level, nd)
	}
	// Internal levels of ~1.5a children.
	for len(level) > 1 {
		fan := t.a + t.a/2
		var up []*node
		for lo := 0; lo < len(level); lo += fan {
			hi := lo + fan
			if hi > len(level) {
				hi = len(level)
			}
			kids := append([]*node(nil), level[lo:hi]...)
			if len(kids) < t.a && len(up) > 0 {
				prev := up[len(up)-1]
				steal := prev.children[len(prev.children)-t.a/2:]
				prev.children = prev.children[:len(prev.children)-t.a/2]
				kids = append(append([]*node(nil), steal...), kids...)
				t.refreshInternal(prev)
			}
			nd := &node{children: kids}
			for _, c := range kids {
				c.parent = nd
			}
			t.refreshInternal(nd)
			up = append(up, nd)
		}
		level = up
	}
	t.root = level[0]
	return t
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.n }

// Epsilon returns the structure's ε parameter.
func (t *Tree) Epsilon() float64 { return t.eps }

// elem converts a point to its mirrored CPQA element.
func elem(p geom.Point) cpqa.Elem { return cpqa.Elem{Key: -p.Y, Aux: p.X} }

// point converts back.
func point(e cpqa.Elem) geom.Point { return geom.Point{X: e.Aux, Y: -e.Key} }

// staircase returns the mirrored-skyline elements of points sorted by x:
// the strictly increasing (in key = −y) subsequence that survives
// attrition. Host CPU only; used when (re)building leaf queues.
func staircase(pts []geom.Point) []cpqa.Elem {
	// Scan right to left keeping the running maximum y: once to count
	// the survivors, once to place them in x order.
	k := 0
	best := geom.Coord(math.MinInt64)
	for i := len(pts) - 1; i >= 0; i-- {
		if pts[i].Y > best {
			k++
			best = pts[i].Y
		}
	}
	out := make([]cpqa.Elem, k)
	best = geom.Coord(math.MinInt64)
	for i := len(pts) - 1; i >= 0; i-- {
		if pts[i].Y > best {
			k--
			out[k] = elem(pts[i])
			best = pts[i].Y
		}
	}
	return out
}

// refreshLeaf rewrites a leaf's point span and rebuilds its queue:
// O(1) I/Os (a leaf holds O(B) points).
func (t *Tree) refreshLeaf(nd *node) {
	if nd.ptsWords > 0 {
		t.disk.FreeSpan(nd.ptsBlock, nd.ptsWords)
	}
	nd.ptsWords = 2 * len(nd.pts)
	if nd.ptsWords > 0 {
		nd.ptsBlock = t.disk.AllocSpan(nd.ptsWords)
		t.disk.WriteSpan(nd.ptsBlock, nd.ptsWords)
	}
	t.setQueue(nd, func(sc *emio.Scope) *cpqa.Queue {
		return cpqa.FromAscendingIn(sc, t.b, staircase(nd.pts)).BiasUntilReady()
	})
	if len(nd.pts) > 0 {
		nd.minX, nd.maxX = nd.pts[0].X, nd.pts[len(nd.pts)-1].X
	}
}

// refreshInternal rebuilds an internal node's queue as the Lemma 7
// catenation of its children's queues and rewrites its representative
// block: O(1) I/Os beyond the children's already-resident criticals.
func (t *Tree) refreshInternal(nd *node) {
	// Read the (old) representative block to bring the children's
	// critical records into memory, then catenate without further
	// charges.
	if nd.repWords > 0 {
		t.disk.ReadSpan(nd.repBlock, nd.repWords)
		t.disk.FreeSpan(nd.repBlock, nd.repWords)
		nd.repWords = 0
	}
	t.setQueue(nd, func(sc *emio.Scope) *cpqa.Queue {
		qs := make([]*cpqa.Queue, 0, len(nd.children))
		for _, c := range nd.children {
			c.q.AdmitCritical()
			c.q.PinCritical()
			qs = append(qs, c.q)
		}
		q := cpqa.CatenateAllIn(sc, qs).BiasUntilReady()
		for _, cq := range qs {
			cq.UnpinCritical()
		}
		return q
	})
	nd.minX = nd.children[0].minX
	nd.maxX = nd.children[len(nd.children)-1].maxX
	// Pack copies of the children's critical records and, where they
	// fit, the leaf children's fences.
	w, _ := repLayout(t.disk.Config(), nd)
	nd.repWords = w
	nd.repBlock = t.disk.AllocSpan(w)
	t.disk.WriteSpan(nd.repBlock, w)
}

// repLayout sizes an internal node's representative block: the copies
// of its children's critical records and, for each leaf child, the fence
// of every block after its first — the block's first x (block 0's is the
// child's minX, which the tree routes on). The fences are stored only
// when they fit in the blocks the critical records occupy, so they never
// cost an update or a query a block; fenced reports whether they are.
// A query derives the same answer from the same children, and the
// fences themselves from the leaves' points, so nothing stored can
// disagree with them.
func repLayout(cfg emio.Config, nd *node) (words int, fenced bool) {
	crit, fences := 0, 0
	for _, c := range nd.children {
		crit += c.q.CriticalWords()
		if c.leaf() {
			fences += max(0, cfg.BlocksFor(c.ptsWords)-1)
		}
	}
	crit = max(crit, 1)
	if cfg.BlocksFor(crit+fences) > cfg.BlocksFor(crit) {
		return crit, false
	}
	return crit + fences, true
}

// setQueue replaces nd's queue version. build runs in a scratch scope:
// of everything it allocates, nd keeps only the spans reachable from the
// queue it returns, and the rest is freed on the spot (build must have
// dropped its pins by then). The version it replaces moves to the tree's
// history.
func (t *Tree) setQueue(nd *node, build func(sc *emio.Scope) *cpqa.Queue) {
	t.history = append(t.history, nd.owned...)
	sc := t.disk.NewScope()
	nd.q = build(sc).Keep(sc)
	nd.owned = sc.Release()
}

// drop takes nd out of the tree: its leaf span and representative block
// are freed, its queue version joins the history. Its children, if any,
// live on under another node.
func (t *Tree) drop(nd *node) {
	if nd.ptsWords > 0 {
		t.disk.FreeSpan(nd.ptsBlock, nd.ptsWords)
	}
	if nd.repWords > 0 {
		t.disk.FreeSpan(nd.repBlock, nd.repWords)
	}
	t.history = append(t.history, nd.owned...)
}

// Release frees every block the tree holds — nodes and history — and
// leaves it empty. A pinned Handle keeps answering: its retention
// defers the frees (see Snapshot).
func (t *Tree) Release() {
	var rec func(nd *node)
	rec = func(nd *node) {
		if nd == nil {
			return
		}
		for _, c := range nd.children {
			rec(c)
		}
		t.drop(nd)
	}
	rec(t.root)
	t.disk.FreeSpans(t.history)
	t.root, t.n, t.history = nil, 0, nil
}

// leafFor descends to the leaf whose x-range should contain x.
func (t *Tree) leafFor(x geom.Coord) *node {
	nd := t.root
	for nd != nil && !nd.leaf() {
		t.disk.ReadSpan(nd.repBlock, nd.repWords)
		chosen := nd.children[len(nd.children)-1]
		for _, c := range nd.children {
			if x <= c.maxX {
				chosen = c
				break
			}
		}
		nd = chosen
	}
	return nd
}

// Insert adds point p (whose x and y must not collide with indexed
// points; callers enforce general position). O(log_{2B^ε}(n/B)) I/Os:
// one leaf write and one refresh per ancestor.
func (t *Tree) Insert(p geom.Point) {
	if t.root == nil {
		t.root = &node{pts: []geom.Point{p}}
		t.refreshLeaf(t.root)
		t.n = 1
		return
	}
	leaf := t.leafFor(p.X)
	t.disk.ReadSpan(leaf.ptsBlock, leaf.ptsWords)
	i := sort.Search(len(leaf.pts), func(j int) bool { return leaf.pts[j].X >= p.X })
	t.ownPts(leaf)
	leaf.pts = slices.Insert(leaf.pts, i, p)
	t.n++
	t.refreshLeaf(leaf)
	t.rebalanceUp(leaf)
}

// Delete removes the point with the given coordinates; it reports
// whether the point was present. O(log_{2B^ε}(n/B)) I/Os, as Insert.
func (t *Tree) Delete(p geom.Point) bool {
	if t.root == nil {
		return false
	}
	leaf := t.leafFor(p.X)
	t.disk.ReadSpan(leaf.ptsBlock, leaf.ptsWords)
	i := sort.Search(len(leaf.pts), func(j int) bool { return leaf.pts[j].X >= p.X })
	if i >= len(leaf.pts) || leaf.pts[i] != p {
		return false
	}
	t.ownPts(leaf)
	leaf.pts = slices.Delete(leaf.pts, i, i+1)
	t.n--
	t.refreshLeaf(leaf)
	t.rebalanceUp(leaf)
	return true
}

// ownPts makes the leaf's point array safe to shift in place. Handles
// share leaf arrays with the live tree, so the first write to a leaf
// after a Snapshot copies its array; later writes find it private and
// cost no host allocation.
func (t *Tree) ownPts(leaf *node) {
	if leaf.ptsEpoch != t.snaps {
		leaf.pts, leaf.ptsEpoch = slices.Clone(leaf.pts), t.snaps
	}
}

// rebalanceUp restores occupancy invariants from a modified node to the
// root, rebuilding every ancestor's queue and representative block.
func (t *Tree) rebalanceUp(nd *node) {
	for nd != nil {
		par := nd.parent
		if nd.leaf() {
			t.fixLeaf(nd)
		} else {
			t.fixInternal(nd)
		}
		if par != nil {
			t.refreshInternal(par)
		}
		nd = par
	}
}

func (t *Tree) fixLeaf(nd *node) {
	par := nd.parent
	switch {
	case len(nd.pts) > 2*t.kMin:
		half := len(nd.pts) / 2
		right := &node{pts: append([]geom.Point(nil), nd.pts[half:]...), parent: par}
		nd.pts = nd.pts[:half]
		t.refreshLeaf(nd)
		t.refreshLeaf(right)
		if par == nil {
			t.growRoot(nd, right)
		} else {
			insertChildAfter(par, nd, right)
		}
	case len(nd.pts) < t.kMin && par != nil:
		sib, after := sibling(par, nd)
		t.disk.ReadSpan(sib.ptsBlock, sib.ptsWords)
		var merged []geom.Point
		if after {
			merged = append(append([]geom.Point(nil), nd.pts...), sib.pts...)
		} else {
			merged = append(append([]geom.Point(nil), sib.pts...), nd.pts...)
		}
		removeChild(par, sib)
		t.drop(sib)
		nd.pts = merged
		if len(nd.pts) > 2*t.kMin {
			t.refreshLeaf(nd)
			t.fixLeaf(nd) // split back
		} else {
			t.refreshLeaf(nd)
		}
	case par == nil && len(nd.pts) == 0:
		t.drop(nd)
		t.root = nil
	}
}

func (t *Tree) fixInternal(nd *node) {
	par := nd.parent
	switch {
	case len(nd.children) > 2*t.a:
		half := len(nd.children) / 2
		right := &node{children: append([]*node(nil), nd.children[half:]...), parent: par}
		nd.children = nd.children[:half]
		for _, c := range right.children {
			c.parent = right
		}
		t.refreshInternal(nd)
		t.refreshInternal(right)
		if par == nil {
			t.growRoot(nd, right)
		} else {
			insertChildAfter(par, nd, right)
		}
	case par == nil && len(nd.children) == 1:
		// Shrink the root.
		t.root = nd.children[0]
		t.root.parent = nil
		t.drop(nd)
	case len(nd.children) < t.a && par != nil:
		sib, after := sibling(par, nd)
		var merged []*node
		if after {
			merged = append(append([]*node(nil), nd.children...), sib.children...)
		} else {
			merged = append(append([]*node(nil), sib.children...), nd.children...)
		}
		removeChild(par, sib)
		t.drop(sib)
		nd.children = merged
		for _, c := range nd.children {
			c.parent = nd
		}
		if len(nd.children) > 2*t.a {
			t.refreshInternal(nd)
			t.fixInternal(nd)
		} else {
			t.refreshInternal(nd)
		}
	}
}

func (t *Tree) growRoot(left, right *node) {
	r := &node{children: []*node{left, right}}
	left.parent, right.parent = r, r
	t.refreshInternal(r)
	t.root = r
}

func sibling(par, nd *node) (*node, bool) {
	for i, c := range par.children {
		if c == nd {
			if i+1 < len(par.children) {
				return par.children[i+1], true
			}
			return par.children[i-1], false
		}
	}
	panic("dyntop: node not found among parent's children")
}

func insertChildAfter(par, nd, right *node) {
	for i, c := range par.children {
		if c == nd {
			par.children = append(par.children, nil)
			copy(par.children[i+2:], par.children[i+1:])
			par.children[i+1] = right
			return
		}
	}
	panic("dyntop: node not found for insertChildAfter")
}

func removeChild(par, nd *node) {
	for i, c := range par.children {
		if c == nd {
			par.children = append(par.children[:i], par.children[i+1:]...)
			return
		}
	}
	panic("dyntop: removeChild target missing")
}

// view is the read-only query machinery, shared between the live tree
// and its pinned snapshots: everything a top-open query needs is the
// root, the CPQA buffer parameter and the disk the I/Os are charged to.
type view struct {
	disk *emio.Disk
	b    int
	root *node
}

// Query answers the top-open query [x1,x2] × [β, ∞): the maximal points
// of the indexed set inside the rectangle, in increasing-x order.
// O(log_{2B^ε}(n/B) + k/B^{1−ε}) I/Os.
func (t *Tree) Query(x1, x2, beta geom.Coord) []geom.Point {
	return t.view().query(x1, x2, beta)
}

// Points appends every indexed point to dst in increasing-x order; see
// view.Points.
func (t *Tree) Points(dst []geom.Point) []geom.Point { return t.view().Points(dst) }

func (t *Tree) view() view { return view{disk: t.disk, b: t.b, root: t.root} }

// Points appends the view's points to dst in increasing-x order — the
// run §2.3's SABE builds from — reading the leaves left to right and
// charging each leaf span: O(n/B) I/Os, no representative block.
func (v view) Points(dst []geom.Point) []geom.Point {
	return v.points(v.root, dst)
}

func (v view) points(nd *node, dst []geom.Point) []geom.Point {
	switch {
	case nd == nil:
	case nd.leaf():
		v.disk.ReadSpan(nd.ptsBlock, nd.ptsWords)
		dst = append(dst, nd.pts...)
	default:
		for _, c := range nd.children {
			dst = v.points(c, dst)
		}
	}
	return dst
}

func (v view) query(x1, x2, beta geom.Coord) []geom.Point {
	if v.root == nil || x1 > x2 {
		return nil
	}
	// A query keeps nothing: the partial-leaf queues, the catenation and
	// every DeleteMin version live in a scratch scope that is released
	// once the answer is out.
	sc := v.disk.NewScope()
	// Room for a typical query's queues without a heap allocation.
	var qbuf, pbuf [32]*cpqa.Queue
	qs, pinned := v.collect(sc, v.root, x1, x2, qbuf[:0], pbuf[:0])
	merged := cpqa.CatenateAllIn(sc, qs)
	for _, q := range pinned {
		q.UnpinCritical()
	}
	var out []geom.Point
	for merged != nil && !merged.Empty() {
		e, nq, ok := merged.DeleteMin()
		if !ok || -e.Key < beta {
			break
		}
		out = append(out, point(e))
		merged = nq
	}
	sc.Release()
	// Keys come out ascending (= descending y = ascending x).
	return out
}

// collect gathers, in ascending x order, the queues covering [x1,x2]:
// whole-node queues for maximal contained subtrees and fresh partial
// queues, built in the query's scratch scope, for the boundary leaves.
// A boundary leaf is scanned from its fences when its parent's
// representative block, read on the way down, holds them. The
// contained subtrees' queues are pinned; collect appends them to pinned
// too, for the caller to unpin once the catenation is built.
func (v view) collect(sc *emio.Scope, nd *node, x1, x2 geom.Coord, qs, pinned []*cpqa.Queue) ([]*cpqa.Queue, []*cpqa.Queue) {
	if nd.maxX < x1 || nd.minX > x2 || (nd.leaf() && len(nd.pts) == 0) {
		return qs, pinned
	}
	if nd.leaf() {
		fenced := false
		if nd.parent != nil {
			_, fenced = repLayout(v.disk.Config(), nd.parent)
		}
		lo, hi := ScanLeaf(v.disk, nd.ptsBlock, nd.pts, x1, x2, fenced)
		if nd.minX >= x1 && nd.maxX <= x2 {
			nd.q.AdmitCritical()
			nd.q.PinCritical()
			return append(qs, nd.q), append(pinned, nd.q)
		}
		if lo < hi {
			qs = append(qs, cpqa.FromAscendingIn(sc, v.b, staircase(nd.pts[lo:hi])))
		}
		return qs, pinned
	}
	// Internal: one representative-block read makes every child's
	// critical records and any leaf child fences resident.
	v.disk.ReadSpan(nd.repBlock, nd.repWords)
	for _, c := range nd.children {
		if c.maxX < x1 || c.minX > x2 {
			continue
		}
		if c.minX >= x1 && c.maxX <= x2 {
			c.q.AdmitCritical()
			c.q.PinCritical()
			qs, pinned = append(qs, c.q), append(pinned, c.q)
			continue
		}
		qs, pinned = v.collect(sc, c, x1, x2, qs, pinned)
	}
	return qs, pinned
}

// ScanLeaf charges the blocks a scan of one x-sorted leaf reads for the
// x-range [x1,x2] and returns the in-range points pts[lo:hi]. The leaf
// is stored two words per point in the span at id; where a scan enters
// it depends on what is in memory before the leaf is read.
//
// fenced: the fence of every block — its first x — is resident (a
// dyntop leaf's fences live in its parent's representative block, read
// on the way down, when they fit there; see repLayout). The scan reads
// from the last block whose fence is ≤ x1 through the last block whose
// fence is ≤ x2, so a leaf with no point in range costs one block.
//
// Otherwise only the leaf's own first and last x route a scan into it
// (a root leaf, a leaf whose parent has no room for its fences, and
// every foursided leaf), so a scan enters at a grounded end and stops
// at the first point past the cut:
//
//   - cut only on the left (pts[0].X < x1, the last x ≤ x2): from the
//     last block back through the block holding the last point left of x1;
//   - cut only on the right (x1 ≤ pts[0].X, the last x > x2): from the
//     first block through the block holding the first point right of x2;
//   - cut on both sides, or no point in range: the whole leaf.
//
// A fenced scan never reads more than the grounded one. Both trees'
// query paths read their boundary leaves through it, so the charge of a
// scan is one rule (DESIGN.md, "Query accounting").
func ScanLeaf(d *emio.Disk, id emio.BlockID, pts []geom.Point, x1, x2 geom.Coord, fenced bool) (lo, hi int) {
	n := len(pts)
	lo = sort.Search(n, func(j int) bool { return pts[j].X >= x1 })
	hi = sort.Search(n, func(j int) bool { return pts[j].X > x2 })
	from, to := 0, n // the points the scan reads
	switch {
	case fenced:
		// From the last point at or left of x1 through the last point
		// at or left of x2: the blocks that hold them are the fenced
		// ones.
		from = max(0, sort.Search(n, func(j int) bool { return pts[j].X > x1 })-1)
		to = hi
	case lo >= hi || (lo > 0 && hi < n):
	case lo > 0:
		from = lo - 1
	case hi < n:
		to = hi + 1
	}
	d.ReadSpanWords(id, 2*from, 2*to)
	return lo, hi
}

// Handle is an immutable point-in-time view of a Tree, pinned by
// Snapshot. It answers Query from the captured roots while the live
// tree keeps mutating; the CPQA queues it reaches are confluently
// persistent (no operation ever mutates a record), so the only state
// the handle must protect is the base tree's node graph — captured by
// copy — and the spans the live tree frees under it (leaf and
// representative spans on every rewrite, everything on Release), which
// the caller protects with an emio retention (Disk.RetainFrees) opened
// before Snapshot and released when the handle is dropped. Handles
// perform no I/O at pin time.
type Handle struct {
	view
	n int
}

// Snapshot captures the current tree as an immutable Handle: the node
// graph is copied (host pointers only — the queues, point arrays and
// block ids are shared with the live tree, which copies a leaf array
// before its first write after a pin and never mutates a published queue), so the capture
// charges zero simulated I/Os and costs O(n/B) host words. Callers
// composing with concurrent updaters must hold the structure's
// external lock across the call and open a retention on the disk
// first; see internal/shard.Engine.Snapshot for the composed recipe.
func (t *Tree) Snapshot() *Handle {
	t.snaps++
	return &Handle{view: view{disk: t.disk, b: t.b, root: cloneNodes(t.root, nil)}, n: t.n}
}

// cloneNodes deep-copies the node graph. Shared payloads (pts arrays,
// queues, span ids) are NOT copied: they are immutable from the
// snapshot's perspective.
func cloneNodes(nd, parent *node) *node {
	if nd == nil {
		return nil
	}
	c := &node{
		parent:   parent,
		pts:      nd.pts,
		ptsBlock: nd.ptsBlock,
		ptsWords: nd.ptsWords,
		q:        nd.q,
		repBlock: nd.repBlock,
		repWords: nd.repWords,
		minX:     nd.minX,
		maxX:     nd.maxX,
	}
	if nd.children != nil {
		c.children = make([]*node, len(nd.children))
		for i, ch := range nd.children {
			c.children[i] = cloneNodes(ch, c)
		}
	}
	return c
}

// Query answers the top-open query [x1,x2] × [β, ∞) against the pinned
// state, byte-identically to what the live tree would have answered at
// the pin point. Concurrent Query calls on one handle are safe when
// the disk is guarded (emio.NewConcurrentDisk): the handle's state is
// immutable and CPQA operations only derive new queues.
func (h *Handle) Query(x1, x2, beta geom.Coord) []geom.Point {
	return h.view.query(x1, x2, beta)
}

// Len returns the number of points in the pinned state.
func (h *Handle) Len() int { return h.n }

// Height returns the number of levels of the base tree.
func (t *Tree) Height() int {
	h := 0
	for nd := t.root; nd != nil; {
		h++
		if nd.leaf() {
			break
		}
		nd = nd.children[0]
	}
	return h
}

// SpaceWords returns the footprint of the base tree (leaf spans and
// representative blocks) plus the reachable words of every node queue.
func (t *Tree) SpaceWords() int {
	total := 0
	var rec func(nd *node)
	rec = func(nd *node) {
		if nd == nil {
			return
		}
		total += nd.ptsWords + nd.repWords
		if nd.q != nil {
			total += nd.q.ReachableWords()
		}
		for _, c := range nd.children {
			rec(c)
		}
	}
	rec(t.root)
	return total
}
