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
// fit in the node's O(1)-block representative block, which covers them
// (emio.Disk.Cover): reading it is what reading them costs. A point (x, y)
// becomes the element (key = −y, aux = x) inserted at "time" x; a point
// is attrited exactly when it is dominated (Figure 7), so a node's queue
// — the left-to-right catenation of its children's queues — holds the
// skyline of its subtree, and a top-open query drains the catenation of
// O(log) canonical queues until y < β. The same fact lets an update end
// at its leaf: inserting or deleting a point dominated inside its leaf
// changes no queue in the tree, so when the leaf also keeps its
// occupancy the update writes only the leaf span's changed blocks and
// the parent's representative block. On random input that is nearly
// every update.
//
// Block lifetime: queries and refreshes run in an emio.Scope and keep
// only the queue version that survives them, each node owns the spans of
// its current version, and Release frees everything. The O(n/B) space
// figure is what the nodes hold; replaced versions are still held on the
// tree's history until FreeHistory (DESIGN.md, "Block lifetime and
// reclamation").
//
// The base tree is internal/xtree's copy-on-write x-tree, shared with
// foursided: Snapshot pins the root in O(1), and an update copies the
// nodes of its path that a pin may reach before it writes them.
package dyntop

import (
	"math"
	"slices"
	"sort"

	"repro/internal/cpqa"
	"repro/internal/emio"
	"repro/internal/geom"
	"repro/internal/xtree"
)

// data is what a node carries on top of the shared skeleton: the
// I/O-CPQA over its subtree and, for internal nodes, the packed
// representative block holding copies of the children's critical
// records. owned lists the spans this node's queue version added on top
// of what its children's versions hold (DESIGN.md, "Block lifetime and
// reclamation").
type data struct {
	q        *cpqa.Queue
	owned    []emio.Span
	repBlock emio.BlockID
	repWords int
}

type node = xtree.Node[data]

// Tree is the dynamic top-open index.
type Tree struct {
	disk *emio.Disk
	a    int // internal fan-out in [a, 2a]
	b    int // CPQA buffer parameter
	kMin int // leaf occupancy in [kMin, 2*kMin]
	xt   xtree.Tree[data]
	n    int

	// history lists the spans of queue versions that refreshes have
	// replaced. Nothing can read them — an update rebuilds every
	// ancestor that shared their records before anything reads it — and
	// they are held until FreeHistory all the same; DESIGN.md says why.
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
	return &Tree{disk: d, a: a, b: b, kMin: kMin, xt: xtree.New[data](d, nil)}
}

// BuildSABE bulk-loads the tree from points sorted by x in O(n/B) I/Os.
func BuildSABE(d *emio.Disk, eps float64, pts []geom.Point) *Tree {
	t := New(d, eps)
	for i := 1; i < len(pts); i++ {
		if pts[i-1].X >= pts[i].X {
			panic("dyntop: input not sorted by x")
		}
	}
	t.n = len(pts)
	// Leaves of ~1.5·kMin points and internal nodes of ~1.5a children;
	// no last leaf or node is left undersized.
	t.xt.Build(pts, t.kMin+t.kMin/2, t.kMin, t.refreshLeaf, t.a+t.a/2, t.a, t.refreshInternal)
	return t
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.n }

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
	t.xt.RewriteLeaf(nd)
	t.setLeafQueue(nd)
}

// setLeafQueue rebuilds a leaf's queue from its staircase.
func (t *Tree) setLeafQueue(nd *node) {
	t.setQueue(nd, func(sc *emio.Scope) *cpqa.Queue {
		return cpqa.FromAscendingIn(sc, t.b, staircase(nd.Pts)).BiasUntilReady()
	})
}

// refreshInternal rebuilds an internal node's queue as the Lemma 7
// catenation of its children's queues and rewrites its representative
// block: O(1) I/Os, the ⌈repWords/B⌉ blocks of the old and the new
// representative block. The children's critical records are covered by
// the copies in the old block (emio.Disk.Cover), so pinning it for the
// catenation makes every read of them free without a frame of their
// own.
func (t *Tree) refreshInternal(nd *node) {
	old := emio.Span{ID: nd.Data.repBlock, Words: nd.Data.repWords}
	if old.Words > 0 {
		t.disk.PinSpan(old.ID, old.Words)
	}
	t.setQueue(nd, func(sc *emio.Scope) *cpqa.Queue {
		qs := make([]*cpqa.Queue, len(nd.Children))
		for i, c := range nd.Children {
			qs[i] = c.Data.q
		}
		return cpqa.CatenateAllIn(sc, qs).BiasUntilReady()
	})
	if old.Words > 0 {
		t.disk.UnpinSpan(old.ID, old.Words)
	}
	t.rewriteRep(nd)
}

// rewriteRep replaces an internal node's representative block, the one
// writer of it: the old block is freed, the node's range reset, and a
// new block written with packed copies of the children's critical
// records and, where they fit, the leaf children's fences, covering the
// records (emio.Disk.Cover). O(⌈repWords/B⌉) I/Os.
func (t *Tree) rewriteRep(nd *node) {
	if nd.Data.repWords > 0 {
		t.disk.FreeSpan(nd.Data.repBlock, nd.Data.repWords)
	}
	nd.SetRange()
	w, _ := repLayout(t.disk.Config(), nd)
	nd.Data.repWords = w
	nd.Data.repBlock = t.disk.AllocSpan(w)
	t.disk.WriteSpan(nd.Data.repBlock, w)
	rep, off := emio.Span{ID: nd.Data.repBlock, Words: w}, 0
	for _, c := range nd.Children {
		off = c.Data.q.CoverCritical(rep, off)
	}
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
	for _, c := range nd.Children {
		crit += c.Data.q.CriticalWords()
		if c.Leaf() {
			fences += max(0, cfg.BlocksFor(c.PtsWords)-1)
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
	t.history = append(t.history, nd.Data.owned...)
	sc := t.disk.NewScope()
	nd.Data.q = build(sc).Keep(sc)
	nd.Data.owned = sc.Release()
}

// drop takes nd out of the tree: its leaf span and representative block
// are freed, its queue version joins the history. Its children, if any,
// live on under another node. nd itself is not written: a Handle may
// still reach it.
func (t *Tree) drop(nd *node) {
	if nd.PtsWords > 0 {
		t.disk.FreeSpan(nd.PtsBlock, nd.PtsWords)
	}
	if nd.Data.repWords > 0 {
		t.disk.FreeSpan(nd.Data.repBlock, nd.Data.repWords)
	}
	t.history = append(t.history, nd.Data.owned...)
}

// Release frees every block the tree holds — nodes and history — and
// leaves it empty. A pinned Handle keeps answering: its retention
// defers the frees (see Snapshot).
func (t *Tree) Release() {
	for nd := range xtree.Nodes(t.xt.Root) {
		t.drop(nd)
	}
	t.xt.Root, t.n = nil, 0
	t.FreeHistory()
}

// FreeHistory frees the queue versions the tree's updates replaced. A
// pinned Handle keeps answering, as after Release.
func (t *Tree) FreeHistory() {
	t.disk.FreeSpans(t.history)
	t.history = nil
}

// Insert adds points one at a time (their x and y must not collide with
// indexed points; callers enforce general position). O(log_{2B^ε}(n/B))
// I/Os a point p: one leaf write and one refresh per ancestor, or, when
// p is dominated inside its leaf and the leaf neither splits nor is the
// root, the leaf write and its parent's representative block alone. The
// leaf write dirties only the blocks from p's on, in place, unless a
// Snapshot still shares the leaf's span or the leaf changes its block
// count; then the leaf moves to a fresh span (xtree.Tree.UpdateLeaf).
func (t *Tree) Insert(pts ...geom.Point) {
	for _, p := range pts {
		if t.xt.Root == nil {
			t.xt.Root = t.xt.NewLeaf([]geom.Point{p})
			t.refreshLeaf(t.xt.Root)
			t.n = 1
			continue
		}
		t.update(p, true)
	}
}

// Delete removes the point with the given coordinates; it reports
// whether the point was present. O(log_{2B^ε}(n/B)) I/Os, as Insert.
func (t *Tree) Delete(p geom.Point) bool {
	return t.xt.Root != nil && t.update(p, false)
}

// update inserts p into, or deletes it from, its leaf and rebalances
// the path up to the root; a delete of an absent point changes nothing
// and reports false.
func (t *Tree) update(p geom.Point, insert bool) bool {
	// The descent reads the representative block of every internal node
	// it routes through.
	path := t.xt.Descend(p.X, func(nd *node) { t.disk.ReadSpan(nd.Data.repBlock, nd.Data.repWords) })
	leaf := path[len(path)-1]
	// A delete needs only p's block and the points right of it, so it
	// reads from p's block on where the parent's representative block,
	// just read, holds the leaf's fences; the rest is read below if
	// needed. An insert reads its whole leaf (DESIGN.md, "Leaf spans in
	// place").
	from := 0
	if len(path) > 1 && !insert {
		if _, fenced := repLayout(t.disk.Config(), path[len(path)-2]); fenced {
			from = max(0, sort.Search(len(leaf.Pts), func(j int) bool { return leaf.Pts[j].X > p.X })-1)
		}
	}
	t.disk.ReadSpanWords(leaf.PtsBlock, 2*from, leaf.PtsWords)
	i := sort.Search(len(leaf.Pts), func(j int) bool { return leaf.Pts[j].X >= p.X })
	if !insert && (i >= len(leaf.Pts) || leaf.Pts[i] != p) {
		return false
	}
	// p is off the leaf's staircase when a leaf point right of it is
	// higher: the leaf's points right of p, after an insert or before a
	// delete.
	right := leaf.Pts[i:]
	if !insert {
		right = right[1:]
	}
	dominated := slices.ContainsFunc(right, func(q geom.Point) bool { return q.Y > p.Y })
	t.xt.Own(path)
	leaf = path[len(path)-1]
	if insert {
		leaf.Pts = slices.Insert(leaf.Pts, i, p)
		t.n++
	} else {
		leaf.Pts = slices.Delete(leaf.Pts, i, i+1)
		t.n--
	}
	size := len(leaf.Pts)
	leafOnly := dominated && len(path) > 1 && size >= t.kMin && size <= 2*t.kMin
	if !leafOnly || t.xt.Moves(leaf) {
		t.disk.ReadSpanWords(leaf.PtsBlock, 0, 2*from) // the whole leaf
	}
	t.xt.UpdateLeaf(leaf, i)
	if leafOnly {
		// Attrition removes exactly the dominated points (Figure 7), so
		// the leaf's staircase is its queue and every queue above is the
		// catenation of the ones below: none of them changes. The leaf
		// span's changed blocks and the parent's representative block,
		// which holds the leaf's fences, are written; the ancestors
		// route on ranges held in memory.
		t.rewriteRep(path[len(path)-2])
		for i := len(path) - 3; i >= 0; i-- {
			path[i].SetRange()
		}
		return true
	}
	t.setLeafQueue(leaf)
	for i := len(path) - 1; i >= 0; i-- {
		var par *node
		if i > 0 {
			par = path[i-1]
		}
		t.fix(path[i], par)
		if par != nil {
			t.refreshInternal(par)
		}
	}
	return true
}

// fix restores nd's occupancy — [kMin, 2kMin] points in a leaf, [a, 2a]
// children in an internal node — by a split or a merge with a sibling,
// and takes out a root left empty or with one child. par, nd's parent
// or nil at the root, is private.
func (t *Tree) fix(nd, par *node) {
	size, least, refresh := len(nd.Children), t.a, t.refreshInternal
	if nd.Leaf() {
		size, least, refresh = len(nd.Pts), t.kMin, t.refreshLeaf
	}
	switch {
	case size > 2*least:
		right := t.xt.Split(nd)
		refresh(nd)
		refresh(right)
		t.xt.Attach(par, nd, right, t.refreshInternal)
	case size < least && par != nil:
		// Merge with the next sibling, or the previous one for the last
		// child.
		i := xtree.ChildIndex(par, nd)
		if i+1 == len(par.Children) {
			i--
		}
		left, right := par.Children[i], par.Children[i+1]
		sib := left
		if sib == nd {
			sib = right
		}
		if nd.Leaf() {
			t.disk.ReadSpan(sib.PtsBlock, sib.PtsWords)
			nd.Pts = slices.Concat(left.Pts, right.Pts)
		} else {
			nd.Children = slices.Concat(left.Children, right.Children)
		}
		xtree.RemoveChild(par, sib)
		t.drop(sib)
		refresh(nd)
		t.fix(nd, par) // split back if the merge overfilled nd
	case par == nil && size == 1 && !nd.Leaf():
		t.xt.Root = nd.Children[0]
		t.drop(nd)
	case par == nil && size == 0:
		t.drop(nd)
		t.xt.Root = nil
	}
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

// Scan appends the points in [x1, x2] to dst; see view.Scan.
func (t *Tree) Scan(x1, x2 geom.Coord, dst []geom.Point) []geom.Point {
	return t.view().Scan(x1, x2, dst)
}

func (t *Tree) view() view { return view{disk: t.disk, b: t.b, root: t.xt.Root} }

// Scan appends the view's points in [x1, x2] to dst in increasing-x
// order, charging each leaf that meets the range what scanLeaf says a
// scan from a grounded end reads: O(1 + k/B) I/Os for k points, O(n/B)
// for the whole set, the run §2.3's SABE builds from. The walk routes on
// the ranges in memory and reads no representative block.
func (v view) Scan(x1, x2 geom.Coord, dst []geom.Point) []geom.Point {
	for l := range xtree.Leaves(v.root, x1, x2) {
		lo, hi := scanLeaf(v.disk, l.PtsBlock, l.Pts, x1, x2, false)
		dst = append(dst, l.Pts[lo:hi]...)
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
	var qbuf [32]*cpqa.Queue
	qs := v.collect(sc, v.root, nil, x1, x2, qbuf[:0])
	// A single-leaf root taken whole has no representative block to
	// cover its critical records; the scan in collect has just read
	// every point they were built from, so they are admitted and pinned
	// for the catenation.
	root := v.root.Data.q
	whole := len(qs) == 1 && qs[0] == root
	if whole {
		root.AdmitCritical()
		root.PinCritical()
	}
	merged := cpqa.CatenateAllIn(sc, qs)
	if whole {
		root.UnpinCritical()
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
// par is nd's parent, nil at the root. A boundary leaf is scanned from
// its fences when its parent's representative block, read on the way
// down, holds them. Nothing is pinned: the representative block read at
// each internal node covers its children's critical records, which the
// catenation reads.
func (v view) collect(sc *emio.Scope, nd, par *node, x1, x2 geom.Coord, qs []*cpqa.Queue) []*cpqa.Queue {
	if nd.MaxX < x1 || nd.MinX > x2 || (nd.Leaf() && len(nd.Pts) == 0) {
		return qs
	}
	if nd.Leaf() {
		fenced := false
		if par != nil {
			_, fenced = repLayout(v.disk.Config(), par)
		}
		lo, hi := scanLeaf(v.disk, nd.PtsBlock, nd.Pts, x1, x2, fenced)
		if nd.MinX >= x1 && nd.MaxX <= x2 {
			return append(qs, nd.Data.q)
		}
		if lo < hi {
			qs = append(qs, cpqa.FromAscendingIn(sc, v.b, staircase(nd.Pts[lo:hi])))
		}
		return qs
	}
	// Internal: one representative-block read covers every child's
	// critical records and holds any leaf child's fences.
	v.disk.ReadSpan(nd.Data.repBlock, nd.Data.repWords)
	for _, c := range nd.Children {
		if c.MaxX < x1 || c.MinX > x2 {
			continue
		}
		if c.MinX >= x1 && c.MaxX <= x2 {
			qs = append(qs, c.Data.q)
			continue
		}
		qs = v.collect(sc, c, nd, x1, x2, qs)
	}
	return qs
}

// scanLeaf charges the blocks a scan of one x-sorted leaf reads for the
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
// every leaf Scan reads), so a scan enters at a grounded end and stops
// at the first point past the cut:
//
//   - cut only on the left (pts[0].X < x1, the last x ≤ x2): from the
//     last block back through the block holding the last point left of x1;
//   - cut only on the right (x1 ≤ pts[0].X, the last x > x2): from the
//     first block through the block holding the first point right of x2;
//   - cut on both sides, or no point in range: the whole leaf.
//
// A fenced scan never reads more than the grounded one. Query and Scan
// both charge through it (DESIGN.md, "Query accounting").
func scanLeaf(d *emio.Disk, id emio.BlockID, pts []geom.Point, x1, x2 geom.Coord, fenced bool) (lo, hi int) {
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
// Snapshot. It answers Query from the root captured at the pin while the
// live tree keeps mutating: the base tree's nodes are copy-on-write (a
// write copies every node a pin may reach before changing it; see
// internal/xtree) and the CPQA queues they reach are confluently
// persistent (no operation ever mutates a record), so nothing the handle
// reaches is ever written. The only state the caller must protect is the
// spans the live tree frees under it (leaf and representative spans on
// every rewrite, everything on Release), with an emio retention
// (Disk.RetainFrees) opened before Snapshot and released when the handle
// is dropped. Handles perform no I/O at pin time.
type Handle struct {
	view
	n int
}

// Snapshot captures the current tree as an immutable Handle in O(1):
// the root is kept and the tree's epoch advanced, so each node is copied
// by the first write that reaches it afterwards — at most once per pin,
// and never by a write that follows no pin. The capture charges zero
// simulated I/Os. Callers composing with concurrent updaters must hold
// the structure's external lock across the call and open a retention on
// the disk first; see internal/shard.Engine.Snapshot for the composed
// recipe.
func (t *Tree) Snapshot() *Handle {
	return &Handle{view: view{disk: t.disk, b: t.b, root: t.xt.Pin()}, n: t.n}
}

// Fork returns a tree that starts from t's current state and takes over
// from it: the fork owns everything t owned, and its epoch is advanced
// as by a Snapshot, so it copies each node it shares with t before its
// first write and t keeps answering Query for that state. t must be
// neither written nor released afterwards. O(1), no I/O. foursided forks
// R(u) when it copies a node that a Handle may reach, leaving the
// original R(u) to the handle.
func (t *Tree) Fork() *Tree {
	f := *t
	f.xt.Pin()
	return &f
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
func (t *Tree) Height() int { return t.xt.Height() }

// SpaceWords returns the footprint of the base tree (leaf spans and
// representative blocks) plus the reachable words of every node queue.
func (t *Tree) SpaceWords() int {
	total := 0
	for nd := range xtree.Nodes(t.xt.Root) {
		total += nd.PtsWords + nd.Data.repWords
		if nd.Data.q != nil {
			total += nd.Data.q.ReachableWords()
		}
	}
	return total
}
