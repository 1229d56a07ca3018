// Package dyntop implements the dynamic top-open range skyline structure
// of Theorem 4 (§4.2): an (a,2a)-tree over the mirrored point set
// P̃ = {(x, −y)}, augmented with confluently persistent I/O-CPQAs, with
//
//	query  O(log_{2B^ε}(n/B) + k/B^{1−ε}) I/Os,
//	update O(log_{2B^ε}(n/B)) I/Os,
//	space  O(n/B) blocks, construction O(n/B) I/Os after x-sorting (SABE),
//
// for any parameter 0 ≤ ε ≤ 1. The CPQAs use buffer size b = ⌊B^{1−ε}⌋,
// and the paper's fan-out 2B^ε bounds a node's children's critical
// records, O(b) words each, by O(B) words: they fit in the node's O(1)-
// block representative block, which covers them (emio.Disk.Cover), so
// reading it is what reading them costs. Theorem 4 needs a fan-out of
// Θ(B^ε) only, and on typical data a child's records take far fewer
// than b words, so the base tree sizes its fan-out by the block it
// fills instead: a node has
// [a, 2a] children with a = max(2, ⌊B/16⌋), the most whose
// representative span stays within two blocks at about 16 words a child
// (New). Its leaves hold [B, 2B] points. ε acts through b alone, which
// keeps the k/B^{1−ε} output term. A point (x, y)
// becomes the element (key = −y, aux = x) inserted at "time" x; a point
// is attrited exactly when it is dominated (Figure 7), so a node's queue
// — the left-to-right catenation of its children's queues — holds the
// skyline of its subtree, and a top-open query drains the catenation of
// O(log) canonical queues until y < β. The same fact lets an update end
// at its leaf: inserting or deleting a point dominated inside its leaf
// changes no queue in the tree, so when the leaf also keeps its
// occupancy the update writes only its leaf block and the parent's
// representative block. On random input that is nearly every update.
// The parent's representative block also holds, after the critical
// records, each leaf child's block fences (first x) and block summaries
// (point count, highest y), so an update — a single insert or one point
// of a batch alike — reads only the leaf block it changes unless its
// leaf's staircase changes.
//
// Block lifetime: queries and refreshes run in an emio.Scope and keep
// only the queue version that survives them, each node owns the spans of
// its current version, and Release frees everything. A query keeps
// nothing, so its scope is a scratch scope, whose small records share
// frames. The O(n/B) space figure is what the nodes hold; replaced
// versions are still held on the tree's history until FreeHistory
// (DESIGN.md, "Block lifetime and reclamation").
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
// representative block, whose first repCrit words are copies of the
// children's critical records (repLayout). owned lists the spans this
// node's queue version added on top of what its children's versions hold
// (DESIGN.md, "Block lifetime and reclamation").
type data struct {
	q        *cpqa.Queue
	owned    []emio.Span
	repBlock emio.BlockID
	repWords int
	repCrit  int
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

// A full node's representative span — its 2a children's critical records
// and, at a leaf parent, their leaves' fences and block summaries — is
// sized to take at most repSpan blocks at repChildWords words a child. A
// child's critical records measure 8–10 words at the 90th percentile on
// uniform and clustered points at B = 64 and 256 and every ε, and a leaf
// child's fences and summaries take 3 words a block; an anti-correlated
// band and a staircase take more (DESIGN.md, "Representative-block
// sizing").
const (
	repChildWords = 16
	repSpan       = 2
)

// New returns an empty tree with the given ε: fan-out a = max(2, ⌊B/16⌋),
// the largest whose full node fills at most repSpan representative
// blocks, and CPQA buffer size b = ⌊B^{1−ε}⌋.
func New(d *emio.Disk, eps float64) *Tree {
	if eps < 0 || eps > 1 {
		panic("dyntop: epsilon must be in [0,1]")
	}
	B := d.Config().B
	a := max(2, repSpan*B/(2*repChildWords))
	b := int(math.Pow(float64(B), 1-eps))
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
// block: O(1) I/Os, the blocks of the old block's critical records and
// the ⌈repWords/B⌉ blocks of the new one. The children's critical
// records are covered by the copies in the old block (emio.Disk.Cover),
// so pinning the blocks that hold those copies — the catenation reads
// nothing else of it — makes every read of them free without a frame of
// their own.
func (t *Tree) refreshInternal(nd *node) {
	old := emio.Span{ID: nd.Data.repBlock, Words: nd.Data.repCrit}
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
// records and, at a leaf parent, the leaf children's block fences and
// summaries after them, covering the records (emio.Disk.Cover).
// O(⌈repWords/B⌉) I/Os.
func (t *Tree) rewriteRep(nd *node) {
	if nd.Data.repWords > 0 {
		t.disk.FreeSpan(nd.Data.repBlock, nd.Data.repWords)
	}
	nd.SetRange()
	w, crit, _ := repLayout(t.disk.Config(), nd)
	nd.Data.repWords, nd.Data.repCrit = w, crit
	nd.Data.repBlock = t.disk.AllocSpan(w)
	t.disk.WriteSpan(nd.Data.repBlock, w)
	rep, off := emio.Span{ID: nd.Data.repBlock, Words: w}, 0
	for _, c := range nd.Children {
		off = c.Data.q.CoverCritical(rep, off)
	}
}

// repLayout sizes an internal node's representative block: words
// [0, crit) are the copies of its children's critical records and, at a
// leaf parent, the rest is, for each leaf child, the fence of every
// block after its first — the block's first x (block 0's is the child's
// minX, which the tree routes on) — and then the summary of every block:
// its point count and its highest y. A query reads only the blocks that
// hold the critical records, which the catenation reads, and uses the
// fences where they share those blocks, as fenced reports: it scans a
// leaf from them (scanLeaf). A single-point update reads the whole
// representative block, and with the summaries only the leaf block it
// changes (Tree.update); a refresh pins only the critical records'
// blocks. Both
// derive the same answer from the same children, and the fences and
// summaries themselves from the leaves' points, so nothing stored can
// disagree with them.
func repLayout(cfg emio.Config, nd *node) (words, crit int, fenced bool) {
	fences, blocks := 0, 0
	for _, c := range nd.Children {
		crit += c.Data.q.CriticalWords()
		if c.Leaf() {
			fences += max(0, len(c.Runs)-1)
			blocks += len(c.Runs)
		}
	}
	crit = max(crit, 1)
	return crit + fences + 2*blocks, crit, cfg.BlocksFor(crit+fences) == cfg.BlocksFor(crit)
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
	if len(nd.Runs) > 0 {
		t.disk.FreeBlocks(nd.PtsBlock, len(nd.Runs))
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
// indexed points; callers enforce general position), as Add does.
func (t *Tree) Insert(pts ...geom.Point) {
	for _, p := range pts {
		t.Add(p)
	}
}

// Add inserts one point. O(log_{2B^ε}(n/B)) I/Os: one leaf write and
// one refresh per ancestor, or, when p is dominated inside its leaf and
// the leaf neither splits nor is the root, the leaf write and its
// parent's representative block alone. The leaf write rewrites p's
// block in place (a full one, the blocks through the nearest one with
// room), unless a Snapshot still shares the leaf's span or the leaf
// needs a block more; then the leaf moves to a fresh span
// (xtree.Tree.UpdateLeaf). It reads only p's block unless the leaf's
// queue must be rebuilt (see update), whether or not p is one point of
// a batch.
func (t *Tree) Add(p geom.Point) {
	if t.xt.Root == nil {
		t.xt.Root = t.xt.NewLeaf([]geom.Point{p})
		t.refreshLeaf(t.xt.Root)
		t.n = 1
		return
	}
	t.update(p, true)
}

// Delete removes the point with the given coordinates; it reports
// whether the point was present. O(log_{2B^ε}(n/B)) I/Os, as Add.
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
	i := sort.Search(len(leaf.Pts), func(j int) bool { return leaf.Pts[j].X >= p.X })
	// The parent's representative block, just read whole, holds the
	// leaf's block fences and summaries (repLayout), so an update reads
	// only the block p goes to or comes from: the fences locate the
	// block, the block says whether p is in it, and the highest y of the
	// blocks after it whether p is dominated inside the leaf. An update
	// of a root leaf reads the whole leaf (DESIGN.md, "Leaf spans in
	// place").
	first, last := 0, len(leaf.Runs)-1
	if len(path) > 1 {
		first = leaf.BlockFor(i, insert)
		last = first
	}
	xtree.ReadBlocks(t.disk, leaf, first, last)
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
	if !leafOnly {
		// The leaf's new queue is built from all of its points.
		xtree.ReadBlocks(t.disk, leaf, 0, len(leaf.Runs)-1)
	}
	t.xt.UpdateLeaf(leaf, i, insert)
	if leafOnly {
		// Attrition removes exactly the dominated points (Figure 7), so
		// the leaf's staircase is its queue and every queue above is the
		// catenation of the ones below: none of them changes. The leaf
		// block and the parent's representative block, which holds the
		// leaf's fences and summaries, are written; the ancestors route
		// on ranges held in memory.
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
			xtree.ReadBlocks(t.disk, sib, 0, len(sib.Runs)-1)
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
		lo, hi := scanLeaf(v.disk, l, x1, x2, false)
		dst = append(dst, l.Pts[lo:hi]...)
	}
	return dst
}

func (v view) query(x1, x2, beta geom.Coord) []geom.Point {
	if v.root == nil || x1 > x2 {
		return nil
	}
	// A query keeps nothing: the partial-leaf queues, the catenation and
	// every DeleteMin version live in a scratch scope, which packs its
	// small records into shared frames and is released once the answer
	// is out.
	sc := v.disk.NewScratchScope()
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
// its fences when they share the blocks of its parent's representative
// block that were read on the way down. Nothing is pinned: the blocks
// read at each internal node cover its children's critical records,
// which the catenation reads.
func (v view) collect(sc *emio.Scope, nd, par *node, x1, x2 geom.Coord, qs []*cpqa.Queue) []*cpqa.Queue {
	if nd.MaxX < x1 || nd.MinX > x2 || (nd.Leaf() && len(nd.Pts) == 0) {
		return qs
	}
	if nd.Leaf() {
		fenced := false
		if par != nil {
			_, _, fenced = repLayout(v.disk.Config(), par)
		}
		lo, hi := scanLeaf(v.disk, nd, x1, x2, fenced)
		if nd.MinX >= x1 && nd.MaxX <= x2 {
			return append(qs, nd.Data.q)
		}
		if lo < hi {
			qs = append(qs, cpqa.FromAscendingIn(sc, v.b, staircase(nd.Pts[lo:hi])))
		}
		return qs
	}
	// Internal: reading the blocks of the representative block that hold
	// the copies of every child's critical records covers them, and
	// brings any leaf child's fences that share those blocks.
	v.disk.ReadSpanWords(nd.Data.repBlock, 0, nd.Data.repCrit)
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

// scanLeaf charges the blocks a scan of one leaf reads for the x-range
// [x1,x2] and returns the in-range points nd.Pts[lo:hi]. Where a scan
// enters the leaf depends on what is in memory before it is read; the
// blocks need not be full, and the scan reads the ones that hold the
// points it reads.
//
// fenced: the fence of every block — its first x — is resident (a
// dyntop leaf's fences live in its parent's representative block, and a
// query has read them on the way down when they share the blocks of the
// critical records; see repLayout). The scan reads from the last block
// whose fence is ≤ x1 through the last block whose fence is ≤ x2, so a
// leaf with no point in range costs one block.
//
// Otherwise only the leaf's own first and last x route a scan into it
// (a root leaf, a leaf whose fences its parent keeps past the critical
// records' blocks, and every leaf Scan reads), so a scan enters at a
// grounded end and stops at the first point past the cut:
//
//   - cut only on the left (pts[0].X < x1, the last x ≤ x2): from the
//     last block back through the block holding the last point left of x1;
//   - cut only on the right (x1 ≤ pts[0].X, the last x > x2): from the
//     first block through the block holding the first point right of x2;
//   - cut on both sides, or no point in range: the whole leaf.
//
// A fenced scan never reads more than the grounded one. Query and Scan
// both charge through it (DESIGN.md, "Query accounting").
func scanLeaf(d *emio.Disk, nd *node, x1, x2 geom.Coord, fenced bool) (lo, hi int) {
	pts, n := nd.Pts, len(nd.Pts)
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
	if from < to {
		xtree.ReadBlocks(d, nd, nd.Block(from), nd.Block(to-1))
	}
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
		total += 2*len(nd.Pts) + nd.Data.repWords
		if nd.Data.q != nil {
			total += nd.Data.q.ReachableWords()
		}
	}
	return total
}
