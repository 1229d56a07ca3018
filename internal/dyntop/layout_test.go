package dyntop

import (
	"slices"
	"testing"

	"repro/internal/emio"
	"repro/internal/geom"
	"repro/internal/xtree"
)

// The representative-block layout (repLayout): a node has [a, 2a]
// children with a = max(2, ⌊B/16⌋) at every ε, and a leaf parent's block
// holds its children's critical records, then their leaves' fences and
// block summaries. A query reads the critical records' blocks, an update
// the whole block, and a refresh pins the critical records' blocks.

// TestFanOut: the fan-out depends on B alone.
func TestFanOut(t *testing.T) {
	for _, c := range []struct{ B, a int }{{8, 2}, {64, 4}, {256, 16}} {
		for _, eps := range []float64{0, 0.25, 0.5, 0.75, 1} {
			if tr := New(emio.NewDisk(emio.Config{B: c.B, M: 64 * c.B}), eps); tr.a != c.a {
				t.Errorf("B=%d eps=%.2f: fan-out a = %d, want %d", c.B, eps, tr.a, c.a)
			}
		}
	}
}

// leafParents lists the internal nodes whose children are leaves.
func leafParents(tr *Tree) []*node {
	var out []*node
	for nd := range xtree.Nodes(tr.xt.Root) {
		if !nd.Leaf() && nd.Children[0].Leaf() {
			out = append(out, nd)
		}
	}
	return out
}

// summaryWords is what a leaf parent stores after its critical records:
// one fence per leaf block after the first, and a count and a highest y
// per block.
func summaryWords(nd *node) int {
	w := 0
	for _, c := range nd.Children {
		w += len(c.Runs) - 1 + 2*len(c.Runs)
	}
	return w
}

// TestLeafParentsSummarize: on the served machine (B = 256), at ε = 0
// and 0.5, over 10 000 uniform and clustered points, every leaf parent
// stores its leaves' fences and block summaries after the critical
// records, so every single-point update below it reads one leaf block.
func TestLeafParentsSummarize(t *testing.T) {
	cfg := emio.DefaultConfig()
	for _, set := range []struct {
		name string
		pts  []geom.Point
	}{
		{"uniform", geom.GenUniform(10000, 1<<40, 601)},
		{"clustered", geom.GenClustered(10000, 8, 1<<40, 601)},
	} {
		for _, eps := range []float64{0, 0.5} {
			_, tr := buildTree(t, cfg, eps, set.pts)
			ps := leafParents(tr)
			if len(ps) == 0 {
				t.Fatalf("%s eps=%.1f: no leaf parent", set.name, eps)
			}
			spilled := 0
			for _, nd := range ps {
				if got, want := nd.Data.repWords-nd.Data.repCrit, summaryWords(nd); got != want {
					t.Errorf("%s eps=%.1f: leaf parent [%d,%d] stores %d words after its critical records, want %d",
						set.name, eps, nd.MinX, nd.MaxX, got, want)
				}
				if cfg.BlocksFor(nd.Data.repWords) > cfg.BlocksFor(nd.Data.repCrit) {
					spilled++
				}
			}
			t.Logf("%s eps=%.1f: %d leaf parents, %d with summaries past the critical records' blocks", set.name, eps, len(ps), spilled)
		}
	}
}

// TestColdUpdateReadsOneLeafBlock: on the served machine at ε = 0 and
// 0.5, the cold delete of a point dominated inside its leaf, and the
// cold insert that restores it, each read exactly one block of the leaf,
// the point's.
func TestColdUpdateReadsOneLeafBlock(t *testing.T) {
	for _, eps := range []float64{0, 0.5} {
		pts := geom.GenUniform(10000, 1<<40, 603)
		d, tr := buildTree(t, emio.DefaultConfig(), eps, pts)
		p := blockVictim(t, tr, pts)
		leaf := leafFor(tr, p.X)
		j := leaf.Block(slices.Index(leaf.Pts, p))
		for _, op := range []struct {
			name  string
			write func()
		}{{"delete", func() { tr.Delete(p) }}, {"insert", func() { tr.Insert(p) }}} {
			d.DropCache()
			op.write()
			for k := range leaf.Runs {
				if want := k == j; d.Resident(leaf.PtsBlock+emio.BlockID(k)) != want {
					t.Errorf("eps=%.1f %s: block %d of the leaf's %d resident = %v, want %v (point in block %d)",
						eps, op.name, k, len(leaf.Runs), !want, want, j)
				}
			}
		}
	}
}

// spilledParent returns a leaf parent whose summaries take a block past
// its critical records' blocks, preferring the one whose critical
// records take the most blocks.
func spilledParent(t *testing.T, tr *Tree) *node {
	t.Helper()
	cfg := tr.disk.Config()
	var best *node
	for _, nd := range leafParents(tr) {
		if cfg.BlocksFor(nd.Data.repWords) > cfg.BlocksFor(nd.Data.repCrit) &&
			(best == nil || nd.Data.repCrit > best.Data.repCrit) {
			best = nd
		}
	}
	if best == nil {
		t.Fatal("no leaf parent keeps its summaries past its critical records' blocks")
	}
	return best
}

// TestQueryReadsCriticalBlocks: a cold query through a leaf parent whose
// summaries spill into a block of their own reads only the blocks of
// that node's representative block that hold critical records.
func TestQueryReadsCriticalBlocks(t *testing.T) {
	cfg := emio.Config{B: 16, M: 16 * 256}
	pts := permPoints(3000, 605)
	d, tr := buildTree(t, cfg, 0, pts)
	nd := spilledParent(t, tr)
	crit, span := cfg.BlocksFor(nd.Data.repCrit), cfg.BlocksFor(nd.Data.repWords)
	// x1 inside nd's first child: the query descends into nd and takes
	// the rest of it.
	x1 := nd.Children[0].Pts[1].X
	d.DropCache()
	got := tr.Query(x1, geom.PosInf, geom.NegInf)
	if want := geom.RangeSkyline(pts, geom.TopOpen(x1, geom.PosInf, geom.NegInf)); !sameAnswer(got, want) {
		t.Fatalf("Query = %v, want %v", got, want)
	}
	for k := range span {
		if want := k < crit; d.Resident(nd.Data.repBlock+emio.BlockID(k)) != want {
			t.Errorf("block %d of the %d-block representative block (critical records in %d) resident = %v, want %v",
				k, span, crit, !want, want)
		}
	}
}

// TestRefreshPinsCriticalBlocks: an update that changes a leaf's
// staircase refreshes every node on its path, and each refresh pins the
// blocks of the node's old representative block that hold critical
// records, not the summaries past them.
func TestRefreshPinsCriticalBlocks(t *testing.T) {
	cfg := emio.Config{B: 16, M: 16 * 256}
	pts := permPoints(3000, 607)
	d, tr := buildTree(t, cfg, 0, pts)
	nd := spilledParent(t, tr)
	// A point above every other, inside nd's first leaf, is on that
	// leaf's staircase.
	p := pt(nd.Children[0].Pts[0].X+5, geom.Coord(10*len(pts)+5))
	pins := 0
	for _, u := range tr.xt.Descend(p.X, nil) {
		if !u.Leaf() {
			pins = max(pins, cfg.BlocksFor(u.Data.repCrit))
		}
	}
	if spill := cfg.BlocksFor(nd.Data.repWords); pins >= spill {
		t.Fatalf("the path's critical records take %d blocks, not fewer than nd's %d-block span", pins, spill)
	}
	before := d.PeakPinned()
	if before > pins {
		t.Fatalf("the build pinned %d blocks, more than the %d the update should", before, pins)
	}
	tr.Insert(p)
	if got := d.PeakPinned(); got != pins {
		t.Errorf("the update pinned %d blocks at once, want %d, the most any node on its path keeps critical records in", got, pins)
	}
}
