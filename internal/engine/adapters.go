// Backend adapters for the paper's dynamic structures over one disk
// each: the Theorem 4 tree and the Theorem 6 index. Each adapter pairs
// one structure with the disk it lives on, which it needs only to open
// a retention when it pins a snapshot. Structures may share a disk, so
// I/O is counted per disk by whoever built the disks, never per
// adapter. A single disk is one slab, so the adapters report no
// partition. Nothing serializes an adapter: the caller owns mutual
// exclusion. core.DB builds no adapter — every index is a sharded
// engine (internal/shard), which implements Backend natively with a
// mutex per shard; the adapters serve layer-by-layer measurements and
// tests that compose a planner by hand.
package engine

import (
	"repro/internal/dyntop"
	"repro/internal/emio"
	"repro/internal/foursided"
	"repro/internal/geom"
)

// unpartitioned is the Partition of a single-disk structure: one slab.
type unpartitioned struct{}

func (unpartitioned) Partition() (xcuts []geom.Coord) { return nil }

// DynTopBackend serves the top-open family from the Theorem 4 dynamic
// tree.
type DynTopBackend struct {
	WriteVerbs
	unpartitioned
	tree *dyntop.Tree
	disk *emio.Disk
}

// NewDynTop wraps a Theorem 4 tree and the disk it lives on.
func NewDynTop(tree *dyntop.Tree, d *emio.Disk) *DynTopBackend {
	b := &DynTopBackend{tree: tree, disk: d}
	b.WriteVerbs = VerbsOf(b.Apply)
	return b
}

func (b *DynTopBackend) RangeSkyline(q geom.Rect) []geom.Point {
	if !q.IsTopOpen() {
		panic("engine: dyntop backend requires a top-open rectangle")
	}
	return b.tree.Query(q.X1, q.X2, q.Y1)
}

// Apply deletes then inserts point by point; the tree checks presence
// before it mutates, so the removed subset is exact.
func (b *DynTopBackend) Apply(dels, inss []geom.Point) ([]geom.Point, error) {
	var removed []geom.Point
	for _, p := range dels {
		if b.tree.Delete(p) {
			removed = append(removed, p)
		}
	}
	for _, p := range inss {
		b.tree.Insert(p)
	}
	return removed, nil
}

// FourSidedBackend serves every rectangle shape from the Theorem 6
// structure. It is always dynamic (the structure has no static mode).
type FourSidedBackend struct {
	WriteVerbs
	unpartitioned
	ix   *foursided.Index
	disk *emio.Disk
}

// NewFourSided wraps a Theorem 6 index and the disk it lives on.
func NewFourSided(ix *foursided.Index, d *emio.Disk) *FourSidedBackend {
	b := &FourSidedBackend{ix: ix, disk: d}
	b.WriteVerbs = VerbsOf(b.Apply)
	return b
}

func (b *FourSidedBackend) RangeSkyline(q geom.Rect) []geom.Point { return b.ix.Query(q) }

// Apply deletes then inserts point by point, like DynTopBackend's.
func (b *FourSidedBackend) Apply(dels, inss []geom.Point) ([]geom.Point, error) {
	var removed []geom.Point
	for _, p := range dels {
		if b.ix.Delete(p) {
			removed = append(removed, p)
		}
	}
	for _, p := range inss {
		b.ix.Insert(p)
	}
	return removed, nil
}
