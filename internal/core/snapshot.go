// DB.Snapshot: non-blocking point-in-time reads. A Snapshot pins a
// consistent view of the index at a drain boundary and serves all
// seven Figure-2 query shapes from it without taking shard write
// locks or forcing drains — writers keep streaming, and every answer
// is byte-identical to what the live index would have answered at the
// pin point, no matter how many writes, drains or checkpoints land
// afterwards.
//
// Where the pin sits in the stack (cf. the DESIGN.md diagram):
//
//	AsyncQueue  — flushes once; the flush IS the boundary
//	LogBackend  — passed through (reads are not logged)
//	CacheBackend— passed through (cache bypassed: snapshot answers
//	              are frozen by construction, live entries must not
//	              serve them)
//	Planner     — frozen into a routing table over pinned views
//	structures  — immutable root handles + emio retentions
//
// Generation accounting: each pinned structure opens a retention on
// its disk (emio.RetainFrees), so spans the live index retires while
// the snapshot is open are deferred, not reclaimed. Retentions are
// epoch-ordered; when the LAST snapshot holding an epoch closes, every
// span retired under it is reclaimed at once — DeferredBlocks returns
// to zero at quiescence, which the race stress asserts.
package core

import (
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/geom"
)

// Snapshot is a pinned point-in-time view of a DB. All query methods
// mirror the DB's and are safe for concurrent use (the pinned state is
// immutable; the disks are guarded). Close releases the pinned
// storage — snapshots left unclosed hold every span the live index has
// retired since the pin, forever.
type Snapshot struct {
	db     *DB
	view   engine.View
	closed atomic.Bool
}

// Snapshot pins the index's current state at a drain boundary: with
// AsyncWrites the queue's buffers are flushed once (establishing the
// boundary — the one drain a snapshot ever costs), and every
// registered backend's roots are captured under brief per-shard locks
// with storage retentions opened first. No global quiesce, no cache
// interaction. Reads on the returned Snapshot never drain and never
// take shard write locks.
//
// Snapshot may race writers and readers freely: the per-shard locks
// order the pin against every update.
func (db *DB) Snapshot() (*Snapshot, error) {
	v, err := db.front.Snapshot()
	if err != nil {
		return nil, err
	}
	db.openSnaps.Add(1)
	return &Snapshot{db: db, view: v}, nil
}

// OpenSnapshots reports the number of unclosed snapshots.
func (db *DB) OpenSnapshots() int { return int(db.openSnaps.Load()) }

// Close releases the snapshot's pinned storage. When the last snapshot
// holding a retired span closes, the span is reclaimed (the emio
// deferred-free drain). Idempotent.
func (s *Snapshot) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.view.Release()
	s.db.openSnaps.Add(-1)
}

// RangeSkyline reports the maximal points of the PINNED point set ∩ q
// in increasing-x order, routed through the frozen planner exactly
// like a live query.
func (s *Snapshot) RangeSkyline(q geom.Rect) []geom.Point {
	return s.view.RangeSkyline(q)
}

// Skyline reports the skyline of the whole pinned point set.
func (s *Snapshot) Skyline() []geom.Point {
	return s.RangeSkyline(geom.Rect{X1: geom.NegInf, X2: geom.PosInf, Y1: geom.NegInf, Y2: geom.PosInf})
}

// TopOpen reports the pinned range skyline of [x1,x2] × [beta, ∞)
// (Figure 2a).
func (s *Snapshot) TopOpen(x1, x2, beta geom.Coord) []geom.Point {
	return s.RangeSkyline(geom.TopOpen(x1, x2, beta))
}

// RightOpen reports the pinned range skyline of [x,∞) × [y1,y2]
// (Figure 2b).
func (s *Snapshot) RightOpen(x, y1, y2 geom.Coord) []geom.Point {
	return s.RangeSkyline(geom.RightOpen(x, y1, y2))
}

// BottomOpen reports the pinned range skyline of [x1,x2] × (-∞,y]
// (Figure 2c).
func (s *Snapshot) BottomOpen(x1, x2, y geom.Coord) []geom.Point {
	return s.RangeSkyline(geom.BottomOpen(x1, x2, y))
}

// LeftOpen reports the pinned range skyline of (-∞,x] × [y1,y2]
// (Figure 2d).
func (s *Snapshot) LeftOpen(x, y1, y2 geom.Coord) []geom.Point {
	return s.RangeSkyline(geom.LeftOpen(x, y1, y2))
}

// Dominance reports the pinned skyline of the points dominating (x, y)
// (Figure 2e).
func (s *Snapshot) Dominance(x, y geom.Coord) []geom.Point {
	return s.RangeSkyline(geom.Dominance(x, y))
}

// AntiDominance reports the pinned range skyline of (-∞,x] × (-∞,y]
// (Figure 2f).
func (s *Snapshot) AntiDominance(x, y geom.Coord) []geom.Point {
	return s.RangeSkyline(geom.AntiDominance(x, y))
}

// Contour reports the pinned skyline of the points with x-coordinate
// <= x (Figure 2g).
func (s *Snapshot) Contour(x geom.Coord) []geom.Point {
	return s.RangeSkyline(geom.Contour(x))
}
