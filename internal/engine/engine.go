// Package engine defines the query-execution seam of the repository: a
// Backend interface every range skyline engine implements, a Figure-2
// shape classifier, and a small Planner that routes each query rectangle
// to the best registered backend and fans updates out to every backend.
//
// The paper's structures divide the seven Figure-2 query shapes into two
// families. The top-open family (any rectangle whose top edge is
// grounded: top-open, dominance, contour, whole-plane)
// is answered by the Theorem 1/4 structures in O(log) I/Os; everything
// with a bounded top edge (4-sided, left-open, right-open, bottom-open,
// anti-dominance) needs the Theorem 6 structure, whose Ω((n/B)^ε) cost
// is optimal at linear space by Theorem 5. The Planner encodes exactly
// that split: a backend registered for the top-open family takes the
// cheap shapes, the general backend takes the rest — and when only a
// general backend is registered (for example the sharded engine, which
// serves both families itself), it takes everything.
//
// One refinement cuts across the two families: a MirrorBackend holds a
// top-open structure over the transposed (x↔y) point set, and because
// the transpose preserves dominance, it serves every rectangle whose
// RIGHT edge is grounded — right-open queries and the unnamed
// right-grounded shapes — in the top-open bounds (the general backend's
// Theorem 6 structure answers them too, from its root secondary in
// O(log(n/B) + k/B)). The planner offers
// those rectangles to the mirrors before falling back to the general
// backend. The remaining bounded-top shapes (4-sided, left-open,
// bottom-open, anti-dominance) stay on the general backend by
// necessity, not omission: no other axis reflection preserves
// dominance, and Theorem 5's lower bound pins them to Ω((n/B)^ε) at
// linear space.
//
// Updates flow through the same seam, as one verb: Apply(dels, inss)
// deletes then inserts. core.DB registers one sharded engine serving
// both families, plus a mirror over a second engine with Mirrors, and
// the planner applies every batch to all of them, so every backend sees
// the same point set. The first registered backend is the
// primary: Apply resolves deletes against it first and touches the
// others only with the subset it confirmed present, so a miss never
// mutates any backend (see core.DB.Delete's regression test).
//
// Snapshots and partition cuts flow through the same seam: both are
// part of Backend, which every layer implements.
package engine

import (
	"fmt"

	"repro/internal/geom"
)

// Backend is the whole layer contract: every layer of the stack — the
// paper's structures behind their adapters, the sharded engine, the
// mirror, the planner, the cache, the log and the queue — implements
// it directly, and a wrapping layer forwards what it does not change to
// the layer it wraps. Static backends return an error from Apply
// without mutating anything. Storage accounting is not part of it: the
// disks belong to whoever built them (core.DB sums them).
type Backend interface {
	// RangeSkyline reports the maximal points of P ∩ q in
	// increasing-x order.
	RangeSkyline(q geom.Rect) []geom.Point
	// Apply deletes dels, then inserts inss (general position is the
	// caller's contract), and returns the subset of dels that was
	// present and removed, in dels order. A delete that misses must not
	// mutate the backend. Layers that only buffer (AsyncQueue) return
	// the deletes they accepted instead: presence resolves later.
	Apply(dels, inss []geom.Point) (removed []geom.Point, err error)
	// Snapshot pins a point-in-time View of the backend (see
	// snapshot.go for how each layer threads it).
	Snapshot() (View, error)
	// Partition reports the x-cuts the backend partitions its point
	// set by: cut i is the largest x owned by slab i, so slab i covers
	// (cuts[i-1], cuts[i]] and the last covers (cuts[K-2], +∞). nil
	// means one slab. The async queue slabs on them, so a drain is a
	// batch localized to one shard.
	Partition() (xcuts []geom.Coord)
	// Insert, Delete and BatchInsert are Apply with one side empty
	// (see WriteVerbs); no layer puts logic in them.
	Insert(p geom.Point) error
	Delete(p geom.Point) (bool, error)
	BatchInsert(pts []geom.Point) error
}

// WriteVerbs derives Insert, Delete and BatchInsert from a layer's
// Apply. Every Backend embeds it bound to its own Apply (see VerbsOf),
// so the single-point and insert-only forms exist for callers written
// against them without any layer repeating write logic.
type WriteVerbs struct {
	apply func(dels, inss []geom.Point) ([]geom.Point, error)
}

// VerbsOf binds WriteVerbs to apply.
func VerbsOf(apply func(dels, inss []geom.Point) ([]geom.Point, error)) WriteVerbs {
	return WriteVerbs{apply}
}

// Insert adds p: Apply(nil, [p]).
func (v WriteVerbs) Insert(p geom.Point) error {
	_, err := v.apply(nil, []geom.Point{p})
	return err
}

// Delete removes p, reporting whether it was present (accepted, on a
// buffering layer): Apply([p], nil).
func (v WriteVerbs) Delete(p geom.Point) (bool, error) {
	removed, err := v.apply([]geom.Point{p}, nil)
	return len(removed) > 0, err
}

// BatchInsert adds pts: Apply(nil, pts).
func (v WriteVerbs) BatchInsert(pts []geom.Point) error {
	_, err := v.apply(nil, pts)
	return err
}

// Shape names the seven query rectangle shapes of Figure 2 plus the
// general 4-sided rectangle of Figure 1b.
type Shape int

const (
	// FourSided is a rectangle bounded on all four sides (Figure 1b).
	FourSided Shape = iota
	// TopOpenShape is [x1,x2] × [y,∞) (Figure 2a).
	TopOpenShape
	// RightOpenShape is [x,∞) × [y1,y2] (Figure 2b).
	RightOpenShape
	// BottomOpenShape is [x1,x2] × (-∞,y] (Figure 2c).
	BottomOpenShape
	// LeftOpenShape is (-∞,x] × [y1,y2] (Figure 2d).
	LeftOpenShape
	// DominanceShape is [x,∞) × [y,∞) (Figure 2e).
	DominanceShape
	// AntiDominanceShape is (-∞,x] × (-∞,y] (Figure 2f).
	AntiDominanceShape
	// ContourShape is (-∞,x] × (-∞,∞) (Figure 2g).
	ContourShape
	// WholePlane is (-∞,∞) × (-∞,∞): the skyline of the whole set.
	WholePlane
)

var shapeNames = map[Shape]string{
	FourSided:          "4-sided",
	TopOpenShape:       "top-open",
	RightOpenShape:     "right-open",
	BottomOpenShape:    "bottom-open",
	LeftOpenShape:      "left-open",
	DominanceShape:     "dominance",
	AntiDominanceShape: "anti-dominance",
	ContourShape:       "contour",
	WholePlane:         "whole-plane",
}

func (s Shape) String() string { return shapeNames[s] }

// Classify names the Figure-2 shape of q from its grounded sides.
func Classify(q geom.Rect) Shape {
	left := q.X1 == geom.NegInf
	right := q.X2 == geom.PosInf
	bottom := q.Y1 == geom.NegInf
	top := q.Y2 == geom.PosInf
	switch {
	case left && right && bottom && top:
		return WholePlane
	case left && top && bottom:
		return ContourShape
	case right && top && !left && !bottom:
		return DominanceShape
	case left && bottom && !right && !top:
		return AntiDominanceShape
	case top && !left && !right && !bottom:
		return TopOpenShape
	case bottom && !left && !right && !top:
		return BottomOpenShape
	case left && !right && !top && !bottom:
		return LeftOpenShape
	case right && !left && !top && !bottom:
		return RightOpenShape
	default:
		// Remaining grounded combinations (e.g. left+right, or
		// bottom+right) have no Figure-2 name; they are answered as
		// general rectangles.
		if top {
			return TopOpenShape
		}
		return FourSided
	}
}

// TopOpenFamily reports whether the shape is answerable by the top-open
// structures (Theorems 1 and 4): exactly the rectangles whose top edge
// is grounded.
func (s Shape) TopOpenFamily() bool {
	switch s {
	case TopOpenShape, DominanceShape, ContourShape, WholePlane:
		return true
	}
	return false
}

// Planner routes queries to the best registered backend and fans updates
// out to every backend. It is not itself safe for concurrent
// registration; register all backends before use (queries and updates
// then inherit whatever concurrency the backends support).
//
// Routing order: the top-open family goes to the top-open backend;
// everything else is offered to the registered mirrors (a mirror takes
// a rectangle when its reflection is top-open — the transpose mirror
// takes the whole grounded-right-edge family, O(log) instead of the
// general backend's Ω((n/B)^ε)); what remains goes to the general
// backend. Bottom-open, left-open and anti-dominance rectangles never
// match a mirror: the only dominance-preserving reflection is the
// transpose, and Theorem 5 proves those shapes are stuck on the general
// structure at linear space.
type Planner struct {
	WriteVerbs
	topOpen  Backend // answers the top-open family; may be nil
	general  Backend // answers every shape; may be nil
	mirrors  []*MirrorBackend
	backends []Backend
}

// RegisterTopOpen installs the backend serving the top-open query family
// (top-open, dominance, contour, whole-plane).
func (pl *Planner) RegisterTopOpen(b Backend) {
	pl.topOpen = b
	pl.addBackend(b)
}

// RegisterGeneral installs the backend serving every rectangle shape.
// It answers the top-open family too when no top-open backend is
// registered.
func (pl *Planner) RegisterGeneral(b Backend) {
	pl.general = b
	pl.addBackend(b)
}

// RegisterMirror installs a reflected fast path. Mirrors are consulted
// in registration order for every rectangle outside the top-open
// family; the first whose reflection grounds the top edge serves it.
func (pl *Planner) RegisterMirror(m *MirrorBackend) {
	pl.mirrors = append(pl.mirrors, m)
	pl.addBackend(m)
}

func (pl *Planner) addBackend(b Backend) {
	pl.WriteVerbs = VerbsOf(pl.Apply)
	for _, have := range pl.backends {
		if have == b {
			return
		}
	}
	pl.backends = append(pl.backends, b)
}

// Backends returns the distinct registered backends in registration
// order. The first is the primary Apply resolves deletes against.
func (pl *Planner) Backends() []Backend { return pl.backends }

// Route returns the backend that should answer q: the top-open backend
// for the top-open family, then the first mirror whose reflection
// grounds q's top edge, then the general backend. It returns nil when
// no registered backend can answer q.
func (pl *Planner) Route(q geom.Rect) Backend {
	if Classify(q).TopOpenFamily() && pl.topOpen != nil {
		return pl.topOpen
	}
	for _, m := range pl.mirrors {
		if m.Serves(q) {
			return m
		}
	}
	return pl.general
}

// Mirrors returns the registered mirrored fast paths in registration
// order.
func (pl *Planner) Mirrors() []*MirrorBackend { return pl.mirrors }

// RangeSkyline answers q through the routed backend.
func (pl *Planner) RangeSkyline(q geom.Rect) []geom.Point {
	b := pl.Route(q)
	if b == nil {
		panic(fmt.Sprintf("engine: no backend registered for %v (%v)", q, Classify(q)))
	}
	return b.RangeSkyline(q)
}

// errNoBackends is Apply's error on a planner nothing was registered
// with.
var errNoBackends = fmt.Errorf("engine: no backends registered")

// Apply fans one batch out to every backend, presence-check-first and in
// two phases. The delete phase goes first: the primary (first
// registered) backend resolves dels and reports the subset it actually
// removed, and only that confirmed subset reaches the remaining
// backends — so a miss mutates nothing anywhere, and concurrent
// overlapping batches (legal over sharded engines, where the primary
// serializes per shard and resolves every contended point to exactly
// one caller) fan out disjoint subsets instead of tripping false
// corruption reports. A secondary disagreeing on a confirmed point is
// real corruption; the returned subset stays meaningful alongside the
// error, so callers keep their size accounting consistent with the
// primary. The insert phase then applies inss to every backend, and
// runs only if the delete phase did not fail. Every backend sees its
// delete-only call before its insert-only call, so backends sharing a
// disk are charged in one fixed order.
func (pl *Planner) Apply(dels, inss []geom.Point) ([]geom.Point, error) {
	if len(pl.backends) == 0 {
		return nil, errNoBackends
	}
	var removed []geom.Point
	if len(dels) > 0 {
		var err error
		if removed, err = pl.backends[0].Apply(dels, nil); err != nil {
			return removed, err
		}
	}
	if len(removed) > 0 {
		for _, b := range pl.backends[1:] {
			got, err := b.Apply(removed, nil)
			if err != nil {
				return removed, err
			}
			if len(got) != len(removed) {
				return removed, fmt.Errorf(
					"engine: backends disagree on batch presence (%d vs %d removed)", len(got), len(removed))
			}
		}
	}
	if len(inss) > 0 {
		for _, b := range pl.backends {
			if _, err := b.Apply(nil, inss); err != nil {
				return removed, err
			}
		}
	}
	return removed, nil
}

// Partition takes the x-cuts from the first registered backend that has
// them, so a queue over the planner slabs on the sharded engine's
// boundaries.
func (pl *Planner) Partition() (xcuts []geom.Coord) {
	for _, b := range pl.backends {
		if x := b.Partition(); x != nil {
			return x
		}
	}
	return nil
}
