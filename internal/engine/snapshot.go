// Snapshot views: the read-only seam of the engine. A View is a pinned
// point-in-time answerer for some family of rectangles, and
// Backend.Snapshot produces one on every layer. The stack threads
// snapshots the same way it threads queries:
//
//	AsyncQueue.Snapshot  — flushes every buffer ONCE to establish the
//	                       drain boundary, then pins the inner backend
//	LogBackend.Snapshot  — passes through (reads are not logged)
//	CacheBackend.Snapshot— passes through (the cache memoizes LIVE
//	                       answers; a snapshot's answers are frozen by
//	                       construction, so caching them buys nothing
//	                       and sharing entries with the live index
//	                       would serve post-pin answers)
//	Planner.Snapshot     — pins every registered backend once and
//	                       freezes the routing table into a PlanView
//	MirrorBackend        — pins the inner (reflected) backend and keeps
//	                       rewriting rectangles at query time
//	adapters             — open an emio retention, then capture the
//	                       structure's immutable root handle
//
// The retention-before-capture order is load-bearing: once RetainFrees
// returns, no span the captured roots reference can be reclaimed until
// the view is released, and captures are performed by the caller while
// it still holds whatever lock serializes writers (a shard's mutex), so
// no free can slip between the two.
//
// Pinning is O(1): dyntop and foursided stand on a copy-on-write tree
// (internal/xtree), so dyntop.Snapshot and foursided.Snapshot keep the
// root and advance an epoch — zero simulated I/Os — and the first write
// after a pin copies the nodes of its path. An earlier design, which
// copied every UPDATE's root-to-leaf path, lost to cloning the node
// graph per pin; the epoch gate copies a node at most once per pin and
// never when no pin came since, so it costs no more than that clone.
// The emio retention supplies the epoch machinery for the spans either
// way.
package engine

import (
	"fmt"

	"repro/internal/emio"
	"repro/internal/geom"
)

// View is a pinned point-in-time RangeSkyline answerer. Answers are
// byte-identical to what the live backend would have answered at the
// pin point, regardless of writes applied since. Release unpins the
// view — idempotent, and required: an unreleased view holds retired
// storage spans (emio deferred frees) alive forever. Concurrent
// RangeSkyline calls on one View are safe when the underlying disks
// are guarded (emio.NewConcurrentDisk), because a view's state is
// immutable.
type View interface {
	RangeSkyline(q geom.Rect) []geom.Point
	Release()
}

// retainedView pairs a pinned answerer with the retention holding its
// spans alive. query is the shape-checked delegate.
type retainedView struct {
	query func(q geom.Rect) []geom.Point
	ret   *emio.Retention
}

func (v *retainedView) RangeSkyline(q geom.Rect) []geom.Point { return v.query(q) }
func (v *retainedView) Release()                              { v.ret.Release() }

// Snapshot pins the Theorem 4 tree: retention first, then the O(1)
// copy-on-write pin (zero simulated I/Os). The caller must hold
// whatever lock serializes writers on this tree across the call.
func (b *DynTopBackend) Snapshot() (View, error) {
	ret := b.disk.RetainFrees()
	h := b.tree.Snapshot()
	return &retainedView{
		query: func(q geom.Rect) []geom.Point {
			if !q.IsTopOpen() {
				panic("engine: dyntop snapshot requires a top-open rectangle")
			}
			return h.Query(q.X1, q.X2, q.Y1)
		},
		ret: ret,
	}, nil
}

// Snapshot pins the Theorem 6 structure, secondaries included (each
// internal node's dyntop is pinned through its own Snapshot).
func (b *FourSidedBackend) Snapshot() (View, error) {
	ret := b.disk.RetainFrees()
	h := b.ix.Snapshot()
	return &retainedView{
		query: func(q geom.Rect) []geom.Point { return h.Query(q) },
		ret:   ret,
	}, nil
}

// MirrorView serves queries whose reflection is top-open from a pinned
// view of the reflected point set — the frozen counterpart of
// MirrorBackend, same rewriting at query time.
type MirrorView struct {
	ref   geom.Reflection
	inner View
}

// Serves reports whether q reflects onto the top-open family, exactly
// like the live mirror's Serves.
func (m *MirrorView) Serves(q geom.Rect) bool { return m.ref.Rect(q).IsTopOpen() }

// RangeSkyline rewrites q into the mirrored frame, queries the pinned
// inner view, and maps the answer back into increasing-x order.
func (m *MirrorView) RangeSkyline(q geom.Rect) []geom.Point {
	return m.ref.SkylineToOriginal(m.inner.RangeSkyline(m.ref.Rect(q)))
}

// Release unpins the inner view.
func (m *MirrorView) Release() { m.inner.Release() }

// Snapshot pins the mirror: the inner (reflected) backend is pinned
// and the reflection keeps being applied per query.
func (m *MirrorBackend) Snapshot() (View, error) {
	v, err := m.pin()
	if err != nil {
		return nil, err
	}
	return v, nil
}

// pin is Snapshot with the concrete view type the planner routes on.
func (m *MirrorBackend) pin() (*MirrorView, error) {
	v, err := m.inner.Snapshot()
	if err != nil {
		return nil, err
	}
	return &MirrorView{ref: m.ref, inner: v}, nil
}

// Snapshot passes through: the cache memoizes live answers; snapshot
// answers are frozen by construction and must not share entries with
// the live index (a hit filled after the pin would serve a post-pin
// answer).
func (c *CacheBackend) Snapshot() (View, error) { return c.inner.Snapshot() }

// Snapshot passes through: reads are never logged, so a pinned view
// needs nothing from the WAL.
func (lb *LogBackend) Snapshot() (View, error) { return lb.inner.Snapshot() }

// Snapshot establishes the drain boundary: every buffer is flushed
// ONCE — the only drain a snapshot ever costs — and the fully-applied
// inner backend is pinned. Writers that enqueue after the flush land
// beyond the boundary and are invisible to the view, exactly the
// point-in-time contract.
//
// A degraded (frozen) queue still snapshots: the flush returns the
// sticky drain error without swapping anything, and the view pins the
// applied state — every batch that failed was abandoned whole, so the
// applied state is consistent and identical to what a reopen-replay of
// the WAL reconstructs. Stranded buffered writes were never
// acknowledged as drained and are invisible, exactly like writes
// enqueued after the boundary. This is the "reads and Snapshot keep
// serving" half of the degradation contract.
func (q *AsyncQueue) Snapshot() (View, error) {
	q.Flush() //errlint:ok degraded queues pin the applied state; error stays latched for writers
	return q.inner.Snapshot()
}

// PlanView is a frozen Planner: the same routing table (top-open
// family → top-open view, reflected shapes → mirror views, rest →
// general view) over pinned views instead of live backends.
type PlanView struct {
	topOpen View
	general View
	mirrors []*MirrorView
	views   []View // distinct views, for Release
}

// Snapshot pins every registered backend once — a backend registered
// for several roles (the sharded engine serves both families) is
// pinned a single time, so the roles answer from the SAME point in
// time — and freezes the routing table. The mirrors pin first, through
// the typed helper the routing table needs; on any failure the views
// already pinned are released. The returned View is a *PlanView; the
// interface return type is what lets the wrapping layers (queue, WAL,
// cache) pass Snapshot calls through to the planner uniformly.
func (pl *Planner) Snapshot() (View, error) {
	views := make(map[Backend]View, len(pl.backends))
	pv := &PlanView{}
	fail := func(err error) (View, error) {
		pv.Release()
		return nil, err
	}
	for _, m := range pl.mirrors {
		mv, err := m.pin()
		if err != nil {
			return fail(err)
		}
		views[m] = mv
		pv.mirrors = append(pv.mirrors, mv)
		pv.views = append(pv.views, mv)
	}
	for _, b := range pl.backends {
		if views[b] != nil {
			continue
		}
		v, err := b.Snapshot()
		if err != nil {
			return fail(err)
		}
		views[b] = v
		pv.views = append(pv.views, v)
	}
	pv.topOpen, pv.general = views[pl.topOpen], views[pl.general]
	return pv, nil
}

// Route returns the view that answers q, mirroring Planner.Route:
// top-open family to the top-open view, then the first mirror whose
// reflection grounds q's top edge, then the general view.
func (pv *PlanView) Route(q geom.Rect) View {
	if Classify(q).TopOpenFamily() && pv.topOpen != nil {
		return pv.topOpen
	}
	for _, m := range pv.mirrors {
		if m.Serves(q) {
			return m
		}
	}
	return pv.general
}

// RangeSkyline answers q through the routed view.
func (pv *PlanView) RangeSkyline(q geom.Rect) []geom.Point {
	v := pv.Route(q)
	if v == nil {
		panic(fmt.Sprintf("engine: no view pinned for %v (%v)", q, Classify(q)))
	}
	return v.RangeSkyline(q)
}

// Release unpins every view. Idempotent (each underlying retention
// release is).
func (pv *PlanView) Release() {
	for _, v := range pv.views {
		v.Release()
	}
}
