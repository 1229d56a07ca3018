// MirrorBackend: the reflected fast path. It wraps a top-open-family
// backend built over a reflected copy of the point set and serves every
// rectangle whose reflection has a grounded top edge, rewriting the
// query into the mirrored frame and mapping the answer back into
// increasing-x order. With the transpose reflection this turns the
// whole grounded-right-edge family — right-open (Figure 2b) and the
// unnamed right-grounded rectangles — from Theorem 6's Ω((n/B)^ε) into
// the Theorem 1/4 O(log) bounds, at the cost of one extra top-open
// structure's space.
//
// Only dominance-preserving reflections are accepted: a reflection that
// changes the dominance order would make the mirrored structure report
// a different staircase than the range skyline (see
// geom.Reflection.PreservesDominance and TestReflectionFallacy). That
// gate is what keeps bottom-open, left-open and anti-dominance queries
// on the Theorem 6 backend, where Theorem 5 proves they must stay at
// linear space.
package engine

import (
	"fmt"

	"repro/internal/geom"
)

// MirrorBackend serves queries whose reflection is top-open from a
// backend indexing the reflected point set. It implements Backend; the
// inner backend sees only mirrored points and mirrored rectangles.
type MirrorBackend struct {
	WriteVerbs
	ref   geom.Reflection
	inner Backend
}

// NewMirror wraps inner — a backend over the ref-reflected point set —
// as a fast path for rectangles whose reflection is top-open. It
// rejects reflections that do not preserve dominance, because their
// mirrored answers are not range skylines of the original frame.
func NewMirror(ref geom.Reflection, inner Backend) (*MirrorBackend, error) {
	if !ref.PreservesDominance() {
		return nil, fmt.Errorf("engine: reflection %v does not preserve dominance; "+
			"a mirrored structure would answer the wrong staircase (Theorem 5)", ref)
	}
	m := &MirrorBackend{ref: ref, inner: inner}
	m.WriteVerbs = VerbsOf(m.Apply)
	return m, nil
}

// Serves reports whether q reflects onto the top-open family, i.e.
// whether this mirror can answer it in the top-open bounds. For the
// transpose mirror this is exactly the grounded-right-edge family
// (q.X2 == +∞ with a bounded top edge once the planner has peeled off
// the native top-open family).
func (m *MirrorBackend) Serves(q geom.Rect) bool {
	return m.ref.Rect(q).IsTopOpen()
}

// RangeSkyline rewrites q into the mirrored frame, queries the inner
// top-open structure, and maps the answer back into increasing-x order.
// Because the reflection preserves dominance, the result is
// byte-identical to what a Theorem 6 structure reports for q.
func (m *MirrorBackend) RangeSkyline(q geom.Rect) []geom.Point {
	return m.ref.SkylineToOriginal(m.inner.RangeSkyline(m.ref.Rect(q)))
}

// Apply reflects the batch and applies it through the inner backend
// (the sharded mirror takes each mirrored-shard lock once per batch,
// exactly like the primary engine), mapping the removed subset back into
// the original frame.
func (m *MirrorBackend) Apply(dels, inss []geom.Point) ([]geom.Point, error) {
	removed, err := m.inner.Apply(m.ref.Pts(dels), m.ref.Pts(inss))
	return m.ref.Inverse().Pts(removed), err
}

// Partition reports no x-cuts: the inner engine partitions the mirrored
// frame, whose x-axis is not the original x.
func (m *MirrorBackend) Partition() (xcuts []geom.Coord) { return nil }
