package engine

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/dyntop"
	"repro/internal/emio"
	"repro/internal/foursided"
	"repro/internal/geom"
)

// buildSnapPlanner assembles a full routing table from the adapters,
// over one shared primary disk — dyntop for the top-open family,
// foursided for the rest, a transpose mirror on its own disk. It
// returns the two disks too.
func buildSnapPlanner(t *testing.T, pts []geom.Point) (*Planner, []*emio.Disk) {
	t.Helper()
	d := emio.NewDisk(mirrorCfg)
	pl := &Planner{}
	pl.RegisterTopOpen(NewDynTop(dyntop.BuildSABE(d, 0.5, pts), d))
	pl.RegisterGeneral(NewFourSided(foursided.Build(d, 0.5, pts), d))
	m, md := buildMirror(t, pts)
	pl.RegisterMirror(m)
	return pl, []*emio.Disk{d, md}
}

// retention sums the open retentions and deferred blocks of disks.
func retention(disks []*emio.Disk) (retained, deferred int) {
	for _, d := range disks {
		retained += d.Retained()
		deferred += d.DeferredBlocks()
	}
	return retained, deferred
}

// snapShapes is one query per Figure-2 shape over the given span, so a
// pinned view exercises every routing arm.
func snapShapes(span geom.Coord) []geom.Rect {
	mid, q3 := span/2, 3*span/4
	return []geom.Rect{
		geom.TopOpen(span/4, q3, span/8),
		geom.Rect{X1: span / 4, X2: q3, Y1: span / 8, Y2: q3},
		geom.LeftOpen(mid, span/8, q3),
		geom.RightOpen(mid, span/8, q3),
		geom.BottomOpen(span/4, q3, mid),
		geom.Dominance(mid, mid),
		geom.AntiDominance(mid, mid),
	}
}

// TestSnapshotStackFrozen pins a view through the whole wrapped stack —
// AsyncQueue over LogBackend over CacheBackend over the Planner — and
// asserts the view's answers for every shape stay byte-identical to the
// oracle frozen at the pin while later writes flow, drain and change the
// live answers. Release must return every retention and deferred block.
func TestSnapshotStackFrozen(t *testing.T) {
	const n = 220
	span := geom.Coord(n * 16)
	all := geom.GenUniform(n+120, span, 4400)
	pts := append([]geom.Point(nil), all[:n]...)
	pool := all[n:]
	geom.SortByX(pts)

	pl, disks := buildSnapPlanner(t, pts)
	cache, err := NewCache(pl, 64)
	if err != nil {
		t.Fatal(err)
	}
	lb := NewLogBackend(cache, &memLog{}, pts)
	q, err := NewAsyncQueue(lb, QueueOptions{FlushPoints: 1 << 20, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}

	ref := append([]geom.Point(nil), pts...)
	// Buffered writes the pin's flush must make visible.
	for _, p := range pool[:20] {
		if err := q.Insert(p); err != nil {
			t.Fatal(err)
		}
		ref = append(ref, p)
	}

	view, err := q.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	frozen := append([]geom.Point(nil), ref...)
	if got, _ := retention(disks); got == 0 {
		t.Fatal("Retained() = 0 with a pinned view open")
	}

	check := func(stage string) {
		t.Helper()
		for _, r := range snapShapes(span) {
			got, want := view.RangeSkyline(r), geom.RangeSkyline(frozen, r)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: view %v = %v, frozen oracle %v", stage, r, got, want)
			}
		}
	}
	check("at pin")

	// Mutate through the queue: inserts, deletes of pinned points, and a
	// flush so the drains retire spans the view still references.
	for _, p := range pool[20:] {
		if err := q.Insert(p); err != nil {
			t.Fatal(err)
		}
		ref = append(ref, p)
	}
	for _, victim := range frozen[:40] {
		if _, err := q.Delete(victim); err != nil {
			t.Fatal(err)
		}
		ref = diffPoints(ref, victim)
	}
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	check("after writes drained")

	// The live index moved on; the view did not.
	liveQ := geom.TopOpen(0, span, 0)
	if fmt.Sprint(q.RangeSkyline(liveQ)) != fmt.Sprint(geom.RangeSkyline(ref, liveQ)) {
		t.Fatal("live answer diverged from the live oracle")
	}
	if fmt.Sprint(view.RangeSkyline(liveQ)) != fmt.Sprint(geom.RangeSkyline(frozen, liveQ)) {
		t.Fatal("pinned answer moved with the live index")
	}
	if _, deferred := retention(disks); deferred == 0 {
		t.Fatal("deletes of pinned points retired no blocks — the retention is not holding anything")
	}

	view.Release()
	view.Release() // idempotent
	retained, deferred := retention(disks)
	if retained != 0 {
		t.Fatalf("Retained() = %d after release", retained)
	}
	if deferred != 0 {
		t.Fatalf("DeferredBlocks() = %d after release — retired spans leaked", deferred)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
}

// diffPoints removes one point from a slice (order not preserved).
func diffPoints(pts []geom.Point, victim geom.Point) []geom.Point {
	for i, p := range pts {
		if p == victim {
			pts[i] = pts[len(pts)-1]
			return pts[:len(pts)-1]
		}
	}
	return pts
}

// TestPlanViewRouting freezes a full routing table and asserts the
// PlanView routes each shape the same way the live planner does:
// top-open family to the pinned top-open view, grounded-right-edge
// rectangles to the pinned mirror, the rest to the pinned general view.
func TestPlanViewRouting(t *testing.T) {
	const n = 150
	span := geom.Coord(n * 16)
	pts := geom.GenUniform(n, span, 4600)
	geom.SortByX(pts)
	pl, _ := buildSnapPlanner(t, pts)

	view, err := pl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer view.Release()
	pv := view.(*PlanView)

	for _, tc := range []struct {
		q    geom.Rect
		want string
	}{
		{geom.TopOpen(0, span, span/2), "topopen"},
		{geom.Dominance(span/2, span/2), "topopen"},
		{geom.RightOpen(span/2, span/8, span/2), "mirror"},
		{geom.Rect{X1: span / 4, X2: span / 2, Y1: span / 8, Y2: span / 2}, "mirror"},
		{geom.LeftOpen(span/2, span/8, span/2), "general"},
		{geom.BottomOpen(0, span, span/2), "general"},
		{geom.AntiDominance(span/2, span/2), "general"},
	} {
		routed := pv.Route(tc.q)
		var got string
		switch {
		case routed == pv.topOpen:
			got = "topopen"
		case routed == pv.general:
			got = "general"
		default:
			got = "mirror"
		}
		want := tc.want
		if tc.want == "mirror" {
			// A bounded 4-sided rectangle only routes to the mirror when
			// its reflection is top-open; mirror routing must agree with
			// the live planner either way.
			if _, isMirror := pl.Route(tc.q).(*MirrorBackend); !isMirror {
				want = "general"
			}
		}
		if got != want {
			t.Fatalf("Route(%v) = %s, want %s", tc.q, got, want)
		}
		lgot, lwant := fmt.Sprint(pv.RangeSkyline(tc.q)), fmt.Sprint(geom.RangeSkyline(pts, tc.q))
		if lgot != lwant {
			t.Fatalf("PlanView %v = %s, oracle %s", tc.q, lgot, lwant)
		}
	}
}

// TestSnapshotPinFailure pins the error path of every wrapping layer: a
// backend whose Snapshot fails propagates that error up through mirror,
// planner, cache, log and queue, and a mid-pin failure releases the
// views already taken.
func TestSnapshotPinFailure(t *testing.T) {
	errPin := errors.New("pin refused")
	fake := newFake("refuses", geom.Point{X: 1, Y: 1})
	fake.SnapErr = errPin

	pl := &Planner{}
	pl.RegisterGeneral(fake)
	cache, err := NewCache(fake, 8)
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := NewMirror(geom.ReflectSwapXY, fake)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewAsyncQueue(fake, QueueOptions{FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	for name, b := range map[string]Backend{
		"mirror": mirror, "planner": pl, "cache": cache,
		"log": NewLogBackend(fake, &memLog{}, nil), "queue": q,
	} {
		if v, err := b.Snapshot(); v != nil || !errors.Is(err, errPin) {
			t.Fatalf("%s.Snapshot = %v, %v; want nil, %v", name, v, err, errPin)
		}
	}

	// Mid-pin failure: the mirror and the top-open structure pin before
	// the failing general backend, and must be released again.
	pts := geom.GenUniform(50, 800, 4700)
	geom.SortByX(pts)
	d := emio.NewDisk(mirrorCfg)
	m, md := buildMirror(t, pts)
	mixed := &Planner{}
	mixed.RegisterTopOpen(NewDynTop(dyntop.BuildSABE(d, 0.5, pts), d))
	mixed.RegisterMirror(m)
	mixed.RegisterGeneral(fake)
	if _, err := mixed.Snapshot(); !errors.Is(err, errPin) {
		t.Fatalf("mixed planner Snapshot = %v, want %v", err, errPin)
	}
	if got, _ := retention([]*emio.Disk{d, md}); got != 0 {
		t.Fatalf("Retained() = %d after failed pin — partial views leaked", got)
	}
}
