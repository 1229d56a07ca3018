package engine

import (
	"strings"
	"testing"

	"repro/internal/geom"
)

func TestClassify(t *testing.T) {
	ni, pi := geom.NegInf, geom.PosInf
	cases := []struct {
		r    geom.Rect
		want Shape
	}{
		{geom.TopOpen(1, 9, 3), TopOpenShape},
		{geom.RightOpen(1, 2, 8), RightOpenShape},
		{geom.BottomOpen(1, 9, 5), BottomOpenShape},
		{geom.LeftOpen(7, 2, 8), LeftOpenShape},
		{geom.Dominance(4, 4), DominanceShape},
		{geom.AntiDominance(4, 4), AntiDominanceShape},
		{geom.Contour(6), ContourShape},
		{geom.Rect{X1: 1, X2: 9, Y1: 2, Y2: 8}, FourSided},
		{geom.Rect{X1: ni, X2: pi, Y1: ni, Y2: pi}, WholePlane},
		// Unnamed grounded combinations fall back by top edge.
		{geom.Rect{X1: ni, X2: pi, Y1: 2, Y2: pi}, TopOpenShape},
		{geom.Rect{X1: ni, X2: pi, Y1: 2, Y2: 8}, FourSided},
		{geom.Rect{X1: ni, X2: 9, Y1: 2, Y2: pi}, TopOpenShape},
	}
	for _, c := range cases {
		if got := Classify(c.r); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.r, got, c.want)
		}
	}
}

func TestTopOpenFamilyMatchesIsTopOpen(t *testing.T) {
	ni, pi := geom.NegInf, geom.PosInf
	rects := []geom.Rect{
		geom.TopOpen(1, 9, 3), geom.RightOpen(1, 2, 8), geom.BottomOpen(1, 9, 5),
		geom.LeftOpen(7, 2, 8), geom.Dominance(4, 4), geom.AntiDominance(4, 4),
		geom.Contour(6), {X1: 1, X2: 9, Y1: 2, Y2: 8}, {X1: ni, X2: pi, Y1: ni, Y2: pi},
	}
	for _, r := range rects {
		if got := Classify(r).TopOpenFamily(); got != r.IsTopOpen() {
			t.Errorf("%v: TopOpenFamily() = %t, IsTopOpen() = %t", r, got, r.IsTopOpen())
		}
	}
}

// fakeBackend records calls; presence is driven by the pts set.
type fakeBackend struct {
	StubBackend
	name    string
	pts     map[geom.Point]bool
	inserts []geom.Point
	deletes []geom.Point
	batches int
}

func newFake(name string, pts ...geom.Point) *fakeBackend {
	f := &fakeBackend{name: name, pts: map[geom.Point]bool{}}
	f.WriteVerbs = VerbsOf(f.Apply)
	for _, p := range pts {
		f.pts[p] = true
	}
	return f
}

func (f *fakeBackend) Apply(dels, inss []geom.Point) ([]geom.Point, error) {
	f.batches++
	var removed []geom.Point
	for _, p := range dels {
		if f.pts[p] {
			delete(f.pts, p)
			f.deletes = append(f.deletes, p)
			removed = append(removed, p)
		}
	}
	for _, p := range inss {
		f.inserts = append(f.inserts, p)
		f.pts[p] = true
	}
	return removed, nil
}

func TestRoute(t *testing.T) {
	top, gen := newFake("top"), newFake("gen")
	var pl Planner
	pl.RegisterTopOpen(top)
	pl.RegisterGeneral(gen)
	if b := pl.Route(geom.TopOpen(1, 9, 3)); b != Backend(top) {
		t.Fatalf("top-open routed to %v", b)
	}
	if b := pl.Route(geom.Dominance(4, 4)); b != Backend(top) {
		t.Fatalf("dominance routed to %v", b)
	}
	if b := pl.Route(geom.LeftOpen(7, 2, 8)); b != Backend(gen) {
		t.Fatalf("left-open routed to %v", b)
	}
	if b := pl.Route(geom.Rect{X1: 1, X2: 9, Y1: 2, Y2: 8}); b != Backend(gen) {
		t.Fatalf("4-sided routed to %v", b)
	}

	// With only a general backend, everything routes there.
	var solo Planner
	solo.RegisterGeneral(gen)
	if b := solo.Route(geom.TopOpen(1, 9, 3)); b != Backend(gen) {
		t.Fatalf("solo top-open routed to %v", b)
	}
	if got := len(solo.Backends()); got != 1 {
		t.Fatalf("solo backends = %d, want 1", got)
	}
}

func TestRegisterSameBackendOnce(t *testing.T) {
	b := newFake("both", geom.Point{X: 1, Y: 1})
	var pl Planner
	pl.RegisterTopOpen(b)
	pl.RegisterGeneral(b)
	if got := len(pl.Backends()); got != 1 {
		t.Fatalf("backends = %d, want 1 (same backend registered twice)", got)
	}
	// A delete must only reach the backend once.
	if ok, err := pl.Delete(geom.Point{X: 1, Y: 1}); !ok || err != nil {
		t.Fatalf("Delete = %t, %v", ok, err)
	}
}

func TestDeletePresenceCheckFirst(t *testing.T) {
	p := geom.Point{X: 5, Y: 5}
	primary := newFake("primary") // does NOT hold p
	secondary := newFake("secondary", p)
	var pl Planner
	pl.RegisterTopOpen(primary)
	pl.RegisterGeneral(secondary)

	ok, err := pl.Delete(p)
	if ok || err != nil {
		t.Fatalf("Delete = %t, %v; want miss without error", ok, err)
	}
	// The miss must not have mutated the secondary backend.
	if !secondary.pts[p] {
		t.Fatalf("secondary backend mutated on a primary miss")
	}
	if len(secondary.deletes) != 0 {
		t.Fatalf("secondary saw %d deletes, want 0", len(secondary.deletes))
	}
}

func TestDeleteDisagreementReported(t *testing.T) {
	p := geom.Point{X: 5, Y: 5}
	primary := newFake("primary", p)
	secondary := newFake("secondary") // corrupted: lost p
	var pl Planner
	pl.RegisterTopOpen(primary)
	pl.RegisterGeneral(secondary)
	ok, err := pl.Delete(p)
	if err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("Delete err = %v, want disagreement", err)
	}
	// The primary did remove the point; the bool must say so even
	// alongside the error, so callers keep size accounting consistent.
	if !ok {
		t.Fatal("Delete reported false although the primary removed the point")
	}
}

func TestBatchFanOut(t *testing.T) {
	a, b := newFake("a"), newFake("b")
	var pl Planner
	pl.RegisterTopOpen(a)
	pl.RegisterGeneral(b)
	pts := []geom.Point{{X: 1, Y: 4}, {X: 2, Y: 3}, {X: 3, Y: 9}}
	if err := pl.BatchInsert(pts); err != nil {
		t.Fatal(err)
	}
	if a.batches != 1 || b.batches != 1 {
		t.Fatalf("batches a=%d b=%d, want 1 each", a.batches, b.batches)
	}
	removed, err := pl.Apply(append(pts, geom.Point{X: 9, Y: 9}), nil)
	if err != nil || len(removed) != len(pts) {
		t.Fatalf("Apply(deletes) = %v, %v; want %v", removed, err, pts)
	}
	if len(a.pts) != 0 || len(b.pts) != 0 {
		t.Fatalf("points left after batch delete: a=%d b=%d", len(a.pts), len(b.pts))
	}
}

func TestBatchDeleteDisagreementReported(t *testing.T) {
	p := geom.Point{X: 5, Y: 5}
	a := newFake("a", p)
	b := newFake("b")
	var pl Planner
	pl.RegisterTopOpen(a)
	pl.RegisterGeneral(b)
	removed, err := pl.Apply([]geom.Point{p}, nil)
	if err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("Apply err = %v, want disagreement", err)
	}
	// The primary's removed subset survives the error.
	if len(removed) != 1 {
		t.Fatalf("Apply removed = %v, want [%v] alongside the error", removed, p)
	}
}
