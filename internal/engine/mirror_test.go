package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dyntop"
	"repro/internal/emio"
	"repro/internal/foursided"
	"repro/internal/geom"
)

var mirrorCfg = emio.Config{B: 32, M: 32 * 32}

// buildMirror returns a transpose mirror over pts: a dyntop tree on its
// own disk, indexing the reflected point set.
func buildMirror(t *testing.T, pts []geom.Point) (*MirrorBackend, *emio.Disk) {
	t.Helper()
	ref := geom.ReflectSwapXY
	mpts := ref.Pts(pts)
	geom.SortByX(mpts)
	d := emio.NewDisk(mirrorCfg)
	m, err := NewMirror(ref, NewDynTop(dyntop.BuildSABE(d, 0.5, mpts), d))
	if err != nil {
		t.Fatal(err)
	}
	return m, d
}

// TestNewMirrorRejectsUnsoundReflections pins the dominance gate: the
// reflections that would serve bottom-open / left-open / anti-dominance
// rectangles are exactly the ones that compute the wrong staircase, and
// NewMirror refuses to build them (Theorem 5 says any correct structure
// for those shapes pays Ω((n/B)^ε) at linear space).
func TestNewMirrorRejectsUnsoundReflections(t *testing.T) {
	d := emio.NewDisk(mirrorCfg)
	inner := NewDynTop(dyntop.BuildSABE(d, 0.5, nil), d)
	for _, ref := range []geom.Reflection{geom.ReflectNegY, geom.ReflectAntiTranspose} {
		if _, err := NewMirror(ref, inner); err == nil {
			t.Fatalf("NewMirror(%v) should refuse a dominance-breaking reflection", ref)
		}
	}
	if _, err := NewMirror(geom.ReflectSwapXY, inner); err != nil {
		t.Fatalf("NewMirror(swap-xy): %v", err)
	}
}

// TestMirrorAnswersGroundedRightFamily cross-checks the mirror against
// the oracle and a Theorem 6 structure on every grounded-right-edge
// rectangle shape, including after updates flow through both.
func TestMirrorAnswersGroundedRightFamily(t *testing.T) {
	const n = 250
	span := geom.Coord(n * 16)
	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			all := geom.GenUniform(n+80, span, seed+2100)
			pts := append([]geom.Point(nil), all[:n]...)
			pool := all[n:]
			geom.SortByX(pts)
			m, _ := buildMirror(t, pts)
			four := foursided.Build(emio.NewDisk(mirrorCfg), 0.5, pts)
			ref := append([]geom.Point(nil), pts...)

			rng := rand.New(rand.NewSource(seed))
			check := func(q geom.Rect, ctx string) {
				t.Helper()
				if !m.Serves(q) {
					t.Fatalf("%s: mirror should serve %v", ctx, q)
				}
				got := m.RangeSkyline(q)
				want := four.Query(q)
				oracle := geom.RangeSkyline(ref, q)
				if len(got) != len(want) || len(got) != len(oracle) {
					t.Fatalf("%s %v: mirror %v, foursided %v, oracle %v", ctx, q, got, want, oracle)
				}
				for i := range got {
					if got[i] != want[i] || got[i] != oracle[i] {
						t.Fatalf("%s %v: point %d mirror %v, foursided %v, oracle %v",
							ctx, q, i, got[i], want[i], oracle[i])
					}
				}
			}
			queries := func(round int) {
				for i := 0; i < 30; i++ {
					x := rng.Int63n(span)
					y1 := rng.Int63n(span)
					y2 := y1 + rng.Int63n(span/2+1)
					ctx := fmt.Sprintf("round=%d i=%d", round, i)
					check(geom.RightOpen(x, y1, y2), ctx+" right-open")
					// Right+bottom grounded quadrant [x,∞) × (-∞,y2].
					check(geom.Rect{X1: x, X2: geom.PosInf, Y1: geom.NegInf, Y2: y2}, ctx+" lower-right")
					// Horizontal band (-∞,∞) × [y1,y2].
					check(geom.Rect{X1: geom.NegInf, X2: geom.PosInf, Y1: y1, Y2: y2}, ctx+" band")
					// Horizontal contour (-∞,∞) × (-∞,y2].
					check(geom.Rect{X1: geom.NegInf, X2: geom.PosInf, Y1: geom.NegInf, Y2: y2}, ctx+" h-contour")
				}
			}
			queries(0)
			// Updates: single-point and batched, fanned to mirror and
			// Theorem 6 structure alike.
			half := len(pool) / 2
			for _, p := range pool[:half] {
				if err := m.Insert(p); err != nil {
					t.Fatal(err)
				}
				four.Insert(p)
				ref = append(ref, p)
			}
			queries(1)
			if err := m.BatchInsert(pool[half:]); err != nil {
				t.Fatal(err)
			}
			for _, p := range pool[half:] {
				four.Insert(p)
			}
			ref = append(ref, pool[half:]...)
			queries(2)
			var victims []geom.Point
			for i := 0; i < len(pool); i += 2 {
				victims = append(victims, pool[i])
			}
			if removed, err := m.Apply(victims, nil); err != nil || len(removed) != len(victims) {
				t.Fatalf("Apply(deletes) = %d, %v; want %d", len(removed), err, len(victims))
			}
			for _, p := range victims {
				if !four.Delete(p) {
					t.Fatalf("foursided lost %v", p)
				}
			}
			alive := ref[:0]
			dead := make(map[geom.Point]bool, len(victims))
			for _, p := range victims {
				dead[p] = true
			}
			for _, p := range ref {
				if !dead[p] {
					alive = append(alive, p)
				}
			}
			ref = alive
			queries(3)
		})
	}
}

// TestPlannerMirrorRouting pins the routing table: for every Figure-2
// shape, the planner serves it from the asymptotically best backend —
// top-open family native, grounded-right family via the mirror,
// everything else via the general (Theorem 6) backend.
func TestPlannerMirrorRouting(t *testing.T) {
	pts := geom.GenUniform(100, 100*16, 9)
	geom.SortByX(pts)
	d := emio.NewDisk(mirrorCfg)
	top := NewDynTop(dyntop.BuildSABE(d, 0.5, pts), d)
	four := NewFourSided(foursided.Build(d, 0.5, pts), d)
	m, _ := buildMirror(t, pts)

	var pl Planner
	pl.RegisterTopOpen(top)
	pl.RegisterMirror(m)
	pl.RegisterGeneral(four)

	ni, pi := geom.NegInf, geom.PosInf
	cases := []struct {
		name string
		q    geom.Rect
		want Backend
	}{
		{"top-open", geom.TopOpen(1, 9, 3), top},
		{"dominance", geom.Dominance(4, 4), top},
		{"contour", geom.Contour(6), top},
		{"whole-plane", geom.Rect{X1: ni, X2: pi, Y1: ni, Y2: pi}, top},
		{"right-open", geom.RightOpen(1, 2, 8), m},
		{"lower-right quadrant", geom.Rect{X1: 1, X2: pi, Y1: ni, Y2: 8}, m},
		{"horizontal band", geom.Rect{X1: ni, X2: pi, Y1: 2, Y2: 8}, m},
		{"horizontal contour", geom.Rect{X1: ni, X2: pi, Y1: ni, Y2: 8}, m},
		{"4-sided", geom.Rect{X1: 1, X2: 9, Y1: 2, Y2: 8}, four},
		{"bottom-open", geom.BottomOpen(1, 9, 5), four},
		{"left-open", geom.LeftOpen(7, 2, 8), four},
		{"anti-dominance", geom.AntiDominance(4, 4), four},
	}
	for _, c := range cases {
		if got := pl.Route(c.q); got != c.want {
			t.Errorf("%s %v routed to %T, want %T", c.name, c.q, got, c.want)
		}
	}
	if len(pl.Mirrors()) != 1 || pl.Mirrors()[0] != m {
		t.Fatalf("Mirrors() = %v, want [m]", pl.Mirrors())
	}
}

// TestMirrorBatchDeleteAgreement drives the multi-backend batched
// delete path: duplicates and absentees in the batch must yield
// agreeing removal counts across backends (no corruption error), with
// the engine staying byte-identical afterwards.
func TestMirrorBatchDeleteAgreement(t *testing.T) {
	pts := geom.GenUniform(300, 300*16, 13)
	geom.SortByX(pts)
	d := emio.NewDisk(mirrorCfg)
	top := NewDynTop(dyntop.BuildSABE(d, 0.5, pts), d)
	four := NewFourSided(foursided.Build(d, 0.5, pts), d)
	m, _ := buildMirror(t, pts)
	var pl Planner
	pl.RegisterTopOpen(top)
	pl.RegisterMirror(m)
	pl.RegisterGeneral(four)

	rng := rand.New(rand.NewSource(17))
	perm := rng.Perm(len(pts))[:100]
	sort.Ints(perm)
	var batch []geom.Point
	for _, i := range perm {
		batch = append(batch, pts[i])
	}
	batch = append(batch, batch[0])                           // duplicate: second is a miss
	batch = append(batch, geom.Point{X: 1 << 40, Y: 1 << 40}) // absentee
	removed, err := pl.Apply(batch, nil)
	if err != nil || len(removed) != len(perm) {
		t.Fatalf("Apply(deletes) = %d, %v; want %d, nil", len(removed), err, len(perm))
	}
	ref := pts[:0:0]
	del := make(map[geom.Point]bool)
	for _, p := range batch {
		del[p] = true
	}
	for _, p := range pts {
		if !del[p] {
			ref = append(ref, p)
		}
	}
	for i := 0; i < 40; i++ {
		x := rng.Int63n(300 * 16)
		y1 := rng.Int63n(300 * 16)
		q := geom.RightOpen(x, y1, y1+rng.Int63n(2000))
		got := pl.RangeSkyline(q)
		want := geom.RangeSkyline(ref, q)
		if len(got) != len(want) {
			t.Fatalf("q=%v: got %v, want %v", q, got, want)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("q=%v: point %d = %v, want %v", q, j, got[j], want[j])
			}
		}
	}
}
