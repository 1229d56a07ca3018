package repro

import (
	"reflect"
	"testing"
)

func TestPublicAPISmoke(t *testing.T) {
	pts := []Point{
		{X: 1, Y: 9}, {X: 2, Y: 4}, {X: 3, Y: 7}, {X: 5, Y: 6},
		{X: 6, Y: 2}, {X: 7, Y: 5}, {X: 8, Y: 1}, {X: 9, Y: 3},
	}
	db, err := Open(Options{}, pts)
	if err != nil {
		t.Fatal(err)
	}
	got := db.TopOpen(2, 8, 2)
	want := RangeSkyline(pts, TopOpen(2, 8, 2))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopOpen = %v, want %v", got, want)
	}
	db.DropCache()
	db.ResetStats()
	db.TopOpen(2, 8, 2)
	if db.Stats().IOs() == 0 {
		t.Error("cold-cache query charged no I/Os")
	}
	if got := db.RangeSkyline(Rect{X1: 2, X2: 8, Y1: 2, Y2: 6}); !reflect.DeepEqual(got, RangeSkyline(pts, Rect{X1: 2, X2: 8, Y1: 2, Y2: 6})) {
		t.Fatalf("4-sided = %v", got)
	}
}

// TestPublicFigure2Parity checks that all seven Figure-2 shapes are
// reachable both as rectangle constructors and as named DB methods, on
// one-shard and three-shard dynamic indexes, and that the batched update
// path is part of the public surface.
func TestPublicFigure2Parity(t *testing.T) {
	pts := []Point{
		{X: 1, Y: 9}, {X: 2, Y: 4}, {X: 3, Y: 7}, {X: 5, Y: 6},
		{X: 6, Y: 2}, {X: 7, Y: 5}, {X: 8, Y: 1}, {X: 9, Y: 3},
	}
	for _, opts := range []Options{
		{Dynamic: true},
		{Dynamic: true, Shards: 3, Workers: 2},
	} {
		db, err := Open(opts, pts)
		if err != nil {
			t.Fatal(err)
		}
		checks := []struct {
			name string
			got  []Point
			r    Rect
		}{
			{"TopOpen", db.TopOpen(2, 8, 2), TopOpen(2, 8, 2)},
			{"RightOpen", db.RightOpen(3, 2, 8), RightOpen(3, 2, 8)},
			{"BottomOpen", db.BottomOpen(2, 8, 6), BottomOpen(2, 8, 6)},
			{"LeftOpen", db.LeftOpen(7, 2, 8), LeftOpen(7, 2, 8)},
			{"Dominance", db.Dominance(4, 3), Dominance(4, 3)},
			{"AntiDominance", db.AntiDominance(6, 7), AntiDominance(6, 7)},
			{"Contour", db.Contour(6), Contour(6)},
		}
		for _, c := range checks {
			want := RangeSkyline(pts, c.r)
			if len(c.got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(c.got, want)) {
				t.Fatalf("opts=%+v %s = %v, want %v", opts, c.name, c.got, want)
			}
		}
		extra := []Point{{X: 11, Y: 11}, {X: 12, Y: 10}}
		if err := db.BatchInsert(extra); err != nil {
			t.Fatal(err)
		}
		if got := db.Dominance(10, 9); len(got) != 2 {
			t.Fatalf("post-batch Dominance = %v", got)
		}
		if removed, err := db.BatchDelete(extra); err != nil || removed != 2 {
			t.Fatalf("BatchDelete = %d, %v", removed, err)
		}
		if db.Len() != len(pts) {
			t.Fatalf("Len = %d, want %d", db.Len(), len(pts))
		}
	}
}

func TestPublicPQA(t *testing.T) {
	q := NewPQA()
	for _, k := range []int64{5, 3, 8, 2} {
		q.InsertAndAttrite(PQAElem{Key: k})
	}
	if e, ok := q.FindMin(); !ok || e.Key != 2 {
		t.Fatalf("FindMin = %v,%t", e, ok)
	}
	if q.Len() != 1 { // 2 attrited everything
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestPublicCPQA(t *testing.T) {
	q, _ := NewCPQA(MachineConfig{B: 16, M: 1 << 16}, 4)
	for i := int64(0); i < 100; i++ {
		q = q.InsertAndAttrite(PQAElem{Key: i})
	}
	q2, _ := NewCPQA(MachineConfig{B: 16, M: 1 << 16}, 4)
	_ = q2
	e, q3, ok := q.DeleteMin()
	if !ok || e.Key != 0 || q3.Len() != 99 {
		t.Fatalf("DeleteMin = %v,%t len=%d", e, ok, q3.Len())
	}
}
