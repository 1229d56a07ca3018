package main

import (
	"testing"

	"repro/internal/geom"
)

// testSizes are big enough for the answer-size statistics to settle and
// small enough for the oracle to run over every sampled query.
func testWorkload(t *testing.T, name string, seed int64) *workload {
	t.Helper()
	s := specByName(name)
	if s == nil {
		t.Fatalf("no workload %q", name)
	}
	return generate(s, seed, fullN0, 4000)
}

func TestSameSeedSameStream(t *testing.T) {
	for _, s := range specs {
		a, b := testWorkload(t, s.name, 7), testWorkload(t, s.name, 7)
		if a.hash() != b.hash() {
			t.Errorf("%s: seed 7 generated two different op streams", s.name)
		}
		if c := testWorkload(t, s.name, 8); c.hash() == a.hash() {
			t.Errorf("%s: seeds 7 and 8 generated the same op stream", s.name)
		}
	}
}

// TestGeneralPosition pins the two generator rules the server panics
// on: distinct x and distinct y over preload + everything inserted, and
// no point inserted again after its delete.
func TestGeneralPosition(t *testing.T) {
	for _, s := range specs {
		w := testWorkload(t, s.name, 3)
		all := append([]geom.Point(nil), w.preload...)
		all = append(all, w.spare...)
		live := make(map[geom.Point]bool)
		for _, p := range w.preload {
			live[p] = true
		}
		deleted := make(map[geom.Point]bool)
		for _, stream := range w.streams {
			for _, o := range stream {
				switch o.kind {
				case opInsert:
					if deleted[o.pt] {
						t.Fatalf("%s: %v reinserted after its delete", s.name, o.pt)
					}
					all = append(all, o.pt)
					live[o.pt] = true
				case opDelete:
					if !live[o.pt] {
						t.Fatalf("%s: delete of %v, which is not live", s.name, o.pt)
					}
					delete(live, o.pt)
					deleted[o.pt] = true
				}
			}
		}
		if !geom.IsGeneralPosition(all) {
			t.Errorf("%s: preload + insert pool share an x or a y", s.name)
		}
		if len(live) != len(w.final) {
			t.Errorf("%s: model has %d points, replaying the streams leaves %d", s.name, len(w.final), len(live))
		}
		for _, p := range w.final {
			if !live[p] {
				t.Fatalf("%s: model holds %v, which the streams do not leave live", s.name, p)
			}
		}
	}
}

// TestAnswerSizes pins what makes the two read workloads different:
// thin answers are a handful of points, fat answers about a hundred.
func TestAnswerSizes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		lo, hi float64
	}{{"thin_reads", 1, 12}, {"fat_reads", 50, 200}} {
		w := testWorkload(t, tc.name, 11)
		var total, n float64
		for i, o := range w.streams[0] {
			if o.kind != opRead || i%10 != 0 {
				continue
			}
			k := len(geom.RangeSkyline(w.preload, o.rect))
			if tc.name == "thin_reads" && k == 0 {
				t.Errorf("thin_reads: empty answer for %v; anchors must come from live points", o.rect)
			}
			total += float64(k)
			n++
		}
		if mean := total / n; mean < tc.lo || mean > tc.hi {
			t.Errorf("%s: mean oracle answer size %.1f over %v queries, want within [%v, %v]",
				tc.name, mean, n, tc.lo, tc.hi)
		}
	}
}

// TestOpCountsDivide: runPhase gives every client the same number of
// ops in every segment, so an op count must be a multiple of
// segments × clients or the tail of each stream would never be sent.
func TestOpCountsDivide(t *testing.T) {
	for _, s := range specs {
		if s.ops%(fullSegments*s.clients) != 0 {
			t.Errorf("%s: %d ops do not divide into %d segments for %d clients", s.name, s.ops, fullSegments, s.clients)
		}
		if quickOps%(quickSegments*s.clients) != 0 {
			t.Errorf("%s: %d quick ops do not divide into %d segments for %d clients", s.name, quickOps, quickSegments, s.clients)
		}
	}
}
