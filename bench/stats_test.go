package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct{ p, want float64 }{
		{50, 50}, {51, 60}, {90, 90}, {99, 100}, {100, 100}, {1, 10}, {10, 10}, {10.1, 20},
	} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd count = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
}

// TestSpeedCorrection: a segment measured while the kernel ran twice as
// slow as the reference reports half its raw times, and twice its raw
// rate; percentiles are corrected per segment before the median.
func TestSpeedCorrection(t *testing.T) {
	if got := correction(2*calRefMS, 2*calRefMS); got != 0.5 {
		t.Fatalf("correction at half speed = %v, want 0.5", got)
	}
	if got := correction(calRefMS/2, calRefMS*1.5); got != 1 {
		t.Fatalf("correction averages the two kernel runs: got %v, want 1", got)
	}
	lat := func(us float64) []float64 { return []float64{us, us, us, us} }
	segs := []segment{
		// reference speed: 100 µs reads, 1000 ops/s
		{wall: time.Second, ops: 1000, readUS: lat(100), writeUS: lat(400), calBefore: calRefMS, calAfter: calRefMS},
		// machine at half speed: everything raw doubles, corrected is unchanged
		{wall: 2 * time.Second, ops: 1000, readUS: lat(200), writeUS: lat(800), calBefore: 2 * calRefMS, calAfter: 2 * calRefMS},
		// a genuinely slower segment at reference speed
		{wall: 4 * time.Second, ops: 1000, readUS: lat(400), writeUS: lat(1600), calBefore: calRefMS, calAfter: calRefMS},
	}
	st := summarize(segs)
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("ops_per_s", st.opsPerS, 1000)       // corrected rates 1000, 1000, 250
	near("raw ops_per_s", st.rawOpsPerS, 500) // raw rates 1000, 500, 250
	near("read_p50", st.readP50, 100)
	near("raw read_p50", st.rawReadP50, 200)
	near("write_p50", st.writeP50, 400)
	near("cal_ms", st.calMS, calRefMS) // kernel runs: ref, 2ref, ref, ref
}

// TestSelfTime: on a hand-built span tree a layer's self time is its
// span minus its children's spans for the same op, per op.
func TestSelfTime(t *testing.T) {
	spans := []span{
		// op 0: socket 100 → serve 70 → core 50 → {dyntop 20, foursided 25}
		{Layer: "socket", Op: 0, Start: 0, End: 100},
		{Layer: "serve", Op: 0, Start: 0, End: 70, Parent: "socket"},
		{Layer: "core", Op: 0, Start: 0, End: 50, Parent: "serve"},
		{Layer: "dyntop", Op: 0, Start: 0, End: 20, Parent: "core"},
		{Layer: "foursided", Op: 0, Start: 0, End: 25, Parent: "core"},
		// op 1: only one leaf ran, and the cache made the upper rung faster
		{Layer: "socket", Op: 1, Start: 1000, End: 1040},
		{Layer: "serve", Op: 1, Start: 2000, End: 2030, Parent: "socket"},
		{Layer: "core", Op: 1, Start: 0, End: 8, Parent: "serve"},
		{Layer: "dyntop", Op: 1, Start: 0, End: 12, Parent: "core"},
	}
	want := []float64{30, 20, 5, 20, 25, 10, 22, -4, 12}
	got := selfOf(spans, span.dur)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s op %d = %v, want %v", spans[i].Layer, spans[i].Op, got[i], want[i])
		}
	}
}
