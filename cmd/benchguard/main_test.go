package main

import "testing"

// TestRegressedSlack pins the metric gate's slack math: a regression
// needs BOTH a relative excursion beyond the threshold AND an absolute
// movement beyond one printed-precision step (0.1), so sub-1.0 metrics
// can regress on real movement but not on their last rounded digit.
func TestRegressedSlack(t *testing.T) {
	const threshold = 0.30
	cases := []struct {
		name      string
		base, cur float64
		want      bool
	}{
		{"clear regression", 10, 13.5, true},
		{"exactly at threshold is not beyond it", 10, 13, false},
		{"under threshold", 10, 12.9, false},
		{"improvement", 10, 7, false},
		{"equal", 10, 10, false},
		// The absolute floor: big relative jumps on tiny baselines are
		// rounding noise until they move a full printed step.
		{"tiny baseline, tiny absolute move", 0.01, 0.05, false},
		{"tiny baseline, barely one step", 0.01, 0.11, false}, // 0.10 not > 0.1
		{"tiny baseline, real move", 0.01, 0.25, true},
		{"zero baseline, sub-step current", 0, 0.1, false},
		{"zero baseline, real current", 0, 0.2, true},
		// Sub-1.0 metrics (miss rates, drain fractions) must still be
		// able to regress — the reason the floor is one step and no
		// looser.
		{"missrate 0.30 to 0.45", 0.30, 0.45, true},
		{"missrate 0.30 to 0.38", 0.30, 0.38, false}, // abs 0.08 < 0.1
		{"drainfrac 0.60 to 0.95", 0.60, 0.95, true},
	}
	for _, c := range cases {
		if got := regressed("ios", c.base, c.cur, threshold); got != c.want {
			t.Errorf("%s: regressed(%v, %v, %v) = %t, want %t",
				c.name, c.base, c.cur, threshold, got, c.want)
		}
	}
	// A wider threshold widens the relative gate but not the floor.
	if regressed("ios", 10, 14, 0.50) {
		t.Error("regressed(10, 14, 0.50) = true, want false (40% < 50%)")
	}
	if !regressed("ios", 10, 16, 0.50) {
		t.Error("regressed(10, 16, 0.50) = false, want true")
	}
}

// TestRegressedDirection: a throughput (a *persec metric) regresses by
// falling and improves by rising, with the same relative and absolute
// slack as every other metric, which regresses by rising.
func TestRegressedDirection(t *testing.T) {
	const threshold = 0.30
	cases := []struct {
		name      string
		base, cur float64
		want      bool
	}{
		{"ingestpersec", 7000, 4000, true},   // -43%
		{"ingestpersec", 7000, 5000, false},  // -29%, inside the threshold
		{"ingestpersec", 7000, 26343, false}, // +276%: faster
		{"ingestpersec", 0.2, 0.12, false},   // -40% but under one step
		{"ios", 10, 7, false},                // falling I/Os improve
		{"ios", 10, 13.5, true},
		{"recoverms", 10, 20, true}, // a time, not a rate
	}
	for _, c := range cases {
		if got := regressed(c.name, c.base, c.cur, threshold); got != c.want {
			t.Errorf("regressed(%q, %v, %v, %v) = %t, want %t",
				c.name, c.base, c.cur, threshold, got, c.want)
		}
	}
}

// TestParseMetrics pins the METRIC-line grammar: fields with a decimal
// point are metrics, everything else (strings AND integers) labels the
// measurement, and lines of other experiments are ignored.
func TestParseMetrics(t *testing.T) {
	out := `E15 async update queue
E15-METRIC mix=writeheavy mode=queued n=4096 ios=25.24 drainfrac=0.7719 forced=1116.0
E15-METRIC mix=mixed mode=sync n=4096 ios=16.97
E14-METRIC mix=zipf entries=64 missrate=0.1 ios=2.0
not a metric line
E15-METRIC malformed-no-values mix=writeheavy
`
	ms := parseMetrics("E15", out)
	if len(ms) != 2 {
		t.Fatalf("parsed %d metric lines, want 2 (got %v)", len(ms), ms)
	}
	m, ok := ms["mix=writeheavy mode=queued n=4096"]
	if !ok {
		t.Fatalf("label key missing; keys: %v", ms)
	}
	if m.values["ios"] != 25.24 || m.values["drainfrac"] != 0.7719 || m.values["forced"] != 1116.0 {
		t.Fatalf("values = %v", m.values)
	}
	if _, ok := m.values["n"]; ok {
		t.Fatal("integer field n=4096 parsed as a metric, want label")
	}
	if _, ok := ms["mix=mixed mode=sync n=4096"]; !ok {
		t.Fatalf("second line missing; keys: %v", ms)
	}
}
