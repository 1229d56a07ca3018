package main

import (
	"encoding/json"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// calRefMS is the calibration kernel's wall time on the reference box
// (2-core Xeon sandbox, median of the builder's probe runs). Every
// wall-clock metric is scaled by calRefMS / cal_ms of its own segment,
// so a run on a momentarily slower machine reports what the reference
// box would have measured. Changing it rescales every baseline.
const calRefMS = 16.0

// calIters is the kernel's fixed work per goroutine. The kernel calls
// no repo package, so no later PR can move it.
const calIters = 1000

// calDoc is the constant document the kernel round-trips.
var calDoc = map[string]any{
	"shape": "4-sided", "x1": 1048576, "x2": 2097152, "y1": 524288, "y2": 4194304,
	"points": []any{
		map[string]any{"x": 1234567, "y": 7654321}, map[string]any{"x": 2345678, "y": 6543210},
		map[string]any{"x": 3456789, "y": 5432109}, map[string]any{"x": 4567890, "y": 4321098},
		map[string]any{"x": 5678901, "y": 3210987}, map[string]any{"x": 6789012, "y": 2109876},
	},
	"more": false, "namespace": "bench", "limit": 128,
}

// calibrate runs the kernel once — nproc goroutines each doing calIters
// marshal+unmarshal round trips of calDoc — and returns its wall time
// in milliseconds.
func calibrate() float64 {
	n := runtime.NumCPU()
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calIters; i++ {
				blob, err := json.Marshal(calDoc)
				if err != nil {
					panic(err) // a constant map of JSON scalars always marshals
				}
				var out map[string]any
				if err := json.Unmarshal(blob, &out); err != nil {
					panic(err) // round trip of the kernel's own output
				}
			}
		}()
	}
	wg.Wait()
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// correction is the factor a segment's times are multiplied by: the
// reference kernel time over the mean of the kernel times measured
// just before and just after the segment.
func correction(calBefore, calAfter float64) float64 {
	return calRefMS / ((calBefore + calAfter) / 2)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest value with at least p% of the samples at or
// below it. Zero for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle of vals (mean of the two middle values for
// an even count); zero for an empty sample. vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// segment is what one of a phase's equal-op-count slices measured.
type segment struct {
	wall      time.Duration // start of first op to end of last, all clients
	ops       int
	readUS    []float64 // per-op client-observed latencies, µs
	writeUS   []float64
	calBefore float64 // kernel ms just before / after the segment
	calAfter  float64
}

// phaseStats are a phase's metrics: the median over its segments of
// the per-segment value, speed-corrected (the raw* fields are the same
// medians without the correction).
type phaseStats struct {
	opsPerS, rawOpsPerS   float64
	readP50, rawReadP50   float64
	readP99               float64
	writeP50, rawWriteP50 float64
	writeP99              float64
	calMS                 float64 // median kernel time over the phase
}

// summarize turns a phase's segments into its metrics. Percentiles are
// taken per segment, then corrected, then the median over segments is
// taken — so one slow stretch of machine moves one segment, not the
// metric.
func summarize(segs []segment) phaseStats {
	var ops, rawOps, r50, rawR50, r99, w50, rawW50, w99, cals []float64
	for _, s := range segs {
		k := correction(s.calBefore, s.calAfter)
		cals = append(cals, s.calBefore)
		sec := s.wall.Seconds()
		rawOps = append(rawOps, float64(s.ops)/sec)
		ops = append(ops, float64(s.ops)/(sec*k))
		if len(s.readUS) > 0 {
			sort.Float64s(s.readUS)
			rawR50 = append(rawR50, percentile(s.readUS, 50))
			r50 = append(r50, percentile(s.readUS, 50)*k)
			r99 = append(r99, percentile(s.readUS, 99)*k)
		}
		if len(s.writeUS) > 0 {
			sort.Float64s(s.writeUS)
			rawW50 = append(rawW50, percentile(s.writeUS, 50))
			w50 = append(w50, percentile(s.writeUS, 50)*k)
			w99 = append(w99, percentile(s.writeUS, 99)*k)
		}
	}
	if n := len(segs); n > 0 {
		cals = append(cals, segs[n-1].calAfter)
	}
	return phaseStats{
		opsPerS: median(ops), rawOpsPerS: median(rawOps),
		readP50: median(r50), rawReadP50: median(rawR50), readP99: median(r99),
		writeP50: median(w50), rawWriteP50: median(rawW50), writeP99: median(w99),
		calMS: median(cals),
	}
}
