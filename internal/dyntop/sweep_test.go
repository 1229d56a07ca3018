package dyntop

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/emio"
	"repro/internal/geom"
)

// TestColdTopOpenSweep gates Theorem 4's query bound across sizes: at
// B = 64, M/B = 64 and ε = 0.5, 200 cold top-open queries over n =
// 2^12 … 2^18 uniform points (2^16 under -short) cost a steady multiple
// of log_{2B^ε}(n/B) + k/B^{1−ε}: the ratio of total I/Os to total bound
// at the largest n stays within 1.25× of the ratio at 2^12. It measures
// 2.54 / 1.87 / 2.16 / 2.30 at 2^12 / 2^14 / 2^16 / 2^18. A foursided
// index reads its points through this tree too, so a query path that
// grew with n would show up in both.
func TestColdTopOpenSweep(t *testing.T) {
	const eps, queries = 0.5, 200
	cfg := emio.Config{B: 64, M: 64 * 64}
	ns := []int{1 << 12, 1 << 14, 1 << 16, 1 << 18}
	if testing.Short() {
		ns = ns[:3]
	}
	B := float64(cfg.B)
	base := math.Log(2 * math.Pow(B, eps))
	var ratios []float64
	for _, n := range ns {
		span := int64(n) * 16
		d, tr := buildTree(t, cfg, eps, geom.GenUniform(n, span, int64(n)+41))
		rng := rand.New(rand.NewSource(int64(n) + 43))
		var ios, bound float64
		for range queries {
			x1 := geom.Coord(rng.Int63n(span))
			x2 := x1 + geom.Coord(rng.Int63n(span/4))
			beta := geom.Coord(rng.Int63n(span))
			var k int
			ios += float64(d.Measure(func() { k = len(tr.Query(x1, x2, beta)) }).IOs())
			bound += math.Log(float64(n)/B)/base + float64(k)/math.Pow(B, 1-eps)
		}
		ratios = append(ratios, ios/bound)
		t.Logf("n=%d: %.2f I/Os per unit of bound", n, ios/bound)
	}
	if last := ratios[len(ratios)-1]; last > 1.25*ratios[0] {
		t.Errorf("cold top-open queries at n=%d cost %.2f× the bound, %.2f× the %.2f at n=%d; want <= 1.25×",
			ns[len(ns)-1], last, last/ratios[0], ratios[0], ns[0])
	}
}
