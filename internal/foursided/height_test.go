package foursided

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/emio"
	"repro/internal/geom"
)

// churn applies updates to ix, inserting from pool and deleting a random
// present point, insertEvery-1 inserts to one delete, and calls after
// each one.
func churn(t *testing.T, ix *Index, present, pool []geom.Point, updates, insertEvery int, rng *rand.Rand, after func()) {
	t.Helper()
	for u := 0; u < updates; u++ {
		if u%insertEvery != insertEvery-1 {
			p := pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			ix.Insert(p)
			present = append(present, p)
		} else {
			i := rng.Intn(len(present))
			if !ix.Delete(present[i]) {
				t.Fatalf("Delete(%v) reported absent", present[i])
			}
			present[i] = present[len(present)-1]
			present = present[:len(present)-1]
		}
		after()
	}
}

// TestHeightCapped pins Theorem 6's constant height: the tree has at most
// ⌈1/ε⌉+1 internal levels after Build and after every update of a
// growing 3:1 insert:delete stream, through splits and whole-index
// rebuilds. The n = 10⁵ streams take most of a minute; -short skips
// them.
func TestHeightCapped(t *testing.T) {
	sizes := []int{1000, 10000, 100000}
	if testing.Short() {
		sizes = sizes[:2]
	}
	for _, B := range []int{64, 256} {
		for _, eps := range []float64{0.3, 0.5, 1} {
			t.Run(fmt.Sprintf("B=%d/eps=%.1f", B, eps), func(t *testing.T) {
				t.Parallel()
				for _, n := range sizes {
					all := geom.GenUniform(n+3*n/4, 1<<40, int64(n+B))
					ix := Build(emio.NewDisk(emio.Config{B: B, M: B * 64}), eps, all[:n])
					check := func(when string) {
						if levels := ix.Height() - 1; levels > maxLevels(eps) {
							t.Fatalf("n=%d %s: %d internal levels (fan-out %d), want <= %d",
								n, when, levels, ix.fanout, maxLevels(eps))
						}
					}
					check("after Build")
					rng := rand.New(rand.NewSource(int64(n)))
					churn(t, ix, append([]geom.Point(nil), all[:n]...), all[n:], n, 4, rng, func() {
						check("during updates")
					})
				}
			})
		}
	}
}

// TestUpdateCostAtCappedHeight measures the mean I/Os of a 1:1 update
// stream at the default block size. Each update costs one leaf write
// plus one Theorem 4 secondary update per internal level, so the cost
// tracks the height: the capped tree (fan-out 4, three internal levels)
// measures 43.1, where the binary tree that the log-divided fan-out
// alone builds here (six internal levels) measures 86.1.
func TestUpdateCostAtCappedHeight(t *testing.T) {
	const n, eps, budget = 10000, 0.5, 50.0
	cfg := emio.DefaultConfig()
	all := geom.GenUniform(n+n/2, 1<<30, 601)
	d := emio.NewDisk(cfg)
	ix := Build(d, eps, all[:n])
	d.DropCache()
	d.ResetStats()
	rng := rand.New(rand.NewSource(602))
	churn(t, ix, append([]geom.Point(nil), all[:n]...), all[n:], n, 2, rng, func() {})
	if perOp := float64(d.Stats().IOs()) / n; perOp > budget {
		t.Errorf("mean update cost %.1f I/Os (fan-out %d, height %d), want <= %.0f", perOp, ix.fanout, ix.Height(), budget)
	}
}
