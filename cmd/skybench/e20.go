// E20: online shard rebalancing (Options.Rebalance) under a skewed
// insert stream. The stream's x-density decays quartically — over half
// its mass lands in the leftmost ~12% of the key space — while the
// fixed partition's cuts come from the uniform base seed, so a static
// 8-shard engine funnels most inserts into its leftmost shard. The
// rebalancing engine notices the skew (per-shard load counters,
// checked every 128 ops), splits hot x-ranges and merges
// cold neighbors, and the same stream spreads across the partition.
//
// The stream is STATIONARY: the skewed point pool is consumed in a
// seeded random order, so the spatial insert distribution does not
// drift over time. That matters — a load-adaptive policy tracks recent
// traffic, so only a stationary stream makes "final cuts vs the whole
// stream" a fair report card.
//
// Two legs run the identical stream:
//
//   - fixed: Shards=8, no rebalancing — the baseline whose load ratio
//     shows what the skew does to a static partition;
//   - rebal: the same index with Rebalance on (its skew trigger is a
//     constant, 2.0).
//
// The gated numbers are per-insert simulated-I/O percentiles (the
// rebal leg's include the transitions' rebuild cost — that is the
// price being measured) and the offline load ratio: the stream's
// insert x's binned against each engine's FINAL cuts, max/mean over
// shards. The run panics unless the rebal ratio is <= 2.0 and the
// fixed ratio is at least 1.5x worse — the experiment must demonstrate
// the mechanism, not just run it. Everything is seeded and sequential
// on simulated disks, so every metric is deterministic and gates
// strictly (cmd/benchguard).
package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
)

// e20Percentile reads the p-th percentile from a sorted cost slice.
func e20Percentile(sorted []uint64, p float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p / 100 * float64(len(sorted)-1))
	return sorted[i]
}

// e20LoadRatio bins xs against cuts and returns max/mean over the
// len(cuts)+1 shards — the offline shard-load ratio of the stream
// under that partition.
func e20LoadRatio(xs []geom.Coord, cuts []geom.Coord) float64 {
	counts := make([]int, len(cuts)+1)
	for _, x := range xs {
		counts[sort.Search(len(cuts), func(i int) bool { return x <= cuts[i] })]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	mean := float64(len(xs)) / float64(len(counts))
	return float64(max) / mean
}

// e20Pool builds the skewed insert pool: N points whose i-th x is
// 2*(i + (span-N)*(i/N)^4) + 1 — strictly increasing (distinct), dense
// near zero and quartically sparser to the right, so the stream's mass
// concentrates at low x. Coordinates are odd; the base seed's are made
// even, so the two sets can never collide.
func e20Pool(N int, span int64, seed int64) []geom.Point {
	stretch := float64(span - int64(N))
	ys := make([]geom.Coord, N)
	stride := span / int64(N)
	if stride < 1 {
		stride = 1
	}
	for i := range ys {
		ys[i] = geom.Coord(2*int64(i)*stride + 1)
	}
	rand.New(rand.NewSource(seed)).Shuffle(N, func(i, j int) { ys[i], ys[j] = ys[j], ys[i] })
	pool := make([]geom.Point, N)
	for i := range pool {
		frac := float64(i) / float64(N)
		x := int64(i) + int64(stretch*frac*frac*frac*frac)
		pool[i] = geom.Point{X: geom.Coord(2*x + 1), Y: ys[i]}
	}
	return pool
}

func e20() {
	fmt.Println("E20 online shard rebalancing (Options.Rebalance): skewed insert stream")
	fmt.Println("    The stream's x-density decays quartically while the fixed cuts come from a")
	fmt.Println("    uniform base, so a static 8-shard partition funnels most inserts into its")
	fmt.Println("    leftmost shard; the rebalancing engine splits hot x-ranges and merges cold")
	fmt.Println("    neighbors until the same stream spreads out. loadratio bins the stream")
	fmt.Println("    against each engine's final cuts (max/mean over shards); the I/O percentiles")
	fmt.Println("    include the transitions' rebuild cost. All numbers are seeded, sequential")
	fmt.Println("    and simulated, so they gate strictly (cmd/benchguard).")

	n := sizes([]int{1 << 12}, []int{1 << 13})[0]
	streamLen := sizes([]int{12000}, []int{24000})[0]
	span := int64(n) * 32

	// Base: uniform over the key space, coords doubled to even so the
	// odd-coordinate pool can never collide with it.
	base := geom.GenUniform(n, span, 97)
	for i := range base {
		base[i].X *= 2
		base[i].Y *= 2
	}
	geom.SortByX(base)

	pool := e20Pool(streamLen, span, 99)
	xs := make([]geom.Coord, len(pool))
	for i, p := range pool {
		xs[i] = p.X
	}
	// Stationary stream: the pool in a seeded random order.
	order := rand.New(rand.NewSource(101)).Perm(len(pool))

	open := func(rebalance bool) *core.DB {
		o := core.Options{Machine: cfg, Dynamic: true, Shards: 8, Workers: 4, Rebalance: rebalance}
		db, err := core.Open(o, base)
		if err != nil {
			panic(err)
		}
		return db
	}
	fixed, rebal := open(false), open(true)

	fmt.Printf("    %d quartic-skew inserts over an n=%d uniform seed, 8 shards, skew trigger 2.0\n",
		len(pool), n)
	fmt.Printf("%8s %8s %8s %8s %10s %8s %8s %8s\n",
		"leg", "iop50", "iop99", "worst", "loadratio", "shards", "splits", "merges")

	ratios := map[string]float64{}
	for _, leg := range []struct {
		name string
		db   *core.DB
	}{{"fixed", fixed}, {"rebal", rebal}} {
		db := leg.db
		db.ResetStats()
		costs := make([]uint64, 0, len(order))
		before := db.Stats().IOs()
		for _, idx := range order {
			if err := db.Insert(pool[idx]); err != nil {
				panic(fmt.Sprintf("E20 %s insert: %v", leg.name, err))
			}
			after := db.Stats().IOs()
			costs = append(costs, after-before)
			before = after
		}
		sort.Slice(costs, func(i, j int) bool { return costs[i] < costs[j] })
		ratio := e20LoadRatio(xs, db.Sharded().Cuts())
		ratios[leg.name] = ratio
		st := db.RebalanceStats()
		shards := db.Sharded().NumShards()
		fmt.Printf("%8s %8d %8d %8d %10.2f %8d %8d %8d\n",
			leg.name, e20Percentile(costs, 50), e20Percentile(costs, 99),
			costs[len(costs)-1], ratio, shards, st.Splits, st.Merges)
		// splits/merges/shards are integer labels; the percentiles and
		// the ratio carry decimals and gate (all bigger-is-worse).
		fmt.Printf("E20-METRIC leg=%s n=%d shards=%d splits=%d merges=%d iop50=%.1f iop99=%.1f loadratio=%.2f\n",
			leg.name, n, shards, st.Splits, st.Merges,
			float64(e20Percentile(costs, 50)), float64(e20Percentile(costs, 99)), ratio)
	}

	// The experiment's point, enforced: rebalancing must tame the skew
	// and the fixed partition must demonstrably suffer it.
	if r := ratios["rebal"]; r > 2.0 {
		panic(fmt.Sprintf("E20: rebalanced load ratio %.2f > 2.0 — the policy failed to tame the skew", r))
	}
	if f, r := ratios["fixed"], ratios["rebal"]; f < 1.5*r {
		panic(fmt.Sprintf("E20: fixed ratio %.2f not measurably worse than rebalanced %.2f", f, r))
	}
	if rebal.RebalanceStats().Splits == 0 {
		panic("E20: the rebal leg completed no splits — the stream never tripped the policy")
	}
	if s := rebal.RebalanceStats().Skew; math.IsNaN(s) || s < 0 {
		panic(fmt.Sprintf("E20: malformed live skew %v", s))
	}

	// Answers must not depend on where the cuts sit: cross-check a
	// seeded query mix byte for byte between the two legs (the
	// differential harness enforces the same under forced transitions).
	qrng := rand.New(rand.NewSource(103))
	for i := 0; i < 64; i++ {
		q := e14Rect(qrng, i%9, n, 2*span)
		e14Check("E20", q, rebal.RangeSkyline(q), fixed.RangeSkyline(q))
	}

	for _, db := range []*core.DB{fixed, rebal} {
		if err := db.Close(); err != nil {
			panic(err)
		}
	}
}
