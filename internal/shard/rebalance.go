package shard

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/geom"
)

// Online rebalancing: transition protocol.
//
// A transition replaces the adjacent shards lo..hi with freshly built
// ones covering the same x-range under different cuts: a split is
// lo = hi = i and builds two shards and one cut, a merge is lo = i,
// hi = i+1 and builds one shard and no cut. Because the shards are
// x-disjoint, the right-to-left merge argument that makes sharding
// answer-identical to a single structure is indifferent to WHERE the
// cuts sit — so a transition can never change an answer, only the work
// distribution. The protocol (Engine.transition):
//
//  1. Capture: under topoMu.RLock and each shard's own mutex, scan the
//     dyntop leaves of shards lo..hi (charged to each shard's disk; the
//     concatenation is already x-sorted) and note their generation
//     counters, then release the locks.
//  2. Build: construct the replacement shards (newShard, each on a
//     private disk) off to the side, with no locks held. Ordinary
//     traffic proceeds concurrently.
//  3. Swap: take topoMu exclusively — every in-flight operation holds it
//     shared for its full duration, so acquisition alone quiesces the
//     engine — and splice the replacements into shards/cuts, retiring
//     the originals.
//  4. If a writer moved any captured generation between 1 and 3, the
//     build is stale: recapture and rebuild once while still holding
//     the exclusive lock. That blocks traffic for one rebuild but
//     cannot go stale, so a transition always completes, even under a
//     write storm.
//
// Retired shards are released once the swap is done: their structures
// free every block they hold, and only the disk stays behind, for its I/O
// history. Any open Snapshot pinned node-graph copies and a retention on
// that disk, which defers the frees, so it keeps serving unchanged.
// rebalMu serializes transitions end to end, so the cuts listener
// observes every topology in order.

// RebalanceCounters reports the engine's rebalancing activity.
type RebalanceCounters struct {
	// Splits and Merges count completed transitions.
	Splits uint64
	Merges uint64
	// Shards is the current partition count.
	Shards int
	// Skew is the current max/mean per-shard load ratio accumulated
	// since the last transition (0 while idle).
	Skew float64
}

// RebalanceCounters returns the current rebalancing totals. Safe to call
// while operations and transitions are in flight.
func (e *Engine) RebalanceCounters() RebalanceCounters {
	e.topoMu.RLock()
	k := len(e.shards)
	var total, maxLoad uint64
	for _, s := range e.shards {
		l := s.load.Load()
		total += l
		if l > maxLoad {
			maxLoad = l
		}
	}
	e.topoMu.RUnlock()
	var skew float64
	if total > 0 {
		skew = float64(maxLoad) * float64(k) / float64(total)
	}
	return RebalanceCounters{
		Splits: e.splits.Load(),
		Merges: e.merges.Load(),
		Shards: k,
		Skew:   skew,
	}
}

// SetCutsListener registers fn to be called with the new cut set after
// every completed transition. Calls are serialized and delivered in
// transition order, with no engine locks held — fn may call back into
// the engine. This is how core propagates live cut changes to the
// async-queue slabs, which learned the cuts at construction through
// Engine.Partition.
func (e *Engine) SetCutsListener(fn func([]geom.Coord)) {
	e.rebalMu.Lock()
	e.listener = fn
	e.rebalMu.Unlock()
}

// ForceSplit splits shard i at its median x, regardless of load. i < 0
// selects the most populous shard. Used by tests and operational tooling;
// the load policy calls the same transition.
func (e *Engine) ForceSplit(i int) error {
	if !e.opts.Rebalance {
		return fmt.Errorf("shard: rebalancing disabled; open with Options.Rebalance")
	}
	e.rebalMu.Lock()
	defer e.rebalMu.Unlock()
	if i < 0 {
		i = e.pickHottestBySize()
	}
	return e.split(i, 2)
}

// ForceMerge merges shards i and i+1, regardless of load. i < 0 selects
// the least populous adjacent pair.
func (e *Engine) ForceMerge(i int) error {
	if !e.opts.Rebalance {
		return fmt.Errorf("shard: rebalancing disabled; open with Options.Rebalance")
	}
	e.rebalMu.Lock()
	defer e.rebalMu.Unlock()
	if i < 0 {
		i = e.pickColdestBySize()
	}
	return e.merge(i)
}

// sizes returns each shard's live point count, in cut order.
func (e *Engine) sizes() []int {
	e.topoMu.RLock()
	defer e.topoMu.RUnlock()
	out := make([]int, len(e.shards))
	for i, s := range e.shards {
		s.mu.Lock()
		out[i] = s.dyn.Len()
		s.mu.Unlock()
	}
	return out
}

func (e *Engine) pickHottestBySize() int {
	sz := e.sizes()
	return slices.Index(sz, slices.Max(sz))
}

func (e *Engine) pickColdestBySize() int {
	sz, best := e.sizes(), 0
	for j := 1; j+1 < len(sz); j++ {
		if sz[j]+sz[j+1] < sz[best]+sz[best+1] {
			best = j
		}
	}
	return best
}

// The load policy's thresholds. No workload has measured a gain from
// other values, so they are constants, not options.
const (
	// maxSkew is the split trigger: a shard whose load exceeds maxSkew
	// × the mean per-shard load splits, and an adjacent pair jointly
	// colder than mean/(2 × maxSkew) merges.
	maxSkew = 2.0
	// minShardPoints is the population floor of each child of a split.
	minShardPoints = 32
	// growthCap caps the splits at growthCap × Options.Shards shards.
	growthCap = 4
	// rebalanceEvery is the policy's check cadence in applied updates.
	rebalanceEvery = 128
)

// maybeRebalance runs the load policy every rebalanceEvery applied
// updates. It must be called with no engine locks held (a transition
// takes topoMu exclusively). TryLock keeps update latency flat: if a
// transition is already running, the check is simply skipped.
func (e *Engine) maybeRebalance(n int) {
	if !e.opts.Rebalance || n <= 0 {
		return
	}
	now := e.rebalOps.Add(uint64(n))
	if now/rebalanceEvery == (now-uint64(n))/rebalanceEvery {
		return
	}
	if !e.rebalMu.TryLock() {
		return
	}
	defer e.rebalMu.Unlock()
	e.rebalanceOnce()
}

// rebalanceOnce makes at most one policy decision: split the hottest
// shard if its load exceeds maxSkew × mean, else merge the coldest
// adjacent pair if their combined load is far under the mean. Caller
// holds rebalMu.
//
// Two guards keep the policy stable. First, no decision is made until
// the window since the last transition holds at least 8 ops per shard
// (and rebalanceEvery overall): 128 ops spread over 32 shards is
// Poisson noise, not a load signal, and acting on it makes the
// topology oscillate. Loads are only zeroed at transitions, so a
// too-small window simply keeps accumulating until it is decisive.
// Second, a merge needs the pair's combined load under mean/(2 ×
// maxSkew) — twice as cold as the split trigger is hot — so a shard
// the policy just split cannot flap back into a merge on sampling
// jitter.
func (e *Engine) rebalanceOnce() {
	sizes := e.sizes() // the caller's rebalMu keeps the topology fixed
	k := len(sizes)
	loads := make([]uint64, k)
	var total uint64
	e.topoMu.RLock()
	for i, s := range e.shards {
		loads[i] = s.load.Load()
		total += loads[i]
	}
	e.topoMu.RUnlock()
	if total < uint64(max(rebalanceEvery, 8*k)) {
		return // not enough signal since the last transition
	}
	mean := float64(total) / float64(k)
	hot, hottest := -1, uint64(0)
	for i, l := range loads {
		if l > hottest && sizes[i] >= 2*minShardPoints {
			hot, hottest = i, l
		}
	}
	if hot >= 0 && float64(hottest) > maxSkew*mean && k < growthCap*e.opts.Shards {
		_ = e.split(hot, 2*minShardPoints) //errlint:ok — policy transitions are best-effort
		return
	}
	if k < 2 {
		return
	}
	cold, coldest := -1, uint64(0)
	for i := 0; i+1 < k; i++ {
		c := loads[i] + loads[i+1]
		if cold < 0 || c < coldest {
			cold, coldest = i, c
		}
	}
	if cold >= 0 && float64(coldest) < mean/(2*maxSkew) {
		_ = e.merge(cold) //errlint:ok — policy transitions are best-effort
	}
}

// release frees everything a retired shard's structure holds on its
// disk and drops it.
func (s *shard) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.Release()
	s.top, s.dyn, s.four, s.st = nil, nil, nil, nil
}

// split replaces shard i with two shards cut at its median x. Caller
// holds rebalMu. minPts is the population floor below which the split
// is refused (each child gets at least minPts/2 points).
func (e *Engine) split(i, minPts int) error {
	if minPts < 2 {
		minPts = 2
	}
	return e.transition("split", i, i, &e.splits, func(pts []geom.Point) ([]*shard, []geom.Coord, error) {
		if len(pts) < minPts {
			return nil, nil, fmt.Errorf("shard: shard %d too small to split (%d points, need %d)", i, len(pts), minPts)
		}
		mid := len(pts) / 2
		left, right := newShard(e.opts, pts[:mid]), newShard(e.opts, pts[mid:])
		return []*shard{left, right}, []geom.Coord{pts[mid-1].X}, nil
	})
}

// merge replaces shards i and i+1 with one shard covering both x-ranges.
// Caller holds rebalMu.
func (e *Engine) merge(i int) error {
	return e.transition("merge", i, i+1, &e.merges, func(pts []geom.Point) ([]*shard, []geom.Coord, error) {
		return []*shard{newShard(e.opts, pts)}, nil, nil
	})
}

// transition replaces shards lo..hi with the shards build makes from
// their live points (x-sorted, as the leaf scans deliver them),
// separated by the cuts build returns; the cuts around lo..hi stay.
// Caller holds rebalMu. The build runs with no lock held; if a writer
// moved a replaced shard's generation meanwhile, the points are
// recaptured and rebuilt once under the exclusive topology lock, where
// no writer can intervene.
func (e *Engine) transition(kind string, lo, hi int, counter *atomic.Uint64, build func([]geom.Point) ([]*shard, []geom.Coord, error)) error {
	e.topoMu.RLock()
	if lo < 0 || hi >= len(e.shards) {
		e.topoMu.RUnlock()
		return fmt.Errorf("shard: %s index %d out of range", kind, lo)
	}
	old := e.shards[lo : hi+1]
	pts, gens := capture(old)
	e.topoMu.RUnlock()
	repl, inner, err := build(pts)
	if err != nil {
		return err
	}

	e.topoMu.Lock()
	stale := false
	for j, s := range old {
		s.mu.Lock()
		stale = stale || s.gen != gens[j]
		s.mu.Unlock()
	}
	if stale {
		pts, _ = capture(old)
		if repl, inner, err = build(pts); err != nil {
			e.topoMu.Unlock()
			return err
		}
	}
	shards := make([]*shard, 0, len(e.shards)-len(old)+len(repl))
	shards = append(shards, e.shards[:lo]...)
	shards = append(shards, repl...)
	shards = append(shards, e.shards[hi+1:]...)
	cuts := make([]geom.Coord, 0, len(shards)-1)
	cuts = append(cuts, e.cuts[:lo]...)
	cuts = append(cuts, inner...)
	cuts = append(cuts, e.cuts[hi:]...)
	e.finishTransition(shards, cuts, counter, old...)
	return nil
}

// capture scans the live points of ss — adjacent shards in cut order,
// so the concatenated leaf scans are sorted by x — and returns each
// shard's generation at the moment its leaves were read.
func capture(ss []*shard) ([]geom.Point, []uint64) {
	var pts []geom.Point
	gens := make([]uint64, len(ss))
	for j, s := range ss {
		s.mu.Lock()
		pts = s.dyn.Scan(geom.NegInf, geom.PosInf, slices.Grow(pts, s.dyn.Len()))
		gens[j] = s.gen
		s.mu.Unlock()
	}
	return pts, gens
}

// finishTransition installs the new topology, retires and releases the
// replaced shards, resets the load counters, and notifies the cuts
// listener. Caller holds rebalMu and topoMu exclusively; topoMu is
// released here so the release and the listener run lock-free — every
// operation that could reach an old shard held topoMu shared and is done.
func (e *Engine) finishTransition(shards []*shard, cuts []geom.Coord, counter *atomic.Uint64, old ...*shard) {
	e.shards, e.cuts = shards, cuts
	e.retired = append(e.retired, old...)
	for _, sh := range shards {
		sh.load.Store(0)
	}
	newCuts := append([]geom.Coord(nil), cuts...)
	e.topoMu.Unlock()
	for _, s := range old {
		s.release()
	}
	counter.Add(1)
	if e.listener != nil {
		e.listener(newCuts)
	}
}
