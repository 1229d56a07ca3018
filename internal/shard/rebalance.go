package shard

import (
	"fmt"

	"repro/internal/dyntop"
	"repro/internal/emio"
	"repro/internal/foursided"
	"repro/internal/geom"
)

// Online rebalancing: transition protocol.
//
// A transition (split or merge) replaces one or two shards with freshly
// built ones covering the same x-range under different cuts. Because the
// shards are x-disjoint, the right-to-left merge argument that makes
// sharding answer-identical to a single structure is indifferent to
// WHERE the cuts sit — so a transition can never change an answer, only
// the work distribution. The protocol:
//
//  1. Capture: under topoMu.RLock + the shard's own mutex, copy the
//     shard's point registry and generation counter, then release both.
//  2. Build: construct the replacement shard structures (private disk,
//     dyntop + foursided) off to the side, with no locks held. Ordinary
//     traffic proceeds concurrently.
//  3. Swap: take topoMu exclusively — every in-flight operation holds it
//     shared for its full duration, so acquisition alone quiesces the
//     engine — and validate the generation. If unchanged, splice the
//     replacements into shards/cuts and retire the originals. If a
//     writer moved the generation, retry from 1; after a few failed
//     rounds the final attempt rebuilds while still holding the
//     exclusive lock, which blocks traffic for one rebuild but cannot
//     go stale.
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

func (e *Engine) pickHottestBySize() int {
	e.topoMu.RLock()
	defer e.topoMu.RUnlock()
	best, size := 0, -1
	for j, s := range e.shards {
		s.mu.Lock()
		n := len(s.pts)
		s.mu.Unlock()
		if n > size {
			best, size = j, n
		}
	}
	return best
}

func (e *Engine) pickColdestBySize() int {
	e.topoMu.RLock()
	defer e.topoMu.RUnlock()
	best, size := 0, -1
	for j := 0; j+1 < len(e.shards); j++ {
		a, b := e.shards[j], e.shards[j+1]
		a.mu.Lock()
		n := len(a.pts)
		a.mu.Unlock()
		b.mu.Lock()
		n += len(b.pts)
		b.mu.Unlock()
		if size < 0 || n < size {
			best, size = j, n
		}
	}
	return best
}

// maybeRebalance runs the load policy every RebalanceEvery applied
// updates. It must be called with no engine locks held (a transition
// takes topoMu exclusively). TryLock keeps update latency flat: if a
// transition is already running, the check is simply skipped.
func (e *Engine) maybeRebalance(n int) {
	if !e.opts.Rebalance || n <= 0 {
		return
	}
	every := uint64(e.opts.RebalanceEvery)
	now := e.rebalOps.Add(uint64(n))
	if now/every == (now-uint64(n))/every {
		return
	}
	if !e.rebalMu.TryLock() {
		return
	}
	defer e.rebalMu.Unlock()
	e.rebalanceOnce()
}

// rebalanceOnce makes at most one policy decision: split the hottest
// shard if its load exceeds MaxSkew × mean, else merge the coldest
// adjacent pair if their combined load is far under the mean. Caller
// holds rebalMu.
//
// Two guards keep the policy stable. First, no decision is made until
// the window since the last transition holds at least 8 ops per shard
// (and RebalanceEvery overall): 128 ops spread over 32 shards is
// Poisson noise, not a load signal, and acting on it makes the
// topology oscillate. Loads are only zeroed at transitions, so a
// too-small window simply keeps accumulating until it is decisive.
// Second, a merge needs the pair's combined load under mean/(2 ×
// MaxSkew) — twice as cold as the split trigger is hot — so a shard
// the policy just split cannot flap back into a merge on sampling
// jitter.
func (e *Engine) rebalanceOnce() {
	e.topoMu.RLock()
	k := len(e.shards)
	loads := make([]uint64, k)
	sizes := make([]int, k)
	var total uint64
	for i, s := range e.shards {
		loads[i] = s.load.Load()
		total += loads[i]
		s.mu.Lock()
		sizes[i] = len(s.pts)
		s.mu.Unlock()
	}
	e.topoMu.RUnlock()
	if total < uint64(max(e.opts.RebalanceEvery, 8*k)) {
		return // not enough signal since the last transition
	}
	mean := float64(total) / float64(k)
	hot, hottest := -1, uint64(0)
	for i, l := range loads {
		if l > hottest && sizes[i] >= 2*e.opts.MinShardPoints {
			hot, hottest = i, l
		}
	}
	if hot >= 0 && float64(hottest) > e.opts.MaxSkew*mean && k < e.opts.MaxShards {
		_ = e.split(hot, 2*e.opts.MinShardPoints) //errlint:ok — policy transitions are best-effort
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
	if cold >= 0 && float64(coldest) < mean/(2*e.opts.MaxSkew) {
		_ = e.merge(cold) //errlint:ok — policy transitions are best-effort
	}
}

// buildShard constructs a fresh dynamic shard over chunk, which must be
// sorted by x.
func (e *Engine) buildShard(chunk []geom.Point) *shard {
	s := &shard{disk: emio.NewConcurrentDisk(e.opts.Machine)}
	s.dyn = dyntop.BuildSABE(s.disk, e.opts.Epsilon, chunk)
	s.top = s.dyn
	if !e.opts.TopOnly {
		s.four = foursided.Build(s.disk, e.opts.Epsilon, chunk)
	}
	s.pts = make(map[geom.Point]struct{}, len(chunk))
	for _, p := range chunk {
		s.pts[p] = struct{}{}
	}
	return s
}

// release frees everything a retired shard's structures hold on its
// disk and drops them.
func (s *shard) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dyn.Release()
	if s.four != nil {
		s.four.Release()
	}
	s.top, s.dyn, s.four, s.pts = nil, nil, nil, nil
}

// split replaces shard i with two shards cut at its median x. Caller
// holds rebalMu. minPts is the population floor below which the split
// is refused (each child gets at least minPts/2 points).
func (e *Engine) split(i, minPts int) error {
	if minPts < 2 {
		minPts = 2
	}
	const maxRetries = 3
	for attempt := 0; ; attempt++ {
		e.topoMu.RLock()
		if i < 0 || i >= len(e.shards) {
			e.topoMu.RUnlock()
			return fmt.Errorf("shard: split index %d out of range", i)
		}
		s := e.shards[i]
		s.mu.Lock()
		pts := make([]geom.Point, 0, len(s.pts))
		for p := range s.pts {
			pts = append(pts, p)
		}
		gen := s.gen
		s.mu.Unlock()
		e.topoMu.RUnlock()
		if len(pts) < minPts {
			return fmt.Errorf("shard: shard %d too small to split (%d points, need %d)", i, len(pts), minPts)
		}
		geom.SortByX(pts)
		mid := len(pts) / 2
		left, right := e.buildShard(pts[:mid]), e.buildShard(pts[mid:])
		cut := pts[mid-1].X

		e.topoMu.Lock()
		s.mu.Lock()
		stale := s.gen != gen
		if stale && attempt >= maxRetries {
			// Final attempt: recapture and rebuild while holding the
			// topology lock exclusively — no writer can move the
			// generation now, at the cost of stalling the engine for
			// one rebuild.
			pts = pts[:0]
			for p := range s.pts {
				pts = append(pts, p)
			}
			s.mu.Unlock()
			if len(pts) < minPts {
				e.topoMu.Unlock()
				return fmt.Errorf("shard: shard %d too small to split (%d points, need %d)", i, len(pts), minPts)
			}
			geom.SortByX(pts)
			mid = len(pts) / 2
			left, right = e.buildShard(pts[:mid]), e.buildShard(pts[mid:])
			cut = pts[mid-1].X
			stale = false
		} else {
			s.mu.Unlock()
		}
		if stale {
			e.topoMu.Unlock()
			continue
		}
		shards := make([]*shard, 0, len(e.shards)+1)
		shards = append(shards, e.shards[:i]...)
		shards = append(shards, left, right)
		shards = append(shards, e.shards[i+1:]...)
		cuts := make([]geom.Coord, 0, len(e.cuts)+1)
		cuts = append(cuts, e.cuts[:i]...)
		cuts = append(cuts, cut)
		cuts = append(cuts, e.cuts[i:]...)
		e.finishTransition(shards, cuts, &e.splits, s)
		return nil
	}
}

// merge replaces shards i and i+1 with one shard covering both x-ranges.
// Caller holds rebalMu.
func (e *Engine) merge(i int) error {
	const maxRetries = 3
	for attempt := 0; ; attempt++ {
		e.topoMu.RLock()
		if i < 0 || i+1 >= len(e.shards) {
			e.topoMu.RUnlock()
			return fmt.Errorf("shard: merge index %d out of range", i)
		}
		a, b := e.shards[i], e.shards[i+1]
		a.mu.Lock()
		b.mu.Lock()
		pts := make([]geom.Point, 0, len(a.pts)+len(b.pts))
		for p := range a.pts {
			pts = append(pts, p)
		}
		for p := range b.pts {
			pts = append(pts, p)
		}
		genA, genB := a.gen, b.gen
		b.mu.Unlock()
		a.mu.Unlock()
		e.topoMu.RUnlock()
		geom.SortByX(pts)
		merged := e.buildShard(pts)

		e.topoMu.Lock()
		a.mu.Lock()
		b.mu.Lock()
		stale := a.gen != genA || b.gen != genB
		if stale && attempt >= maxRetries {
			pts = pts[:0]
			for p := range a.pts {
				pts = append(pts, p)
			}
			for p := range b.pts {
				pts = append(pts, p)
			}
			b.mu.Unlock()
			a.mu.Unlock()
			geom.SortByX(pts)
			merged = e.buildShard(pts)
			stale = false
		} else {
			b.mu.Unlock()
			a.mu.Unlock()
		}
		if stale {
			e.topoMu.Unlock()
			continue
		}
		shards := make([]*shard, 0, len(e.shards)-1)
		shards = append(shards, e.shards[:i]...)
		shards = append(shards, merged)
		shards = append(shards, e.shards[i+2:]...)
		cuts := append([]geom.Coord(nil), e.cuts[:i]...)
		cuts = append(cuts, e.cuts[i+1:]...)
		e.finishTransition(shards, cuts, &e.merges, a, b)
		return nil
	}
}

// finishTransition installs the new topology, retires and releases the
// replaced shards, resets the load counters, and notifies the cuts
// listener. Caller holds rebalMu and topoMu exclusively; topoMu is
// released here so the release and the listener run lock-free — every
// operation that could reach an old shard held topoMu shared and is done.
func (e *Engine) finishTransition(shards []*shard, cuts []geom.Coord, counter interface{ Add(uint64) uint64 }, old ...*shard) {
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
