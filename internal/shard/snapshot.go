// Snapshot: the sharded engine's point-in-time read path. Pinning
// captures every shard's roots under the shard locks — held together
// just long enough for one O(1) pin per structure (the copy-on-write
// trees keep their root and advance an epoch; zero simulated I/Os),
// which is what makes the pin brief without a global Quiesce:
// nothing waits for the worker pool, and in-flight queries only delay
// the capture by one per-shard operation. Before each shard's capture
// a retention is opened on its private disk, so every span the pinned
// roots reference survives until the snapshot is released, no matter
// how many leaf rewrites, splits or rebuilds the live shard performs
// meanwhile.
//
// Snapshot queries then fan out over the pinned roots through the SAME
// gather (caller's goroutine for one shard, worker pool and
// right-to-left merge for several) as live queries — but without
// taking any shard mutex, so they never serialize against writers:
// the pinned state is immutable and each shard's disk is guarded
// (emio.NewConcurrentDisk), which is all the concurrency control a
// read of immutable state needs.
package shard

import (
	"sort"
	"sync/atomic"

	"repro/internal/emio"
	"repro/internal/engine"
	"repro/internal/geom"
)

// shardView is one shard's pinned state: the top-open root (a dyntop
// handle, or the static index itself — it never mutates), the 4-sided
// handle, and the retention holding the shard disk's retired spans.
type shardView struct {
	top  topIndex
	four fourIndex
	ret  *emio.Retention
}

// fourIndex is the 4-sided query interface both the live index and its
// pinned handle satisfy.
type fourIndex interface {
	Query(q geom.Rect) []geom.Point
}

// Snapshot is a pinned point-in-time view of the engine, answering
// every Figure-2 shape byte-identically to what the live engine would
// have answered at the pin point. It implements engine.View. Reads
// take no shard locks; Release drops the per-shard retentions (and is
// idempotent). Concurrent reads on one Snapshot are safe.
type Snapshot struct {
	e      *Engine
	shards []*shardView
	// cuts is the shard partition pinned at snapshot time: a rebalance
	// transition may move the live engine's cuts afterwards, but this
	// snapshot keeps routing over the topology its views were captured
	// from (the retired shards it pins are never mutated again).
	cuts     []geom.Coord
	n        int
	released atomic.Bool
}

// Snapshot pins the engine's current state. Under the shared topology
// lock the per-shard locks are all acquired (in shard order — every
// other locker takes at most one, so the order cannot deadlock), the
// roots and the cut set are captured by pointer copy with a retention
// opened per shard disk first, and the locks are released.
func (e *Engine) Snapshot() (engine.View, error) {
	e.topoMu.RLock()
	for _, s := range e.shards {
		s.mu.Lock()
	}
	sv := &Snapshot{
		e:    e,
		cuts: append([]geom.Coord(nil), e.cuts...),
		n:    int(e.n.Load()),
	}
	for _, s := range e.shards {
		w := &shardView{ret: s.disk.RetainFrees()}
		if s.dyn != nil {
			w.top = s.dyn.Snapshot()
		} else {
			// Static index: immutable after build, the handle IS the
			// index (see topopen.Index.Snapshot); the retention alone
			// guards its spans.
			w.top = s.top
		}
		if s.four != nil {
			w.four = s.four.Snapshot()
		}
		sv.shards = append(sv.shards, w)
	}
	for _, s := range e.shards {
		s.mu.Unlock()
	}
	e.topoMu.RUnlock()
	return sv, nil
}

// Len returns the number of points in the pinned state.
func (sv *Snapshot) Len() int { return sv.n }

// Release drops every shard's retention, letting the spans the live
// engine retired during the snapshot's lifetime be reclaimed (the last
// holder reclaims them all — see emio's deferred frees). Idempotent.
func (sv *Snapshot) Release() {
	if sv.released.Swap(true) {
		return
	}
	for _, w := range sv.shards {
		w.ret.Release()
	}
}

// fanOut is the snapshot's lock-free counterpart of Engine.fanOut:
// the same gather over the pinned topology, with no shard mutexes,
// because the pinned state is immutable.
func (sv *Snapshot) fanOut(x1, x2 geom.Coord, query func(*shardView) []geom.Point) []geom.Point {
	if x1 > x2 {
		return nil
	}
	lo := sort.Search(len(sv.cuts), func(i int) bool { return x1 <= sv.cuts[i] })
	hi := sort.Search(len(sv.cuts), func(i int) bool { return x2 <= sv.cuts[i] })
	return sv.e.gather(lo, hi, func(i int) []geom.Point { return query(sv.shards[i]) })
}

// TopOpen reports the pinned range skyline of [x1,x2] × [beta, ∞).
func (sv *Snapshot) TopOpen(x1, x2, beta geom.Coord) []geom.Point {
	return sv.fanOut(x1, x2, func(w *shardView) []geom.Point {
		return w.top.Query(x1, x2, beta)
	})
}

// FourSided reports the pinned range skyline of an arbitrary rectangle
// from the per-shard 4-sided handles.
func (sv *Snapshot) FourSided(q geom.Rect) []geom.Point {
	if sv.e.opts.TopOnly {
		panic("shard: TopOnly engine serves only the top-open family")
	}
	if q.Y1 > q.Y2 {
		return nil
	}
	return sv.fanOut(q.X1, q.X2, func(w *shardView) []geom.Point {
		return w.four.Query(q)
	})
}

// RangeSkyline answers any Figure-2 rectangle against the pinned
// state, routed exactly like the live engine.
func (sv *Snapshot) RangeSkyline(q geom.Rect) []geom.Point {
	if q.IsTopOpen() {
		return sv.TopOpen(q.X1, q.X2, q.Y1)
	}
	return sv.FourSided(q)
}

// DeferredBlocks sums the shard disks' deferred-free queues: blocks
// retired by the live engine but held for open snapshots. Zero at
// quiescence with every snapshot released — the no-leak invariant the
// race stress asserts.
func (e *Engine) DeferredBlocks() int {
	total := 0
	e.eachDisk(func(d *emio.Disk) { total += d.DeferredBlocks() })
	return total
}

// LiveBlocks sums the blocks allocated on the shard disks, retired
// shards included: a retired shard is released at its transition, so
// its disk holds only what open snapshots still defer.
func (e *Engine) LiveBlocks() int {
	total := 0
	e.eachDisk(func(d *emio.Disk) { total += d.LiveBlocks() })
	return total
}

// PeakWords sums the serving shard disks' high-water marks of allocated
// words. Retired disks are left out: their peaks are history, and would
// grow the sum with every transition.
func (e *Engine) PeakWords() int64 {
	e.topoMu.RLock()
	defer e.topoMu.RUnlock()
	var total int64
	for _, s := range e.shards {
		total += s.disk.PeakWords()
	}
	return total
}

// Retained sums the shard disks' open retentions (one per shard per
// unreleased snapshot), including shards retired by rebalance
// transitions — a snapshot pinned before a transition still holds
// retentions on the retired disks.
func (e *Engine) Retained() int {
	total := 0
	e.eachDisk(func(d *emio.Disk) { total += d.Retained() })
	return total
}
