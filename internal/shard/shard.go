// Package shard implements a sharded, concurrent range skyline engine
// serving every Figure-2 query shape: the first scaling layer above the
// paper's single-machine structures. The point set is partitioned by
// x-range into K shards, each owning a private guarded emio.Disk. A
// dynamic shard's disk holds one structure: the Theorem 6 4-sided index
// (foursided), which owns the Theorem 4 dynamic tree (dyntop) that keeps
// the shard's points, answers the top-open family, and is what the
// 4-sided index reads its points from. A TopOnly shard holds the tree
// alone; a static shard holds the Theorem 1 index (topopen) for the
// top-open family and a 4-sided index beside it.
// A query fans out to the shards whose x-ranges overlap [x1, x2] through
// a bounded worker pool, and the per-shard skylines are merged
// right-to-left: a point survives exactly when its y exceeds the maximum
// y reported by every shard to its right. Because the shards are
// x-disjoint and each per-shard answer is a range skyline (increasing x,
// decreasing y), the same merge is correct for both families, and the
// merged answer is identical to one structure's over the whole point
// set. A query or batch that touches one shard — every one, at K = 1 —
// runs on the caller's goroutine with no pool task and no merge.
//
// Concurrency model: each shard serializes its own operations behind a
// mutex (one query or update at a time per shard — the simulated disk has
// one arm), so parallelism comes from spreading work across shards, the
// same seam that later layers (caching tiers, async update queues,
// multi-backend disks) plug into. Engine-level counters and the per-shard
// I/O statistics aggregate atomically and can be read at any time.
package shard

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dyntop"
	"repro/internal/emio"
	"repro/internal/engine"
	"repro/internal/extsort"
	"repro/internal/foursided"
	"repro/internal/geom"
	"repro/internal/topopen"
)

// Options configures a sharded engine. New takes the values as given,
// filling in defaults for zero fields: the refusals (ε outside [0, 1],
// Rebalance without Dynamic, MaxSkew below 1) live in
// core.Options.Validate, which every DB's options pass first.
type Options struct {
	// Machine is the simulated EM machine of each shard's private disk;
	// zero means emio.DefaultConfig().
	Machine emio.Config
	// Epsilon is the query/update trade-off parameter: the Theorem 4
	// exponent of the dynamic top-open structures and the Theorem 6
	// exponent of the per-shard 4-sided structures; zero means 0.5.
	Epsilon float64
	// Shards is the number of x-range partitions K; zero or one means a
	// single shard (no partitioning).
	Shards int
	// Workers bounds the number of per-shard tasks running
	// concurrently; zero means Shards.
	Workers int
	// Dynamic selects updatable per-shard structures (dyntop, Theorem
	// 4). A static engine uses topopen (Theorem 1) and rejects Insert
	// and Delete. The per-shard 4-sided structures exist in both modes
	// (Theorem 6 has no static variant); a static engine still answers
	// every query shape, it only refuses updates.
	Dynamic bool
	// TopOnly skips the per-shard Theorem 6 structures: the engine then
	// serves only the top-open family. This is the configuration of the
	// mirrored fast-path engine (engine.MirrorBackend over a sharded
	// backend): the mirror only ever receives reflected top-open
	// rectangles, so carrying 4-sided structures in the mirrored frame
	// would double its space for nothing.
	TopOnly bool
	// Rebalance enables online shard rebalancing: per-shard load
	// counters feed a policy that splits a hot shard's x-range in two or
	// merges two cold neighbors, rebuilding the affected structures off
	// to the side and swapping them in under a brief exclusive topology
	// lock (see rebalance.go for the transition protocol). Needs
	// Dynamic: a transition rebuilds dynamic structures.
	Rebalance bool
	// MaxSkew is the rebalance trigger: a shard whose load exceeds
	// MaxSkew × the mean per-shard load is split (and an adjacent pair
	// jointly colder than mean/MaxSkew is merged). Zero means 2.0.
	MaxSkew float64
	// MinShardPoints refuses splits that would leave a child below this
	// population; zero means 32.
	MinShardPoints int
	// MaxShards caps the shard count growth from splits; zero means
	// 4 × Shards.
	MaxShards int
	// RebalanceEvery is the policy check cadence in applied updates;
	// zero means 128.
	RebalanceEvery int
}

// Counters are the engine-level operation totals, aggregated atomically
// across all queries and updates.
type Counters struct {
	// Queries counts queries of every shape (TopOpen and FourSided).
	Queries uint64
	// Updates counts applied updates: Inserts (batch inserts count one
	// per point) and Deletes of present points. A Delete miss is not
	// counted.
	Updates uint64
	// Points counts skyline points reported by queries.
	Points uint64
}

// topIndex is the query interface both per-shard structures satisfy.
type topIndex interface {
	Query(x1, x2, beta geom.Coord) []geom.Point
}

// shard is one x-range partition; mu serializes every operation against
// its structure and disk. The dyntop tree's leaves are the only copy of
// a dynamic shard's points: a split or merge rebuilds from their scan,
// and the policy sizes the shard by the tree's Len.
type shard struct {
	mu   sync.Mutex
	disk *emio.Disk
	top  topIndex
	dyn  *dyntop.Tree     // the point store; non-nil iff the engine is dynamic
	four *foursided.Index // nil iff the engine is TopOnly
	// st is the one structure every write goes through: four, which
	// updates dyn itself, or dyn alone.
	st interface {
		Insert(...geom.Point)
		Delete(geom.Point) bool
		Release()
	}
	// gen counts mutations, guarded by mu: a rebuild captured at
	// generation g is only swapped in if the generation is still g.
	gen uint64
	// load counts operations routed to this shard since the last
	// rebalance decision; the policy reads the skew off these.
	load atomic.Uint64
}

// newShard builds a shard over chunk, which must be sorted by x, on a
// disk of its own.
func newShard(opts Options, chunk []geom.Point) *shard {
	s := &shard{disk: emio.NewConcurrentDisk(opts.Machine)}
	switch {
	case !opts.Dynamic:
		f := extsort.FromSlice(s.disk, 2, chunk)
		s.top = topopen.Build(s.disk, f)
		f.Free()
		if !opts.TopOnly {
			s.four = foursided.Build(s.disk, opts.Epsilon, chunk)
		}
		return s
	case opts.TopOnly:
		s.dyn = dyntop.BuildSABE(s.disk, opts.Epsilon, chunk)
		s.st = s.dyn
	default:
		s.four = foursided.Build(s.disk, opts.Epsilon, chunk)
		s.dyn, s.st = s.four.Top(), s.four
	}
	s.top = s.dyn
	return s
}

// Engine is a sharded concurrent range skyline engine serving every
// Figure-2 query shape. It implements the engine.Backend interface.
type Engine struct {
	engine.WriteVerbs
	opts Options
	// topoMu guards shards and cuts as a pair. Every operation holds it
	// shared for its full duration (so the shard pointers it routed to
	// cannot be retired mid-flight); a rebalance transition builds new
	// shards unlocked and takes it exclusively only for the final swap.
	topoMu sync.RWMutex
	shards []*shard
	// cuts[i] is the largest x owned by shard i (len K-1): shard i
	// covers (cuts[i-1], cuts[i]], the last shard covers (cuts[K-2], ∞).
	cuts []geom.Coord
	// retired holds shards swapped out by transitions, for their disks:
	// open snapshots hold retentions on them and their I/O history stays
	// in Stats. Appended under topoMu held exclusively; the structures
	// are released right after (see shard.release).
	retired []*shard
	sem     chan struct{}

	// rebalMu serializes transitions (policy-triggered and forced) and
	// guards listener. Lock order: rebalMu before topoMu; shard.mu only
	// innermost. maybeRebalance uses TryLock, so update paths never
	// block on an in-flight transition.
	rebalMu  sync.Mutex
	listener func([]geom.Coord)
	splits   atomic.Uint64
	merges   atomic.Uint64
	rebalOps atomic.Uint64

	n atomic.Int64

	queries atomic.Uint64
	updates atomic.Uint64
	points  atomic.Uint64
}

// New builds an engine over pts, which must be strictly sorted by x (use
// geom.SortByX; general position is the caller's contract, as for the
// underlying structures). The points are split into K contiguous x-ranges
// of near-equal population.
func New(opts Options, pts []geom.Point) (*Engine, error) {
	if opts.Machine.B == 0 {
		opts.Machine = emio.DefaultConfig()
	}
	if opts.Epsilon == 0 {
		opts.Epsilon = 0.5
	}
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	if opts.Workers < 1 {
		opts.Workers = opts.Shards
	}
	if opts.Rebalance {
		if opts.MaxSkew == 0 {
			opts.MaxSkew = 2.0
		}
		if opts.MinShardPoints == 0 {
			opts.MinShardPoints = 32
		}
		if opts.MaxShards == 0 {
			opts.MaxShards = 4 * opts.Shards
		}
		if opts.RebalanceEvery == 0 {
			opts.RebalanceEvery = 128
		}
	}
	for i := 1; i < len(pts); i++ {
		if pts[i-1].X >= pts[i].X {
			return nil, fmt.Errorf("shard: input not strictly sorted by x at index %d", i)
		}
	}
	k := opts.Shards
	e := &Engine{
		opts: opts,
		sem:  make(chan struct{}, opts.Workers),
	}
	e.WriteVerbs = engine.VerbsOf(e.Apply)
	e.n.Store(int64(len(pts)))
	n := len(pts)
	prevCut := geom.Coord(math.MinInt64)
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		chunk := pts[lo:hi]
		e.shards = append(e.shards, newShard(opts, chunk))
		if i < k-1 {
			cut := prevCut
			if hi > lo {
				cut = chunk[len(chunk)-1].X
			}
			e.cuts = append(e.cuts, cut)
			prevCut = cut
		}
	}
	return e, nil
}

// Len returns the number of indexed points.
func (e *Engine) Len() int { return int(e.n.Load()) }

// Points returns every indexed point in increasing-x order, read from
// the dyntop leaves: under the shared topology lock it takes each
// shard's lock in cut order and concatenates the shards' leaf scans,
// which are x-disjoint and come out sorted (the capture a rebalance
// transition makes). Each scan charges its shard's disk for the leaf
// spans it reads. Writers to other shards may run between two shards'
// scans, so the result is a consistent cut only when the caller keeps
// writers out, as core's checkpoint does under the WAL layer's mutex.
// Dynamic engines only: a static engine's topopen index keeps no leaf
// scan, and it has no writes to checkpoint either.
func (e *Engine) Points() []geom.Point {
	if !e.opts.Dynamic {
		panic("shard: Points needs a dynamic engine")
	}
	e.topoMu.RLock()
	defer e.topoMu.RUnlock()
	pts, _ := capture(e.shards)
	return pts
}

// NumShards returns the partition count K (which rebalancing engines
// change over time).
func (e *Engine) NumShards() int {
	e.topoMu.RLock()
	defer e.topoMu.RUnlock()
	return len(e.shards)
}

// Dynamic reports whether the engine accepts updates.
func (e *Engine) Dynamic() bool { return e.opts.Dynamic }

// Counters returns the engine-level operation totals. Safe to call while
// operations are in flight.
func (e *Engine) Counters() Counters {
	return Counters{
		Queries: e.queries.Load(),
		Updates: e.updates.Load(),
		Points:  e.points.Load(),
	}
}

// eachDisk calls fn on every shard disk, shards retired by rebalance
// transitions included, under the shared topology lock.
func (e *Engine) eachDisk(fn func(d *emio.Disk)) {
	e.topoMu.RLock()
	defer e.topoMu.RUnlock()
	for _, s := range e.shards {
		fn(s.disk)
	}
	for _, s := range e.retired {
		fn(s.disk)
	}
}

// Stats aggregates the I/O counters of every shard disk, including
// shards retired by rebalance transitions, so the totals stay monotonic
// across topology changes. Safe to call while operations are in flight
// (the counters are atomic).
func (e *Engine) Stats() emio.Stats {
	var total emio.Stats
	e.eachDisk(func(d *emio.Disk) { total = total.Add(d.Stats()) })
	return total
}

// ResetStats zeroes every shard disk's I/O counters (retired shards
// included, so a reset truly re-baselines Stats).
func (e *Engine) ResetStats() { e.eachDisk((*emio.Disk).ResetStats) }

// DropCache evicts every unpinned frame of every shard disk, so the
// next query runs against a cold cache.
func (e *Engine) DropCache() { e.eachDisk((*emio.Disk).DropCache) }

// ShardDisk exposes shard i's disk for per-shard measurements.
func (e *Engine) ShardDisk(i int) *emio.Disk {
	e.topoMu.RLock()
	defer e.topoMu.RUnlock()
	return e.shards[i].disk
}

// Quiesce blocks until every in-flight per-shard task has completed: it
// fills the worker semaphore (once all slots are held, no pooled
// goroutine can still be running) and takes each shard's mutex once (no
// caller-inlined task can be mid-operation), then releases everything.
// It does not stop NEW operations — callers wanting a true shutdown
// (core.DB.Close) stop issuing work first, then Quiesce guarantees the
// engine's goroutines and shard structures are at rest.
func (e *Engine) Quiesce() {
	for i := 0; i < cap(e.sem); i++ {
		e.sem <- struct{}{}
	}
	e.topoMu.RLock()
	for _, s := range e.shards {
		s.mu.Lock()
		s.mu.Unlock() //nolint:staticcheck // empty critical section is the point: a barrier
	}
	e.topoMu.RUnlock()
	for i := 0; i < cap(e.sem); i++ {
		<-e.sem
	}
}

// Cuts returns the x-coordinates partitioning the shards: cut i is the
// largest x owned by shard i, so shard i covers (cuts[i-1], cuts[i]]
// and the last shard covers (cuts[K-2], +∞). The cuts are fixed at
// build time unless Options.Rebalance moves them; SetCutsListener
// delivers every change.
func (e *Engine) Cuts() []geom.Coord {
	e.topoMu.RLock()
	defer e.topoMu.RUnlock()
	return append([]geom.Coord(nil), e.cuts...)
}

// Partition reports Cuts as the x-cuts, for engine.Backend: it is how
// an async queue wrapping this engine learns to slab on its shards, so
// a drain is a batch localized to one shard.
func (e *Engine) Partition() (xcuts []geom.Coord) { return e.Cuts() }

// shardFor returns the index of the shard owning x.
func (e *Engine) shardFor(x geom.Coord) int {
	return sort.Search(len(e.cuts), func(i int) bool { return x <= e.cuts[i] })
}

// submit runs fn through the worker pool: on a free worker slot it runs
// in a new goroutine, otherwise the caller runs it inline (which bounds
// both goroutine count and queueing without risking deadlock).
func (e *Engine) submit(wg *sync.WaitGroup, fn func()) {
	wg.Add(1)
	select {
	case e.sem <- struct{}{}:
		go func() {
			defer func() { <-e.sem; wg.Done() }()
			fn()
		}()
	default:
		fn()
		wg.Done()
	}
}

// partsPool recycles the per-shard fan-out buffers: every query needs a
// [][]Point with one slot per overlapped shard, and allocating it fresh
// per query dominated the merge's allocation profile (see
// BenchmarkMergeAlloc). Entries are nilled before a buffer is returned
// so pooled buffers never pin per-shard answers.
var partsPool = sync.Pool{New: func() any { return new([][]geom.Point) }}

// fanOut runs query under the shard lock of every shard overlapping
// [x1, x2] and merges the per-shard skylines (see gather). Both query
// families share it: shards are x-disjoint and each per-shard answer is
// a range skyline, so the max-y survivor merge is exact.
func (e *Engine) fanOut(x1, x2 geom.Coord, query func(*shard) []geom.Point) []geom.Point {
	e.queries.Add(1)
	if x1 > x2 {
		return nil
	}
	e.topoMu.RLock()
	defer e.topoMu.RUnlock()
	out := e.gather(e.shardFor(x1), e.shardFor(x2), func(i int) []geom.Point {
		s := e.shards[i]
		s.load.Add(1)
		s.mu.Lock()
		defer s.mu.Unlock()
		return query(s)
	})
	e.points.Add(uint64(len(out)))
	return out
}

// gather runs part(i) for every shard i in [lo, hi] and merges the
// per-shard skylines right-to-left. A single shard runs on the caller's
// goroutine and its answer is returned as is — no pool task, no pooled
// buffer, no merge — exactly as Apply runs a one-shard batch. Several
// shards run through the worker pool into a pooled buffer.
func (e *Engine) gather(lo, hi int, part func(i int) []geom.Point) []geom.Point {
	if lo == hi {
		if out := part(lo); len(out) > 0 {
			return out
		}
		return nil
	}
	pp := partsPool.Get().(*[][]geom.Point)
	parts := *pp
	if need := hi - lo + 1; cap(parts) < need {
		parts = make([][]geom.Point, need)
	} else {
		parts = parts[:need]
	}
	var wg sync.WaitGroup
	for i := lo; i <= hi; i++ {
		e.submit(&wg, func() { parts[i-lo] = part(i) })
	}
	wg.Wait()
	out := mergeSkylines(parts)
	for i := range parts {
		parts[i] = nil
	}
	*pp = parts[:0]
	partsPool.Put(pp)
	return out
}

// TopOpen reports the range skyline of [x1,x2] × [beta, ∞) in
// increasing-x order, fanning the query out to the overlapping shards and
// merging their answers. The result is identical to one top-open
// structure's over the whole point set.
func (e *Engine) TopOpen(x1, x2, beta geom.Coord) []geom.Point {
	return e.fanOut(x1, x2, func(s *shard) []geom.Point {
		return s.top.Query(x1, x2, beta)
	})
}

// FourSided reports the range skyline of an arbitrary rectangle (the
// 4-sided family: 4-sided, left-open, right-open, bottom-open,
// anti-dominance) from the per-shard Theorem 6 structures, merged
// exactly like TopOpen. The result is identical to one
// foursided.Index's over the whole point set. A TopOnly engine has no
// Theorem 6 structures and panics — its owner (the mirror backend)
// routes only reflected top-open rectangles here.
func (e *Engine) FourSided(q geom.Rect) []geom.Point {
	if e.opts.TopOnly {
		panic("shard: TopOnly engine serves only the top-open family")
	}
	if q.Y1 > q.Y2 {
		e.queries.Add(1)
		return nil
	}
	return e.fanOut(q.X1, q.X2, func(s *shard) []geom.Point {
		return s.four.Query(q)
	})
}

// RangeSkyline answers any Figure-2 rectangle, routing the top-open
// family to the per-shard top-open structures and everything else to the
// per-shard 4-sided structures.
func (e *Engine) RangeSkyline(q geom.Rect) []geom.Point {
	if q.IsTopOpen() {
		return e.TopOpen(q.X1, q.X2, q.Y1)
	}
	return e.FourSided(q)
}

// Skyline reports the skyline of the whole point set.
func (e *Engine) Skyline() []geom.Point {
	return e.TopOpen(geom.NegInf, geom.PosInf, geom.NegInf)
}

// mergeSkylines concatenates per-shard range skylines (ordered by shard,
// i.e. by x) after deleting cross-shard dominated points: scanning
// right-to-left, a point survives iff its y exceeds the best y of every
// shard to its right. Within a shard the skyline is decreasing in y, so
// the survivors of each shard form a prefix. When a single shard
// contributes every survivor — the common case for narrow queries — its
// buffer is handed through without copying (it is freshly allocated by
// the per-shard structure and owned by nobody else).
func mergeSkylines(parts [][]geom.Point) []geom.Point {
	best := geom.Coord(math.MinInt64)
	total := 0
	sole := -1 // index of the only contributing shard, -1 if several
	for i := len(parts) - 1; i >= 0; i-- {
		sky := parts[i]
		cut := sort.Search(len(sky), func(j int) bool { return sky[j].Y <= best })
		parts[i] = sky[:cut]
		if cut > 0 {
			if total == 0 {
				sole = i
			} else {
				sole = -1
			}
			total += cut
		}
		if len(sky) > 0 && sky[0].Y > best {
			best = sky[0].Y
		}
	}
	if total == 0 {
		return nil
	}
	if sole >= 0 {
		return parts[sole]
	}
	out := make([]geom.Point, 0, total)
	for _, sky := range parts {
		out = append(out, sky...)
	}
	return out
}

// Apply deletes dels, then inserts inss, on a dynamic engine, and
// returns the subset of dels that was present and removed, in dels
// order. Points are grouped by destination shard and each shard's group
// runs as one task — its lock taken once for the batch, deletes before
// inserts, a delete miss mutating nothing — so disjoint shards apply in
// parallel through the worker pool. A batch touching one shard (every
// single-point write) runs on the caller's goroutine. Because each shard
// serializes its deletes, concurrent overlapping batches resolve every
// contended point to exactly one caller, and the removed subsets they
// report are disjoint. The first structural-corruption error, if any, is
// returned after every group finishes; the failing shard skips its
// inserts (the group's re-inserts must not outlive a failed delete).
func (e *Engine) Apply(dels, inss []geom.Point) ([]geom.Point, error) {
	if !e.opts.Dynamic {
		return nil, fmt.Errorf("shard: engine opened static; reopen with Options.Dynamic")
	}
	if len(dels) == 0 && len(inss) == 0 {
		return nil, nil
	}
	hit := make([]bool, len(dels))
	e.topoMu.RLock()
	groups := e.groupByShard(dels, inss)
	for _, g := range groups {
		g.s.load.Add(uint64(len(g.dels) + len(g.inss)))
	}
	if len(groups) == 1 {
		groups[0].apply(dels, hit)
	} else {
		var wg sync.WaitGroup
		for i := range groups {
			e.submit(&wg, func() { groups[i].apply(dels, hit) })
		}
		wg.Wait()
	}
	e.topoMu.RUnlock()

	var removed []geom.Point
	for i, p := range dels {
		if hit[i] {
			removed = append(removed, p)
		}
	}
	inserted := 0
	var firstErr error
	for _, g := range groups {
		if g.err == nil {
			inserted += len(g.inss)
		} else if firstErr == nil {
			firstErr = g.err
		}
	}
	applied := inserted + len(removed)
	e.n.Add(int64(inserted - len(removed)))
	e.updates.Add(uint64(applied))
	e.maybeRebalance(applied)
	return removed, firstErr
}

// shardBatch is one shard's slice of an Apply batch: the indexes of its
// deletes in the batch's dels, its inserts, and the corruption error
// that stopped it, if any.
type shardBatch struct {
	s    *shard
	dels []int
	inss []geom.Point
	err  error
}

// apply runs the group under one hold of its shard's lock, marking each
// delete that hit in hit (indexed like dels): the deletes, then the
// inserts in one call, which the structure orders itself
// (foursided.Index.Insert). A miss mutates nothing. Corruption
// (foursided.Index.Err) stops each group before its inserts until the
// index's next global rebuild, and the hits stand — the points did
// leave the tree — so callers keep their size accounting consistent.
func (g *shardBatch) apply(dels []geom.Point, hit []bool) {
	s := g.s
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, i := range g.dels {
		if hit[i] = s.st.Delete(dels[i]); hit[i] {
			s.gen++
		}
	}
	if s.four != nil {
		if g.err = s.four.Err(); g.err != nil {
			return
		}
	}
	s.st.Insert(g.inss...)
	s.gen += uint64(len(g.inss))
}

// groupByShard splits a batch by destination shard, in first-touch
// order. Caller holds topoMu shared.
func (e *Engine) groupByShard(dels, inss []geom.Point) []shardBatch {
	var groups []shardBatch
	group := func(x geom.Coord) *shardBatch {
		s := e.shards[e.shardFor(x)]
		for i := range groups {
			if groups[i].s == s {
				return &groups[i]
			}
		}
		groups = append(groups, shardBatch{s: s})
		return &groups[len(groups)-1]
	}
	for i, p := range dels {
		g := group(p.X)
		g.dels = append(g.dels, i)
	}
	for _, p := range inss {
		g := group(p.X)
		g.inss = append(g.inss, p)
	}
	return groups
}
