// AsyncQueue: the buffered write path of the engine. It wraps any
// Backend — in core.DB the write-ahead log over the read-through cache
// over the planner, or any suffix of that stack — and turns writes into
// appends to per-x-slab buffers that return without touching the
// underlying structures, so writer latency is independent of structure
// rebuild costs (the dyntop global rebuilds, the Theorem 6
// reconstruction cascades). A buffer drains as ONE Apply(dels, inss) on
// the wrapped backend: each shard lock is taken once per phase, a
// LogBackend appends one WAL record, and a CacheBackend fires one
// invalidation sweep — per drained batch, not per point.
//
// Slabbing: the queue learns the wrapped backend's x-cuts from
// Backend.Partition at construction (a shard.Engine reports its cuts,
// and every wrapping layer forwards what it wraps), so each buffer
// covers one x-slab and a drain is a batch localized to one shard. An
// unpartitioned backend gives one slab and one buffer.
//
// Consistency contract — drain-on-read: RangeSkyline first drains every
// buffer whose x-slab intersects the query rectangle, then queries the
// wrapped backend, so queued answers are byte-identical to a synchronous
// engine that applied every accepted write immediately. The rectangle
// can only contain points whose x lies inside it, and every such point's
// buffered writes live in an intersecting slab, so draining those slabs
// is sufficient — buffered writes in other slabs cannot change the
// answer. Deletes are first-class: a buffered delete drains before the
// read, so a deleted point is never visible as live, even though the
// delete itself returned before touching any structure.
//
// Per-point coalescing: opposite buffered writes against the same point
// cancel without ever reaching the structures. The state machine is
// exact about the one asymmetry: insert-then-delete of a buffered point
// is a pure no-op (the point never existed), but delete-then-insert must
// keep BOTH ops — the delete may hit a point the structures already
// hold, and replaying delete-before-insert is what makes the re-insert
// legal either way. Drains therefore apply each batch's deletes before
// its inserts; across distinct points the order is irrelevant (general
// position makes batches sets).
//
// Draining is triggered three ways: a buffer reaching FlushPoints is
// drained inline by the writer that filled it (amortized: one batch
// apply per FlushPoints accepted writes — and deliberately synchronous,
// so a single-threaded workload drains at deterministic points and the
// E15 benchguard gate can compare drain counters and simulated I/Os
// exactly across hosts); a background drainer flushes idle buffers every
// FlushInterval; and Flush/Close drain everything on demand.
package engine

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
)

// QueueOptions configures an AsyncQueue. NewAsyncQueue takes the values
// as given; core.Options.Validate refuses negative ones.
type QueueOptions struct {
	// FlushPoints is the per-buffer threshold: a buffer holding this
	// many pending points is drained inline by the writer that filled
	// it. Zero means 128.
	FlushPoints int
	// FlushInterval is the background drainer's period: every interval
	// it flushes whatever the size and read triggers left buffered.
	// Zero means 100ms; negative disables the background drainer
	// entirely (reads, FlushPoints and explicit Flush still drain —
	// the deterministic configuration the E15 gate runs).
	FlushInterval time.Duration
	// MaxBuffered is the admission-control cap: the maximum number of
	// distinct points one slab buffer may hold. A write that would
	// push a slab past the cap either blocks (default: the writer
	// drains the slab inline and retries — backpressure as latency) or
	// is shed with ErrBackpressure (ShedWrites true — backpressure as
	// load shedding). Zero means unlimited.
	// MaxBuffered below FlushPoints is legal but pointless: the
	// FlushPoints trigger drains first.
	MaxBuffered int
	// ShedWrites selects the shed policy for MaxBuffered overflow:
	// reject the write with ErrBackpressure instead of blocking the
	// writer behind an inline drain.
	ShedWrites bool
}

// QueueCounters are an AsyncQueue's operation totals. At quiescence
// (after Flush, with no writers in flight) they satisfy
// Enqueued == Drained + Coalesced.
type QueueCounters struct {
	// Enqueued counts accepted writes, one per point.
	Enqueued uint64
	// Drained counts buffered writes applied to the wrapped backend
	// (a drained delete that misses still counts: it was applied).
	Drained uint64
	// Coalesced counts buffered writes cancelled in-buffer and never
	// applied: an insert/delete pair against the same point counts
	// two, a duplicate buffered delete (a guaranteed miss) counts one.
	Coalesced uint64
	// ForcedDrains counts non-empty drains forced by reads — the
	// drain-on-read consistency rule paying its cost. Size-, timer-
	// and Flush-triggered drains are not forced.
	ForcedDrains uint64
	// ReadDrains counts buffered writes applied by read-forced drains:
	// the slice of Drained charged to readers rather than to the size,
	// timer or Flush triggers. It is the work a reader had to perform
	// inline before its query could run — exactly the contention a
	// snapshot read (which never drains) removes, and what skybench E17
	// measures.
	ReadDrains uint64
	// Shed counts writes rejected with ErrBackpressure by the
	// MaxBuffered cap under the shed policy. A shed write was never
	// accepted — it is absent from Enqueued.
	Shed uint64
	// Blocked counts writes that hit the MaxBuffered cap under the
	// block policy and had to drain their slab inline before being
	// accepted (each admission retry counts one).
	Blocked uint64
	// Slabs holds the per-slab depth/drain breakdown — the telemetry
	// the rebalance policy reads, surfaced for operators. Slab i covers
	// the queue's i-th x-slab; a rebalance reshape replaces the slabs,
	// so per-slab totals restart at each cut change (pending writes
	// migrate and stay visible in Depth).
	Slabs []SlabQueueCounters
}

// SlabQueueCounters are one x-slab buffer's totals since the slab was
// created (queue construction, or the last cut change).
type SlabQueueCounters struct {
	// Depth is the number of points with pending buffered writes.
	Depth int
	// Enqueued counts writes accepted into this slab.
	Enqueued uint64
	// Drained counts buffered writes this slab applied to the backend.
	Drained uint64
}

// pendingState is a point's buffered-write state inside one slab.
type pendingState int8

const (
	// pendingIns: one buffered insert.
	pendingIns pendingState = iota + 1
	// pendingDel: one buffered delete.
	pendingDel
	// pendingDelIns: a buffered delete followed by a buffered
	// re-insert. Both must drain, delete first: the delete may hit a
	// point the structures hold, and removing it first is what makes
	// the re-insert legal.
	pendingDelIns
)

// slabBuf is one x-slab's write buffer. mu guards the pending map and
// the arrival order; drainMu serializes whole drains (swap + apply), so
// a reader that acquires it observes every previously swapped batch
// fully applied — the lock the drain-on-read exactness rests on.
// Writers only ever take mu, so enqueues never wait for an apply.
type slabBuf struct {
	drainMu sync.Mutex
	mu      sync.Mutex
	pending map[geom.Point]pendingState
	// order records first-arrival order so drains replay
	// deterministically (map iteration would not); cancelled points
	// stay in the slice and are skipped at drain.
	order []geom.Point
	// enqueued/drained are this slab's telemetry counters.
	enqueued atomic.Uint64
	drained  atomic.Uint64
}

func newSlabBuf() *slabBuf {
	return &slabBuf{pending: make(map[geom.Point]pendingState)}
}

// AsyncQueue is a buffering write-behind layer over any Backend. It
// implements Backend: writes are buffered per x-slab and applied in
// batches; reads drain the slabs they intersect first, so answers are
// byte-identical to a synchronous engine's.
type AsyncQueue struct {
	WriteVerbs
	inner Backend
	opts  QueueOptions
	// topoMu guards cuts and slabs as a pair. Every public operation
	// holds it shared for its full duration — enqueue through any inline
	// drain, drain-on-read through the inner query — and a cut change
	// (reshape) takes it exclusively, so no read can observe the window
	// where buffered ops are mid-migration between slab sets. The write
	// lock is only ever taken by the reshape goroutine (never on a
	// caller's stack, which may already hold the read side through a
	// drain), so the read side cannot self-deadlock.
	topoMu sync.RWMutex
	cuts   []geom.Coord
	slabs  []*slabBuf

	// reshapeMu guards the pending-cuts mailbox; reshaper reports
	// whether the goroutine applying mailbox entries is running.
	reshapeMu sync.Mutex
	wantCuts  []geom.Coord
	haveWant  bool
	reshaper  bool

	// applied is the net point-count delta the drains have applied:
	// +1 per drained insert, -1 per drained delete that hit. With all
	// buffers drained, initial size + applied is the exact live count.
	applied atomic.Int64

	enqueued    atomic.Uint64
	drained     atomic.Uint64
	coalesced   atomic.Uint64
	forced      atomic.Uint64
	readDrained atomic.Uint64
	shed        atomic.Uint64
	blocked     atomic.Uint64

	closed atomic.Bool
	// closeMu serializes Close callers, so a second Close cannot
	// return before the first finished draining.
	closeMu sync.Mutex
	stop    chan struct{}
	done    chan struct{}

	// firstErr latches the first apply error any drain ever hit —
	// background tick, drain-on-read, or explicit Flush. It is never
	// cleared: callers like core.DB.Len legitimately discard Flush's
	// return value, so a take-and-clear would silently lose the error.
	// Every later Flush and Close keeps returning it.
	errMu    sync.Mutex
	firstErr error
}

// NewAsyncQueue wraps inner with an asynchronous write queue. The slabs
// are inner.Partition()'s x-cuts, so they coincide with the engine's
// shards. The background drainer starts immediately unless
// opts.FlushInterval is negative; callers owning a queue must Close it
// to stop that goroutine. The error is always nil.
func NewAsyncQueue(inner Backend, opts QueueOptions) (*AsyncQueue, error) {
	if opts.FlushPoints == 0 {
		opts.FlushPoints = 128
	}
	if opts.FlushInterval == 0 {
		opts.FlushInterval = 100 * time.Millisecond
	}
	xcuts := inner.Partition()
	q := &AsyncQueue{
		inner: inner,
		opts:  opts,
		cuts:  xcuts,
		slabs: make([]*slabBuf, len(xcuts)+1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	q.WriteVerbs = VerbsOf(q.Apply)
	for i := range q.slabs {
		q.slabs[i] = newSlabBuf()
	}
	if opts.FlushInterval > 0 {
		go q.drainLoop()
	} else {
		close(q.done)
	}
	return q, nil
}

// drainLoop is the background drainer: every FlushInterval it flushes
// whatever the size and read triggers left buffered, so an idle index
// converges to fully-applied state without waiting for the next read.
func (q *AsyncQueue) drainLoop() {
	defer close(q.done)
	t := time.NewTicker(q.opts.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-q.stop:
			return
		case <-t.C:
			// Errors are not lost here: drainSlab latches the first one
			// and the next explicit Flush or Close surfaces it.
			q.Flush() //errlint:ok error latches sticky; surfaced by Flush/Close/Err
		}
	}
}

// Inner returns the wrapped backend drains apply to.
func (q *AsyncQueue) Inner() Backend { return q.inner }

// NumSlabs returns the number of per-x-slab buffers (the wrapped
// engine's shard count, or 1 without partition information).
func (q *AsyncQueue) NumSlabs() int {
	q.topoMu.RLock()
	defer q.topoMu.RUnlock()
	return len(q.slabs)
}

// SetCuts re-learns the slab partition after the wrapped engine
// rebalanced its cuts, migrating every buffered op — coalescing state
// intact — into the slab set the new cuts define. The reshape is
// deferred to a dedicated goroutine because SetCuts may be called from
// a cuts listener firing underneath one of this queue's own drains,
// whose caller already holds the topology lock the reshape must take
// exclusively. Consecutive calls coalesce to the latest cut set; until
// the reshape lands, the old slabs keep serving — slab/cut misalignment
// affects drain granularity only, never answers (drain-on-read drains
// every slab whose x-range intersects the query, under either cut set).
func (q *AsyncQueue) SetCuts(cuts []geom.Coord) {
	q.reshapeMu.Lock()
	q.wantCuts = append([]geom.Coord(nil), cuts...)
	q.haveWant = true
	if !q.reshaper {
		q.reshaper = true
		go q.reshapeLoop()
	}
	q.reshapeMu.Unlock()
}

// reshapeLoop applies mailbox entries until the mailbox is empty, then
// exits. SetCuts restarts it on demand.
func (q *AsyncQueue) reshapeLoop() {
	for {
		q.reshapeMu.Lock()
		if !q.haveWant {
			q.reshaper = false
			q.reshapeMu.Unlock()
			return
		}
		cuts := q.wantCuts
		q.wantCuts, q.haveWant = nil, false
		q.reshapeMu.Unlock()
		q.applyCuts(cuts)
	}
}

// applyCuts performs one reshape under the exclusive topology lock:
// build empty slabs for the new cuts, then move every pending op across
// in arrival order. Each point lives in exactly one old slab (the old
// cuts routed it deterministically), so its state lands in an empty
// spot in its new slab and the coalescing state machine carries over
// verbatim — a pendingDelIns stays a delete-then-reinsert, and later
// enqueues coalesce against the migrated state exactly as they would
// have against the original buffer.
func (q *AsyncQueue) applyCuts(cuts []geom.Coord) {
	q.topoMu.Lock()
	defer q.topoMu.Unlock()
	old := q.slabs
	q.cuts = append([]geom.Coord(nil), cuts...)
	q.slabs = make([]*slabBuf, len(q.cuts)+1)
	for i := range q.slabs {
		q.slabs[i] = newSlabBuf()
	}
	for _, s := range old {
		for _, p := range s.order {
			st, ok := s.pending[p]
			if !ok {
				continue // coalesced away before the reshape
			}
			delete(s.pending, p)
			d := q.slabs[bucketFor(q.cuts, p.X)]
			d.pending[p] = st
			d.order = append(d.order, p)
		}
	}
}

// FlushPoints returns the per-buffer drain threshold in effect.
func (q *AsyncQueue) FlushPoints() int { return q.opts.FlushPoints }

// Counters returns the queue's operation totals, including the
// per-slab breakdown. Safe to call while operations are in flight.
func (q *AsyncQueue) Counters() QueueCounters {
	ctr := QueueCounters{
		Enqueued:     q.enqueued.Load(),
		Drained:      q.drained.Load(),
		Coalesced:    q.coalesced.Load(),
		ForcedDrains: q.forced.Load(),
		ReadDrains:   q.readDrained.Load(),
		Shed:         q.shed.Load(),
		Blocked:      q.blocked.Load(),
	}
	q.topoMu.RLock()
	defer q.topoMu.RUnlock()
	ctr.Slabs = make([]SlabQueueCounters, len(q.slabs))
	for i, s := range q.slabs {
		s.mu.Lock()
		ctr.Slabs[i] = SlabQueueCounters{
			Depth:    len(s.pending),
			Enqueued: s.enqueued.Load(),
			Drained:  s.drained.Load(),
		}
		s.mu.Unlock()
	}
	return ctr
}

// Buffered returns the number of points with pending buffered writes
// across all slabs (a delete-then-reinsert pair counts one point).
func (q *AsyncQueue) Buffered() int {
	q.topoMu.RLock()
	defer q.topoMu.RUnlock()
	n := 0
	for _, s := range q.slabs {
		s.mu.Lock()
		n += len(s.pending)
		s.mu.Unlock()
	}
	return n
}

// AppliedDelta returns the net point-count change the drains have
// applied so far: +1 per drained insert, -1 per drained delete that
// hit a live point. After a Flush with no writers in flight,
// initial size + AppliedDelta is the exact number of live points —
// this is how core.DB keeps Len exact over buffered deletes whose
// hit-or-miss resolution only happens at drain time.
func (q *AsyncQueue) AppliedDelta() int64 { return q.applied.Load() }

// errQueueClosed is returned by writes arriving after Close.
func errQueueClosed() error { return fmt.Errorf("engine: async queue rejects write: %w", ErrClosed) }

// enqueue buffers one write (del=false for insert) and reports the
// buffer's pending size so the caller can apply the FlushPoints
// trigger. The per-point state machine coalesces opposite writes: see
// the package comment for why delete-then-insert keeps both ops while
// insert-then-delete cancels outright. The closed check runs UNDER the
// slab lock: Close sets the flag before its final flush, and that
// flush must take this same lock to swap the buffer — so a write
// racing Close is either rejected here or included in the final flush,
// never accepted into a buffer nothing will ever drain. A latched
// drain error rejects the write with ErrDegraded under the same lock,
// so no write is ever accepted into a frozen buffer. The MaxBuffered
// admission check applies only to writes that would add a NEW point
// (state transitions of already-buffered points change no depth):
// under the shed policy the write is rejected with ErrBackpressure;
// under the block policy the writer drains the slab inline and
// retries — it pays the latency its own backlog created.
// Caller holds topoMu shared.
func (q *AsyncQueue) enqueue(p geom.Point, del bool) (s *slabBuf, size int, err error) {
	slab := bucketFor(q.cuts, p.X)
	s = q.slabs[slab]
	s.mu.Lock()
	for {
		if q.closed.Load() {
			s.mu.Unlock()
			return s, 0, errQueueClosed()
		}
		if derr := q.Err(); derr != nil {
			s.mu.Unlock()
			return s, 0, fmt.Errorf("%w: %w", ErrDegraded, derr)
		}
		_, buffered := s.pending[p]
		if q.opts.MaxBuffered <= 0 || buffered || len(s.pending) < q.opts.MaxBuffered {
			break
		}
		s.mu.Unlock()
		if q.opts.ShedWrites {
			q.shed.Add(1)
			return s, 0, fmt.Errorf("engine: slab %d at MaxBuffered %d: %w",
				slab, q.opts.MaxBuffered, ErrBackpressure)
		}
		q.blocked.Add(1)
		if derr := q.drainSlab(s, false); derr != nil {
			// The drain failed and latched; the write was never
			// accepted. Without this return the loop would spin on a
			// frozen, forever-full slab.
			return s, 0, fmt.Errorf("%w: %w", ErrDegraded, derr)
		}
		s.mu.Lock()
	}
	st, buffered := s.pending[p]
	if !del {
		switch {
		case !buffered:
			s.pending[p] = pendingIns
			s.order = append(s.order, p)
		case st == pendingDel:
			s.pending[p] = pendingDelIns
		default:
			// A buffered insert already exists: a duplicate insert of
			// a live point violates general position (the caller's
			// contract, as everywhere in the repository); dropping it
			// keeps the buffer a set.
		}
	} else {
		switch {
		case !buffered:
			s.pending[p] = pendingDel
			s.order = append(s.order, p)
		case st == pendingIns:
			// Insert-then-delete of a point the structures never saw:
			// a pure no-op, both writes cancel.
			delete(s.pending, p)
			q.coalesced.Add(2)
		case st == pendingDelIns:
			// The trailing re-insert cancels against this delete; the
			// original delete stays pending.
			s.pending[p] = pendingDel
			q.coalesced.Add(2)
		default:
			// Duplicate buffered delete: the second is a guaranteed
			// miss (the first already claims the point), drop it.
			q.coalesced.Add(1)
		}
	}
	size = len(s.pending)
	s.mu.Unlock()
	s.enqueued.Add(1)
	q.enqueued.Add(1)
	return s, size, nil
}

// drainSlab flushes a slab's buffer through one Apply on the wrapped
// backend. It holds the slab's drain lock across swap AND apply, so
// when it returns every write buffered in that slab before the call is
// fully applied — including batches swapped out by concurrent drains,
// which must finish before this one can acquire the lock. byRead marks
// a drain forced by a read (counted only when the buffer was
// non-empty).
//
// Once a drain error latches, the queue is FROZEN: drainSlab returns
// the sticky error without swapping any buffer, so no further batch is
// ever pushed at a backend whose last batch failed. Whatever is
// buffered stays buffered (stranded, unacknowledged — enqueue rejects
// new writes with ErrDegraded), and reads serve the applied state,
// which is exactly the state a reopen-replay of the WAL reconstructs.
func (q *AsyncQueue) drainSlab(s *slabBuf, byRead bool) error {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if err := q.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	if len(s.pending) == 0 {
		// Nothing pending; cancelled stragglers in order are dead.
		s.order = s.order[:0]
		s.mu.Unlock()
		return nil
	}
	order, pending := s.order, s.pending
	s.order = nil
	s.pending = make(map[geom.Point]pendingState)
	s.mu.Unlock()

	var dels, inss []geom.Point
	for _, p := range order {
		st, ok := pending[p]
		if !ok {
			continue // cancelled, or already emitted (re-added point)
		}
		delete(pending, p)
		if st == pendingDel || st == pendingDelIns {
			dels = append(dels, p)
		}
		if st == pendingIns || st == pendingDelIns {
			inss = append(inss, p)
		}
	}
	if byRead {
		q.forced.Add(1)
		q.readDrained.Add(uint64(len(dels) + len(inss)))
	}
	// Apply deletes before inserts: a pendingDelIns point must leave the
	// structures before its re-insert, and every layer below skips the
	// insert phase when the delete phase failed, so a failed batch can
	// never resurrect a point the caller deleted. Applied/drained
	// counters move only on success (the applied delta follows what the
	// primary reports removed, which a failed WAL append makes empty):
	// core.Len leans on AppliedDelta being exact in degraded mode.
	removed, err := q.inner.Apply(dels, inss)
	q.applied.Add(-int64(len(removed)))
	if err == nil {
		n := uint64(len(dels) + len(inss))
		q.applied.Add(int64(len(inss)))
		q.drained.Add(n)
		s.drained.Add(n)
	}
	q.recordErr(err)
	return err
}

// recordErr latches err as the queue's sticky first error. nil and
// later errors are ignored.
func (q *AsyncQueue) recordErr(err error) {
	if err == nil {
		return
	}
	q.errMu.Lock()
	if q.firstErr == nil {
		q.firstErr = err
	}
	q.errMu.Unlock()
}

// Err returns the sticky first drain error, or nil if every drain so
// far applied cleanly.
func (q *AsyncQueue) Err() error {
	q.errMu.Lock()
	defer q.errMu.Unlock()
	return q.firstErr
}

// bucketFor returns the index of the slab owning x: the smallest i with
// x <= cuts[i], or len(cuts) when x lies beyond the last cut.
func bucketFor(cuts []geom.Coord, x geom.Coord) int {
	return sort.Search(len(cuts), func(i int) bool { return x <= cuts[i] })
}

// buckets returns the slab interval [lo, hi] a coordinate range
// intersects. An empty range (x1 > x2) yields hi < lo.
func buckets(cuts []geom.Coord, x1, x2 geom.Coord) (lo, hi int) {
	return bucketFor(cuts, x1), bucketFor(cuts, x2)
}

// drainFor drains every slab whose x-range intersects r — the
// drain-on-read rule. An empty rectangle contains no points, so no
// buffered write can change its (empty) answer and nothing drains.
// Caller holds topoMu shared.
func (q *AsyncQueue) drainFor(r geom.Rect) error {
	key := CanonicalQuery(r)
	if key.X1 > key.X2 {
		return nil
	}
	lo, hi := buckets(q.cuts, key.X1, key.X2)
	var firstErr error
	for i := lo; i <= hi; i++ {
		if err := q.drainSlab(q.slabs[i], true); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Flush drains every buffer. Its error is the queue's sticky first
// drain error — which covers this pass, but also any earlier background
// or drain-on-read failure whose original caller could not see it. It
// is safe to call concurrently with reads, writes and other flushes,
// and is a no-op on an already-empty queue.
func (q *AsyncQueue) Flush() error {
	q.topoMu.RLock()
	for _, s := range q.slabs {
		q.drainSlab(s, false) //errlint:ok errors latch; surfaced below
	}
	q.topoMu.RUnlock()
	return q.Err()
}

// Close stops the background drainer, waits for it to exit, and drains
// every remaining buffer. Further writes are rejected, and the
// rejection is airtight: the closed flag is checked under the slab
// lock the final flush must take, so a write racing Close is either
// included in that flush or rejected — never accepted into a buffer
// nothing will drain. Reads keep working against the fully-applied
// state. Close is idempotent, and concurrent callers serialize: none
// returns before the draining finishes.
func (q *AsyncQueue) Close() error {
	q.closeMu.Lock()
	defer q.closeMu.Unlock()
	if !q.closed.Swap(true) {
		close(q.stop)
	}
	<-q.done
	return q.Flush()
}

// RangeSkyline drains every buffer whose slab intersects q, then
// answers from the wrapped backend — byte-identical to a synchronous
// engine, buffered deletes included.
func (q *AsyncQueue) RangeSkyline(r geom.Rect) []geom.Point {
	// A drain error cannot be surfaced from a query; the planner
	// convention applies (corruption errors panic in tests via the
	// differential harness, and the read still reflects every write
	// the drain managed to apply). On a frozen (degraded) queue the
	// drain is a no-op and the read serves the applied state.
	q.topoMu.RLock()
	defer q.topoMu.RUnlock()
	q.drainFor(r) //errlint:ok reads cannot surface drain errors; error latches sticky
	return q.inner.RangeSkyline(r)
}

// Apply buffers the batch — deletes first, then inserts, through the
// per-point coalescing state machine — and returns the deletes it
// accepted: hit-or-miss resolution happens at drain time through the
// presence-check-first path, and a miss applies nothing anywhere.
// Callers needing synchronous presence must use an unqueued engine.
// Each slab the batch fills to its threshold is drained inline once the
// whole batch is buffered — one batch apply per threshold's worth of
// accepted writes, at deterministic points in the op stream. A batch
// racing Close stops at the first rejected point; the points enqueued
// before it are in the final flush's scope, exactly like single writes.
func (q *AsyncQueue) Apply(dels, inss []geom.Point) ([]geom.Point, error) {
	q.topoMu.RLock()
	defer q.topoMu.RUnlock()
	var fullBuf [4]*slabBuf
	full := fullBuf[:0]
	accepted := 0
	var firstErr error
	for i := range len(dels) + len(inss) {
		del := i < len(dels)
		var p geom.Point
		if del {
			p = dels[i]
		} else {
			p = inss[i-len(dels)]
		}
		// Per-point enqueue keeps the state machine in one place; the
		// slab mutex is uncontended in the common single-writer case
		// and the batch's win — one structure lock per shard per
		// drain — is preserved regardless.
		s, size, err := q.enqueue(p, del)
		if err != nil {
			firstErr = err
			break
		}
		accepted = i + 1
		if size >= q.opts.FlushPoints && !slices.Contains(full, s) {
			full = append(full, s)
		}
	}
	for _, s := range full {
		if err := q.drainSlab(s, false); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return dels[:min(accepted, len(dels))], firstErr
}

// Partition passes through: the queue slabs on the wrapped backend's
// x-cuts, it does not define any of its own.
func (q *AsyncQueue) Partition() (xcuts []geom.Coord) { return q.inner.Partition() }
