// Package core assembles the paper's structures into one database-style
// index for planar range skyline reporting — the primary deliverable of
// the reproduction. Every index is a sharded concurrent engine
// (internal/shard) over K >= 1 x-range partitions, each partition
// carrying the paper's structures on a private disk, and query
// execution is delegated to an engine.Planner that routes each query
// kind (Figure 2) to the asymptotically best structure family:
//
//   - top-open, dominance and contour queries go to the per-shard
//     Theorem 1 static structures (O(log_B n + k/B)) or, when the index
//     is opened dynamic, to the Theorem 4 structures
//     (O(log²_{B^ε}(n/B) + k/B^{1−ε}) with O(log²_{B^ε}(n/B)) updates);
//   - with Options.Mirrors, right-open queries (and every rectangle
//     with a grounded right edge) go to a top-open engine over the
//     transposed point set, which answers them in the top-open bounds —
//     the transpose preserves dominance, so the answers are
//     byte-identical to the Theorem 6 structures';
//   - 4-sided, left-open, bottom-open and anti-dominance queries go to
//     the per-shard Theorem 6 structures (O((n/B)^ε + k/B), optimal at
//     linear space by Theorem 5; updates O(log(n/B)) amortized), and so
//     do right-open ones without mirrors, which a Theorem 6 structure
//     answers from its root secondary in O(log(n/B) + k/B).
//
// With one shard (the default) each family is answered by one structure
// over the whole point set; with K > 1 the per-shard answers merge into
// the same skyline. Either way each shard's mutex serializes its
// structures, so a DB is safe for concurrent callers in every
// configuration.
//
// Updates — single-point and batched — flow through the same planner
// to every registered engine, so all of them always index the same
// point set. Everything runs on a simulated external-memory machine
// (emio), so every operation reports exactly the I/O cost the theorems
// bound.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/emio"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/pager"
	"repro/internal/shard"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// Options configures an index.
type Options struct {
	// Machine is the simulated external-memory machine; zero means
	// emio.DefaultConfig(). A negative B or M, or M without B, is an
	// error.
	Machine emio.Config
	// Epsilon trades query cost against update cost for the dynamic
	// structures (Theorems 4 and 6); zero means 0.5, so the selectable
	// range is (0, 1]. ε = 0 is not selectable: one ε drives both
	// structures, and Theorem 6's height cap of ⌈1/ε⌉+1 internal levels
	// is undefined at 0.
	Epsilon float64
	// Dynamic selects updatable structures. A static index answers
	// 3-sided queries faster and builds in O(n/B) after sorting, but
	// rejects Insert and Delete.
	Dynamic bool
	// Shards is the number K of x-range partitions of the sharded
	// concurrent engine (internal/shard) serving every Figure-2 query
	// shape; each shard owns a private guarded disk with its own
	// top-open and 4-sided structures and a mutex serializing them.
	// Zero or one means K = 1: one shard over the whole point set. The
	// answers are the same for every K; K > 1 additionally spreads
	// concurrent callers and batched updates across shards. Negative
	// is an error.
	Shards int
	// Workers bounds the sharded engine's concurrent per-shard tasks;
	// zero means Shards. A read or write touching one shard runs on
	// the caller's goroutine, so with K = 1 no task ever reaches the
	// pool. Negative is an error.
	Workers int
	// Mirrors trades space for query speed on the grounded-right-edge
	// query family: it maintains a transposed (x↔y) copy of the point
	// set under its own top-open structures — a TopOnly sharded engine
	// with the primary's shard count, on its own disks — and routes
	// right-open queries (Figure 2b, plus the unnamed rectangles with a
	// grounded right edge) to it. Without the mirror those rectangles
	// already cost O(log(n/B) + k/B): the Theorem 6 structure asks its
	// root secondary once. On a static index the mirror's Theorem 1
	// structure answers in O(log_B n + k/B) (E13 measures both); on a
	// dynamic index it is a Theorem 4 tree whose k/B^{1-ε} reporting
	// term exceeds the root secondary's k/B. The extra
	// copy costs roughly one more top-open structure (≈2× the top-open
	// footprint, well under 2× the whole index) and every update is
	// applied to it too. Bottom-open, left-open and anti-dominance
	// queries are NOT accelerated: no other axis reflection preserves
	// dominance, and Theorem 5 proves those shapes cannot beat the
	// Theorem 6 bound at linear space.
	Mirrors bool
	// CacheEntries > 0 puts a read-through cache (engine.CacheBackend)
	// in front of the whole planner, memoizing up to CacheEntries
	// RangeSkyline answers in an LRU map keyed by the canonicalized
	// query rectangle — hot rectangles are re-answered from memory at
	// zero simulated I/O, byte-identically to the uncached answers.
	// Updates invalidate answer-exactly: a write evicts an entry only
	// when it deletes one of the entry's answer points, or inserts a
	// point inside its rectangle that no answer point dominates. A
	// Delete that misses evicts nothing. Negative is an error.
	CacheEntries int
	// AsyncWrites buffers every write in an engine.AsyncQueue in front
	// of everything else: writes append to per-x-slab buffers (one per
	// shard) and return without touching any structure, so writer
	// latency is independent of structure rebuild costs. A buffer
	// drains as one batch — one structure lock per shard per phase, one
	// WAL record with Dir, and one cache invalidation sweep when
	// CacheEntries > 0 — when it reaches FlushPoints, every
	// FlushInterval, and on DB.Flush/DB.Close. Reads stay exact: a query first drains every
	// buffer its rectangle's x-range intersects, so answers (buffered
	// deletes included) are byte-identical to a synchronous index's.
	// Requires Dynamic. In this mode Apply, Delete and BatchDelete
	// report ACCEPTANCE, not presence (hit-or-miss resolves at drain),
	// and Len flushes first so it stays exact. Drains — background,
	// drain-on-read or explicit — serialize through the per-slab drain
	// lock and, below it, the shard locks, like synchronous writers.
	AsyncWrites bool
	// FlushPoints is the per-buffer drain threshold when AsyncWrites
	// is set; zero means 128. Negative is an error.
	FlushPoints int
	// FlushInterval is the background drainer's period when
	// AsyncWrites is set; zero means 100ms, negative disables the
	// background drainer (reads, FlushPoints and explicit Flush still
	// drain — the fully deterministic configuration).
	FlushInterval time.Duration
	// Dir, when non-empty, makes the index durable: real files under
	// Dir — a checksummed checkpoint of the point set (skyline.pages,
	// internal/pager) and a write-ahead log (skyline.wal,
	// internal/wal). Every acknowledged update batch is WAL-appended
	// before it is applied (engine.LogBackend); DB.Flush and DB.Close
	// checkpoint — write the index's own x-ordered leaf scan and
	// truncate the WAL — and reopening the same Dir recovers:
	// structures rebuild from the snapshot, then the WAL tail replays
	// through the batched update paths (DB.Recover reports the counts).
	// A fresh Dir is seeded from pts and checkpointed at Open; an
	// existing Dir requires len(pts) == 0. A static index refuses
	// writes before they reach the log, so its WAL stays empty, the
	// snapshot it opened from stays current, and Flush and Close skip
	// its checkpoint.
	// Empty Dir (the default) keeps the index purely simulated — the
	// CI oracle configuration. With AsyncWrites, "acknowledged" means
	// drained: buffered writes not yet drained are lost by a crash,
	// the documented async-commit trade.
	Dir string
	// SyncWAL fsyncs the WAL after every logged batch. Without it a
	// record survives process death (the append is a plain write(2) —
	// no user-space buffering) but not power loss. Ignored without
	// Dir.
	SyncWAL bool
	// FS is the filesystem the durable files live on; nil means the
	// real one (vfs.OS). Fault-injection tests and the E18 resilience
	// experiment pass a vfs.FaultFS to fail chosen operations
	// deterministically. Ignored without Dir.
	FS vfs.FS
	// Retry bounds how the pager and WAL retry transient storage
	// failures (vfs.Transient): the zero value means
	// vfs.DefaultRetryPolicy (4 retries, exponential backoff
	// 500µs→4ms); set Retry.Disabled to fail fast. Errors that outlive
	// the budget surface as ErrRetryExhausted and latch degraded
	// read-only mode. Ignored without Dir.
	Retry vfs.RetryPolicy
	// MaxBuffered caps each async-queue slab buffer when AsyncWrites
	// is set: a write that would push a slab past the cap blocks (the
	// writer drains the slab inline) or, with ShedWrites, is rejected
	// with ErrBackpressure. Zero means unlimited; negative is an error.
	MaxBuffered int
	// ShedWrites selects shedding over blocking for MaxBuffered
	// overflow. Ignored unless AsyncWrites and MaxBuffered are set.
	ShedWrites bool
	// Rebalance enables online shard rebalancing: the sharded engines
	// (the primary and, with Mirrors, the transposed mirror on its own
	// axis) track per-shard load and split hot shards / merge cold
	// neighbors live, rebuilding off to the side and swapping under a
	// brief topology lock. Cut changes propagate to the async queue's
	// buffers automatically; open snapshots keep serving the topology
	// they pinned. Requires Dynamic and Shards > 1. Answers are
	// unaffected — only the work distribution moves
	// (DB.RebalanceStats reports the activity). The policy's thresholds
	// are fixed (DESIGN.md, "Online rebalancing").
	Rebalance bool
}

// OptionError is Validate's refusal of one option value. Field is the
// Go field path within Options ("Epsilon", "Machine.B"), so a front
// end can report the refusal in its own vocabulary.
type OptionError struct {
	Field  string
	Reason string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("core: Options.%s: %s", e.Field, e.Reason)
}

// Validate reports the first option value Open would refuse, as an
// *OptionError, or nil. It is the one place any layer refuses an option
// value; the layers below take what it accepts, filling in defaults for
// zero fields.
func (o Options) Validate() error {
	refuse := func(field, format string, args ...any) error {
		return &OptionError{Field: field, Reason: fmt.Sprintf(format, args...)}
	}
	switch {
	case o.Machine.B < 0:
		return refuse("Machine.B", "block size %d below 0", o.Machine.B)
	case o.Machine.M < 0:
		return refuse("Machine.M", "memory %d below 0", o.Machine.M)
	case o.Machine.B == 0 && o.Machine.M != 0:
		return refuse("Machine.M", "memory set without a block size (both or neither)")
	case o.Epsilon < 0 || o.Epsilon > 1:
		return refuse("Epsilon", "%v outside (0, 1] (zero means 0.5)", o.Epsilon)
	case o.Shards < 0:
		return refuse("Shards", "%d below 0", o.Shards)
	case o.Workers < 0:
		return refuse("Workers", "%d below 0", o.Workers)
	case o.CacheEntries < 0:
		return refuse("CacheEntries", "%d below 0", o.CacheEntries)
	case o.FlushPoints < 0:
		return refuse("FlushPoints", "%d below 0", o.FlushPoints)
	case o.MaxBuffered < 0:
		return refuse("MaxBuffered", "%d below 0", o.MaxBuffered)
	case o.AsyncWrites && !o.Dynamic:
		return refuse("AsyncWrites", "a static index has no writes to buffer")
	case o.Rebalance && !o.Dynamic:
		return refuse("Rebalance", "a static index cannot rebuild its shards")
	case o.Rebalance && o.Shards <= 1:
		return refuse("Rebalance", "needs more than one shard, got %d", o.Shards)
	}
	return nil
}

// DB is a planar range skyline index over a simulated EM machine. All
// queries and updates flow through an engine.Planner over the registered
// backends.
type DB struct {
	opts Options

	plan *engine.Planner

	// front is the backend every query and update flows through: the
	// read-through cache when Options.CacheEntries > 0 (wrapping the
	// planner), the planner itself otherwise. Updates must pass
	// through it so the cache sees every invalidating write.
	front engine.Backend

	// cache is the memoizing backend; non-nil iff CacheEntries > 0.
	cache *engine.CacheBackend

	// queue is the asynchronous write buffer; non-nil iff AsyncWrites.
	// It is the OUTERMOST layer: reads must hit it first so the
	// drain-on-read rule covers cache hits too, and each drain is one
	// Apply through the cache, so invalidation fires once per drain
	// instead of once per point.
	queue *engine.AsyncQueue

	// Durable storage; all non-nil iff Options.Dir != "". The logb
	// layer sits between the queue and the cache, so each queue drain
	// is one WAL record and costs one append plus one cache
	// invalidation sweep.
	pager *pager.Pager
	wal   *wal.Log
	logb  *engine.LogBackend
	recov RecoveryStats

	// closed flips on the first Close; writes are rejected after.
	// closeMu serializes Close callers so none returns before the
	// first finished draining and quiescing.
	closed  atomic.Bool
	closeMu sync.Mutex

	// degrade is the fatal-storage-error latch (see DB.Degraded): once
	// set, writes return ErrDegraded, checkpoints are skipped so the
	// WAL keeps its replayable records, and reads serve the applied
	// state until a reopen recovers.
	degrade degradeState

	// eng is the sharded engine serving every query shape; never nil.
	eng *shard.Engine

	// meng is the transposed mirror's TopOnly sharded engine; non-nil
	// iff Mirrors. Kept so rebalancing can be wired and forced on the
	// mirror's axis too.
	meng *shard.Engine

	// engines lists eng and, with Mirrors, meng, as Open built them.
	// Their shard disks are all the storage a DB has, and the
	// accounting (Stats, Space, ...) sums each exactly once.
	engines []*shard.Engine

	// n is atomic so Len and the update paths are safe for concurrent
	// callers.
	n atomic.Int64

	// openSnaps counts unclosed snapshots (see DB.Snapshot); the leak
	// checks pair it with the disks' deferred-free counts.
	openSnaps atomic.Int64
}

// Open creates an index over pts (any order; sorted internally). For a
// purely in-memory oracle use geom.RangeSkyline instead.
func Open(opts Options, pts []geom.Point) (*DB, error) {
	// Options are checked before a durable directory is seeded: a
	// refused Open must leave Dir as it found it.
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Machine.B == 0 {
		opts.Machine = emio.DefaultConfig()
	}
	if opts.Epsilon == 0 {
		opts.Epsilon = 0.5
	}
	if !geom.IsGeneralPosition(pts) {
		return nil, fmt.Errorf("core: input not in general position (duplicate x or y)")
	}
	sorted := append([]geom.Point(nil), pts...)
	geom.SortByX(sorted)

	// Durable storage opens first: recovery replaces the seed with the
	// checkpoint snapshot, and the structures build from that.
	var dur *durable
	if opts.Dir != "" {
		var err error
		dur, err = openDurable(opts, sorted)
		if err != nil {
			return nil, err
		}
		sorted = dur.base
	}

	db := &DB{opts: opts, plan: new(engine.Planner)}
	if dur != nil {
		db.pager, db.wal, db.recov = dur.pager, dur.wal, dur.recov
	}
	// Construction past this point can fail after engines, goroutines
	// or file descriptors exist; every error return must release them
	// all, or each failed Open leaks (the queue's drainer goroutine,
	// the shard engines' worker pools, the two durable files).
	ok := false
	defer func() {
		if !ok {
			db.cleanup()
		}
	}()
	db.n.Store(int64(len(sorted)))
	eng, err := db.newEngine(sorted, false)
	if err != nil {
		return nil, err
	}
	db.eng = eng
	db.engines = append(db.engines, eng)
	// One backend serves both families: each shard routes a rectangle
	// to its own top-open or 4-sided structure.
	db.plan.RegisterTopOpen(eng)
	db.plan.RegisterGeneral(eng)
	if opts.Mirrors {
		if err := db.addMirror(sorted); err != nil {
			return nil, err
		}
	}
	db.front = db.plan
	if opts.CacheEntries > 0 {
		// The cache wraps the WHOLE planner, not one backend: keys are
		// the original (canonicalized) rectangles, so a right-open
		// query shares its entry whether the planner routes it to a
		// mirror or to the Theorem 6 structure, and every update path
		// below flows through the cache to invalidate it.
		cache, err := engine.NewCache(db.plan, opts.CacheEntries)
		if err != nil {
			return nil, err
		}
		db.cache = cache
		db.front = cache
	}
	if dur != nil {
		// The WAL layer wraps the cache (one invalidation sweep per
		// logged batch) and sits under the queue (drain batches are
		// the log records). Replay happens here — the stack below is
		// complete, and the layers above (the queue) only buffer.
		db.logb = engine.NewLogBackend(db.front, dur.sink, nil)
		db.front = db.logb
		for _, rec := range dur.replay {
			hits, err := db.logb.Replay(rec.Dels, rec.Inss)
			if err != nil {
				return nil, fmt.Errorf("core: replay WAL record seq %d: %w", rec.Seq, err)
			}
			db.recov.RecordsReplayed++
			db.recov.ReplayedInserts += len(rec.Inss)
			db.recov.ReplayedDeletes += len(hits)
		}
		db.recov.WALSeq = db.wal.Seq()
		db.n.Store(int64(db.eng.Len()))
	}
	if opts.AsyncWrites {
		// The queue is the OUTERMOST layer, in front of the cache:
		// every read must pass its drain-on-read check before a cache
		// hit can be served (a hit on an entry missing a buffered
		// write would be stale), and each drain is one Apply through
		// the cache, so a drain costs one invalidation sweep instead
		// of one per point.
		queue, err := engine.NewAsyncQueue(db.front, engine.QueueOptions{
			FlushPoints:   opts.FlushPoints,
			FlushInterval: opts.FlushInterval,
			MaxBuffered:   opts.MaxBuffered,
			ShedWrites:    opts.ShedWrites,
		})
		if err != nil {
			return nil, err
		}
		db.queue = queue
		db.front = queue
	}
	if opts.Rebalance && db.queue != nil {
		// Wire cut propagation last, once every layer exists: a primary
		// transition re-learns the queue's slabs (migrating buffered
		// ops). The queue slabs only by original x, so a mirror
		// transition needs nothing, and neither does the cache. The
		// listener runs with no engine locks held, so it may call back
		// into any layer.
		db.eng.SetCutsListener(db.queue.SetCuts)
	}
	ok = true
	return db, nil
}

// newEngine builds a sharded engine over sorted points with the index's
// machine, ε, shard count and rebalancing policy. The one recipe serves
// the primary and the mirror (topOnly), so the two never drift apart.
func (db *DB) newEngine(sorted []geom.Point, topOnly bool) (*shard.Engine, error) {
	return shard.New(shard.Options{
		Machine:   db.opts.Machine,
		Epsilon:   db.opts.Epsilon,
		Shards:    db.opts.Shards,
		Workers:   db.opts.Workers,
		Dynamic:   db.opts.Dynamic,
		TopOnly:   topOnly,
		Rebalance: db.opts.Rebalance,
	}, sorted)
}

// addMirror builds the transposed fast path: a TopOnly sharded engine
// over the x↔y reflected point set, registered with the planner as a
// mirror so the grounded-right-edge query family is served in the
// top-open bounds. The mirrored points are strictly sorted by reflected
// x because the input is in general position (no duplicate y).
func (db *DB) addMirror(sorted []geom.Point) error {
	ref := geom.ReflectSwapXY
	mirrored := ref.Pts(sorted)
	geom.SortByX(mirrored)
	meng, err := db.newEngine(mirrored, true)
	if err != nil {
		return err
	}
	db.meng = meng
	db.engines = append(db.engines, meng)
	m, err := engine.NewMirror(ref, meng)
	if err != nil {
		return err
	}
	db.plan.RegisterMirror(m)
	return nil
}

// Sharded returns the sharded concurrent engine serving every query
// shape. It is never nil: an index opened with Shards <= 1 is a
// one-shard engine.
func (db *DB) Sharded() *shard.Engine { return db.eng }

// RebalanceStats reports the online-rebalancing activity of both
// sharded engines: splits/merges completed, current shard counts, and
// the load skew (max/mean per-shard load) accumulated since the last
// transition. Zero value without Options.Rebalance.
type RebalanceStats struct {
	// Splits and Merges count the primary engine's completed
	// transitions; Shards is its current partition count; Skew its
	// current max/mean load ratio (0 while idle).
	Splits uint64  `json:"splits"`
	Merges uint64  `json:"merges"`
	Shards int     `json:"shards"`
	Skew   float64 `json:"skew"`
	// MirrorSplits/MirrorMerges/MirrorShards are the transposed mirror
	// engine's counterparts (it rebalances on the original y-axis).
	MirrorSplits uint64 `json:"mirror_splits,omitempty"`
	MirrorMerges uint64 `json:"mirror_merges,omitempty"`
	MirrorShards int    `json:"mirror_shards,omitempty"`
}

// RebalanceStats returns the current rebalancing totals; the zero value
// when the index was opened without Options.Rebalance.
func (db *DB) RebalanceStats() RebalanceStats {
	if !db.opts.Rebalance {
		return RebalanceStats{}
	}
	c := db.eng.RebalanceCounters()
	st := RebalanceStats{Splits: c.Splits, Merges: c.Merges, Shards: c.Shards, Skew: c.Skew}
	if db.meng != nil {
		m := db.meng.RebalanceCounters()
		st.MirrorSplits, st.MirrorMerges, st.MirrorShards = m.Splits, m.Merges, m.Shards
	}
	return st
}

// ForceSplit splits shard i of the primary engine regardless of load
// (i < 0 selects the most populous shard); with Mirrors, the transposed
// mirror engine splits its own most populous shard too, so both axes
// transition. A test and operational hook — the load policy exercises
// the identical transition path. Requires Options.Rebalance.
func (db *DB) ForceSplit(i int) error {
	if !db.opts.Rebalance {
		return fmt.Errorf("core: rebalancing disabled; open with Options.Rebalance")
	}
	err := db.eng.ForceSplit(i)
	if db.meng != nil {
		if merr := db.meng.ForceSplit(-1); merr != nil && err == nil {
			err = merr
		}
	}
	return err
}

// ForceMerge merges shards i and i+1 of the primary engine (i < 0
// selects the least populous adjacent pair); with Mirrors, the mirror
// engine merges its own coldest pair. Requires Options.Rebalance.
func (db *DB) ForceMerge(i int) error {
	if !db.opts.Rebalance {
		return fmt.Errorf("core: rebalancing disabled; open with Options.Rebalance")
	}
	err := db.eng.ForceMerge(i)
	if db.meng != nil {
		if merr := db.meng.ForceMerge(-1); merr != nil && err == nil {
			err = merr
		}
	}
	return err
}

// Cache returns the read-through cache in front of the planner, or nil
// when the index was opened with CacheEntries <= 0. Its Counters
// report hits, misses, evictions and invalidations.
func (db *DB) Cache() *engine.CacheBackend { return db.cache }

// Queue returns the asynchronous write queue in front of everything
// else, or nil when the index was opened without AsyncWrites.
func (db *DB) Queue() *engine.AsyncQueue { return db.queue }

// QueueCounters returns the async queue's operation totals (enqueued,
// drained, coalesced, forced drains, and the buffered writes those
// read-forced drains applied — ReadDrains, the contention snapshot
// reads avoid); the zero value when the index was opened without
// AsyncWrites.
func (db *DB) QueueCounters() engine.QueueCounters {
	if db.queue == nil {
		return engine.QueueCounters{}
	}
	return db.queue.Counters()
}

// CacheCounters returns the read-through cache's operation totals
// (hits, misses, evictions, invalidations); the zero value when the
// index was opened without CacheEntries.
func (db *DB) CacheCounters() engine.CacheCounters {
	if db.cache == nil {
		return engine.CacheCounters{}
	}
	return db.cache.Counters()
}

// Flush drains every buffered write to the underlying structures and,
// with Options.Dir, checkpoints: the index's points are written to the
// checkpoint file and the WAL truncated, so the next Open rebuilds
// without replay. Without AsyncWrites or Dir it is a no-op; with the
// queue, Flush is the explicit third drain trigger next to FlushPoints
// and FlushInterval (and surfaces any drain error an earlier
// background or drain-on-read pass latched).
//
// When the drain reports an error — this pass's or a latched earlier
// one — or the index is degraded, the checkpoint is SKIPPED and the
// error returned: the structures are missing the failed applies, and
// checkpointing them would truncate the WAL records that still hold
// them, turning a recoverable failure (reopen and replay) into a
// permanent loss. Flush on a closed index returns ErrClosed instead of
// touching closed file descriptors.
func (db *DB) Flush() error {
	db.closeMu.Lock()
	defer db.closeMu.Unlock()
	if db.closed.Load() {
		return fmt.Errorf("core: flush: %w", engine.ErrClosed)
	}
	if db.queue != nil {
		if err := db.queue.Flush(); err != nil {
			db.noteWriteErr(err)
			// A storage-fault drain error has latched by now; return the
			// wrapped form so callers match ErrDegraded. Other errors
			// pass through unchanged.
			if d := db.Degraded(); d != nil {
				return d
			}
			return err
		}
	}
	if err := db.Degraded(); err != nil {
		return err
	}
	if db.logb != nil {
		err := db.checkpoint()
		db.noteWriteErr(err)
		return err
	}
	return nil
}

// Close quiesces the index: it stops the async queue's background
// drainer and drains every remaining buffered write, then waits for the
// sharded engines' in-flight per-shard tasks — the primary's and every
// sharded mirror's — to complete, so no goroutine owned by the index
// outlives Close and no structure is mid-mutation afterwards. With
// Options.Dir it then checkpoints (snapshot + WAL truncate) and closes
// the durable files. Further writes are rejected; reads keep working
// against the fully-applied state. Close is idempotent, and concurrent
// callers all observe the quiesced state.
func (db *DB) Close() error {
	db.closeMu.Lock()
	defer db.closeMu.Unlock()
	alreadyClosed := db.closed.Swap(true)
	var firstErr error
	if db.queue != nil {
		// Idempotent, and because Close callers serialize on closeMu a
		// second caller cannot return before the first finished
		// draining and quiescing.
		firstErr = db.queue.Close()
		db.noteWriteErr(firstErr)
		if firstErr != nil {
			// As in Flush: surface the latched ErrDegraded-wrapped form
			// of a storage-fault drain error.
			if d := db.Degraded(); d != nil {
				firstErr = d
			}
		}
	}
	if alreadyClosed {
		return firstErr
	}
	db.quiesce()
	if db.logb != nil {
		// Everything acknowledged is applied (queue closed above) and
		// nothing new can arrive (closed flag): checkpoint, then
		// release the files. Only the FIRST Close runs this — a second
		// would checkpoint through closed file descriptors. A drain
		// error or a degraded latch skips the checkpoint, like Flush:
		// the WAL must keep the records whose apply failed so a reopen
		// can replay them.
		if firstErr == nil {
			firstErr = db.Degraded()
		}
		if firstErr == nil {
			firstErr = db.checkpoint()
			db.noteWriteErr(firstErr)
		}
		if err := db.wal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := db.pager.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Planner exposes the query planner for inspection (which backend a
// rectangle routes to, the registered backends).
func (db *DB) Planner() *engine.Planner { return db.plan }

// DropCache evicts every unpinned frame of every shard disk — the
// primary engine's and the mirror's — so the next query runs against a
// cold cache (worst-case measurements). Per-shard disks stay reachable
// through Sharded().ShardDisk.
func (db *DB) DropCache() {
	for _, e := range db.engines {
		e.DropCache()
	}
}

// Len returns the number of indexed points. Safe to call while
// operations are in flight. With AsyncWrites it first drains every
// buffer — a buffered delete's hit-or-miss only resolves at drain — so
// the count stays exact, at the cost of making Len a flushing read.
func (db *DB) Len() int {
	if db.queue != nil {
		db.queue.Flush() //errlint:ok Len cannot surface drain errors; they latch sticky and degrade
		return int(db.n.Load() + db.queue.AppliedDelta())
	}
	return int(db.n.Load())
}

// RangeSkyline reports the maximal points of P ∩ q in increasing-x
// order, routing the rectangle's shape through the planner (behind the
// read-through cache when one is configured; cached answers are shared
// slices and must not be mutated).
func (db *DB) RangeSkyline(q geom.Rect) []geom.Point {
	return db.front.RangeSkyline(q)
}

// Skyline reports the skyline of the whole point set.
func (db *DB) Skyline() []geom.Point {
	return db.RangeSkyline(geom.Rect{X1: geom.NegInf, X2: geom.PosInf, Y1: geom.NegInf, Y2: geom.PosInf})
}

// TopOpen reports the range skyline of [x1,x2] × [beta, ∞) (Figure 2a).
func (db *DB) TopOpen(x1, x2, beta geom.Coord) []geom.Point {
	return db.RangeSkyline(geom.TopOpen(x1, x2, beta))
}

// RightOpen reports the range skyline of [x,∞) × [y1,y2] (Figure 2b).
func (db *DB) RightOpen(x, y1, y2 geom.Coord) []geom.Point {
	return db.RangeSkyline(geom.RightOpen(x, y1, y2))
}

// BottomOpen reports the range skyline of [x1,x2] × (-∞,y] (Figure 2c).
func (db *DB) BottomOpen(x1, x2, y geom.Coord) []geom.Point {
	return db.RangeSkyline(geom.BottomOpen(x1, x2, y))
}

// LeftOpen reports the range skyline of (-∞,x] × [y1,y2] (Figure 2d).
func (db *DB) LeftOpen(x, y1, y2 geom.Coord) []geom.Point {
	return db.RangeSkyline(geom.LeftOpen(x, y1, y2))
}

// Dominance reports the skyline of the points dominating (x, y)
// (Figure 2e).
func (db *DB) Dominance(x, y geom.Coord) []geom.Point {
	return db.RangeSkyline(geom.Dominance(x, y))
}

// AntiDominance reports the range skyline of (-∞,x] × (-∞,y]
// (Figure 2f).
func (db *DB) AntiDominance(x, y geom.Coord) []geom.Point {
	return db.RangeSkyline(geom.AntiDominance(x, y))
}

// Contour reports the skyline of the points with x-coordinate <= x
// (Figure 2g).
func (db *DB) Contour(x geom.Coord) []geom.Point {
	return db.RangeSkyline(geom.Contour(x))
}

// writable reports why the index rejects writes: opened static,
// closed, or degraded. Reads are always allowed — a closed index is
// quiesced, a degraded one keeps serving the applied state.
func (db *DB) writable() error {
	if !db.opts.Dynamic {
		return fmt.Errorf("core: write: %w", ErrStatic)
	}
	if db.closed.Load() {
		return fmt.Errorf("core: write: %w", engine.ErrClosed)
	}
	if err := db.Degraded(); err != nil {
		return err
	}
	return nil
}

// Apply deletes dels, then inserts inss, on a dynamic index, and
// returns the subset of dels that was present and removed, in dels
// order. The planner resolves the deletes against the primary backend
// first and mutates the remaining backends only with that confirmed
// subset, so a miss never leaves the backends inconsistent; the inserts
// apply only if the deletes did. With AsyncWrites the batch is buffered
// and the returned slice is the deletes ACCEPTED — presence resolves at
// drain through the same presence-check-first path, and a miss applies
// nothing anywhere. The points must preserve general position. Each
// shard lock is taken once per batch.
func (db *DB) Apply(dels, inss []geom.Point) ([]geom.Point, error) {
	if err := db.writable(); err != nil {
		return nil, err
	}
	removed, err := db.front.Apply(dels, inss)
	db.noteWriteErr(err)
	if db.queue == nil {
		// Even when err reports backend disagreement, the primary backend
		// did remove the reported points; keep n consistent with it. The
		// queue's drains keep Len exact in async mode instead.
		db.n.Add(-int64(len(removed)))
		if err == nil {
			db.n.Add(int64(len(inss)))
		}
	}
	return removed, err
}

// Insert adds a point to a dynamic index: Apply(nil, [p]).
func (db *DB) Insert(p geom.Point) error {
	_, err := db.Apply(nil, []geom.Point{p})
	return err
}

// Delete removes a point from a dynamic index, reporting presence (with
// AsyncWrites, acceptance): Apply([p], nil).
func (db *DB) Delete(p geom.Point) (bool, error) {
	removed, err := db.Apply([]geom.Point{p}, nil)
	return len(removed) > 0, err
}

// BatchInsert adds many points to a dynamic index: Apply(nil, pts).
func (db *DB) BatchInsert(pts []geom.Point) error {
	_, err := db.Apply(nil, pts)
	return err
}

// BatchDelete removes many points from a dynamic index, returning how
// many were present and removed (with AsyncWrites, accepted):
// Apply(pts, nil).
func (db *DB) BatchDelete(pts []geom.Point) (int, error) {
	removed, err := db.Apply(pts, nil)
	return len(removed), err
}

// Stats returns the I/O counters since the last ResetStats, summed over
// every shard disk of the primary and mirror engines, retired ones
// included.
func (db *DB) Stats() emio.Stats {
	var total emio.Stats
	for _, u := range db.engines {
		total = total.Add(u.Stats())
	}
	return total
}

// ResetStats zeroes the I/O counters of every shard disk and the
// cache's hit/miss/eviction counters. Memoized entries are kept:
// resetting measurement state does not change what the next query
// costs.
func (db *DB) ResetStats() {
	for _, u := range db.engines {
		u.ResetStats()
	}
	if db.cache != nil {
		db.cache.ResetCounters()
	}
}

// SpaceStats is the simulated space of every shard disk behind a DB,
// summed: the operator's view of the O(n/B) bound.
type SpaceStats struct {
	// LiveBlocks counts allocated blocks, deferred ones included.
	LiveBlocks int `json:"live_blocks"`
	// PeakWords is the high-water mark of allocated words (summed per
	// disk, so an upper bound on the simultaneous peak).
	PeakWords int64 `json:"peak_words"`
	// DeferredBlocks counts blocks freed but held for open snapshots.
	DeferredBlocks int `json:"deferred_blocks"`
}

// Space reads the space counters of every shard disk — live blocks,
// peak words, deferred blocks. It takes each disk's lock for a moment
// and nothing else: no queue flush, no shard lock.
func (db *DB) Space() SpaceStats {
	var st SpaceStats
	for _, u := range db.engines {
		st.LiveBlocks += u.LiveBlocks()
		st.PeakWords += u.PeakWords()
		st.DeferredBlocks += u.DeferredBlocks()
	}
	return st
}

// DeferredBlocks sums, over every shard disk, the blocks the live
// index has retired that open snapshots hold alive. Zero at quiescence
// with every snapshot closed — the no-leak invariant the race stress
// asserts.
func (db *DB) DeferredBlocks() int { return db.Space().DeferredBlocks }

// RetainedCount sums the open storage retentions (one per shard disk
// per unclosed snapshot).
func (db *DB) RetainedCount() int {
	n := 0
	for _, u := range db.engines {
		n += u.Retained()
	}
	return n
}

// quiesce waits out the in-flight per-shard tasks of the sharded
// engines — the primary's and the mirror's.
func (db *DB) quiesce() {
	for _, e := range db.engines {
		e.Quiesce()
	}
}
