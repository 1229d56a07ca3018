// Package repro is an I/O-efficient library for planar range skyline
// reporting and attrition priority queues, reproducing
//
//	Kejlberg-Rasmussen, Tao, Tsakalidis, Tsichlas, Yoon.
//	"I/O-Efficient Planar Range Skyline and Attrition Priority Queues",
//	PODS 2013.
//
// The library runs on a simulated external-memory machine (M words of
// memory, blocks of B words, cost = block transfers), so every operation
// reports exactly the I/O cost the paper's theorems bound. See DESIGN.md
// for the architecture and EXPERIMENTS.md for the reproduced results.
//
// Quick start:
//
//	db, err := repro.Open(repro.Options{}, points)
//	sky := db.TopOpen(x1, x2, beta) // maxima of P ∩ [x1,x2]×[beta,∞)
//
// Every Figure-2 query shape has a named entry point — TopOpen,
// RightOpen, BottomOpen, LeftOpen, Dominance, AntiDominance, Contour —
// plus the general DB.RangeSkyline; an internal planner
// (internal/engine) routes each shape to the asymptotically best
// backend. Dynamic indexes take writes through one verb,
// DB.Apply(dels, inss): it deletes then inserts, reports which deletes
// were present in dels order, and amortizes per-call overhead across
// the batch. Insert, Delete, BatchInsert and BatchDelete are Apply with
// one side empty.
//
// Every index is a concurrent sharded engine (internal/shard).
// Options{Shards: K, Workers: W} partitions the point set by x-range
// across K shards (one by default), each with a private simulated disk
// carrying both a top-open and a 4-sided structure behind its own lock,
// so a DB is safe for concurrent callers at every K and its answers do
// not depend on K. A query or batch touching several shards fans out
// through a worker pool; an Apply batch groups by destination shard and
// takes each shard lock once per batch.
//
// Opening with Options{Mirrors: true} additionally maintains a
// transposed (x↔y) copy of the point set under its own top-open
// structure and serves RightOpen — and every query rectangle with a
// grounded right edge — from it in O(log) I/Os instead of the Theorem 6
// (n/B)^ε cost, byte-identically, at roughly one extra top-open
// structure of space (on dynamic indexes the mirrored structure is the
// Theorem 4 tree, whose k/B^{1−ε} reporting term defers the win to
// larger n for wide queries). LeftOpen, BottomOpen and AntiDominance stay on
// the Theorem 6 path: the transpose is the only reflection of the plane
// that preserves dominance, and the paper's Theorem 5 lower bound
// proves those shapes cannot beat (n/B)^ε at linear space.
//
// Opening with Options{CacheEntries: E} puts a read-through LRU cache
// in front of the whole query planner: up to E hot rectangles are
// re-answered from memory at zero simulated I/O, byte-identically to
// the uncached answers, and an update evicts only the entries whose
// answer it changes: a delete of one of the entry's answer points, or
// an insert inside its rectangle that no answer point dominates.
//
// Opening with Options{AsyncWrites: true} buffers every write in
// per-shard queues that return without touching any structure, so
// writer latency is independent of structure rebuild costs; a buffer
// drains as one Apply batch when it reaches FlushPoints, every
// FlushInterval, and on DB.Flush/DB.Close. Reads stay exact — a query
// drains every buffer its rectangle intersects first, so answers
// (buffered deletes included) are byte-identical to a synchronous
// index's — and a cache composes underneath the queue: one drain costs
// one invalidation sweep instead of one per point.
// DB.QueueCounters reports enqueued/drained/coalesced/forced-drain
// totals plus ReadDrains (buffered writes applied by read-forced
// drains — the write work reads pay for on the drain-on-read path),
// and DB.Close quiesces the index (drains the queue, stops its
// background drainer, waits out in-flight shard workers).
//
// DB.Snapshot pins a consistent point-in-time view at a drain boundary
// and serves every Figure-2 shape from it without shard write locks or
// forced drains — writers keep streaming while snapshot reads stay
// byte-identical to the live index's answers at the pin point.
// Snapshots must be Closed: retired storage spans are held (deferred,
// not reclaimed) while any snapshot that pinned them is open.
//
// Opening with Options{Dir: path} makes the index durable: two real
// files under the directory — a checksummed snapshot of the live point
// set (internal/pager) and a write-ahead log of acknowledged update
// batches (internal/wal) — survive a crash, and reopening the same
// directory rebuilds the structures from the snapshot and replays the
// WAL tail record by record (DB.Recover reports what replay
// involved). DB.Flush and DB.Close checkpoint: snapshot the live set,
// then truncate the WAL. With AsyncWrites, "acknowledged" means
// drained — each drain batch is one WAL record, so buffered writes
// that never drained are lost by a crash, but a drained batch survives
// kill -9 anywhere before its checkpoint. An empty Dir (the default)
// keeps everything on the simulated machine: deterministic I/O counts,
// nothing on the host filesystem.
//
// Durable indexes tolerate transient storage faults: every pager and
// WAL operation retries with bounded exponential backoff (Options.Retry),
// so an EINTR, EAGAIN or short write never surfaces to a caller. A
// FATAL fault (ENOSPC, I/O error, or a transient one that exhausts the
// retry budget) latches the DB into degraded read-only mode instead of
// corrupting it: queries, Len and Snapshot keep serving the applied
// state — byte-identical to what reopening the directory reconstructs —
// while writes return ErrDegraded until the directory is reopened.
// Options.MaxBuffered caps the async queue's buffered slabs; an
// over-cap write either drains its slab inline before admission (the
// default) or is shed with ErrBackpressure (Options.ShedWrites).
// DB.Resilience reports the counters behind all of this.
//
// Everything above is also served over HTTP/JSON by cmd/skylined
// (internal/serve): one namespace per DB, every query shape plus
// snapshot-pinned pagination, single-point writes group-committed into
// Apply batches, and the typed sentinels mapped to
// statuses clients can act on (ErrBackpressure → 429 + Retry-After,
// ErrDegraded → 503 read-only, ErrStatic → 409); SIGTERM drains and
// checkpoints before exit, so acknowledged writes survive a graceful
// shutdown. docs/API.md specifies the wire protocol, and cmd/skyload
// load-tests a running server.
//
// The subsystems are importable individually: internal/topopen
// (Theorem 1), internal/rankspace (Theorem 2 and Corollary 1),
// internal/cpqa (Theorem 3), internal/dyntop (Theorem 4),
// internal/lowerbound (Lemma 8 / Theorem 5), internal/foursided
// (Theorem 6), internal/shard and internal/engine (the scaling seam).
package repro

import (
	"repro/internal/core"
	"repro/internal/cpqa"
	"repro/internal/emio"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/pqa"
)

// Re-exported fundamental types.
type (
	// Point is a point in the plane.
	Point = geom.Point
	// Rect is an axis-parallel query rectangle; grounded sides use
	// NegInf/PosInf.
	Rect = geom.Rect
	// Coord is a coordinate value.
	Coord = geom.Coord
	// Options configures an index (machine parameters, ε, dynamism).
	Options = core.Options
	// DB is the range skyline index.
	DB = core.DB
	// MachineConfig fixes the simulated EM machine (B, M).
	MachineConfig = emio.Config
	// IOStats counts block transfers.
	IOStats = emio.Stats
	// QueueCounters are the async write queue's operation totals
	// (enqueued, drained, coalesced, forced drains, read drains); see
	// Options.AsyncWrites and DB.QueueCounters.
	QueueCounters = engine.QueueCounters
	// CacheCounters are the read-through cache's operation totals
	// (hits, misses, evictions, invalidations); see
	// Options.CacheEntries and DB.CacheCounters.
	CacheCounters = engine.CacheCounters
	// RecoveryStats reports what reopening a durable directory
	// involved (snapshot size, WAL records replayed); see DB.Recover.
	RecoveryStats = core.RecoveryStats
	// Snapshot is a pinned point-in-time view of a DB; see DB.Snapshot.
	Snapshot = core.Snapshot
	// ResilienceStats aggregates the storage stack's fault-handling
	// counters (retries, backpressure, degraded latch); see
	// DB.Resilience.
	ResilienceStats = core.ResilienceStats
	// PQAElem is an element of a priority queue with attrition.
	PQAElem = pqa.Elem
)

// Grounded-coordinate sentinels.
const (
	NegInf = geom.NegInf
	PosInf = geom.PosInf
)

// Typed failure sentinels, matched with errors.Is. Write paths return
// wrapped chains carrying exactly one of these (plus detail):
//
//   - ErrClosed: the write arrived after DB.Close; the index is gone on
//     purpose and no retry helps.
//   - ErrDegraded: a fatal storage error latched the DB into degraded
//     read-only mode. Queries, Len and Snapshot keep serving the
//     applied state — byte-identical to what reopening Options.Dir
//     reconstructs from the snapshot and WAL — while every write is
//     rejected. The latch never clears in-process; reopen to recover.
//   - ErrBackpressure: the async queue's Options.MaxBuffered cap shed
//     the write (Options.ShedWrites policy only). The index is healthy;
//     retry after a DB.Flush or back off.
//   - ErrRetryExhausted: a transient storage fault (EINTR, EAGAIN,
//     short write) outlived the bounded retry budget of Options.Retry.
//     It surfaces inside the ErrDegraded chain that latched it.
//
// DB.Resilience reports the matching counters (retries absorbed,
// retries exhausted, writes shed/blocked, degraded flag).
var (
	ErrClosed         = core.ErrClosed
	ErrDegraded       = core.ErrDegraded
	ErrBackpressure   = core.ErrBackpressure
	ErrRetryExhausted = core.ErrRetryExhausted
	// ErrStatic rejects every write on an index opened without
	// Options.Dynamic: the index is healthy but immutable by
	// construction, so retrying cannot help.
	ErrStatic = core.ErrStatic
)

// Open builds a range skyline index over pts. See core.Open.
func Open(opts Options, pts []Point) (*DB, error) { return core.Open(opts, pts) }

// Skyline computes the skyline of pts in memory (the oracle; no I/O
// accounting).
func Skyline(pts []Point) []Point { return geom.Skyline(pts) }

// RangeSkyline computes the skyline of pts ∩ r in memory.
func RangeSkyline(pts []Point, r Rect) []Point { return geom.RangeSkyline(pts, r) }

// Query-rectangle constructors (Figure 2 of the paper).
var (
	TopOpen       = geom.TopOpen
	LeftOpen      = geom.LeftOpen
	RightOpen     = geom.RightOpen
	BottomOpen    = geom.BottomOpen
	Dominance     = geom.Dominance
	AntiDominance = geom.AntiDominance
	Contour       = geom.Contour
)

// PQA is an in-memory priority queue with attrition (Sundar's classic
// structure, the paper's baseline).
type PQA = pqa.PQA

// NewPQA returns an empty priority queue with attrition.
func NewPQA() *PQA { return pqa.New() }

// CPQA is the paper's I/O-efficient catenable priority queue with
// attrition (Theorem 3). Queues are immutable: operations return new
// queues that share structure with their inputs.
type CPQA = cpqa.Queue

// NewCPQA returns an empty I/O-CPQA on a fresh simulated disk with
// buffer parameter b (1 <= b <= B).
func NewCPQA(cfg MachineConfig, b int) (*CPQA, *emio.Disk) {
	d := emio.NewDisk(cfg)
	return cpqa.New(d, b), d
}

// CatenateAndAttrite merges two queues: elements of q1 that are >= the
// minimum of q2 are attrited.
func CatenateAndAttrite(q1, q2 *CPQA) *CPQA { return cpqa.CatenateAndAttrite(q1, q2) }
