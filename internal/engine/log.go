// LogBackend: the write-ahead-logging layer of the engine. It wraps
// any Backend and appends every update batch to an UpdateLog BEFORE
// applying it — the write-ahead rule — so a crash after an
// acknowledged write can always be replayed. In core.DB's durable
// stack it sits between the async queue and the cache:
//
//	AsyncQueue → LogBackend → CacheBackend → Planner
//
// which makes the queue's drain batches the natural log unit: one
// record per Apply, so one per drain, deletes and inserts together.
// Reads pass straight through.
//
// The backend keeps no copy of the point set: the structures below it
// are the only one, and a checkpoint reads them (core writes the
// sharded engine's x-ordered leaf scan). What the backend contributes
// is the consistent cut: the mutex that serializes log-append + apply
// is the one Checkpoint holds while its callback runs, so a snapshot
// taken at sequence S contains exactly the effects of records 1..S.
//
// The write-ahead rule has a deliberate asymmetry on failure: the
// record becomes durable BEFORE the apply, so when the apply then
// fails the caller gets an error — the write is NOT acknowledged —
// while the log still holds the record. A crash before the next
// checkpoint replays that record, so an unacknowledged write can
// appear after recovery (a phantom); a checkpoint instead persists
// only what the structures applied of it, and the truncate discards
// the record. The alternative — logging after applying — would lose
// ACKNOWLEDGED writes on a crash between the two, which is strictly
// worse, and compensating records would buy exactness only at the
// price of a second append on every failure path. Apply errors in this
// repository mean structure corruption; callers observing one should
// treat rebuild-from-log (reopen) as the recovery, which is exactly
// why core skips checkpoints while a drain error is latched.
//
// Serializing writes through one mutex is a deliberate simplification:
// a write-ahead log is a single append stream anyway, batches amortize
// the serialization exactly as they amortize the structure locks, and
// only the durable configuration pays it (a DB without Options.Dir has
// no LogBackend in its stack).
package engine

import (
	"sync"

	"repro/internal/geom"
)

// UpdateLog is the sink a LogBackend appends update batches to before
// applying them. core.DB implements it over internal/wal; tests
// implement it in memory.
type UpdateLog interface {
	// LogBatch durably records one batch — dels applying before inss.
	// An error means the batch is NOT acknowledged: the backend will
	// not apply it.
	LogBatch(dels, inss []geom.Point) error
}

// LogBackend is a write-ahead-logging Backend wrapper: every batch is
// logged and applied under one mutex.
type LogBackend struct {
	WriteVerbs
	inner Backend
	log   UpdateLog
	mu    sync.Mutex
}

// NewLogBackend wraps inner, logging to log. initial is ignored: the
// backend keeps no copy of the point set. The parameter stays until the
// repository benchmark, which calls NewLogBackend(front, sink, nil),
// moves to a signature without it.
func NewLogBackend(inner Backend, log UpdateLog, initial []geom.Point) *LogBackend {
	lb := &LogBackend{inner: inner, log: log}
	lb.WriteVerbs = VerbsOf(lb.Apply)
	return lb
}

// RangeSkyline passes through: reads are not logged.
func (lb *LogBackend) RangeSkyline(q geom.Rect) []geom.Point {
	return lb.inner.RangeSkyline(q)
}

// Apply logs the batch as ONE record, then applies it. A failed append
// applies nothing. On apply failure the logged record persists and a
// pre-checkpoint crash replays it; see the failure-asymmetry note in
// the package comment. Deletes that miss are logged too — the log
// cannot know presence ahead of the structures — and replaying a miss
// through the presence-check-first paths applies nothing, so the
// spurious entry is harmless.
func (lb *LogBackend) Apply(dels, inss []geom.Point) ([]geom.Point, error) {
	if len(dels) == 0 && len(inss) == 0 {
		return nil, nil
	}
	lb.mu.Lock()
	defer lb.mu.Unlock()
	if err := lb.log.LogBatch(dels, inss); err != nil {
		return nil, err
	}
	return lb.inner.Apply(dels, inss)
}

// Replay is Apply without the log append: recovery calls it for every
// record after the checkpoint sequence, and it returns the deletes that
// hit.
func (lb *LogBackend) Replay(dels, inss []geom.Point) ([]geom.Point, error) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.inner.Apply(dels, inss)
}

// Checkpoint runs fn while holding the write mutex, so whatever fn
// reads from the structures and persists is a consistent cut: no log
// append or apply can land between fn's first read and its return.
func (lb *LogBackend) Checkpoint(fn func() error) error {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return fn()
}

// Partition passes through: logging does not move any point.
func (lb *LogBackend) Partition() (xcuts []geom.Coord) { return lb.inner.Partition() }
