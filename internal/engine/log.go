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
// The backend also maintains the live point set — the content of the
// next checkpoint snapshot. Tracking it here (rather than asking the
// structures to enumerate themselves) costs one map update per applied
// write and gives Checkpoint a consistent cut: the mutex that
// serializes log-append + apply + live-set update is the one
// Checkpoint holds while materializing the snapshot, so a snapshot at
// sequence S contains exactly the effects of records 1..S.
//
// The write-ahead rule has a deliberate asymmetry on failure: the
// record becomes durable BEFORE the apply, so when the apply then
// fails the caller gets an error — the write is NOT acknowledged —
// while the log still holds the record. A crash before the next
// checkpoint replays that record, so an unacknowledged write can
// appear after recovery (a phantom); a checkpoint instead drops it for
// good (the live set never absorbed it, and the truncate discards the
// record). The alternative — logging after applying — would lose
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
	"sort"
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
// logged, applied, and folded into the live point set under one mutex.
type LogBackend struct {
	WriteVerbs
	inner Backend
	log   UpdateLog

	mu   sync.Mutex
	live map[geom.Point]struct{}
}

// NewLogBackend wraps inner, logging to log. initial is the point set
// inner currently holds (the snapshot recovery loaded plus whatever it
// replayed, for core's durable open).
func NewLogBackend(inner Backend, log UpdateLog, initial []geom.Point) *LogBackend {
	lb := &LogBackend{
		inner: inner,
		log:   log,
		live:  make(map[geom.Point]struct{}, len(initial)),
	}
	lb.WriteVerbs = VerbsOf(lb.Apply)
	for _, p := range initial {
		lb.live[p] = struct{}{}
	}
	return lb
}

// Live returns the current live point count.
func (lb *LogBackend) Live() int {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return len(lb.live)
}

// RangeSkyline passes through: reads are not logged.
func (lb *LogBackend) RangeSkyline(q geom.Rect) []geom.Point {
	return lb.inner.RangeSkyline(q)
}

// Apply logs the batch as ONE record, then applies it and folds the
// result into the live set. A failed append applies nothing. On apply
// failure the logged record persists and a pre-checkpoint crash replays
// it; see the failure-asymmetry note in the package comment. Deletes
// that miss are logged too — the log cannot know presence ahead of the
// structures — and replaying a miss through the presence-check-first
// paths applies nothing, so the spurious entry is harmless.
func (lb *LogBackend) Apply(dels, inss []geom.Point) ([]geom.Point, error) {
	if len(dels) == 0 && len(inss) == 0 {
		return nil, nil
	}
	lb.mu.Lock()
	defer lb.mu.Unlock()
	if err := lb.log.LogBatch(dels, inss); err != nil {
		return nil, err
	}
	return lb.applyLocked(dels, inss)
}

// Replay is Apply without the log append: recovery calls it for every
// record after the checkpoint sequence, and it returns the deletes that
// hit.
func (lb *LogBackend) Replay(dels, inss []geom.Point) ([]geom.Point, error) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.applyLocked(dels, inss)
}

// applyLocked applies a batch to inner and folds it into the live set:
// the removed deletes leave it, and the inserts join it when the batch
// applied cleanly. Caller holds mu.
func (lb *LogBackend) applyLocked(dels, inss []geom.Point) ([]geom.Point, error) {
	removed, err := lb.inner.Apply(dels, inss)
	for _, p := range removed {
		delete(lb.live, p)
	}
	if err == nil {
		for _, p := range inss {
			lb.live[p] = struct{}{}
		}
	}
	return removed, err
}

// Checkpoint materializes the live point set — sorted by x, the order
// every build path expects — and passes it to fn while holding the
// write mutex, so the snapshot fn persists is a consistent cut: no
// log append can land between the set being read and fn returning.
func (lb *LogBackend) Checkpoint(fn func(live []geom.Point) error) error {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	pts := make([]geom.Point, 0, len(lb.live))
	for p := range lb.live {
		pts = append(pts, p)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	return fn(pts)
}

// Partition passes through: logging does not move any point.
func (lb *LogBackend) Partition() (xcuts, ycuts []geom.Coord) { return lb.inner.Partition() }
