package engine

import (
	"errors"
	"testing"
	"time"

	"repro/internal/geom"
)

// memLog is an in-memory UpdateLog: it records batches, and can be
// made to fail to pin the write-ahead rule.
type memLog struct {
	batches []memBatch
	err     error
}

type memBatch struct {
	dels, inss []geom.Point
}

func (m *memLog) LogBatch(dels, inss []geom.Point) error {
	if m.err != nil {
		return m.err
	}
	m.batches = append(m.batches, memBatch{
		dels: append([]geom.Point(nil), dels...),
		inss: append([]geom.Point(nil), inss...),
	})
	return nil
}

// TestLogBackendWriteAhead: every mutation appends exactly one record,
// and a failed append means the structures never see the write — the
// write-ahead rule in both directions.
func TestLogBackendWriteAhead(t *testing.T) {
	inner := newFake("inner")
	ml := &memLog{}
	lb := NewLogBackend(inner, ml, nil)

	p1, p2, p3 := geom.Point{X: 1, Y: 9}, geom.Point{X: 2, Y: 8}, geom.Point{X: 3, Y: 7}
	if err := lb.Insert(p1); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := lb.BatchInsert([]geom.Point{p2, p3}); err != nil {
		t.Fatalf("BatchInsert: %v", err)
	}
	if ok, err := lb.Delete(p2); !ok || err != nil {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if len(ml.batches) != 3 {
		t.Fatalf("logged %d batches, want 3", len(ml.batches))
	}
	if len(ml.batches[2].dels) != 1 || ml.batches[2].dels[0] != p2 {
		t.Fatalf("delete batch = %+v", ml.batches[2])
	}

	// A failing log blocks the apply entirely.
	ml.err = errors.New("disk full")
	preIns, preDel := len(inner.inserts), len(inner.deletes)
	if err := lb.Insert(geom.Point{X: 4, Y: 6}); err == nil {
		t.Fatalf("Insert with failing log succeeded")
	}
	if _, err := lb.Delete(p1); err == nil {
		t.Fatalf("Delete with failing log succeeded")
	}
	if err := lb.BatchInsert([]geom.Point{{X: 5, Y: 5}}); err == nil {
		t.Fatalf("BatchInsert with failing log succeeded")
	}
	if _, err := lb.Apply([]geom.Point{p1}, []geom.Point{{X: 5, Y: 5}}); err == nil {
		t.Fatalf("Apply with failing log succeeded")
	}
	if len(inner.inserts) != preIns || len(inner.deletes) != preDel {
		t.Fatalf("unlogged writes reached the structures")
	}
	if len(inner.pts) != 2 || !inner.pts[p1] || !inner.pts[p3] {
		t.Fatalf("inner holds %v after rejected writes, want {%v, %v}", inner.pts, p1, p3)
	}
}

// TestLogBackendDeleteMissLogged: a delete miss is still logged (the
// log cannot know presence), returns false, and leaves the
// inner backend alone — replaying the spurious record is a no-op.
func TestLogBackendDeleteMissLogged(t *testing.T) {
	inner := newFake("inner")
	ml := &memLog{}
	lb := NewLogBackend(inner, ml, nil)
	if ok, err := lb.Delete(geom.Point{X: 9, Y: 9}); ok || err != nil {
		t.Fatalf("Delete miss = %v, %v", ok, err)
	}
	if len(ml.batches) != 1 {
		t.Fatalf("miss not logged")
	}
	if len(inner.pts) != 0 {
		t.Fatalf("inner holds %v after a miss", inner.pts)
	}
}

// TestLogBackendLiveSetAndCheckpoint: the inner backend holds exactly
// the applied writes, and Checkpoint runs fn as a consistent cut — a
// write issued while fn runs neither reaches the log nor the inner
// backend until fn has returned.
func TestLogBackendLiveSetAndCheckpoint(t *testing.T) {
	initial := []geom.Point{{X: 10, Y: 1}, {X: 20, Y: 2}}
	inner := newFake("inner", initial...)
	ml := &memLog{}
	lb := NewLogBackend(inner, ml, nil)

	lb.Insert(geom.Point{X: 5, Y: 3})
	lb.BatchInsert([]geom.Point{{X: 30, Y: 4}, {X: 15, Y: 5}})
	if removed, err := lb.Apply([]geom.Point{{X: 20, Y: 2}, {X: 99, Y: 99}}, nil); len(removed) != 1 || err != nil {
		t.Fatalf("Apply(deletes) = %v, %v", removed, err)
	}
	want := []geom.Point{{X: 5, Y: 3}, {X: 10, Y: 1}, {X: 15, Y: 5}, {X: 30, Y: 4}}
	holds := func(pts []geom.Point) bool {
		if len(inner.pts) != len(pts) {
			return false
		}
		for _, p := range pts {
			if !inner.pts[p] {
				return false
			}
		}
		return true
	}
	if !holds(want) {
		t.Fatalf("inner holds %v, want %v", inner.pts, want)
	}

	late := geom.Point{X: 40, Y: 6}
	done := make(chan error)
	var inFn []geom.Point
	if err := lb.Checkpoint(func() error {
		go func() { done <- lb.Insert(late) }()
		select {
		case err := <-done:
			t.Errorf("a write returned (%v) while the checkpoint held the cut", err)
		case <-time.After(20 * time.Millisecond):
		}
		for p := range inner.pts {
			inFn = append(inFn, p)
		}
		if len(ml.batches) != 3 {
			t.Errorf("%d batches logged during the checkpoint, want 3", len(ml.batches))
		}
		return nil
	}); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if len(inFn) != len(want) {
		t.Fatalf("checkpoint saw %v, want %v", inFn, want)
	}
	if err := <-done; err != nil {
		t.Fatalf("Insert after the checkpoint: %v", err)
	}
	if !holds(append(want, late)) {
		t.Fatalf("inner holds %v after the checkpoint, want %v plus %v", inner.pts, want, late)
	}
}

// TestLogBackendReplayDoesNotRelog: recovery's Replay applies records
// to the structures without appending them again —
// otherwise every recovery would double the log.
func TestLogBackendReplayDoesNotRelog(t *testing.T) {
	inner := newFake("inner", geom.Point{X: 1, Y: 1})
	ml := &memLog{}
	lb := NewLogBackend(inner, ml, nil)
	hits, err := lb.Replay(
		[]geom.Point{{X: 1, Y: 1}, {X: 7, Y: 7}}, // second is a miss
		[]geom.Point{{X: 2, Y: 2}, {X: 3, Y: 3}},
	)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(hits) != 1 || hits[0] != (geom.Point{X: 1, Y: 1}) {
		t.Fatalf("Replay hits = %v, want [(1,1)]", hits)
	}
	if len(ml.batches) != 0 {
		t.Fatalf("Replay logged %d batches", len(ml.batches))
	}
	if len(inner.pts) != 2 || !inner.pts[geom.Point{X: 2, Y: 2}] || !inner.pts[geom.Point{X: 3, Y: 3}] {
		t.Fatalf("replayed record not applied to inner")
	}
}

// TestPartitionForwardsThroughLogBackend: a LogBackend between the
// queue and a partitioned engine must forward its cuts — otherwise the
// queue in a durable stack degrades to a single slab.
func TestPartitionForwardsThroughLogBackend(t *testing.T) {
	part := newFake("part")
	part.Cuts = []geom.Coord{10, 20, 30}
	lb := NewLogBackend(part, &memLog{}, nil)
	if xcuts := lb.Partition(); len(xcuts) != 3 {
		t.Fatalf("Partition through LogBackend found %d cuts, want 3", len(xcuts))
	}
	q, err := NewAsyncQueue(lb, QueueOptions{FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if q.NumSlabs() != 4 {
		t.Fatalf("queue over the log has %d slabs, want 4", q.NumSlabs())
	}
}

// errBackend fails every Apply with a programmable error.
type errBackend struct {
	fakeBackend
	err error
}

func (e *errBackend) Apply([]geom.Point, []geom.Point) ([]geom.Point, error) { return nil, e.err }

// TestQueueStickyFirstError: a drain error from a path whose caller
// cannot see it (drain-on-read) is latched and surfaced by the next
// Flush — and keeps being surfaced: Len-style callers discard Flush's
// return, so the latch must never clear. First error wins.
func TestQueueStickyFirstError(t *testing.T) {
	errA, errB := errors.New("apply failed A"), errors.New("apply failed B")
	inner := &errBackend{err: errA}
	inner.pts = map[geom.Point]bool{}
	q, err := NewAsyncQueue(inner, QueueOptions{FlushInterval: -1 * time.Millisecond, FlushPoints: 1 << 20})
	if err != nil {
		t.Fatalf("NewAsyncQueue: %v", err)
	}
	if err := q.Insert(geom.Point{X: 1, Y: 1}); err != nil {
		t.Fatalf("Insert (buffered) errored: %v", err)
	}
	// Drain-on-read hits the failing backend; RangeSkyline has no error
	// return, so without the latch the failure would vanish here.
	q.RangeSkyline(geom.Rect{X1: geom.NegInf, X2: geom.PosInf, Y1: geom.NegInf, Y2: geom.PosInf})
	if got := q.Err(); !errors.Is(got, errA) {
		t.Fatalf("Err after failed drain-on-read = %v, want %v", got, errA)
	}
	if got := q.Flush(); !errors.Is(got, errA) {
		t.Fatalf("Flush = %v, want latched %v", got, errA)
	}

	// Later, different failures do not displace the first…
	inner.err = errB
	q.Insert(geom.Point{X: 2, Y: 2})
	if got := q.Flush(); !errors.Is(got, errA) {
		t.Fatalf("Flush after second failure = %v, want first error %v", got, errA)
	}
	// …and a clean pass does not clear it: the latch is permanent.
	inner.err = nil
	if got := q.Flush(); !errors.Is(got, errA) {
		t.Fatalf("Flush after clean pass = %v, want latched %v", got, errA)
	}
	if got := q.Close(); !errors.Is(got, errA) {
		t.Fatalf("Close = %v, want latched %v", got, errA)
	}
}
