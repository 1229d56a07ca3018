package engine_test

import (
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/geom"
)

// Admission-control tests: the MaxBuffered cap on the async queue's
// slab buffers, under both overflow policies (shed with a typed
// ErrBackpressure; block by draining the writer's own slab inline),
// and the freeze-on-fatal interaction when the inline drain fails.

// capped returns queue options with a MaxBuffered cap and no other
// drain trigger (huge FlushPoints, no background drainer).
func capped(max int, shed bool) engine.QueueOptions {
	return engine.QueueOptions{FlushPoints: 1 << 20, FlushInterval: -1, MaxBuffered: max, ShedWrites: shed}
}

func bp(i int) geom.Point { return geom.Point{X: geom.Coord(10 * i), Y: geom.Coord(1000 - i)} }

func TestQueueShedPolicy(t *testing.T) {
	fake := newFake("shed")
	q, err := engine.NewAsyncQueue(fake, capped(2, true))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if err := q.Insert(bp(1)); err != nil {
		t.Fatalf("Insert under cap: %v", err)
	}
	if err := q.Insert(bp(2)); err != nil {
		t.Fatalf("Insert at cap: %v", err)
	}
	if err := q.Insert(bp(3)); !errors.Is(err, engine.ErrBackpressure) {
		t.Fatalf("Insert over cap = %v, want ErrBackpressure", err)
	}
	c := q.Counters()
	if c.Shed != 1 || c.Blocked != 0 || c.Enqueued != 2 {
		t.Fatalf("Counters = %+v, want Shed 1, Enqueued 2 (a shed write is never accepted)", c)
	}
	// A state transition of an already-buffered point adds no depth and
	// is admitted at the cap: deleting buffered bp(1) coalesces the pair
	// away, freeing a slot.
	if _, err := q.Delete(bp(1)); err != nil {
		t.Fatalf("Delete of buffered point at cap: %v", err)
	}
	if err := q.Insert(bp(3)); err != nil {
		t.Fatalf("Insert after coalesce freed a slot: %v", err)
	}
	// Draining empties the slab and lifts the cap.
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := q.Insert(bp(4)); err != nil {
		t.Fatalf("Insert after Flush: %v", err)
	}
	if !fake.pts[bp(2)] || !fake.pts[bp(3)] || fake.pts[bp(1)] {
		t.Fatalf("drained state wrong: %v", fake.pts)
	}
}

func TestQueueBlockPolicy(t *testing.T) {
	fake := newFake("block")
	q, err := engine.NewAsyncQueue(fake, capped(2, false))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	for i := 1; i <= 2; i++ {
		if err := q.Insert(bp(i)); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	// The third write hits the cap, drains its own slab inline, and is
	// then admitted — backpressure as latency, not as an error.
	if err := q.Insert(bp(3)); err != nil {
		t.Fatalf("Insert over cap under block policy: %v", err)
	}
	c := q.Counters()
	if c.Blocked != 1 || c.Shed != 0 || c.Enqueued != 3 {
		t.Fatalf("Counters = %+v, want Blocked 1, Enqueued 3", c)
	}
	if got := q.Buffered(); got != 1 {
		t.Fatalf("Buffered = %d, want 1 (only the just-admitted write)", got)
	}
	if got := q.AppliedDelta(); got != 2 {
		t.Fatalf("AppliedDelta = %d, want the 2 inline-drained inserts", got)
	}
	if !fake.pts[bp(1)] || !fake.pts[bp(2)] {
		t.Fatalf("inline drain did not apply: %v", fake.pts)
	}
}

func TestQueueBlockPolicyDegraded(t *testing.T) {
	fb := &failBackend{fakeBackend: newFake("fail")}
	q, err := engine.NewAsyncQueue(fb, capped(1, false))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if err := q.Insert(bp(1)); err != nil {
		t.Fatal(err)
	}
	fb.fail = errors.New("disk on fire")
	// The blocked writer's inline drain fails: the write is rejected
	// with ErrDegraded instead of spinning on a frozen, forever-full
	// slab.
	err = q.Insert(bp(2))
	if !errors.Is(err, engine.ErrDegraded) {
		t.Fatalf("Insert with failing inline drain = %v, want ErrDegraded", err)
	}
	if c := q.Counters(); c.Blocked != 1 {
		t.Fatalf("Counters = %+v, want Blocked 1", c)
	}
	// The queue is frozen: every further write is rejected under the
	// same sentinel, the sticky error persists, and nothing was applied
	// (the failed batch is abandoned whole — crash semantics: an
	// undrained write is unacknowledged).
	if err := q.Insert(bp(3)); !errors.Is(err, engine.ErrDegraded) {
		t.Fatalf("Insert on frozen queue = %v, want ErrDegraded", err)
	}
	if q.Err() == nil {
		t.Fatal("sticky drain error cleared")
	}
	if got := q.AppliedDelta(); got != 0 {
		t.Fatalf("AppliedDelta = %d after failed drain, want 0", got)
	}
	if len(fb.pts) != 0 {
		t.Fatalf("failed drain applied points: %v", fb.pts)
	}
	// Flush and Close keep surfacing the sticky error.
	if err := q.Flush(); err == nil {
		t.Fatal("Flush on frozen queue returned nil, want the sticky error")
	}
	if err := q.Close(); err == nil {
		t.Fatal("Close on frozen queue returned nil")
	}
}

func TestQueueShedPolicyDegradedWins(t *testing.T) {
	// A frozen queue rejects with ErrDegraded even under the shed
	// policy: degradation is checked before admission, so callers see
	// the fatal condition, not a retryable-looking ErrBackpressure.
	fb := &failBackend{fakeBackend: newFake("fail")}
	q, err := engine.NewAsyncQueue(fb, capped(1, true))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if err := q.Insert(bp(1)); err != nil {
		t.Fatal(err)
	}
	fb.fail = errors.New("disk on fire")
	if err := q.Flush(); err == nil {
		t.Fatal("Flush through failing backend succeeded")
	}
	err = q.Insert(bp(2))
	if !errors.Is(err, engine.ErrDegraded) || errors.Is(err, engine.ErrBackpressure) {
		t.Fatalf("Insert on frozen shed-policy queue = %v, want ErrDegraded (not ErrBackpressure)", err)
	}
	if c := q.Counters(); c.Shed != 0 {
		t.Fatalf("Counters = %+v: a degraded rejection must not count as shed", c)
	}
}

// failBackend wraps fakeBackend with a switchable Apply failure — the
// queue only ever drains through Apply.
type failBackend struct {
	*fakeBackend
	fail error
}

func (f *failBackend) Apply(dels, inss []geom.Point) ([]geom.Point, error) {
	if f.fail != nil {
		return nil, f.fail
	}
	return f.fakeBackend.Apply(dels, inss)
}
