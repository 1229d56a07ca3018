// Group commit for single-point writes.
//
// core.DB.Apply takes each structure or shard lock once per batch; the
// wire's unit of work is one point per request. The combiner bridges
// the two the way a WAL group-commits transactions: the first writer to
// arrive becomes the batch LEADER, gathers everything that queued
// behind it, applies the whole batch with one engine call, and hands
// each waiter its own slot of the result.
//
// An uncontended write pays zero added latency: it is its own leader
// and its batch has one point. Batching emerges exactly when it pays:
// while a leader is inside the engine, every arriving writer parks on
// the queue, and whoever arrives first after the leader returns becomes
// the next leader and takes the whole accumulated queue in one call.
package serve

import (
	"sync"

	"repro/internal/geom"
)

// combiner group-commits single-point writes. R is the per-point
// result type (error for inserts; delResult for deletes).
type combiner[R any] struct {
	mu      sync.Mutex
	queue   []waiter[R]
	leading bool

	apply func(pts []geom.Point) []R
}

// waiter is one parked request: its point and the channel its slot of
// the batch result arrives on.
type waiter[R any] struct {
	pt   geom.Point
	done chan R
}

// newCombiner returns a combiner applying batches through apply, which
// must return exactly one R per input point, in order.
func newCombiner[R any](apply func(pts []geom.Point) []R) *combiner[R] {
	return &combiner[R]{apply: apply}
}

// do submits one point and blocks until its batch is applied,
// returning this point's slot of the result.
func (c *combiner[R]) do(pt geom.Point) R {
	done := make(chan R, 1)
	c.mu.Lock()
	c.queue = append(c.queue, waiter[R]{pt: pt, done: done})
	if c.leading {
		// A leader is already collecting (or inside the engine); it —
		// or its successor — will take this waiter along.
		c.mu.Unlock()
		return <-done
	}
	c.leading = true
	c.mu.Unlock()

	for {
		c.mu.Lock()
		batch := c.queue
		c.queue = nil
		if len(batch) == 0 {
			// Everything queued so far is applied; stop leading.
			c.leading = false
			c.mu.Unlock()
			return <-done
		}
		c.mu.Unlock()

		pts := make([]geom.Point, len(batch))
		for i, wtr := range batch {
			pts[i] = wtr.pt
		}
		results := c.apply(pts)
		for i, wtr := range batch {
			wtr.done <- results[i]
		}
		// Loop: writers may have queued while the engine ran; this
		// leader drains them too rather than making one of them block
		// anew as leader.
	}
}
