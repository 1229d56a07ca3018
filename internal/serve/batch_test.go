package serve

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
)

// TestCombinerDeliversEveryResult checks each waiter gets exactly its
// own slot of the batch result, whatever batches formed.
func TestCombinerDeliversEveryResult(t *testing.T) {
	var applied atomic.Int64
	c := newCombiner(func(pts []geom.Point) []geom.Coord {
		applied.Add(int64(len(pts)))
		out := make([]geom.Coord, len(pts))
		for i, p := range pts {
			out[i] = p.X * 2
		}
		return out
	})
	const n = 200
	var wg sync.WaitGroup
	fail := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got := c.do(geom.Point{X: geom.Coord(i), Y: geom.Coord(-i)})
			if got != geom.Coord(2*i) {
				fail <- "wrong slot"
			}
		}(i)
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
	if applied.Load() != n {
		t.Errorf("applied %d points, want %d", applied.Load(), n)
	}
}

// TestCombinerGroupsUnderContention proves batching emerges while a
// leader is inside the engine: waiters queued behind a blocked apply
// come out as ONE batch.
func TestCombinerGroupsUnderContention(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	var batches [][]geom.Point
	c := newCombiner(func(pts []geom.Point) []geom.Coord {
		mu.Lock()
		batches = append(batches, append([]geom.Point(nil), pts...))
		first := len(batches) == 1
		mu.Unlock()
		if first {
			<-release // hold the engine while followers queue
		}
		return make([]geom.Coord, len(pts))
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); c.do(geom.Point{X: 0, Y: 0}) }()
	// Wait until the leader is inside apply before queueing followers.
	for {
		mu.Lock()
		started := len(batches) > 0
		mu.Unlock()
		if started {
			break
		}
		time.Sleep(time.Millisecond)
	}
	const followers = 10
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); c.do(geom.Point{X: geom.Coord(i), Y: geom.Coord(i)}) }(i)
	}
	// Give every follower time to park on the queue, then release.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(batches) < 2 {
		t.Fatalf("expected the leader to apply a second batch, got %d batches", len(batches))
	}
	if got := len(batches[1]); got != followers {
		t.Errorf("second batch has %d points, want all %d queued followers", got, followers)
	}
}
