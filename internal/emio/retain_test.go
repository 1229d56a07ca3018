package emio

import (
	"sync"
	"testing"
)

// TestRetainDefersFree pins the core contract: a block freed while a
// retention is open stays readable, and is released when the retention
// drops.
func TestRetainDefersFree(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 16})
	id := d.Alloc()
	r := d.RetainFrees()
	d.Free(id)
	if got := d.DeferredBlocks(); got != 1 {
		t.Fatalf("DeferredBlocks = %d, want 1", got)
	}
	// The free is deferred: reading the block must not panic, and the
	// block still counts as live.
	d.Read(id)
	if d.LiveBlocks() != 1 {
		t.Fatalf("LiveBlocks = %d, want 1 while deferred", d.LiveBlocks())
	}
	r.Release()
	if got := d.DeferredBlocks(); got != 0 {
		t.Fatalf("DeferredBlocks = %d after release, want 0", got)
	}
	if d.LiveBlocks() != 0 {
		t.Fatalf("LiveBlocks = %d after release, want 0", d.LiveBlocks())
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("read of reclaimed block did not panic")
		}
	}()
	d.Read(id)
}

// TestRetainEpochOrdering verifies the epoch rule: a free is held
// exactly by the retentions opened BEFORE it, not by ones opened after.
func TestRetainEpochOrdering(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 16})
	early := d.Alloc()
	late := d.Alloc()

	r1 := d.RetainFrees()
	d.Free(early) // epoch 1: held by r1 only
	r2 := d.RetainFrees()
	d.Free(late) // epoch 2: held by r1 and r2

	// r2 cannot be referencing early (it was freed before r2 opened),
	// but releasing r2 must free NOTHING: r1 predates both frees.
	r2.Release()
	if got := d.DeferredBlocks(); got != 2 {
		t.Fatalf("DeferredBlocks = %d after releasing r2, want 2 (r1 still open)", got)
	}
	r1.Release()
	if got := d.DeferredBlocks(); got != 0 {
		t.Fatalf("DeferredBlocks = %d after releasing r1, want 0", got)
	}
	if d.LiveBlocks() != 0 {
		t.Fatalf("LiveBlocks = %d, want 0", d.LiveBlocks())
	}
}

// TestRetainPartialDrain: releasing the oldest retention frees the
// blocks only newer retentions postdate, and keeps the rest.
func TestRetainPartialDrain(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 16})
	a := d.Alloc()
	b := d.Alloc()

	r1 := d.RetainFrees()
	d.Free(a) // epoch 1
	r2 := d.RetainFrees()
	d.Free(b) // epoch 2
	r1.Release()
	// a's free (epoch 1) predates r2 (seq 2)? No: r2 opened AFTER a was
	// freed, so r2 cannot reference a — a is reclaimed. b was freed
	// while r2 was open — b stays.
	if got := d.DeferredBlocks(); got != 1 {
		t.Fatalf("DeferredBlocks = %d after releasing r1, want 1", got)
	}
	if d.LiveBlocks() != 1 {
		t.Fatalf("LiveBlocks = %d, want 1 (only b held)", d.LiveBlocks())
	}
	r2.Release()
	if d.LiveBlocks() != 0 || d.DeferredBlocks() != 0 {
		t.Fatalf("blocks leaked after all releases: live=%d deferred=%d",
			d.LiveBlocks(), d.DeferredBlocks())
	}
	_ = a
	_ = b
}

// TestRetainReleaseIdempotent: double Release is a no-op.
func TestRetainReleaseIdempotent(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 16})
	id := d.Alloc()
	r1 := d.RetainFrees()
	r2 := d.RetainFrees()
	d.Free(id)
	r1.Release()
	r1.Release() // must not disturb r2's hold
	if got := d.DeferredBlocks(); got != 1 {
		t.Fatalf("DeferredBlocks = %d, want 1 (r2 still open)", got)
	}
	r2.Release()
	if got := d.DeferredBlocks(); got != 0 {
		t.Fatalf("DeferredBlocks = %d, want 0", got)
	}
}

// TestRetainDoubleFreePanics: freeing an already-deferred block is the
// same model violation as any double free.
func TestRetainDoubleFreePanics(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 16})
	id := d.Alloc()
	r := d.RetainFrees()
	defer r.Release()
	d.Free(id)
	defer func() {
		if recover() == nil {
			t.Fatalf("double free of deferred block did not panic")
		}
	}()
	d.Free(id)
}

// TestRetainSpan: FreeSpan defers every constituent block and releases
// them together.
func TestRetainSpan(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 16})
	span := d.AllocSpan(10) // 3 blocks at B=4
	r := d.RetainFrees()
	d.FreeSpan(span, 10)
	if got := d.DeferredBlocks(); got != 3 {
		t.Fatalf("DeferredBlocks = %d, want 3", got)
	}
	d.ReadSpan(span, 10) // still readable
	r.Release()
	if d.LiveBlocks() != 0 {
		t.Fatalf("LiveBlocks = %d, want 0", d.LiveBlocks())
	}
}

// TestRetainConcurrent hammers retentions, frees and reads on a guarded
// disk from many goroutines; run with -race. At quiescence nothing may
// remain deferred.
func TestRetainConcurrent(t *testing.T) {
	d := NewConcurrentDisk(Config{B: 4, M: 64})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := d.Alloc()
				r := d.RetainFrees()
				d.Free(id)
				d.Read(id) // deferred: must stay readable
				r.Release()
			}
		}()
	}
	wg.Wait()
	if got := d.DeferredBlocks(); got != 0 {
		t.Fatalf("DeferredBlocks = %d at quiescence, want 0", got)
	}
	if got := d.Retained(); got != 0 {
		t.Fatalf("Retained = %d at quiescence, want 0", got)
	}
	if d.LiveBlocks() != 0 {
		t.Fatalf("LiveBlocks = %d at quiescence, want 0", d.LiveBlocks())
	}
}

// TestRetainReleaseAfterPinnedPanic: a Release that reaches a deferred
// block still pinned panics, and a caller that recovers must find the
// disk consistent — the entries reclaimed before the panic gone from the
// queue, the pinned one still deferred — so that once the pin drops the
// next retention's Release drains the queue without a panic.
func TestRetainReleaseAfterPinnedPanic(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 16})
	plain, pinned := d.Alloc(), d.Alloc()
	d.Pin(pinned)
	r := d.RetainFrees()
	d.Free(plain)
	d.Free(pinned)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Release reclaiming a pinned block did not panic")
			}
		}()
		r.Release()
	}()
	if got := d.DeferredBlocks(); got != 1 {
		t.Fatalf("DeferredBlocks = %d after the panic, want 1 (the pinned block)", got)
	}
	d.Read(pinned) // still deferred, so still readable
	d.Unpin(pinned)
	d.RetainFrees().Release()
	if got := d.DeferredBlocks(); got != 0 {
		t.Fatalf("DeferredBlocks = %d, want 0", got)
	}
	if got := d.LiveBlocks(); got != 0 {
		t.Fatalf("LiveBlocks = %d, want 0", got)
	}
}
