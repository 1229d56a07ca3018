package emio

import "testing"

// TestFrameTableLRUDiscipline pins the eviction order the Disk relies
// on: least recently used unpinned frame first, pinned frames never.
func TestFrameTableLRUDiscipline(t *testing.T) {
	var evicted []uint64
	ft := NewFrameTable(2, func(f Frame) { evicted = append(evicted, f.Key) })
	ft.Admit(1, false, 0)
	ft.Admit(2, false, 0)
	ft.Touch(1, false) // 2 is now LRU
	ft.Admit(3, false, 0)
	if len(evicted) != 1 || evicted[0] != 2 {
		t.Fatalf("evicted %v, want [2]", evicted)
	}
	if ft.Resident(2) || !ft.Resident(1) || !ft.Resident(3) {
		t.Fatalf("residency after eviction wrong")
	}

	// Pin 1; admitting two more must evict 3 (unpinned) and then
	// overflow by the pinned frame rather than evict it.
	ft.Pin(1)
	ft.Admit(4, false, 0)
	ft.Admit(5, false, 0)
	if !ft.Resident(1) {
		t.Fatalf("pinned frame evicted")
	}
	if ft.Pinned() != 1 {
		t.Fatalf("Pinned() = %d, want 1", ft.Pinned())
	}
	ft.Unpin(1)
	if ft.Pinned() != 0 || ft.Unpinned() != ft.Len() {
		t.Fatalf("pin accounting drifted: pinned=%d unpinned=%d len=%d",
			ft.Pinned(), ft.Unpinned(), ft.Len())
	}
}

// TestFrameTableEvictAllOrder pins that EvictAll visits unpinned frames
// LRU-first and leaves pinned frames resident — Disk.DropCache's
// contract.
func TestFrameTableEvictAllOrder(t *testing.T) {
	var evicted []uint64
	ft := NewFrameTable(10, func(f Frame) { evicted = append(evicted, f.Key) })
	ft.Admit(1, true, 0)
	ft.Admit(2, false, 0)
	ft.Admit(3, false, 1) // pinned at admission
	ft.EvictAll()
	if len(evicted) != 2 || evicted[0] != 1 || evicted[1] != 2 {
		t.Fatalf("evicted %v, want [1 2]", evicted)
	}
	if !ft.Resident(3) || ft.Len() != 1 {
		t.Fatalf("pinned frame did not survive EvictAll")
	}
}

// TestFreePinnedPanics: freeing a still-pinned block is a model
// violation (the pin claims the block is a critical record held in
// memory) and must panic rather than silently strand the pin — the
// old behavior discarded the frame, so a later Unpin would panic as
// "unpinned" and the pin population counts drifted.
func TestFreePinnedPanics(t *testing.T) {
	d := NewDisk(Config{B: 8, M: 64})
	id := d.Alloc()
	d.Pin(id)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("Free of a pinned block did not panic")
			}
		}()
		d.Free(id)
	}()
	// The failed Free must not have mutated anything: the block is
	// still live, still pinned, and a clean Unpin+Free still works.
	if !d.Resident(id) {
		t.Fatalf("block lost residency after rejected Free")
	}
	d.Unpin(id)
	d.Free(id)
	if d.LiveBlocks() != 0 {
		t.Fatalf("LiveBlocks = %d after final Free, want 0", d.LiveBlocks())
	}
}

// TestBlocksForZero pins the documented corner: no words, no blocks.
func TestBlocksForZero(t *testing.T) {
	c := Config{B: 256, M: 0}
	if got := c.BlocksFor(0); got != 0 {
		t.Fatalf("BlocksFor(0) = %d, want 0", got)
	}
	if got := c.BlocksFor(1); got != 1 {
		t.Fatalf("BlocksFor(1) = %d, want 1", got)
	}
	if got := c.BlocksFor(257); got != 2 {
		t.Fatalf("BlocksFor(257) = %d, want 2", got)
	}
}

// TestFrameTablePinDetector pins the two counters behind the paper's
// M = Ω(ℓb) check: the peak number of pinned frames, and the admissions
// that left the table over capacity because every other frame was
// pinned.
func TestFrameTablePinDetector(t *testing.T) {
	ft := NewFrameTable(2, nil)
	ft.Admit(1, false, 1)
	ft.Admit(2, false, 0)
	ft.Pin(2)
	ft.Pin(2) // nested: still one pinned frame
	if ft.PeakPinned() != 2 || ft.Overflows() != 0 {
		t.Fatalf("peak=%d overflows=%d, want 2/0", ft.PeakPinned(), ft.Overflows())
	}
	// An unpinned admission into a full, all-pinned table evicts the new
	// frame itself: no overflow.
	ft.Admit(3, false, 0)
	if ft.Resident(3) || ft.Overflows() != 0 {
		t.Fatalf("unpinned admission into pinned table: resident=%v overflows=%d", ft.Resident(3), ft.Overflows())
	}
	// A pinned admission has no victim: the table overflows.
	ft.Admit(4, false, 1)
	if ft.Len() != 3 || ft.PeakPinned() != 3 || ft.Overflows() != 1 {
		t.Fatalf("len=%d peak=%d overflows=%d, want 3/3/1", ft.Len(), ft.PeakPinned(), ft.Overflows())
	}
	// Unpinning lowers the population, never the peak.
	ft.Unpin(1)
	ft.Unpin(4)
	if ft.Pinned() != 1 || ft.PeakPinned() != 3 {
		t.Fatalf("pinned=%d peak=%d after unpins, want 1/3", ft.Pinned(), ft.PeakPinned())
	}
	ft.Admit(5, false, 0) // evicts LRU unpinned frames back down to capacity
	if ft.Len() != 2 || ft.Overflows() != 1 {
		t.Fatalf("len=%d overflows=%d, want 2/1", ft.Len(), ft.Overflows())
	}
}

// TestDiskPinDetector: the disk exposes the same two counters over its
// block frames.
func TestDiskPinDetector(t *testing.T) {
	d := NewDisk(Config{B: 1, M: 2})
	a, b, c := d.Alloc(), d.Alloc(), d.Alloc() // a is evicted
	d.Pin(b)
	d.Pin(c)
	d.Pin(a) // fetched pinned into a table of two pinned frames
	if d.PeakPinned() != 3 || d.PinOverflows() != 1 {
		t.Fatalf("peak=%d overflows=%d, want 3/1", d.PeakPinned(), d.PinOverflows())
	}
	d.Unpin(a)
	d.Alloc()
	if d.PeakPinned() != 3 || d.PinOverflows() != 1 {
		t.Fatalf("peak=%d overflows=%d after unpin+alloc, want 3/1", d.PeakPinned(), d.PinOverflows())
	}
}
