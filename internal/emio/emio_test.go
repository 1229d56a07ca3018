package emio

import (
	"testing"
	"testing/quick"
)

func TestConfigFrames(t *testing.T) {
	tests := []struct {
		cfg  Config
		want int
	}{
		{Config{B: 256, M: 256 * 64}, 64},
		{Config{B: 256, M: 255}, 0},
		{Config{B: 1, M: 10}, 10},
		{Config{B: 4, M: 0}, 0},
	}
	for _, tc := range tests {
		if got := tc.cfg.Frames(); got != tc.want {
			t.Errorf("Frames(%+v) = %d, want %d", tc.cfg, got, tc.want)
		}
	}
}

func TestConfigBlocksFor(t *testing.T) {
	cfg := Config{B: 8, M: 0}
	tests := []struct{ words, want int }{
		{0, 0}, {1, 1}, {8, 1}, {9, 2}, {16, 2}, {17, 3},
	}
	for _, tc := range tests {
		if got := cfg.BlocksFor(tc.words); got != tc.want {
			t.Errorf("BlocksFor(%d) = %d, want %d", tc.words, got, tc.want)
		}
	}
}

func TestAllocChargesNoRead(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 16})
	id := d.Alloc()
	if got := d.Stats().Reads; got != 0 {
		t.Fatalf("Alloc charged %d reads, want 0", got)
	}
	if !d.Resident(id) {
		t.Fatal("freshly allocated block should be resident")
	}
}

func TestReadMissAndHit(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 8}) // 2 frames
	a := d.Alloc()
	b := d.Alloc()
	c := d.Alloc() // evicts a (dirty) -> 1 write
	if got := d.Stats().Writes; got != 1 {
		t.Fatalf("expected 1 write from dirty eviction, got %d", got)
	}
	d.ResetStats()
	d.Read(b) // hit
	d.Read(c) // hit
	if got := d.Stats().Reads; got != 0 {
		t.Fatalf("cache hits charged %d reads, want 0", got)
	}
	d.Read(a) // miss
	if got := d.Stats().Reads; got != 1 {
		t.Fatalf("miss charged %d reads, want 1", got)
	}
}

func TestCleanEvictionChargesNoWrite(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 4}) // 1 frame
	a := d.Alloc()
	_ = d.Alloc() // evicts a, dirty -> write
	d.ResetStats()
	d.Read(a) // fetch a (clean), evicting b (dirty -> 1 write)
	_ = d.Alloc()
	// Read(a) evicts dirty b (1 write); Alloc evicts clean a (free).
	if got := d.Stats().Writes; got != 1 {
		t.Fatalf("writes = %d, want 1 (dirty b only)", got)
	}
}

func TestCleanEvictionExact(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 4}) // 1 frame
	a := d.Alloc()
	d.DropCache() // a written back once
	d.ResetStats()
	d.Read(a)     // miss: 1 read, a clean
	d.DropCache() // clean eviction: no write
	st := d.Stats()
	if st.Reads != 1 || st.Writes != 0 {
		t.Fatalf("stats = %v, want reads=1 writes=0", st)
	}
}

func TestPinPreventsEviction(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 8}) // 2 frames
	a := d.Alloc()
	d.Pin(a)
	for i := 0; i < 10; i++ {
		d.Alloc()
	}
	if !d.Resident(a) {
		t.Fatal("pinned block was evicted")
	}
	d.ResetStats()
	d.Read(a)
	if got := d.Stats().Reads; got != 0 {
		t.Fatalf("pinned block read charged %d I/Os, want 0", got)
	}
	d.Unpin(a)
	d.DropCache()
	if d.Resident(a) {
		t.Fatal("unpinned block survived DropCache")
	}
}

func TestPinNesting(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 8})
	a := d.Alloc()
	d.Pin(a)
	d.Pin(a)
	d.Unpin(a)
	d.DropCache()
	if !d.Resident(a) {
		t.Fatal("block with one remaining pin was evicted")
	}
	d.Unpin(a)
}

func TestFreeReleasesSpace(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 16})
	a := d.AllocWords(3)
	if d.LiveWords() != 3 {
		t.Fatalf("LiveWords = %d, want 3", d.LiveWords())
	}
	b := d.AllocWords(4)
	if d.LiveBlocks() != 2 {
		t.Fatalf("LiveBlocks = %d, want 2", d.LiveBlocks())
	}
	d.Free(a)
	d.Free(b)
	if d.LiveWords() != 0 || d.LiveBlocks() != 0 {
		t.Fatalf("after Free: words=%d blocks=%d, want 0/0", d.LiveWords(), d.LiveBlocks())
	}
	if d.PeakWords() != 7 {
		t.Fatalf("PeakWords = %d, want 7", d.PeakWords())
	}
}

func TestSpanAccounting(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 64})
	id := d.AllocSpan(10) // 3 blocks: 4+4+2 words
	if d.LiveBlocks() != 3 || d.LiveWords() != 10 {
		t.Fatalf("span alloc: blocks=%d words=%d, want 3/10", d.LiveBlocks(), d.LiveWords())
	}
	d.DropCache()
	d.ResetStats()
	d.ReadSpan(id, 10)
	if got := d.Stats().Reads; got != 3 {
		t.Fatalf("ReadSpan charged %d reads, want 3", got)
	}
	d.FreeSpan(id, 10)
	if d.LiveBlocks() != 0 {
		t.Fatalf("FreeSpan left %d blocks", d.LiveBlocks())
	}
}

// TestBlockAccounting: AllocBlocks accounts each block's words as
// given, ResizeBlock re-accounts one block in place, keeping LiveWords
// and PeakWords exact, and FreeBlocks frees the span by its block count.
// ResizeBlock panics on a size outside [1, B], on a block that does not
// account the words given, and on a block whose Free is deferred.
func TestBlockAccounting(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 64})
	mustPanic(t, "AllocBlocks of a 5-word block", func() { d.AllocBlocks([]int{4, 5}) })
	id := d.AllocBlocks([]int{2, 4, 3})
	if d.LiveBlocks() != 3 || d.LiveWords() != 9 || d.PeakWords() != 9 {
		t.Fatalf("alloc: blocks=%d words=%d peak=%d, want 3/9/9", d.LiveBlocks(), d.LiveWords(), d.PeakWords())
	}
	d.ResizeBlock(id, 2, 4)
	d.ResizeBlock(id+2, 3, 1)
	if d.LiveWords() != 9 || d.PeakWords() != 11 {
		t.Fatalf("resize: words=%d peak=%d, want 9/11", d.LiveWords(), d.PeakWords())
	}
	mustPanic(t, "ResizeBlock to 0 words", func() { d.ResizeBlock(id, 4, 0) })
	mustPanic(t, "ResizeBlock to B+1 words", func() { d.ResizeBlock(id, 4, 5) })
	mustPanic(t, "ResizeBlock from the wrong size", func() { d.ResizeBlock(id+1, 3, 2) })
	ret := d.RetainFrees()
	d.FreeBlocks(id, 3)
	mustPanic(t, "ResizeBlock of a deferred block", func() { d.ResizeBlock(id, 4, 2) })
	ret.Release()
	if d.LiveBlocks() != 0 || d.LiveWords() != 0 {
		t.Fatalf("FreeBlocks left %d blocks, %d words", d.LiveBlocks(), d.LiveWords())
	}
}

func TestMeasureColdCache(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 64})
	ids := make([]BlockID, 8)
	for i := range ids {
		ids[i] = d.Alloc()
	}
	st := d.Measure(func() {
		for _, id := range ids {
			d.Read(id)
		}
	})
	if st.Reads != 8 {
		t.Fatalf("cold measure reads = %d, want 8", st.Reads)
	}
	// Second measurement is also cold.
	st = d.Measure(func() {
		for _, id := range ids {
			d.Read(id)
		}
	})
	if st.Reads != 8 {
		t.Fatalf("second cold measure reads = %d, want 8", st.Reads)
	}
}

func TestMeasureKeepsPins(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 64})
	a := d.Alloc()
	d.Pin(a)
	st := d.Measure(func() { d.Read(a) })
	if st.Reads != 0 {
		t.Fatalf("pinned block cost %d reads under Measure, want 0", st.Reads)
	}
	d.Unpin(a)
}

func TestZeroMemoryEveryAccessIsIO(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 0})
	a := d.Alloc()
	d.ResetStats()
	for i := 0; i < 5; i++ {
		d.Read(a)
	}
	if got := d.Stats().Reads; got != 5 {
		t.Fatalf("with M=0 expected 5 reads, got %d", got)
	}
}

func TestAccessUnallocatedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on access to unallocated block")
		}
	}()
	d := NewDisk(Config{B: 4, M: 16})
	d.Read(BlockID(999))
}

func TestFreeUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Free of unknown block")
		}
	}()
	d := NewDisk(Config{B: 4, M: 16})
	d.Free(BlockID(999))
}

func TestUnpinUnpinnedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Unpin of unpinned block")
		}
	}()
	d := NewDisk(Config{B: 4, M: 16})
	a := d.Alloc()
	d.Unpin(a)
}

func TestStatsSub(t *testing.T) {
	a := Stats{Reads: 10, Writes: 4}
	b := Stats{Reads: 3, Writes: 1}
	got := a.Sub(b)
	if got.Reads != 7 || got.Writes != 3 || got.IOs() != 10 {
		t.Fatalf("Sub = %+v", got)
	}
}

// Property: the LRU cache never holds more unpinned frames than capacity,
// and hit/miss accounting matches a reference simulation.
func TestQuickLRUMatchesReference(t *testing.T) {
	f := func(ops []uint8) bool {
		cfg := Config{B: 2, M: 8} // 4 frames
		d := NewDisk(cfg)
		var ids []BlockID
		// reference: list of resident ids, most recent first
		type refFrame struct {
			id    BlockID
			dirty bool
		}
		var ref []refFrame
		var refReads, refWrites uint64
		refTouch := func(id BlockID, write bool) {
			for i, f := range ref {
				if f.id == id {
					ref = append(ref[:i], ref[i+1:]...)
					if write {
						f.dirty = true
					}
					ref = append([]refFrame{f}, ref...)
					return
				}
			}
			refReads++
			ref = append([]refFrame{{id: id, dirty: write}}, ref...)
			for len(ref) > cfg.Frames() {
				victim := ref[len(ref)-1]
				if victim.dirty {
					refWrites++
				}
				ref = ref[:len(ref)-1]
			}
		}
		for _, op := range ops {
			switch op % 4 {
			case 0:
				id := d.Alloc()
				ids = append(ids, id)
				// Alloc admits dirty without read.
				ref = append([]refFrame{{id: id, dirty: true}}, ref...)
				for len(ref) > cfg.Frames() {
					victim := ref[len(ref)-1]
					if victim.dirty {
						refWrites++
					}
					ref = ref[:len(ref)-1]
				}
			case 1, 2:
				if len(ids) == 0 {
					continue
				}
				id := ids[int(op)%len(ids)]
				d.Read(id)
				refTouch(id, false)
			case 3:
				if len(ids) == 0 {
					continue
				}
				id := ids[int(op)%len(ids)]
				d.Write(id)
				refTouch(id, true)
			}
		}
		st := d.Stats()
		return st.Reads == refReads && st.Writes == refWrites
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestStaleIDPanics: a freed block's slot is reused by the next
// allocation, but the freed id stays dead — every operation through it
// panics as an access to a never-allocated block does, and the block
// now in the slot is untouched.
func TestStaleIDPanics(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 16})
	old := d.Alloc()
	d.Free(old)
	cur := d.Alloc()
	if cur&slotMask != old&slotMask || cur == old {
		t.Fatalf("new block %#x did not reuse the slot of freed %#x under a new sequence", cur, old)
	}
	if cur < old {
		t.Fatalf("new block %#x sorts before the older %#x", cur, old)
	}
	mustPanic(t, "Read of a stale id", func() { d.Read(old) })
	mustPanic(t, "Write of a stale id", func() { d.Write(old) })
	mustPanic(t, "Pin of a stale id", func() { d.Pin(old) })
	mustPanic(t, "Admit of a stale id", func() { d.Admit(old) })
	mustPanic(t, "Free of a stale id", func() { d.Free(old) })
	mustPanic(t, "ReadCold of a stale id", func() { d.ReadCold(old) })
	if d.Resident(old) {
		t.Fatal("a stale id reports resident")
	}
	if d.LiveBlocks() != 1 || !d.Resident(cur) {
		t.Fatalf("the stale accesses disturbed the live block: live=%d resident=%v", d.LiveBlocks(), d.Resident(cur))
	}
	d.Free(cur)
	if d.LiveBlocks() != 0 {
		t.Fatalf("LiveBlocks = %d, want 0", d.LiveBlocks())
	}
}

// TestSpanSlotsReused: a freed span's run of slots goes to the next span
// of the same length, so the table stays at the peak live size under
// churn.
func TestSpanSlotsReused(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 16})
	for range 100 {
		one := d.AllocSpan(3)
		three := d.AllocSpan(10)
		d.FreeSpan(three, 10)
		d.Free(one)
	}
	if d.slots.len() != 4 {
		t.Fatalf("block table has %d slots after churn, want 4 (the peak live)", d.slots.len())
	}
}

// TestSequenceExhaustionPanics: the id's sequence field never wraps.
func TestSequenceExhaustionPanics(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 16})
	d.seq = maxSeq - 1
	d.Alloc()
	mustPanic(t, "Alloc past the last sequence", func() { d.Alloc() })
}

// TestCoverRedirectsColdReads: a read of a covered block that is not
// resident costs what a touch of its cover block costs — one read when
// the cover is cold, nothing when it is resident — and leaves the block
// itself out of the cache. A resident covered block is read as itself.
func TestCoverRedirectsColdReads(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 16}) // 4 frames
	rec := d.AllocSpan(6)             // two blocks
	rep := d.AllocSpan(10)            // three blocks
	// The copy of rec's 6 words sits at words 3..8 of rep: rec's block
	// 0 is covered by rep's block 0, its block 1 (copy word 7) by 1.
	d.Cover(Span{ID: rec, Words: 6}, Span{ID: rep, Words: 10}, 3)
	d.DropCache()
	d.ResetStats()

	d.Read(rec)
	if st := d.Stats(); st.Reads != 1 || d.Resident(rec) || !d.Resident(rep) {
		t.Fatalf("cold covered read: %v, rec resident %v, cover resident %v; want 1 read of the cover only",
			st, d.Resident(rec), d.Resident(rep))
	}
	d.Read(rec)
	if st := d.Stats(); st.Reads != 1 {
		t.Fatalf("covered read with its cover resident charged %v, want nothing more", st)
	}
	d.Read(rec + 1)
	if st := d.Stats(); st.Reads != 2 || !d.Resident(rep+1) || d.Resident(rep+2) {
		t.Fatalf("block 1 of the span: %v; want one read of the cover block rep+1", st)
	}

	// A resident covered block is an ordinary hit.
	d.Pin(rec)
	d.ResetStats()
	d.Read(rec)
	if st := d.Stats(); st.IOs() != 0 {
		t.Fatalf("read of a resident covered block charged %v", st)
	}
	d.Unpin(rec)
}

// TestCoverNeverRedirectsWrites: a write of a covered block makes the
// block itself resident and dirty, as without a cover.
func TestCoverNeverRedirectsWrites(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 16})
	rec := d.Alloc()
	rep := d.Alloc()
	d.Cover(Span{ID: rec, Words: 4}, Span{ID: rep, Words: 4}, 0)
	d.DropCache()
	d.ResetStats()
	d.Write(rec)
	if st := d.Stats(); st.Reads != 1 || !d.Resident(rec) || d.Resident(rep) {
		t.Fatalf("covered write: %v, rec resident %v, cover resident %v; want the block itself fetched",
			st, d.Resident(rec), d.Resident(rep))
	}
	d.DropCache()
	if st := d.Stats(); st.Writes != 1 {
		t.Fatalf("dropping the written block charged %v, want 1 write", st)
	}
}

// TestFreedCoverIsIgnored: once the cover block is freed, the covered
// block is read as itself; a later Cover replaces the stale one.
func TestFreedCoverIsIgnored(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 16})
	rec := d.Alloc()
	old := d.Alloc()
	d.Cover(Span{ID: rec, Words: 4}, Span{ID: old, Words: 4}, 0)
	d.Free(old)
	reuse := d.Alloc() // takes old's slot under a new sequence
	d.DropCache()
	d.ResetStats()
	d.Read(rec)
	if st := d.Stats(); st.Reads != 1 || !d.Resident(rec) || d.Resident(reuse) {
		t.Fatalf("read under a freed cover: %v, rec resident %v; want rec read as itself", st, d.Resident(rec))
	}
	d.Cover(Span{ID: rec, Words: 4}, Span{ID: reuse, Words: 4}, 0)
	d.DropCache()
	d.Read(rec)
	if d.Resident(rec) || !d.Resident(reuse) {
		t.Fatal("a new Cover did not replace the stale one")
	}
}

// TestReclaimClearsCover: a freed covered block's slot, reused by a new
// block, carries no cover.
func TestReclaimClearsCover(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 16})
	rep := d.Alloc()
	rec := d.Alloc()
	d.Cover(Span{ID: rec, Words: 4}, Span{ID: rep, Words: 4}, 0)
	d.Free(rec)
	fresh := d.Alloc()
	if fresh&slotMask != rec&slotMask {
		t.Fatalf("new block %#x did not reuse the slot of %#x", fresh, rec)
	}
	d.DropCache()
	d.ResetStats()
	d.Read(fresh)
	if !d.Resident(fresh) || d.Resident(rep) {
		t.Fatal("a block in a reclaimed slot inherited the slot's cover")
	}
}

// TestCoverPanics: Cover refuses a copy outside its cover span and a
// span or cover that is not live, and changes nothing when it does.
func TestCoverPanics(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 16})
	rec := d.AllocSpan(8)
	rep := d.AllocSpan(8)
	mustPanic(t, "a copy past the end of the cover span", func() {
		d.Cover(Span{ID: rec, Words: 8}, Span{ID: rep, Words: 8}, 1)
	})
	mustPanic(t, "a negative offset", func() {
		d.Cover(Span{ID: rec, Words: 4}, Span{ID: rep, Words: 8}, -1)
	})
	d.Free(rep + 1)
	mustPanic(t, "a freed cover block", func() {
		d.Cover(Span{ID: rec, Words: 8}, Span{ID: rep, Words: 8}, 0)
	})
	d.DropCache()
	d.Read(rec)
	if !d.Resident(rec) {
		t.Fatal("a refused Cover covered block 0 anyway")
	}
	stale := d.Alloc()
	d.Free(stale)
	mustPanic(t, "a freed covered block", func() {
		d.Cover(Span{ID: stale, Words: 4}, Span{ID: rep, Words: 4}, 0)
	})
}
