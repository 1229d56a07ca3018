package emio

import "testing"

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestScopeReleaseFreesUnkept pins the contract: Release frees what the
// scope allocated and nobody kept, hands back the kept spans, and never
// touches a block it did not allocate.
func TestScopeReleaseFreesUnkept(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 64})
	outside := d.AllocSpan(6) // 2 blocks, not the scope's
	sc := d.NewScope()
	a := sc.AllocSpan(3)  // 1 block
	b := sc.AllocSpan(10) // 3 blocks
	c := sc.AllocSpan(4)  // 1 block
	between := d.AllocSpan(1)

	if sc.Keep(outside) || sc.Keep(outside+1) || sc.Keep(between) {
		t.Fatal("Keep claimed a block the scope did not allocate")
	}
	// Any block of a span keeps the whole span.
	if !sc.Keep(b + 2) {
		t.Fatal("Keep did not recognise the last block of the scope's own span")
	}
	kept := sc.Release()
	if len(kept) != 1 || kept[0] != (Span{ID: b, Words: 10}) {
		t.Fatalf("kept = %v, want the 10-word span at %d", kept, b)
	}
	if got := d.LiveBlocks(); got != 2+3+1 {
		t.Fatalf("LiveBlocks = %d, want 6 (outside, kept span, between)", got)
	}
	d.ReadSpan(b, 10)
	d.ReadSpan(outside, 6)
	mustPanic(t, "read of a dropped span", func() { d.Read(a) })
	mustPanic(t, "read of a dropped span", func() { d.Read(c) })
	mustPanic(t, "second Release", func() { sc.Release() })
	mustPanic(t, "AllocSpan after Release", func() { sc.AllocSpan(1) })

	d.FreeSpans(kept)
	if got := d.LiveBlocks(); got != 3 {
		t.Fatalf("LiveBlocks = %d after freeing the kept span, want 3", got)
	}
}

// TestScopeDropCostsNoWrite: a dropped span that never left memory is
// discarded unwritten, and gives its frame back.
func TestScopeDropCostsNoWrite(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 4 * 4})
	sc := d.NewScope()
	id := sc.AllocSpan(8)
	d.WriteSpan(id, 8)
	sc.Release()
	d.DropCache()
	if s := d.Stats(); s.IOs() != 0 {
		t.Fatalf("scratch that stayed in memory cost %v", s)
	}
}

// TestScopeDropBypassesRetention: no snapshot can hold a pointer to a
// span its operation never published, so dropping one is not deferred —
// while a kept span, freed later by its owner, is.
func TestScopeDropBypassesRetention(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 64})
	ret := d.RetainFrees()
	sc := d.NewScope()
	sc.AllocSpan(4)
	keep := sc.AllocSpan(4)
	sc.Keep(keep)
	kept := sc.Release()
	if d.LiveBlocks() != 1 || d.DeferredBlocks() != 0 {
		t.Fatalf("after Release: %d live, %d deferred, want 1 and 0", d.LiveBlocks(), d.DeferredBlocks())
	}
	d.FreeSpans(kept)
	if d.LiveBlocks() != 1 || d.DeferredBlocks() != 1 {
		t.Fatalf("after FreeSpans under retention: %d live, %d deferred, want 1 and 1", d.LiveBlocks(), d.DeferredBlocks())
	}
	ret.Release()
	if d.LiveBlocks() != 0 {
		t.Fatalf("%d blocks live after the retention dropped", d.LiveBlocks())
	}
}

// TestScopeDropOfPinnedPanics: as with Free, dropping a pinned block is
// a model violation, not something to paper over.
func TestScopeDropOfPinnedPanics(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 64})
	sc := d.NewScope()
	id := sc.AllocSpan(4)
	d.Pin(id)
	mustPanic(t, "Release with a pinned scratch block", func() { sc.Release() })
}

// TestScopeKeepAcrossReusedSlots: a scope's spans may sit in slots
// older blocks left behind, below blocks allocated before the scope;
// Keep still finds exactly the scope's own spans, because ids order by
// allocation sequence, not by slot.
func TestScopeKeepAcrossReusedSlots(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 64})
	x := d.AllocSpan(8) // slots 0-1
	y := d.AllocSpan(2) // slot 2
	d.FreeSpan(x, 8)
	sc := d.NewScope()
	a := sc.AllocSpan(8) // reuses slots 0-1
	z := d.AllocSpan(2)  // slot 3, outside the scope
	d.Free(y)
	b := sc.AllocSpan(2) // reuses slot 2, below z's slot
	if a&slotMask != x&slotMask || b&slotMask != y&slotMask {
		t.Fatalf("scope spans %#x, %#x did not reuse slots of %#x, %#x", a, b, x, y)
	}
	for _, id := range []BlockID{x, x + 1, y, z} {
		if sc.Keep(id) {
			t.Fatalf("Keep(%#x) claimed a block the scope did not allocate", id)
		}
	}
	if !sc.Keep(a+1) || !sc.Keep(b) {
		t.Fatal("Keep did not find the scope's spans in reused slots")
	}
	kept := sc.Release()
	if len(kept) != 2 || kept[0] != (Span{ID: a, Words: 8}) || kept[1] != (Span{ID: b, Words: 2}) {
		t.Fatalf("kept = %v, want the spans at %#x and %#x", kept, a, b)
	}
	if got := d.LiveBlocks(); got != 4 {
		t.Fatalf("LiveBlocks = %d, want 4 (a, b, z)", got)
	}
}

// TestScratchScopePacksSmallSpans: a scratch scope's spans of at most B
// words share frames, ⌈Σwords/B⌉ of them when the sizes fill blocks
// exactly, while each keeps its own id and words; a span of more than B
// words takes frames of its own. Every access to a packed span lands on
// its shared frame, and releasing the scope leaves the disk as it was.
func TestScratchScopePacksSmallSpans(t *testing.T) {
	d := NewDisk(Config{B: 8, M: 8 * 64})
	sc := d.NewScratchScope()
	var ids []BlockID
	for i := range 20 {
		ids = append(ids, sc.AllocSpan([]int{1, 1, 2, 4}[i%4])) // 40 words in all
	}
	if got := d.frames.Len(); got != 5 {
		t.Fatalf("20 spans of 40 words take %d frames, want ⌈40/8⌉ = 5", got)
	}
	if d.LiveBlocks() != 20 || d.LiveWords() != 40 || d.PeakWords() != 40 {
		t.Fatalf("live %d blocks %d words (peak %d), want 20/40/40", d.LiveBlocks(), d.LiveWords(), d.PeakWords())
	}
	big := sc.AllocSpan(20) // 3 blocks of its own
	if got := d.frames.Len(); got != 8 {
		t.Fatalf("a 20-word span added %d frames, want 3", got-5)
	}
	d.DropCache()
	before := d.Stats()
	for _, id := range ids {
		d.Read(id)
	}
	if got := d.Stats().Sub(before).Reads; got != 5 {
		t.Fatalf("reading every packed span from a cold cache read %d blocks, want 5", got)
	}
	if !d.Resident(ids[0]) || !d.Resident(ids[1]) || d.Resident(big) {
		t.Fatal("residency does not follow the shared frame")
	}
	if kept := sc.Release(); kept != nil {
		t.Fatalf("a scratch scope kept %v", kept)
	}
	if d.LiveBlocks() != 0 || d.LiveWords() != 0 || d.frames.Len() != 0 {
		t.Fatalf("after Release: %d blocks, %d words, %d frames", d.LiveBlocks(), d.LiveWords(), d.frames.Len())
	}
	for _, id := range ids {
		mustPanic(t, "read of a released packed span", func() { d.Read(id) })
	}
}

// TestScratchScopePacksOnlyIntoResidentFrames: a packed span joins the
// frame of the scope's last one only while that frame is resident, so
// packing never charges a read; once evicted, the next span starts a
// frame of its own.
func TestScratchScopePacksOnlyIntoResidentFrames(t *testing.T) {
	d := NewDisk(Config{B: 8, M: 8 * 64})
	sc := d.NewScratchScope()
	a := sc.AllocSpan(2)
	d.DropCache()
	b := sc.AllocSpan(2)
	if s := d.Stats(); s.Reads != 0 || s.Writes != 1 {
		t.Fatalf("packing after an eviction cost %v, want the one write-back", s)
	}
	if d.Resident(a) || !d.Resident(b) {
		t.Fatal("the second span joined the evicted frame")
	}
	sc.Release()
}

// TestScratchScopeKeepPanics: a scratch scope serves an operation that
// keeps nothing; a Keep on it is a caller bug.
func TestScratchScopeKeepPanics(t *testing.T) {
	d := NewDisk(Config{B: 8, M: 64})
	sc := d.NewScratchScope()
	id := sc.AllocSpan(2)
	mustPanic(t, "Keep on a scratch scope", func() { sc.Keep(id) })
}

// TestScratchScopePinnedSharedBlockRefusesRelease: a pin on any packed
// span pins the frame it shares, so releasing the scope panics until
// it is unpinned, whichever span holds the pin.
func TestScratchScopePinnedSharedBlockRefusesRelease(t *testing.T) {
	d := NewDisk(Config{B: 8, M: 64})
	sc := d.NewScratchScope()
	sc.AllocSpan(4)
	last := sc.AllocSpan(4)
	d.Pin(last)
	mustPanic(t, "Release with a pinned shared block", func() { sc.Release() })
	d.Unpin(last)
	mustPanic(t, "Cover of a packed block", func() {
		d.Cover(Span{ID: last, Words: 4}, Span{ID: d.AllocSpan(8), Words: 8}, 0)
	})

	// Freeing one packed span leaves the frame to the spans still on it.
	sc = d.NewScratchScope()
	first := sc.AllocSpan(4)
	second := sc.AllocSpan(4)
	d.Free(second)
	if !d.Resident(first) {
		t.Fatal("freeing a packed span dropped the frame it shares")
	}
}
