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
