// FrameTable: the LRU frame cache of Disk's simulated block frames
// (keyed by block slot), kept apart from the block bookkeeping. Its
// discipline is exactly the one the paper's I/O accounting rests on:
//
//   - frames form an LRU list; admitting past capacity evicts the
//     least recently used UNPINNED frame (the eviction callback sees
//     it before it is dropped, so a dirty frame can be written back);
//   - pinned frames are never evicted — the cache may overflow by
//     pinned frames only, mirroring the paper's assumption M = Ω(ℓb)
//     that the critical records always fit in memory. Each admission
//     that leaves the table over capacity is counted (Overflows), and
//     the high-water mark of pinned frames is kept (PeakPinned), so a
//     structure that pins more than M/B frames is visible;
//   - pins nest, and the pinned/unpinned population counts are
//     maintained exactly, so owners can assert the accounting that the
//     paper's amortized bounds rest on.
//
// The table finds a frame through a small open-addressing hash index
// sized by its frames, not by its keys, so a disk with millions of
// blocks pays nothing per block for it. Frames live in a pointer-free
// slice linked by int32 positions with a free-frame list, so an
// admission allocates nothing once the table has reached its working
// size and the garbage collector has nothing to scan.
//
// The table is not safe for concurrent use; Disk guards it with its own
// mutex in guarded mode.
package emio

import "math/bits"

// Frame is the residency state of one cached block, as Get and the
// eviction callback report it.
type Frame struct {
	// Key names the cached unit.
	Key uint64
	// Dirty marks content that must be written back on eviction.
	Dirty bool
	// Pins counts nested pins; a pinned frame is never evicted.
	Pins int
}

// nilFrame ends an LRU list or the free-frame list.
const nilFrame int32 = -1

// frame is one slot of FrameTable.frames. A free slot is linked into
// the free-frame list through next.
type frame struct {
	key        uint64
	pins       int32
	dirty      bool
	prev, next int32 // LRU list; more recently used towards head
}

// FrameTable is an LRU table of resident frames with a pin discipline.
type FrameTable struct {
	frames []frame
	// index is a linear-probing hash table over the resident frames:
	// each entry is a frame's position plus one, zero an empty entry,
	// and the key is the frame's own. Its length is a power of two at
	// least twice the resident frames; shift is 64 − log2 of it.
	index    []int32
	shift    uint
	free     int32 // head of the free-frame list
	head     int32 // most recently used
	tail     int32 // least recently used
	unpinned int   // resident frames with pins == 0
	pinned   int   // resident frames with pins > 0
	capacity int   // total frames permitted (pins may overflow it)
	onEvict  func(Frame)

	peakPinned int
	overflows  uint64
}

// NewFrameTable returns an empty table holding up to capacity frames.
// onEvict, which may be nil, is called with each frame chosen for
// eviction (and by EvictAll) before the frame is dropped — the hook
// where a dirty frame's write-back happens.
func NewFrameTable(capacity int, onEvict func(Frame)) *FrameTable {
	return &FrameTable{
		free:     nilFrame,
		head:     nilFrame,
		tail:     nilFrame,
		capacity: capacity,
		onEvict:  onEvict,
	}
}

// Len returns the number of resident frames.
func (t *FrameTable) Len() int { return t.pinned + t.unpinned }

// Pinned returns the number of resident frames with at least one pin.
func (t *FrameTable) Pinned() int { return t.pinned }

// Unpinned returns the number of resident frames with no pins.
func (t *FrameTable) Unpinned() int { return t.unpinned }

// PeakPinned returns the largest number of frames that were pinned at
// the same time since the table was created.
func (t *FrameTable) PeakPinned() int { return t.peakPinned }

// Overflows returns the number of admissions that left the table over
// capacity because every other frame was pinned.
func (t *FrameTable) Overflows() uint64 { return t.overflows }

// lookup returns the position of key's frame, or nilFrame.
func (t *FrameTable) lookup(key uint64) int32 {
	if len(t.index) == 0 {
		return nilFrame
	}
	return t.index[t.find(key)] - 1
}

// find returns the index entry holding key, or the empty entry that
// ends its probe sequence.
func (t *FrameTable) find(key uint64) int {
	mask := len(t.index) - 1
	for e := t.home(key); ; e = (e + 1) & mask {
		if p := t.index[e]; p == 0 || t.frames[p-1].key == key {
			return e
		}
	}
}

// home returns the index entry key's probe sequence starts at
// (Fibonacci hashing: keys are dense slot numbers).
func (t *FrameTable) home(key uint64) int { return int(key * 0x9E3779B97F4A7C15 >> t.shift) }

// reindex sizes the index for n resident frames and re-enters every
// resident frame.
func (t *FrameTable) reindex(n int) {
	logSize := max(4, bits.Len(uint(2*n-1)))
	t.index = make([]int32, 1<<logSize)
	t.shift = uint(64 - logSize)
	for i := t.head; i != nilFrame; i = t.frames[i].next {
		t.index[t.find(t.frames[i].key)] = i + 1
	}
}

// unindex removes key's entry, shifting back the entries after it that
// its removal would cut off from their home.
func (t *FrameTable) unindex(key uint64) {
	mask := len(t.index) - 1
	e := t.find(key)
	for j := (e + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		if h := t.home(t.frames[t.index[j]-1].key); (j-h)&mask >= (j-e)&mask {
			t.index[e] = t.index[j]
			e = j
		}
	}
	t.index[e] = 0
}

// Resident reports whether key has a frame.
func (t *FrameTable) Resident(key uint64) bool { return t.lookup(key) != nilFrame }

// Get returns the residency state of key's frame and whether it is
// resident. Residency is not a use; callers that mean "access" follow
// up with Touch.
func (t *FrameTable) Get(key uint64) (Frame, bool) {
	i := t.lookup(key)
	if i == nilFrame {
		return Frame{}, false
	}
	f := &t.frames[i]
	return Frame{Key: f.key, Dirty: f.dirty, Pins: int(f.pins)}, true
}

// Touch moves key's frame to the most-recently-used position, ORs
// dirty into its dirty bit, and reports true; it reports false, and
// changes nothing, when key is not resident.
func (t *FrameTable) Touch(key uint64, dirty bool) bool {
	i := t.lookup(key)
	if i == nilFrame {
		return false
	}
	t.moveToFront(i)
	if dirty {
		t.frames[i].dirty = true
	}
	return true
}

// Admit inserts a frame for key at the most-recently-used position and
// evicts least-recently-used unpinned frames while the table is over
// capacity. pins > 0 admits the frame already pinned (fetch-and-pin
// must be atomic so the new frame cannot be chosen as its own eviction
// victim when the cache is saturated with pins). The caller guarantees
// key is not resident.
func (t *FrameTable) Admit(key uint64, dirty bool, pins int) {
	i := t.free
	if i != nilFrame {
		t.free = t.frames[i].next
	} else {
		i = int32(len(t.frames))
		t.frames = append(t.frames, frame{})
	}
	t.frames[i] = frame{key: key, dirty: dirty, pins: int32(pins)}
	if 2*(t.Len()+1) > len(t.index) {
		t.reindex(t.Len() + 1)
	}
	t.index[t.find(key)] = i + 1
	t.pushFront(i)
	if pins > 0 {
		t.pinned++
		t.peakPinned = max(t.peakPinned, t.pinned)
	} else {
		t.unpinned++
	}
	for t.Len() > t.capacity {
		victim := t.lruUnpinned()
		if victim == nilFrame {
			// Everything is pinned; the table is allowed to overflow
			// by pinned frames only (M = Ω(ℓb)).
			t.overflows++
			break
		}
		t.evict(victim)
	}
}

// Pin adds one pin to key's frame, makes it most recently used, and
// reports true; it reports false when key is not resident.
func (t *FrameTable) Pin(key uint64) bool {
	i := t.lookup(key)
	if i == nilFrame {
		return false
	}
	t.moveToFront(i)
	f := &t.frames[i]
	if f.pins == 0 {
		t.unpinned--
		t.pinned++
		t.peakPinned = max(t.peakPinned, t.pinned)
	}
	f.pins++
	return true
}

// Unpin releases one pin of key's frame and reports true; it reports
// false, and changes nothing, when key is not resident or not pinned.
func (t *FrameTable) Unpin(key uint64) bool {
	i := t.lookup(key)
	if i == nilFrame || t.frames[i].pins == 0 {
		return false
	}
	f := &t.frames[i]
	f.pins--
	if f.pins == 0 {
		t.pinned--
		t.unpinned++
	}
	return true
}

// Remove drops key's frame, if resident, without the eviction callback
// — the path for freeing a dead unit whose content must NOT be written
// back.
func (t *FrameTable) Remove(key uint64) {
	i := t.lookup(key)
	if i == nilFrame {
		return
	}
	if t.frames[i].pins > 0 {
		t.pinned--
	} else {
		t.unpinned--
	}
	t.drop(i)
}

// EvictAll evicts every unpinned frame (running the eviction callback
// on each), least recently used first. Pinned frames stay resident.
func (t *FrameTable) EvictAll() {
	for i := t.tail; i != nilFrame; {
		prev := t.frames[i].prev
		if t.frames[i].pins == 0 {
			t.evict(i)
		}
		i = prev
	}
}

// evict runs the callback and drops the (unpinned) frame at i.
func (t *FrameTable) evict(i int32) {
	if t.onEvict != nil {
		f := &t.frames[i]
		t.onEvict(Frame{Key: f.key, Dirty: f.dirty})
	}
	t.unpinned--
	t.drop(i)
}

// drop unlinks the frame at i, clears its index entry and returns the
// slot to the free-frame list.
func (t *FrameTable) drop(i int32) {
	t.unindex(t.frames[i].key)
	t.unlink(i)
	t.frames[i].next = t.free
	t.free = i
}

// lruUnpinned returns the least recently used unpinned frame, or
// nilFrame.
func (t *FrameTable) lruUnpinned() int32 {
	for i := t.tail; i != nilFrame; i = t.frames[i].prev {
		if t.frames[i].pins == 0 {
			return i
		}
	}
	return nilFrame
}

func (t *FrameTable) moveToFront(i int32) {
	if t.head == i {
		return
	}
	t.unlink(i)
	t.pushFront(i)
}

func (t *FrameTable) pushFront(i int32) {
	f := &t.frames[i]
	f.prev = nilFrame
	f.next = t.head
	if t.head != nilFrame {
		t.frames[t.head].prev = i
	}
	t.head = i
	if t.tail == nilFrame {
		t.tail = i
	}
}

func (t *FrameTable) unlink(i int32) {
	f := &t.frames[i]
	if f.prev != nilFrame {
		t.frames[f.prev].next = f.next
	} else {
		t.head = f.next
	}
	if f.next != nilFrame {
		t.frames[f.next].prev = f.prev
	} else {
		t.tail = f.prev
	}
	f.prev, f.next = nilFrame, nilFrame
}
