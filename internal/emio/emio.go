// Package emio simulates the external-memory (EM) model of Aggarwal and
// Vitter: a machine with M words of main memory and a disk of unbounded
// size divided into blocks of B consecutive words. The cost of an
// algorithm is the number of block transfers (I/Os) it performs; CPU time
// is free.
//
// Every data structure in this repository stores its nodes and records in
// emio blocks and routes each access through a Disk, so the I/O counters
// measure exactly the quantity the paper's theorems bound. The Disk keeps
// an LRU cache of M/B block frames; an access to a resident block is free,
// an access to a non-resident block costs one read I/O (plus one write I/O
// when the evicted frame is dirty). Blocks may be pinned, which models the
// paper's "critical records ... loaded in main memory" assumption used for
// the O(1/B) amortized bounds.
//
// A block may also be covered by another (Cover): the cover holds a
// packed copy of it, as a §4.2 representative block holds copies of its
// children's critical records, so reading the block when it is not
// resident costs what reading its cover costs, and the block itself
// takes no frame. The cover lives in the block's slot; a freed cover is
// simply ignored.
//
// A scratch scope (NewScratchScope) packs the small spans of an
// operation that keeps nothing into shared blocks: each span is a block
// of its own for ids, frees and space, but every access to it lands on
// the frame of the block it shares, as a record written into a
// partly-filled buffer page would.
//
// The disk's own bookkeeping is a dense table of block slots, sized by
// the peak number of live blocks: a BlockID carries the allocation
// sequence of the call that created it and the slot it occupies. Freed
// slots are reused, but a freed block's id never becomes valid again —
// its sequence no longer matches the slot — so an access through a stale
// id panics exactly as an access to a never-allocated block does.
//
// A Disk is single-threaded by default. Simulations that share one disk
// between goroutines (the sharded engine of internal/shard) enable the
// guarded mode with NewConcurrentDisk or Guard: every public operation
// then takes the disk's mutex, and the I/O counters — which are atomic in
// both modes — may be read at any time without synchronizing with the
// operations that advance them.
package emio

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// BlockID identifies one allocated block on the simulated disk: the
// allocation sequence of the Alloc, AllocWords or AllocSpan call that
// created it, shifted left by slotBits, OR the slot the block occupies
// in the disk's table. The structures rely on three properties:
//
//   - ids rise in allocation order, because sequences do (Scope.Keep's
//     binary search);
//   - the i-th block of a span is first+i, because a span takes
//     consecutive slots under one sequence;
//   - an id whose sequence no longer matches its slot — the block was
//     freed, and the slot possibly reused — panics on every access, as
//     an id that was never allocated does.
//
// The zero value is never a valid block (sequences start at 1).
type BlockID uint64

// slotBits is the width of a BlockID's slot field; the sequence takes
// the other 32 bits. 2^32 sequences and 2^32 slots are far more than
// any test or benchmark uses; running out of either panics rather than
// wrapping.
const (
	slotBits = 32
	slotMask = 1<<slotBits - 1
	maxSeq   = 1<<(64-slotBits) - 1
)

// Config fixes the machine parameters of the simulated EM machine.
type Config struct {
	// B is the number of words per disk block. Must be >= 1.
	B int
	// M is the number of words of main memory. The block cache holds
	// M/B frames. M < B disables caching entirely (every access is an
	// I/O), which models the strict worst case. Must be >= 0.
	M int
}

// DefaultConfig returns the configuration used by most experiments:
// 256-word blocks and enough memory for 64 frames.
func DefaultConfig() Config { return Config{B: 256, M: 256 * 64} }

// Frames returns the number of block frames the cache holds.
func (c Config) Frames() int {
	if c.B <= 0 {
		return 0
	}
	return c.M / c.B
}

// BlocksFor returns the number of B-word blocks needed to hold the given
// number of words, i.e. ceil(words/B). It returns 0 for words <= 0:
// callers with nothing to store should not allocate at all.
func (c Config) BlocksFor(words int) int {
	if words <= 0 {
		return 0
	}
	return (words + c.B - 1) / c.B
}

// Stats counts the I/O traffic performed through a Disk since the last
// ResetStats.
type Stats struct {
	// Reads counts block transfers from disk to memory.
	Reads uint64
	// Writes counts block transfers from memory to disk (dirty
	// evictions and explicit flushes).
	Writes uint64
}

// IOs returns Reads + Writes.
func (s Stats) IOs() uint64 { return s.Reads + s.Writes }

// Sub returns the element-wise difference s - o. It is used to measure
// the cost of a region of code from two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{Reads: s.Reads - o.Reads, Writes: s.Writes - o.Writes}
}

// Add returns the element-wise sum s + o. It is used to aggregate the
// per-shard disks of a sharded engine into one total.
func (s Stats) Add(o Stats) Stats {
	return Stats{Reads: s.Reads + o.Reads, Writes: s.Writes + o.Writes}
}

func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d ios=%d", s.Reads, s.Writes, s.IOs())
}

// Disk is a simulated external-memory disk with an LRU cache.
//
// By default a Disk is not safe for concurrent use; each simulation owns
// its Disk. A disk created with NewConcurrentDisk (or switched with
// Guard) serializes every operation behind a mutex, so goroutines may
// share it. The I/O counters are atomic in both modes, so Stats is always
// safe to call concurrently with operations.
type Disk struct {
	cfg Config

	// guarded selects the concurrent mode; mu is taken by every public
	// operation when it is set. guarded never changes while operations
	// are in flight (Guard is called before the disk is shared).
	guarded bool
	mu      sync.Mutex

	reads  atomic.Uint64
	writes atomic.Uint64

	// seq is the last allocation sequence issued.
	seq uint64

	// slots is the block table, indexed by a BlockID's slot field. Blocks
	// are bookkeeping only; payload lives in the data structures
	// themselves because CPU and RAM of the *host* are free in the
	// model. freeRuns[n] lists the first slots of free runs of n
	// consecutive slots, each left by an AllocSpan of n blocks whose
	// blocks have all been freed.
	slots      chunked[slot]
	freeRuns   [][]uint32
	liveBlocks int
	liveWords  int64
	peakWords  int64

	// frames is the LRU cache of resident blocks, keyed by slot, with
	// the frame, pin and eviction discipline of FrameTable. Evicting a
	// dirty frame charges one write I/O through the table's eviction
	// callback.
	frames *FrameTable

	// Snapshot retention state (see retain.go): while retained is
	// non-empty, frees are deferred — the block stays live so pinned
	// point-in-time views can keep reading it — and applied once every
	// retention that could reference it is released.
	retainSeq uint64
	retained  map[uint64]struct{}
	deferred  []deferredFree
}

// slot is one entry of the block table, 20 bytes.
type slot struct {
	// seq is the allocation sequence of the block in the slot; 0 marks
	// a free slot (sequences start at 1).
	seq uint32
	// words is the block's accounted size, negated while its Free is
	// deferred behind open retentions (an allocated block accounts at
	// least one word, so the sign is free to carry that flag).
	words int32
	// pos places the block in its run: the slots one AllocSpan took,
	// which keep their places while free. On the run's first slot it is
	// runHead | the number of the run's blocks still allocated, on
	// every other slot the block's offset in the run. A packed block, a
	// run of one slot, adds packed while it is allocated.
	pos uint32
	// coverSeq and coverSlot are the two halves of the id of the block
	// holding a packed copy of this one (see Cover), 0 when there is
	// none; on a packed block, of the block whose frame it shares (the
	// first packed block of that frame names itself). Either is stale
	// and ignored once freed, since a freed id never becomes valid
	// again.
	coverSeq, coverSlot uint32
}

// runHead marks the first slot of a run in slot.pos, and packed a
// packed block's slot.
const (
	runHead = 1 << 31
	packed  = 1 << 30
)

// cover returns the slot's cover id, or 0.
func (sl *slot) cover() BlockID { return BlockID(sl.coverSeq)<<slotBits | BlockID(sl.coverSlot) }

// NewDisk returns a Disk for the given machine configuration.
func NewDisk(cfg Config) *Disk {
	if cfg.B < 1 {
		panic("emio: config.B must be >= 1")
	}
	if cfg.M < 0 {
		panic("emio: config.M must be >= 0")
	}
	if cfg.B > math.MaxInt32 {
		panic("emio: config.B must be < 2^31")
	}
	d := &Disk{
		cfg:      cfg,
		retained: make(map[uint64]struct{}),
	}
	d.frames = NewFrameTable(cfg.Frames(), func(f Frame) {
		if f.Dirty {
			d.writes.Add(1)
		}
	})
	return d
}

// NewConcurrentDisk returns a Disk in guarded mode: safe for concurrent
// use by multiple goroutines. Operations serialize behind a mutex, which
// models the single disk arm of the EM machine; the I/O accounting is
// identical to the unguarded disk's.
func NewConcurrentDisk(cfg Config) *Disk {
	d := NewDisk(cfg)
	d.guarded = true
	return d
}

// Guard switches the disk into guarded (concurrent) mode. It must be
// called before the disk is shared between goroutines; there is no way
// back.
func (d *Disk) Guard() { d.guarded = true }

// Guarded reports whether the disk is in guarded mode.
func (d *Disk) Guarded() bool { return d.guarded }

func (d *Disk) lock() {
	if d.guarded {
		d.mu.Lock()
	}
}

func (d *Disk) unlock() {
	if d.guarded {
		d.mu.Unlock()
	}
}

// Config returns the machine parameters of the disk.
func (d *Disk) Config() Config { return d.cfg }

// Stats returns the I/O counters accumulated since the last ResetStats.
// Safe to call at any time, even while another goroutine operates on a
// guarded disk.
func (d *Disk) Stats() Stats {
	return Stats{Reads: d.reads.Load(), Writes: d.writes.Load()}
}

// ResetStats zeroes the I/O counters. Resident and pinned blocks are
// unaffected, so a measurement region sees a warm cache unless DropCache
// is called as well.
func (d *Disk) ResetStats() {
	d.reads.Store(0)
	d.writes.Store(0)
}

// LiveBlocks returns the number of currently allocated blocks; it is the
// space usage of all structures on this disk, in blocks.
func (d *Disk) LiveBlocks() int {
	d.lock()
	defer d.unlock()
	return d.liveBlocks
}

// LiveWords returns the number of allocated words.
func (d *Disk) LiveWords() int64 {
	d.lock()
	defer d.unlock()
	return d.liveWords
}

// PeakWords returns the high-water mark of allocated words.
func (d *Disk) PeakWords() int64 {
	d.lock()
	defer d.unlock()
	return d.peakWords
}

// PeakPinned returns the largest number of blocks that were pinned at
// the same time since the disk was created. The paper's M = Ω(ℓb)
// assumption is that it never exceeds Config.Frames.
func (d *Disk) PeakPinned() int {
	d.lock()
	defer d.unlock()
	return d.frames.PeakPinned()
}

// PinOverflows returns the number of admissions that left the cache
// holding more than Config.Frames blocks because every other resident
// block was pinned.
func (d *Disk) PinOverflows() uint64 {
	d.lock()
	defer d.unlock()
	return d.frames.Overflows()
}

// Alloc allocates a new block of up to B words and returns its id. The
// block becomes resident and dirty (it was produced in memory and must be
// written back eventually); the read I/O is not charged because nothing
// is fetched.
func (d *Disk) Alloc() BlockID {
	d.lock()
	defer d.unlock()
	return d.allocSpan(d.cfg.B)
}

// AllocWords allocates a block accounted as holding the given number of
// words (clamped to [1, B]). Structures that pack less than a full block
// use this for precise space accounting.
func (d *Disk) AllocWords(words int) BlockID {
	d.lock()
	defer d.unlock()
	return d.allocSpan(min(words, d.cfg.B))
}

// allocSpan takes a run of max(1, ceil(words/B)) slots under one new
// sequence. Every block but the last accounts B words, the last the rest
// (at least 1), and each is admitted resident and dirty in order.
func (d *Disk) allocSpan(words int) BlockID {
	remaining := words
	return d.allocRun(max(1, d.cfg.BlocksFor(words)), func(int) int {
		w := max(1, min(remaining, d.cfg.B))
		remaining -= w
		return w
	})
}

// allocRun takes a run of n slots under one new sequence, block i
// accounting size(i) words, called in order, and admits each resident
// and dirty.
func (d *Disk) allocRun(n int, size func(i int) int) BlockID {
	id := d.newRun(n, size)
	for i := range n {
		d.frames.Admit(uint64(id&slotMask)+uint64(i), true, 0)
	}
	return id
}

// newRun is allocRun without the admissions.
func (d *Disk) newRun(n int, size func(i int) int) BlockID {
	if d.seq == maxSeq {
		panic("emio: block allocation sequences exhausted")
	}
	d.seq++
	first := d.takeRun(n)
	for i := range n {
		w := size(i)
		s := first + uint32(i)
		pos := uint32(i)
		if i == 0 {
			pos = runHead | uint32(n)
		}
		*d.slots.at(uint64(s)) = slot{seq: uint32(d.seq), words: int32(w), pos: pos}
		d.liveWords += int64(w)
		if d.liveWords > d.peakWords {
			d.peakWords = d.liveWords
		}
	}
	d.liveBlocks += n
	return BlockID(d.seq<<slotBits | uint64(first))
}

// allocPacked allocates a packed block accounting words words
// (1 ≤ words ≤ B) that shares the frame of block share, which takes the
// write, when share is live and resident; otherwise the new block
// starts a shared frame of its own, admitted resident and dirty. It
// returns the new block and the block whose frame it shares.
func (d *Disk) allocPacked(words int, share BlockID) (id, shared BlockID) {
	id = d.newRun(1, func(int) int { return words })
	s := uint32(id & slotMask)
	hs, ok := d.slotOf(share)
	if !ok || !d.frames.Touch(uint64(hs), true) {
		share, hs = id, s
		d.frames.Admit(uint64(s), true, 0)
	}
	sl := d.slots.at(uint64(s))
	sl.pos |= packed
	sl.coverSeq, sl.coverSlot = uint32(share>>slotBits), hs
	return id, share
}

// takeRun returns the first slot of n consecutive free slots: a run an
// earlier span of n blocks left behind, or n slots appended to the table.
func (d *Disk) takeRun(n int) uint32 {
	if n < len(d.freeRuns) {
		if runs := d.freeRuns[n]; len(runs) > 0 {
			d.freeRuns[n] = runs[:len(runs)-1]
			return runs[len(runs)-1]
		}
	}
	first := d.slots.len()
	if uint64(first+n) > slotMask+1 || n >= packed {
		panic("emio: block table exhausted")
	}
	d.slots.grow(n)
	return uint32(first)
}

// slotOf returns the slot of a live block, or false when id was never
// allocated or has been freed.
func (d *Disk) slotOf(id BlockID) (uint32, bool) {
	s := uint64(id) & slotMask
	if s >= uint64(d.slots.len()) {
		return 0, false
	}
	seq := d.slots.at(s).seq
	return uint32(s), seq != 0 && uint64(seq) == uint64(id)>>slotBits
}

// frameOf returns the key of the frame that holds the block in slot s:
// s itself, or, for a packed block whose shared block is live, that
// block's slot.
func (d *Disk) frameOf(s uint32) uint64 {
	if sl := d.slots.at(uint64(s)); sl.pos&packed != 0 {
		if hs, ok := d.slotOf(sl.cover()); ok {
			return uint64(hs)
		}
	}
	return uint64(s)
}

// mustSlot is slotOf for operations on a block that must be live; it
// panics with "emio: <what> <id>" otherwise.
func (d *Disk) mustSlot(id BlockID, what string) uint32 {
	s, ok := d.slotOf(id)
	if !ok {
		panic(fmt.Sprintf("emio: %s %d", what, id))
	}
	return s
}

// Free releases a block. A resident frame is discarded without a
// write-back (the data is dead). Freeing a block that is still pinned
// panics: a pin models a critical record the structure claims to hold
// in memory, so freeing it is a model violation — silently discarding
// the frame would strand the outstanding pins, make the later Unpin
// panic as "unpinned", and drift the pin accounting the paper's
// M = Ω(ℓb) assumption rests on. While a retention is open (see
// retain.go) the free is deferred: the block stays readable for the
// snapshots that may still walk it and is released when the last
// retention that could reference it drops.
func (d *Disk) Free(id BlockID) {
	d.lock()
	defer d.unlock()
	d.free(id)
}

// free defers the release behind any open retention, and reclaims
// immediately otherwise. Caller holds the lock.
func (d *Disk) free(id BlockID) {
	if len(d.retained) > 0 {
		d.deferFree(id)
		return
	}
	d.reclaim(id)
}

// reclaim actually releases a block, bypassing retention deferral (the
// path Retention.Release drains the deferred queue through). The slot
// is cleared at once, so the id goes stale; the run returns to its free
// list when its last block is released. A packed block that shares
// another block's frame leaves the frame to that block, but refuses to
// go while the frame is pinned. Caller holds the lock.
func (d *Disk) reclaim(id BlockID) {
	s := d.mustSlot(id, "Free of unknown block")
	key := d.frameOf(s)
	if f, ok := d.frames.Get(key); ok {
		if f.Pins > 0 {
			panic(fmt.Sprintf("emio: Free of pinned block %d (%d outstanding pins)", id, f.Pins))
		}
		if key == uint64(s) {
			d.frames.Remove(key)
		}
	}
	sl := d.slots.at(uint64(s))
	d.liveBlocks--
	d.liveWords -= int64(abs(sl.words))
	first := s
	if sl.pos&runHead == 0 {
		first -= sl.pos
	}
	*sl = slot{pos: sl.pos &^ packed}
	head := d.slots.at(uint64(first))
	if head.pos--; head.pos == runHead {
		n := d.runLen(first)
		for len(d.freeRuns) <= n {
			d.freeRuns = append(d.freeRuns, nil)
		}
		d.freeRuns[n] = append(d.freeRuns[n], first)
	}
}

// runLen returns the number of slots in the run starting at first. Runs
// tile the table, so the run ends at the next run's first slot or at the
// end of the table.
func (d *Disk) runLen(first uint32) int {
	n := 1
	for s := uint64(first) + 1; s < uint64(d.slots.len()) && d.slots.at(s).pos&runHead == 0; s++ {
		n++
	}
	return n
}

func abs(w int32) int32 {
	if w < 0 {
		return -w
	}
	return w
}

// Read touches a block for reading. If the block is not resident one read
// I/O is charged and the block is brought into the cache (possibly
// evicting the least recently used unpinned frame, charging a write I/O
// if it was dirty).
func (d *Disk) Read(id BlockID) {
	d.lock()
	defer d.unlock()
	d.touch(id, false)
}

// Write touches a block for writing. Same residency rules as Read; the
// frame is additionally marked dirty so its eventual eviction costs a
// write I/O.
func (d *Disk) Write(id BlockID) {
	d.lock()
	defer d.unlock()
	d.touch(id, true)
}

// ReadCold charges one read I/O unconditionally, bypassing the cache and
// leaving residency unchanged. It models an access pattern with no
// locality (for example, the located-leaf searches of a generic PPB-tree
// bulk-loader on inputs without the bottom-update property), used by
// ablation baselines.
func (d *Disk) ReadCold(id BlockID) {
	d.lock()
	defer d.unlock()
	d.mustSlot(id, "access to unallocated block")
	d.reads.Add(1)
}

// ReadSpan touches a logical node spanning the given number of words,
// stored in consecutive blocks starting at id. It charges one Read per
// constituent block. Structures whose nodes exceed one block (for
// example, 4b-element CPQA records with b = B) use this.
func (d *Disk) ReadSpan(id BlockID, words int) { d.ReadSpanWords(id, 0, words) }

// ReadSpanWords touches only the blocks of a span that hold its words
// [from, to): the blocks a scan over part of an on-disk run reads. An
// empty range touches nothing.
func (d *Disk) ReadSpanWords(id BlockID, from, to int) {
	if from >= to {
		return
	}
	d.lock()
	defer d.unlock()
	for i := from / d.cfg.B; i <= (to-1)/d.cfg.B; i++ {
		d.touch(id+BlockID(i), false)
	}
}

// WriteSpan is the dirty counterpart of ReadSpan.
func (d *Disk) WriteSpan(id BlockID, words int) { d.WriteSpanWords(id, 0, words) }

// WriteSpanWords is the dirty counterpart of ReadSpanWords: it touches
// for writing only the blocks of a span that hold its words [from, to),
// the blocks an in-place update of part of a run changes. An empty range
// touches nothing.
func (d *Disk) WriteSpanWords(id BlockID, from, to int) {
	if from >= to {
		return
	}
	d.lock()
	defer d.unlock()
	for i := from / d.cfg.B; i <= (to-1)/d.cfg.B; i++ {
		d.touch(id+BlockID(i), true)
	}
}

// ResizeBlock re-accounts one live block of words words as holding to
// words, in place (1 <= to <= B); LiveWords and PeakWords move by the
// difference. Nothing is touched or charged. It panics when the block is
// not live or its Free is deferred, or when it does not account words.
func (d *Disk) ResizeBlock(id BlockID, words, to int) {
	d.lock()
	defer d.unlock()
	if to < 1 || to > d.cfg.B {
		panic(fmt.Sprintf("emio: ResizeBlock to %d words", to))
	}
	sl := d.slots.at(uint64(d.mustSlot(id, "ResizeBlock of unallocated block")))
	if int(sl.words) != words {
		panic(fmt.Sprintf("emio: ResizeBlock of block %d accounting %d words, want %d", id, sl.words, words))
	}
	sl.words = int32(to)
	d.liveWords += int64(to - words)
	if d.liveWords > d.peakWords {
		d.peakWords = d.liveWords
	}
}

// AllocSpan allocates ceil(words/B) consecutive blocks accounting a total
// of words words and returns the first id. The ids are consecutive.
func (d *Disk) AllocSpan(words int) BlockID {
	d.lock()
	defer d.unlock()
	return d.allocSpan(words)
}

// AllocBlocks allocates len(words) consecutive blocks, block i
// accounting words[i] words (each in [1, B]), and returns the first id:
// a span whose blocks are not all full.
func (d *Disk) AllocBlocks(words []int) BlockID {
	d.lock()
	defer d.unlock()
	for _, w := range words {
		if w < 1 || w > d.cfg.B {
			panic(fmt.Sprintf("emio: AllocBlocks of a %d-word block", w))
		}
	}
	return d.allocRun(len(words), func(i int) int { return words[i] })
}

// FreeSpan frees the consecutive blocks of a span allocated with
// AllocSpan.
func (d *Disk) FreeSpan(id BlockID, words int) { d.FreeBlocks(id, d.cfg.BlocksFor(words)) }

// FreeBlocks frees the first n blocks of a span.
func (d *Disk) FreeBlocks(id BlockID, n int) {
	d.lock()
	defer d.unlock()
	for i := range n {
		d.free(id + BlockID(i))
	}
}

// Pin marks a block as pinned in memory: it is made resident (charging a
// read if needed) and will never be evicted until unpinned. Pins nest.
// Pinned frames model the paper's critical records.
func (d *Disk) Pin(id BlockID) {
	d.lock()
	defer d.unlock()
	d.pin(id)
}

func (d *Disk) pin(id BlockID) {
	s := d.frameOf(d.mustSlot(id, "Pin of unallocated block"))
	if d.frames.Pin(s) {
		return
	}
	// Fetch and pin atomically (Admit with pins=1) so the new frame
	// cannot be chosen as its own eviction victim when the cache is
	// saturated with pins.
	d.reads.Add(1)
	d.frames.Admit(s, false, 1)
}

// Unpin releases one pin of a block.
func (d *Disk) Unpin(id BlockID) {
	d.lock()
	defer d.unlock()
	d.unpin(id)
}

func (d *Disk) unpin(id BlockID) {
	s, ok := d.slotOf(id)
	if !ok || !d.frames.Unpin(d.frameOf(s)) {
		panic(fmt.Sprintf("emio: Unpin of unpinned block %d", id))
	}
}

// PinSpan pins every block of a multi-block node.
func (d *Disk) PinSpan(id BlockID, words int) {
	d.lock()
	defer d.unlock()
	for i := 0; i < d.cfg.BlocksFor(words); i++ {
		d.pin(id + BlockID(i))
	}
}

// UnpinSpan unpins every block of a multi-block node.
func (d *Disk) UnpinSpan(id BlockID, words int) {
	d.lock()
	defer d.unlock()
	for i := 0; i < d.cfg.BlocksFor(words); i++ {
		d.unpin(id + BlockID(i))
	}
}

// Admit marks a block resident (clean) without charging a read. It
// models data that is already in memory because what it holds was just
// read from elsewhere — e.g. the queue of a §4.2 leaf, built from the
// points a query has just scanned. Use only when such a justification
// exists; a block with a standing copy elsewhere is covered (Cover)
// instead.
func (d *Disk) Admit(id BlockID) {
	d.lock()
	defer d.unlock()
	d.admitClean(id)
}

func (d *Disk) admitClean(id BlockID) {
	s := d.frameOf(d.mustSlot(id, "Admit of unallocated block"))
	if !d.frames.Resident(s) {
		d.frames.Admit(s, false, 0)
	}
}

// AdmitSpan admits every block of a multi-block node.
func (d *Disk) AdmitSpan(id BlockID, words int) {
	d.lock()
	defer d.unlock()
	for i := 0; i < d.cfg.BlocksFor(words); i++ {
		d.admitClean(id + BlockID(i))
	}
}

// DropCache evicts every unpinned frame (charging writes for dirty ones),
// producing a cold cache for worst-case measurements.
func (d *Disk) DropCache() {
	d.lock()
	defer d.unlock()
	d.frames.EvictAll()
}

// Resident reports whether the block currently occupies a cache frame.
// A freed block is never resident.
func (d *Disk) Resident(id BlockID) bool {
	d.lock()
	defer d.unlock()
	s, ok := d.slotOf(id)
	return ok && d.frames.Resident(d.frameOf(s))
}

// touch makes id's frame resident, charging I/Os as needed, and moves
// it to the front of the LRU list. A read of a non-resident block with
// a live cover touches the cover block instead, and id stays out of the
// cache.
func (d *Disk) touch(id BlockID, write bool) {
	s := d.frameOf(d.mustSlot(id, "access to unallocated block"))
	if d.frames.Touch(s, write) {
		return
	}
	if sl := d.slots.at(s); !write && sl.pos&packed == 0 && sl.coverSeq != 0 {
		if cs, ok := d.slotOf(sl.cover()); ok {
			if s = d.frameOf(cs); d.frames.Touch(s, false) {
				return
			}
		}
	}
	d.reads.Add(1)
	d.frames.Admit(s, write, 0)
}

// Cover records that the words of span sp are copied, packed, at word
// off of span rep: block i of sp is covered by the block of rep that
// holds the copy's word i·B, rep.ID + (off+i·B)/B. From then on a read
// of a block of sp that is not resident touches its cover block instead
// and leaves the block itself out of the cache, which is what reading a
// record from the copy costs; writes and pins are never redirected. A
// later Cover of the same block replaces its cover, and a cover that is
// freed stops covering (the block is read as itself again), so nothing
// has to undo a cover. Cover panics unless both spans are live, sp is
// not packed (its slot names its shared block instead) and the copy
// lies inside rep (0 ≤ off, off + sp.Words ≤ rep.Words).
func (d *Disk) Cover(sp, rep Span, off int) {
	d.lock()
	defer d.unlock()
	if off < 0 || off+sp.Words > rep.Words {
		panic(fmt.Sprintf("emio: Cover of %d words at word %d of a %d-word span", sp.Words, off, rep.Words))
	}
	n := d.cfg.BlocksFor(sp.Words)
	for i := range n {
		if s := d.mustSlot(sp.ID+BlockID(i), "Cover of unallocated block"); d.slots.at(uint64(s)).pos&packed != 0 {
			panic(fmt.Sprintf("emio: Cover of packed block %d", sp.ID+BlockID(i)))
		}
		d.mustSlot(d.coverOf(rep, off, i), "Cover by unallocated block")
	}
	for i := range n {
		s, _ := d.slotOf(sp.ID + BlockID(i))
		c := d.coverOf(rep, off, i)
		sl := d.slots.at(uint64(s))
		sl.coverSeq, sl.coverSlot = uint32(c>>slotBits), uint32(c&slotMask)
	}
}

// coverOf returns the block of rep holding word i·B of a copy placed at
// word off.
func (d *Disk) coverOf(rep Span, off, i int) BlockID {
	return rep.ID + BlockID((off+i*d.cfg.B)/d.cfg.B)
}

// Measure runs fn with a cold cache and returns the I/O stats it
// incurred. Pinned frames stay resident, matching the model where
// critical records live in memory across operations. The lock is not
// held across fn, so fn may use the disk freely (but concurrent traffic
// from other goroutines would be attributed to fn on a shared disk).
func (d *Disk) Measure(fn func()) Stats {
	d.DropCache()
	before := d.Stats()
	fn()
	return d.Stats().Sub(before)
}
