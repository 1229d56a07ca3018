package emio

import (
	"fmt"
	"math/rand"
	"testing"
)

// refDisk is the reference model FuzzDiskModel checks Disk against: the
// disk's semantics written the plainest way. Ids are never reused, the
// live set, the deferred set, the covers, the shared frames of packed
// blocks and the open retentions are maps, and the frame cache is a
// slice in LRU order, most recently used first.
type refDisk struct {
	cfg                  Config
	reads, writes        uint64
	nextID               uint64
	live                 map[uint64]int // id -> words
	liveWords, peakWords int64
	lru                  []*refFrame
	peakPinned           int
	overflows            uint64
	retainSeq            uint64
	retained             map[uint64]bool
	deferred             []refDeferred
	deferredSet          map[uint64]bool
	cover                map[uint64]uint64 // covered id -> cover id
	shared               map[uint64]uint64 // packed id -> id whose frame it shares
}

type refFrame struct {
	id    uint64
	dirty bool
	pins  int
}

type refDeferred struct{ id, epoch uint64 }

func newRefDisk(cfg Config) *refDisk {
	return &refDisk{cfg: cfg, live: map[uint64]int{}, retained: map[uint64]bool{}, deferredSet: map[uint64]bool{}, cover: map[uint64]uint64{}, shared: map[uint64]uint64{}}
}

// find returns id's position in the LRU slice, or -1.
func (r *refDisk) find(id uint64) int {
	for i, f := range r.lru {
		if f.id == id {
			return i
		}
	}
	return -1
}

func (r *refDisk) pinned() (n int) {
	for _, f := range r.lru {
		if f.pins > 0 {
			n++
		}
	}
	return n
}

func (r *refDisk) toFront(i int) *refFrame {
	f := r.lru[i]
	r.lru = append(r.lru[:i], r.lru[i+1:]...)
	r.lru = append([]*refFrame{f}, r.lru...)
	return f
}

func (r *refDisk) admit(id uint64, dirty bool, pins int) {
	r.lru = append([]*refFrame{{id: id, dirty: dirty, pins: pins}}, r.lru...)
	r.peakPinned = max(r.peakPinned, r.pinned())
	for len(r.lru) > r.cfg.Frames() {
		v := len(r.lru) - 1
		for v >= 0 && r.lru[v].pins > 0 {
			v--
		}
		if v < 0 {
			r.overflows++
			break
		}
		if r.lru[v].dirty {
			r.writes++
		}
		r.lru = append(r.lru[:v], r.lru[v+1:]...)
	}
}

// frameOf returns the id whose frame holds id: the block it shares if
// it is packed and that block is live, id itself otherwise.
func (r *refDisk) frameOf(id uint64) uint64 {
	if h, ok := r.shared[id]; ok {
		if _, live := r.live[h]; live {
			return h
		}
	}
	return id
}

func (r *refDisk) mustLive(id uint64, what string) {
	if _, ok := r.live[id]; !ok {
		panic(fmt.Sprintf("ref: %s %d", what, id))
	}
}

func (r *refDisk) allocSpan(words int) uint64 {
	n := max(1, r.cfg.BlocksFor(words))
	first := r.nextID + 1
	remaining := words
	for range n {
		w := max(1, min(remaining, r.cfg.B))
		remaining -= w
		r.nextID++
		r.live[r.nextID] = w
		r.liveWords += int64(w)
		r.peakWords = max(r.peakWords, r.liveWords)
		r.admit(r.nextID, true, 0)
	}
	return first
}

func (r *refDisk) touch(id uint64, write bool) {
	r.mustLive(id, "access to unallocated block")
	id = r.frameOf(id)
	if i := r.find(id); i >= 0 {
		f := r.toFront(i)
		f.dirty = f.dirty || write
		return
	}
	if c, ok := r.cover[id]; ok && !write {
		if _, live := r.live[c]; live {
			c = r.frameOf(c)
			if i := r.find(c); i >= 0 {
				r.toFront(i)
				return
			}
			id = c
		}
	}
	r.reads++
	r.admit(id, write, 0)
}

// coverSpan covers block i of the span at id with the block of the
// span at rep that holds word off+i·B, after checking every block; a
// packed block cannot be covered.
func (r *refDisk) coverSpan(id uint64, words int, rep uint64, repWords, off int) {
	if off < 0 || off+words > repWords {
		panic("ref: Cover outside its cover span")
	}
	n := r.cfg.BlocksFor(words)
	for i := range n {
		r.mustLive(id+uint64(i), "Cover of unallocated block")
		if _, ok := r.shared[id+uint64(i)]; ok {
			panic("ref: Cover of packed block")
		}
		r.mustLive(rep+uint64((off+i*r.cfg.B)/r.cfg.B), "Cover by unallocated block")
	}
	for i := range n {
		r.cover[id+uint64(i)] = rep + uint64((off+i*r.cfg.B)/r.cfg.B)
	}
}

// allocBlocks allocates a run of len(words) blocks, block i accounting
// words[i], after checking every size is in [1, B].
func (r *refDisk) allocBlocks(words []int) uint64 {
	for _, w := range words {
		if w < 1 || w > r.cfg.B {
			panic(fmt.Sprintf("ref: AllocBlocks of a %d-word block", w))
		}
	}
	first := r.nextID + 1
	for _, w := range words {
		r.nextID++
		r.live[r.nextID] = w
		r.liveWords += int64(w)
		r.peakWords = max(r.peakWords, r.liveWords)
		r.admit(r.nextID, true, 0)
	}
	return first
}

// resizeBlock re-accounts block id from words to to, after checking
// that to is in [1, B] and that the block is live, not deferred, and
// accounts words.
func (r *refDisk) resizeBlock(id uint64, words, to int) {
	if to < 1 || to > r.cfg.B {
		panic(fmt.Sprintf("ref: ResizeBlock to %d words", to))
	}
	r.mustLive(id, "ResizeBlock of unallocated block")
	if r.deferredSet[id] || r.live[id] != words {
		panic(fmt.Sprintf("ref: ResizeBlock of block %d accounting %d words, want %d", id, r.live[id], words))
	}
	r.live[id] = to
	r.liveWords += int64(to - words)
	r.peakWords = max(r.peakWords, r.liveWords)
}

func (r *refDisk) readCold(id uint64) {
	r.mustLive(id, "access to unallocated block")
	r.reads++
}

func (r *refDisk) pin(id uint64) {
	r.mustLive(id, "Pin of unallocated block")
	id = r.frameOf(id)
	if i := r.find(id); i >= 0 {
		r.toFront(i).pins++
		r.peakPinned = max(r.peakPinned, r.pinned())
		return
	}
	r.reads++
	r.admit(id, false, 1)
}

func (r *refDisk) unpin(id uint64) {
	if _, ok := r.live[id]; !ok {
		panic(fmt.Sprintf("ref: Unpin of unpinned block %d", id))
	}
	i := r.find(r.frameOf(id))
	if i < 0 || r.lru[i].pins == 0 {
		panic(fmt.Sprintf("ref: Unpin of unpinned block %d", id))
	}
	r.lru[i].pins--
}

func (r *refDisk) admitClean(id uint64) {
	r.mustLive(id, "Admit of unallocated block")
	if id = r.frameOf(id); r.find(id) < 0 {
		r.admit(id, false, 0)
	}
}

func (r *refDisk) dropCache() {
	for i := len(r.lru) - 1; i >= 0; i-- {
		if f := r.lru[i]; f.pins == 0 {
			if f.dirty {
				r.writes++
			}
			r.lru = append(r.lru[:i], r.lru[i+1:]...)
		}
	}
}

func (r *refDisk) free(id uint64) {
	if len(r.retained) == 0 {
		r.reclaim(id)
		return
	}
	r.mustLive(id, "Free of unknown block")
	if r.deferredSet[id] {
		panic(fmt.Sprintf("ref: double Free of deferred block %d", id))
	}
	r.deferredSet[id] = true
	r.deferred = append(r.deferred, refDeferred{id: id, epoch: r.retainSeq})
}

// reclaim frees id. A packed block that shares a live block's frame
// leaves the frame to it, but refuses to go while the frame is pinned.
func (r *refDisk) reclaim(id uint64) {
	r.mustLive(id, "Free of unknown block")
	key := r.frameOf(id)
	if i := r.find(key); i >= 0 {
		if r.lru[i].pins > 0 {
			panic(fmt.Sprintf("ref: Free of pinned block %d", id))
		}
		if key == id {
			r.lru = append(r.lru[:i], r.lru[i+1:]...)
		}
	}
	r.liveWords -= int64(r.live[id])
	delete(r.live, id)
	delete(r.cover, id)
	delete(r.shared, id)
}

func (r *refDisk) retain() uint64 {
	r.retainSeq++
	r.retained[r.retainSeq] = true
	return r.retainSeq
}

func (r *refDisk) release(seq uint64) {
	if !r.retained[seq] {
		return
	}
	delete(r.retained, seq)
	minOpen := r.retainSeq + 1
	for s := range r.retained {
		minOpen = min(minOpen, s)
	}
	for len(r.deferred) > 0 && r.deferred[0].epoch < minOpen {
		id := r.deferred[0].id
		r.reclaim(id)
		r.deferred = r.deferred[1:]
		delete(r.deferredSet, id)
	}
}

// refScope models Scope: the spans an operation allocated, in order,
// and for a scratch scope the block its packed spans fill and the words
// in it.
type refScope struct {
	spans    []refSpan
	released bool
	scratch  bool
	fill     uint64
	used     int
}

type refSpan struct {
	id    uint64
	words int
	kept  bool
}

func (r *refDisk) scopeAlloc(s *refScope, words int) uint64 {
	if s.released {
		panic("ref: AllocSpan on a released scope")
	}
	var id uint64
	if s.scratch && words <= r.cfg.B {
		id = r.allocPacked(s, max(1, words))
	} else {
		id = r.allocSpan(words)
	}
	s.spans = append(s.spans, refSpan{id: id, words: words})
	return id
}

// allocPacked allocates a packed block of w words: into the frame of
// the scope's fill block while that is live and resident and has room,
// into a frame of its own otherwise.
func (r *refDisk) allocPacked(s *refScope, w int) uint64 {
	r.nextID++
	id := r.nextID
	r.live[id] = w
	r.liveWords += int64(w)
	r.peakWords = max(r.peakWords, r.liveWords)
	_, live := r.live[s.fill]
	if i := r.find(s.fill); live && i >= 0 && s.used+w <= r.cfg.B {
		r.toFront(i).dirty = true
	} else {
		s.fill, s.used = id, 0
		r.admit(id, true, 0)
	}
	s.used += w
	r.shared[id] = s.fill
	return id
}

func (r *refDisk) keep(s *refScope, id uint64) bool {
	if s.scratch {
		panic("ref: Keep on a scratch scope")
	}
	for i, sp := range s.spans {
		if id >= sp.id && id < sp.id+uint64(r.cfg.blocks(Span{Words: sp.words})) {
			s.spans[i].kept = true
			return true
		}
	}
	return false
}

func (r *refDisk) scopeRelease(s *refScope) (kept []refSpan) {
	if s.released {
		panic("ref: scope released twice")
	}
	s.released = true
	for _, sp := range s.spans {
		if sp.kept {
			kept = append(kept, sp)
			continue
		}
		for j := range r.cfg.blocks(Span{Words: sp.words}) {
			r.reclaim(sp.id + uint64(j))
		}
	}
	return kept
}

// modelRun drives a Disk and its reference model through the same op
// sequence, decoded from ops, and fails at the first disagreement.
type modelRun struct {
	t      *testing.T
	d      *Disk
	r      *refDisk
	ops    []byte
	toDisk map[uint64]BlockID // model id -> disk id; 0 -> 0, never valid
	ids    []uint64           // every model id issued, and 0
	spans  []refSpan          // every span allocated (words as allocated)
	rets   []modelRetention
	scope  *Scope
	rscope *refScope
	last   string // the op last run, for failure messages
}

type modelRetention struct {
	seq uint64
	ret *Retention
}

// next consumes one byte of the op stream; an exhausted stream reads 0.
func (m *modelRun) next() int {
	if len(m.ops) == 0 {
		return 0
	}
	b := m.ops[0]
	m.ops = m.ops[1:]
	return int(b)
}

func (m *modelRun) pickID() uint64 { return m.ids[m.next()%len(m.ids)] }

func (m *modelRun) pickSpan() (refSpan, bool) {
	if len(m.spans) == 0 {
		return refSpan{}, false
	}
	return m.spans[m.next()%len(m.spans)], true
}

func (m *modelRun) record(mid uint64, did BlockID, words int) {
	for i := range m.r.cfg.blocks(Span{Words: words}) {
		m.toDisk[mid+uint64(i)] = did + BlockID(i)
		m.ids = append(m.ids, mid+uint64(i))
	}
	m.spans = append(m.spans, refSpan{id: mid, words: words})
}

// do runs one op on both sides; either both panic or neither does.
func (m *modelRun) do(name string, model, disk func()) {
	m.t.Helper()
	m.last = name
	mp, dp := panics(model), panics(disk)
	if mp != dp {
		m.t.Fatalf("%s: model panicked %v, disk panicked %v", name, mp, dp)
	}
}

func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// check compares the disk with the model after an op.
func (m *modelRun) check() {
	m.t.Helper()
	d, r, name := m.d, m.r, m.last
	if got, want := d.Stats(), (Stats{Reads: r.reads, Writes: r.writes}); got != want {
		m.t.Fatalf("%s: Stats %v, model %v", name, got, want)
	}
	if d.LiveBlocks() != len(r.live) || d.LiveWords() != r.liveWords || d.PeakWords() != r.peakWords {
		m.t.Fatalf("%s: live %d blocks %d words (peak %d), model %d/%d (peak %d)", name,
			d.LiveBlocks(), d.LiveWords(), d.PeakWords(), len(r.live), r.liveWords, r.peakWords)
	}
	if d.DeferredBlocks() != len(r.deferred) {
		m.t.Fatalf("%s: DeferredBlocks %d, model %d", name, d.DeferredBlocks(), len(r.deferred))
	}
	if d.PeakPinned() != r.peakPinned || d.PinOverflows() != r.overflows {
		m.t.Fatalf("%s: peak pins %d overflows %d, model %d/%d", name,
			d.PeakPinned(), d.PinOverflows(), r.peakPinned, r.overflows)
	}
	resident := make(map[uint64]bool, len(r.lru))
	for _, f := range r.lru {
		resident[f.id] = true
	}
	for id := range r.live {
		if got, want := d.Resident(m.toDisk[id]), resident[r.frameOf(id)]; got != want {
			m.t.Fatalf("%s: Resident(%d) = %v, model %v", name, id, got, want)
		}
	}
}

// step decodes and runs one op.
func (m *modelRun) step() {
	d, r := m.d, m.r
	B := r.cfg.B
	switch op := m.next() % 28; op {
	case 0:
		var mid uint64
		var did BlockID
		m.do("Alloc", func() { mid = r.allocSpan(B) }, func() { did = d.Alloc() })
		m.record(mid, did, B)
	case 1:
		w := m.next()%(B+3) - 1
		var mid uint64
		var did BlockID
		m.do(fmt.Sprintf("AllocWords(%d)", w), func() { mid = r.allocSpan(min(w, B)) }, func() { did = d.AllocWords(w) })
		m.record(mid, did, min(w, B))
	case 2:
		w := m.next() % (6*B + 1)
		var mid uint64
		var did BlockID
		m.do(fmt.Sprintf("AllocSpan(%d)", w), func() { mid = r.allocSpan(w) }, func() { did = d.AllocSpan(w) })
		m.record(mid, did, w)
	case 3:
		id := m.pickID()
		m.do(fmt.Sprintf("Free(%d)", id), func() { r.free(id) }, func() { d.Free(m.toDisk[id]) })
	case 4, 5:
		sp, ok := m.pickSpan()
		if !ok {
			return
		}
		if op == 4 {
			m.do(fmt.Sprintf("FreeSpan(%d,%d)", sp.id, sp.words), func() {
				for i := range r.cfg.BlocksFor(sp.words) {
					r.free(sp.id + uint64(i))
				}
			}, func() { d.FreeSpan(m.toDisk[sp.id], sp.words) })
			return
		}
		m.do(fmt.Sprintf("FreeSpans(%d,%d)", sp.id, sp.words), func() {
			for i := range r.cfg.blocks(Span{Words: sp.words}) {
				r.free(sp.id + uint64(i))
			}
		}, func() { d.FreeSpans([]Span{{ID: m.toDisk[sp.id], Words: sp.words}}) })
	case 6, 7:
		id, write := m.pickID(), op == 7
		m.do(fmt.Sprintf("touch(%d,%v)", id, write), func() { r.touch(id, write) }, func() {
			if write {
				d.Write(m.toDisk[id])
			} else {
				d.Read(m.toDisk[id])
			}
		})
	case 8, 9:
		sp, ok := m.pickSpan()
		if !ok {
			return
		}
		write := op == 9
		m.do(fmt.Sprintf("touchSpan(%d,%d,%v)", sp.id, sp.words, write), func() {
			for i := range r.cfg.BlocksFor(sp.words) {
				r.touch(sp.id+uint64(i), write)
			}
		}, func() {
			if write {
				d.WriteSpan(m.toDisk[sp.id], sp.words)
			} else {
				d.ReadSpan(m.toDisk[sp.id], sp.words)
			}
		})
	case 10:
		id := m.pickID()
		m.do(fmt.Sprintf("ReadCold(%d)", id), func() { r.readCold(id) }, func() { d.ReadCold(m.toDisk[id]) })
	case 11:
		id := m.pickID()
		m.do(fmt.Sprintf("Pin(%d)", id), func() { r.pin(id) }, func() { d.Pin(m.toDisk[id]) })
	case 12:
		id := m.pickID()
		m.do(fmt.Sprintf("Unpin(%d)", id), func() { r.unpin(id) }, func() { d.Unpin(m.toDisk[id]) })
	case 13:
		sp, ok := m.pickSpan()
		if !ok {
			return
		}
		m.do(fmt.Sprintf("PinSpan(%d,%d)", sp.id, sp.words), func() {
			for i := range r.cfg.BlocksFor(sp.words) {
				r.pin(sp.id + uint64(i))
			}
		}, func() { d.PinSpan(m.toDisk[sp.id], sp.words) })
	case 14:
		id := m.pickID()
		m.do(fmt.Sprintf("Admit(%d)", id), func() { r.admitClean(id) }, func() { d.Admit(m.toDisk[id]) })
	case 15:
		m.do("DropCache", r.dropCache, d.DropCache)
	case 16:
		var seq uint64
		var ret *Retention
		m.do("RetainFrees", func() { seq = r.retain() }, func() { ret = d.RetainFrees() })
		m.rets = append(m.rets, modelRetention{seq: seq, ret: ret})
	case 17:
		if len(m.rets) == 0 {
			return
		}
		mr := m.rets[m.next()%len(m.rets)]
		m.do(fmt.Sprintf("Release(retention %d)", mr.seq), func() { r.release(mr.seq) }, mr.ret.Release)
	case 18, 27:
		// Op 27 opens a scratch scope and allocates at most B words, so
		// that most of its spans are packed.
		w := m.next() % (6*B + 1)
		if m.scope == nil && op == 27 {
			m.scope, m.rscope = d.NewScratchScope(), &refScope{scratch: true}
		} else if m.scope == nil {
			m.scope, m.rscope = d.NewScope(), &refScope{}
		}
		if op == 27 {
			w %= B + 1
		}
		var mid uint64
		var did BlockID
		m.do(fmt.Sprintf("Scope.AllocSpan(%d)", w), func() { mid = r.scopeAlloc(m.rscope, w) }, func() { did = m.scope.AllocSpan(w) })
		m.record(mid, did, w)
	case 19:
		if m.scope == nil {
			return
		}
		id := m.pickID()
		var mk, dk bool
		m.do(fmt.Sprintf("Keep(%d)", id), func() { mk = r.keep(m.rscope, id) }, func() { dk = m.scope.Keep(m.toDisk[id]) })
		if mk != dk {
			m.t.Fatalf("Keep(%d) = %v, model %v", id, dk, mk)
		}
	case 20:
		if m.scope == nil {
			return
		}
		var mk []refSpan
		var dk []Span
		m.do("Scope.Release", func() { mk = m.r.scopeRelease(m.rscope) }, func() { dk = m.scope.Release() })
		if len(mk) != len(dk) {
			m.t.Fatalf("Scope.Release kept %d spans, model %d", len(dk), len(mk))
		}
		for i := range mk {
			if want := (Span{ID: m.toDisk[mk[i].id], Words: mk[i].words}); dk[i] != want {
				m.t.Fatalf("Scope.Release kept %v, model %v", dk[i], want)
			}
		}
		m.scope, m.rscope = nil, nil
	case 21:
		sp, ok := m.pickSpan()
		if !ok {
			return
		}
		m.do(fmt.Sprintf("UnpinSpan(%d,%d)", sp.id, sp.words), func() {
			for i := range r.cfg.BlocksFor(sp.words) {
				r.unpin(sp.id + uint64(i))
			}
		}, func() { d.UnpinSpan(m.toDisk[sp.id], sp.words) })
	case 22:
		sp, ok := m.pickSpan()
		if !ok {
			return
		}
		rep, _ := m.pickSpan()
		off := m.next()%(rep.words+2) - 1
		m.do(fmt.Sprintf("Cover(%d,%d by %d,%d at %d)", sp.id, sp.words, rep.id, rep.words, off), func() {
			r.coverSpan(sp.id, sp.words, rep.id, rep.words, off)
		}, func() {
			d.Cover(Span{ID: m.toDisk[sp.id], Words: sp.words}, Span{ID: m.toDisk[rep.id], Words: rep.words}, off)
		})
	case 23:
		sp, ok := m.pickSpan()
		if !ok {
			return
		}
		// Word ranges inside the span: past its end the model's ids
		// run on into the next span, where the disk's go stale.
		w := max(sp.words, 0) + 1
		from, to := m.next()%w, m.next()%w
		m.do(fmt.Sprintf("WriteSpanWords(%d,%d,%d)", sp.id, from, to), func() {
			for i := from / B; from < to && i <= (to-1)/B; i++ {
				r.touch(sp.id+uint64(i), true)
			}
		}, func() { d.WriteSpanWords(m.toDisk[sp.id], from, to) })
	case 24:
		words := make([]int, 1+m.next()%4)
		for i := range words {
			words[i] = 1 + m.next()%B
		}
		// One run in eight asks for a block size outside [1, B].
		if bad := m.next(); bad%8 == 0 {
			words[bad/8%len(words)] = (bad / 8 % 2) * (B + 1)
		}
		var mid uint64
		var did BlockID
		m.do(fmt.Sprintf("AllocBlocks(%v)", words), func() { mid = r.allocBlocks(words) }, func() { did = d.AllocBlocks(words) })
		// A refused size allocates nothing. A run is recorded as a span
		// of full blocks: the span ops need only its block count.
		if mid != 0 {
			m.record(mid, did, len(words)*B)
		}
	case 25:
		id := m.pickID()
		words, to := r.live[id], 1+m.next()%B
		// One call in eight names the wrong size and two in eight a new
		// size outside [1, B]; both sides must refuse them.
		switch m.next() % 8 {
		case 0:
			words++
		case 1:
			to = 0
		case 2:
			to = B + 1
		}
		m.do(fmt.Sprintf("ResizeBlock(%d,%d,%d)", id, words, to), func() { r.resizeBlock(id, words, to) },
			func() { d.ResizeBlock(m.toDisk[id], words, to) })
	case 26:
		sp, ok := m.pickSpan()
		if !ok {
			return
		}
		n := m.next() % (r.cfg.blocks(Span{Words: sp.words}) + 1)
		m.do(fmt.Sprintf("FreeBlocks(%d,%d)", sp.id, n), func() {
			for i := range n {
				r.free(sp.id + uint64(i))
			}
		}, func() { d.FreeBlocks(m.toDisk[sp.id], n) })
	}
}

// runModel decodes a machine from the first byte (B in 1..4, 0..5
// frames, guarded or not) and runs up to maxOps ops from the rest.
func runModel(t *testing.T, ops []byte, maxOps int) {
	var head byte
	if len(ops) > 0 {
		head, ops = ops[0], ops[1:]
	}
	B := int(head%4) + 1
	cfg := Config{B: B, M: B * int(head/4%6)}
	d := NewDisk(cfg)
	if head >= 128 {
		d.Guard()
	}
	m := &modelRun{t: t, d: d, r: newRefDisk(cfg), ops: ops, toDisk: map[uint64]BlockID{0: 0}, ids: []uint64{0}}
	for n := 0; len(m.ops) > 0 && n < maxOps; n++ {
		m.step()
		m.check()
	}
}

// FuzzDiskModel runs a decoded op sequence — every allocation, free,
// access, partial-span write, block resize, pin, admission, cover,
// retention and scope operation, in plain and scratch scopes — against
// both the Disk and refDisk. Packed blocks are named, touched, pinned,
// covered and freed as any other, in any order.
// After every op they must agree on the I/O counters, the space
// accounting, the deferred frees, the pin detector and the residency of
// every live id, and an op the model refuses must panic on the disk
// too. Ops name blocks by picking from every id ever issued, so freed
// ids — whose slots the disk reuses — are exercised as often as live
// ones. An op is decoded modulo the number of ops, so adding one
// changes what every input decodes to: seeds saved before scratch
// scopes joined (when there were 27 ops) now run different sequences.
func FuzzDiskModel(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 800)
		rng.Read(ops)
		f.Add(ops)
		// The same bytes with every third one set to op 27 spend most
		// of the run in scratch scopes, so the seed corpus frees packed
		// blocks while others share their frames.
		scratch := make([]byte, len(ops))
		copy(scratch, ops)
		for i := 1; i < len(scratch); i += 3 {
			scratch[i] = 27
		}
		f.Add(scratch)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		runModel(t, ops, 600)
	})
}
