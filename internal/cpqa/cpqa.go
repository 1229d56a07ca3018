// Package cpqa implements the I/O-efficient catenable priority queue with
// attrition (I/O-CPQA) of §4.1: FindMin, DeleteMin, InsertAndAttrite and
// CatenateAndAttrite, all in O(1) worst-case I/Os and O(1/b) amortized
// I/Os when the critical records are memory resident, with parameter
// 1 ≤ b ≤ B.
//
// A queue consists of a first buffer F ([b,4b] sorted elements, fewer
// only when the whole queue is small), a last buffer L ([0,4b]), and
// deques of records: the clean deque C, the buffer deque B, and dirty
// deques D1..Dk. A record is a sorted buffer of [b,4b] elements plus an
// optional pointer to a child I/O-CPQA (invariant I.6: records in C and B
// are simple, i.e. child-less). Attrition is lazy: dirty deques and L may
// store already-attrited elements, resolved incrementally by Bias. The
// structure maintains invariants I.1–I.9 of the paper; see
// (*Queue).CheckInvariants.
//
// Persistence: the paper makes the ephemeral structure confluently
// persistent by replacing its deques with purely functional real-time
// catenable deques (Kaplan–Tarjan), at O(1) worst-case overhead. This
// implementation achieves the same interface more directly by making
// every queue and record immutable: operations return new queues that
// share records with their inputs. Each operation still touches O(1)
// records, so the I/O bounds are unchanged; the dynamic structure of §4.2
// can therefore read internal-node queues without destroying them.
//
// Block lifetime: nothing here frees a block on its own — there is no
// collector, and a version cannot know who else shares its records.
// Lifetime belongs to the caller: run an operation in an emio.Scope
// (Scoped, FromAscendingIn, CatenateAllIn), Keep the version that
// survives, release the scope, and own the kept spans (scope.go).
// Unscoped use keeps every version ever derived allocated, which is what
// a caller holding on to old versions wants.
//
// Elements are (Key, Aux) pairs ordered by Key; attrition removes
// elements with Key >= the newly arrived Key.
package cpqa

import (
	"repro/internal/emio"
	"repro/internal/pqa"
)

// Elem is re-exported from pqa so the two structures share a vocabulary.
type Elem = pqa.Elem

// record is an immutable sorted buffer with an optional child queue.
type record struct {
	buf   []Elem // sorted ascending by Key, len in [1, 4b]
	child *Queue // nil for a simple record
	total int    // len(buf) + child.size: elements stored beneath

	block emio.BlockID
	words int
}

func (r *record) min() Elem { return r.buf[0] }
func (r *record) max() Elem { return r.buf[len(r.buf)-1] }

// rdeq is an immutable deque of records. Operations copy the spine; the
// spine of a deque with m records occupies O(m/B) blocks on a real
// machine and every operation below touches only its ends, so charging
// record accesses (not spine traversals) matches the paper's accounting
// with catenable deques as black boxes.
type rdeq []*record

func (q rdeq) empty() bool    { return len(q) == 0 }
func (q rdeq) first() *record { return q[0] }
func (q rdeq) last() *record  { return q[len(q)-1] }
func (q rdeq) rest() rdeq     { return q[1:] }
func (q rdeq) front() rdeq    { return q[:len(q)-1] }
func (q rdeq) pushFront(r *record) rdeq {
	out := make(rdeq, 0, len(q)+1)
	out = append(out, r)
	return append(out, q...)
}
func (q rdeq) pushBack(r *record) rdeq {
	out := make(rdeq, 0, len(q)+1)
	out = append(out, q...)
	return append(out, r)
}
func (q rdeq) concat(o rdeq) rdeq {
	out := make(rdeq, 0, len(q)+len(o))
	out = append(out, q...)
	return append(out, o...)
}
func (q rdeq) total() int {
	t := 0
	for _, r := range q {
		t += r.total
	}
	return t
}

// Queue is an immutable I/O-CPQA. The zero value is not usable; obtain
// queues from New, Singleton, or the operations.
type Queue struct {
	disk *emio.Disk
	// scope, when set, is the allocation context of the operation this
	// version is being derived in (see Scoped); derived versions inherit
	// it. nil allocates straight from the disk.
	scope *emio.Scope
	b     int

	f, l  []Elem // first and last buffers, sorted ascending
	c, bq rdeq   // clean and buffer deques (simple records only)
	d     []rdeq // dirty deques D1..Dk

	size int // elements stored (attrited-but-present included)

	fBlock, lBlock emio.BlockID
	fWords, lWords int

	// origF/origL are the parent version's buffers, used by finish to
	// detect structurally shared (hence not rewritten) buffers.
	origF, origL []Elem
}

// New returns an empty queue bound to a disk with buffer parameter b
// (1 <= b <= B is the intended range; larger b means fewer, bigger
// records).
func New(d *emio.Disk, b int) *Queue {
	if b < 1 {
		panic("cpqa: b must be >= 1")
	}
	return &Queue{disk: d, b: b}
}

// Singleton returns the one-element queue used by InsertAndAttrite.
func Singleton(d *emio.Disk, b int, e Elem) *Queue {
	return New(d, b).singleton(e)
}

// singleton is Singleton in q's allocation context.
func (q *Queue) singleton(e Elem) *Queue {
	s := &Queue{disk: q.disk, scope: q.scope, b: q.b, f: []Elem{e}, size: 1}
	s.chargeBuffers()
	return s
}

// derive creates a mutable scratch copy of q used while assembling the
// next version; call finish() on it before returning it to a caller.
// The copy remembers the parent's F/L slices so finish can recognise
// unchanged buffers and share their spans (a functional structure does
// not rewrite what it structurally shares).
func (q *Queue) derive() *Queue {
	nq := *q
	nq.origF, nq.origL = q.f, q.l
	return &nq
}

// sameSlice reports whether two slices are the identical view of the
// same backing array (or a suffix of it, which a functional deque pop
// produces without copying).
func sameSlice(a, b []Elem) bool {
	if len(a) == 0 {
		return len(b) == 0
	}
	if len(b) < len(a) {
		return false
	}
	tail := b[len(b)-len(a):]
	return &a[0] == &tail[0]
}

// finish normalises and seals a newly assembled queue version: it drops
// empty dirty deques, applies the paper's recurring fix-up "if this
// causes min(L(Q)) <= min(first(D1(Q))), we discard all dirty queues"
// (restoring I.5; the dirty deques are then fully attrited), recomputes
// the cached size, and charges the buffer writes.
func (q *Queue) finish() *Queue {
	if len(q.d) > 0 {
		kept := q.d[:0:0]
		for _, dq := range q.d {
			if !dq.empty() {
				kept = append(kept, dq)
			}
		}
		q.d = kept
		if len(q.d) == 0 {
			q.d = nil
		}
	}
	if len(q.l) > 0 && len(q.d) > 0 && !q.d[0].empty() &&
		q.l[0].Key <= q.d[0].first().min().Key {
		q.d = nil
	}
	// Symmetric fix-up for the buffer deque: if min(first(B)) is at
	// least the head of something that arrived after B (D1 or L), the
	// whole of B is attrited (I.2 makes B increasing), restoring I.3.
	// Head comparisons touch only critical records, so this is free.
	if !q.bq.empty() {
		cut := int64(1)<<62 - 1
		have := false
		if len(q.d) > 0 && !q.d[0].empty() {
			if v := q.d[0].first().min().Key; v < cut {
				cut, have = v, true
			}
		}
		if len(q.l) > 0 && q.l[0].Key < cut {
			cut, have = q.l[0].Key, true
		}
		if have && q.bq.first().min().Key >= cut {
			q.bq = nil
		}
	}
	q.size = len(q.f) + len(q.l) + q.c.total() + q.bq.total()
	for _, dq := range q.d {
		q.size += dq.total()
	}
	q.chargeBuffers()
	return q
}

// chargeBuffers accounts the F/L buffers of this queue version: on a
// real machine they are the (re)written critical blocks of the new
// version. A buffer that is the parent version's slice (or a suffix of
// it, as after a functional pop) keeps the parent's span — nothing was
// rewritten.
func (q *Queue) chargeBuffers() {
	switch {
	case len(q.f) == 0:
		q.fWords = 0
	case sameSlice(q.f, q.origF):
		// Shared with the parent version; span unchanged.
	default:
		q.fWords = len(q.f)
		q.fBlock = q.allocSpan(q.fWords)
	}
	switch {
	case len(q.l) == 0:
		q.lWords = 0
	case sameSlice(q.l, q.origL):
	default:
		q.lWords = len(q.l)
		q.lBlock = q.allocSpan(q.lWords)
	}
	q.origF, q.origL = nil, nil
}

// newRecord materialises an immutable record: one allocation plus a
// streaming write of its buffer.
func (q *Queue) newRecord(buf []Elem, child *Queue) *record {
	if len(buf) == 0 {
		panic("cpqa: empty record")
	}
	r := &record{buf: buf, child: child, total: len(buf)}
	if child != nil {
		r.total += child.size
	}
	r.words = len(buf)
	r.block = q.allocSpan(r.words)
	return r
}

// allocSpan allocates and writes a fresh span in q's allocation context.
func (q *Queue) allocSpan(words int) emio.BlockID {
	var id emio.BlockID
	if q.scope != nil {
		id = q.scope.AllocSpan(words)
	} else {
		id = q.disk.AllocSpan(words)
	}
	q.disk.WriteSpan(id, words)
	return id
}

// touch charges the read of a record's buffer.
func (q *Queue) touch(r *record) {
	q.disk.ReadSpan(r.block, r.words)
}

// Len returns the number of stored elements |Q| (including
// lazily-attrited ones, matching the paper's definition of size).
func (q *Queue) Len() int { return q.size }

// Empty reports whether the queue holds no elements at all.
func (q *Queue) Empty() bool { return q.size == 0 }

// small reports |Q| < b: the queue consists only of F (invariant I.8).
func (q *Queue) small() bool { return q.size < q.b }

// k returns the number of dirty deques.
func (q *Queue) k() int { return len(q.d) }

// State returns ∆(Q) = |C| − Σ|Di| − k, the credit balance of invariant
// I.7.
func (q *Queue) State() int {
	s := len(q.c)
	for _, dq := range q.d {
		s -= len(dq) + 1
	}
	return s
}

// FindMin returns the minimum element (min(F), by I.2–I.5).
func (q *Queue) FindMin() (Elem, bool) {
	if q.size == 0 {
		return Elem{}, false
	}
	if len(q.f) == 0 {
		panic("cpqa: non-empty queue with empty F (I.8 violated)")
	}
	q.disk.ReadSpan(q.fBlock, q.fWords)
	return q.f[0], true
}

// DeleteMin removes the minimum element, returning it and the new queue.
func (q *Queue) DeleteMin() (Elem, *Queue, bool) {
	if q.size == 0 {
		return Elem{}, q, false
	}
	q.disk.ReadSpan(q.fBlock, q.fWords)
	e := q.f[0]
	nq := q.derive()
	nq.f = q.f[1:]
	nq = nq.finish()
	nq = nq.fill()
	return e, nq, true
}

// InsertAndAttrite adds e and removes every element >= e, returning the
// new queue. It is CatenateAndAttrite with a singleton right operand
// (footnote 8 of the paper).
func (q *Queue) InsertAndAttrite(e Elem) *Queue {
	return CatenateAndAttrite(q, q.singleton(e))
}

// minValue returns min(Q) without charging I/Os (used internally where
// the relevant record was just touched).
func (q *Queue) minValue() (Elem, bool) {
	if len(q.f) > 0 {
		return q.f[0], true
	}
	// Child queues have F = L = ∅ (I.9); their minimum is the head of
	// the queue order restricted to non-attrited elements, which by
	// I.1–I.5 is the smallest of the deque heads and L.
	best, ok := Elem{}, false
	consider := func(e Elem) {
		if !ok || e.Key < best.Key {
			best, ok = e, true
		}
	}
	if !q.c.empty() {
		consider(q.c.first().min())
	}
	if !q.bq.empty() {
		consider(q.bq.first().min())
	}
	if len(q.d) > 0 && !q.d[0].empty() {
		consider(q.d[0].first().min())
	}
	if len(q.l) > 0 {
		consider(q.l[0])
	}
	return best, ok
}

// attriteSorted returns the prefix of the sorted slice with Key < e.Key.
func attriteSorted(s []Elem, e Elem) []Elem {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid].Key < e.Key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return s[:lo]
}

// mergeSorted concatenates two sorted slices where every element of a is
// smaller than every element of bs.
func mergeSorted(a, bs []Elem) []Elem {
	out := make([]Elem, 0, len(a)+len(bs))
	out = append(out, a...)
	return append(out, bs...)
}
