package cpqa

import "repro/internal/emio"

// This file exposes the queue's critical records (§4.1: "the first three
// records of C(Q), last(C(Q)), first(B(Q)), first(D1(Q)), last(DkQ(Q))
// and last(front(DkQ(Q))) if it exists, otherwise last(DkQ−1(Q))"), plus
// the F and L buffers. The dynamic structure of §4.2 keeps copies of
// these in each internal node's representative block, which is what
// makes Lemma 7's no-I/O multi-way catenation possible: CoverCritical
// tells the disk where the copies are, so a read of a critical record
// costs what a read of the block holding its copy costs, and the records
// themselves take no frame.

// criticalSpans appends to out the block spans of the queue's critical
// records and buffers: at most ten.
func (q *Queue) criticalSpans(out []emio.Span) []emio.Span {
	if q.fWords > 0 {
		out = append(out, emio.Span{ID: q.fBlock, Words: q.fWords})
	}
	if q.lWords > 0 {
		out = append(out, emio.Span{ID: q.lBlock, Words: q.lWords})
	}
	add := func(r *record) {
		if r != nil {
			out = append(out, emio.Span{ID: r.block, Words: r.words})
		}
	}
	for i := 0; i < 3 && i < len(q.c); i++ {
		add(q.c[i])
	}
	if !q.c.empty() {
		add(q.c.last())
	}
	if !q.bq.empty() {
		add(q.bq.first())
	}
	if kq := q.k(); kq > 0 {
		add(q.d[0].first())
		dk := q.d[kq-1]
		add(dk.last())
		if len(dk) > 1 {
			add(dk.front().last())
		} else if kq > 1 {
			add(q.d[kq-2].last())
		}
	}
	return out
}

// CriticalWords returns the total words of the critical spans: the size
// contribution of this queue to its parent's representative block.
func (q *Queue) CriticalWords() int {
	w := 0
	var buf [10]emio.Span
	for _, s := range q.criticalSpans(buf[:0]) {
		w += s.Words
	}
	return w
}

// CoverCritical records that the span rep holds a packed copy of the
// critical spans, one after another from word off, and returns the word
// after the copy (see emio.Disk.Cover). The caller must just have
// written that copy.
func (q *Queue) CoverCritical(rep emio.Span, off int) int {
	var buf [10]emio.Span
	for _, s := range q.criticalSpans(buf[:0]) {
		q.disk.Cover(s, rep, off)
		off += s.Words
	}
	return off
}

// AdmitCritical marks the critical records memory-resident without a
// charge. Callers must have just paid for reading what the records were
// built from; see emio.Disk.Admit.
func (q *Queue) AdmitCritical() {
	var buf [10]emio.Span
	for _, s := range q.criticalSpans(buf[:0]) {
		q.disk.AdmitSpan(s.ID, s.Words)
	}
}

// PinCritical pins the critical records in memory (charging reads for
// any that are cold) until UnpinCritical.
func (q *Queue) PinCritical() {
	var buf [10]emio.Span
	for _, s := range q.criticalSpans(buf[:0]) {
		q.disk.PinSpan(s.ID, s.Words)
	}
}

// UnpinCritical releases one PinCritical of q. A queue version never
// changes, so the spans it recomputes are the ones PinCritical pinned.
func (q *Queue) UnpinCritical() {
	var buf [10]emio.Span
	for _, s := range q.criticalSpans(buf[:0]) {
		q.disk.UnpinSpan(s.ID, s.Words)
	}
}

// FromAscending builds a queue over strictly increasing elements in
// O(1 + len/B) I/Os by packing all records into one contiguous span.
// The §4.2 structure uses it to create leaf queues (and query-time
// partial-leaf queues) in O(1) I/Os, since a leaf holds O(B) elements.
// The queue takes elems over — its immutable buffers are slices of it —
// so the caller must not write to elems afterwards.
func FromAscending(d *emio.Disk, b int, elems []Elem) *Queue {
	return New(d, b).fromAscending(elems)
}

// FromAscendingIn is FromAscending allocating through the scope sc; the
// result stays bound to it (see Scoped).
func FromAscendingIn(sc *emio.Scope, b int, elems []Elem) *Queue {
	return (&Queue{disk: sc.Disk(), scope: sc, b: b}).fromAscending(elems)
}

// fromAscending fills the empty queue q, which the caller owns.
func (q *Queue) fromAscending(elems []Elem) *Queue {
	d := q.disk
	for i := 1; i < len(elems); i++ {
		if elems[i-1].Key >= elems[i].Key {
			panic("cpqa: FromAscending input not strictly increasing")
		}
	}
	b := q.b
	if len(elems) == 0 {
		return q
	}
	if len(elems) <= 4*b {
		q.f = elems[:len(elems):len(elems)]
		q.size = len(elems)
		q.chargeBuffers()
		return q
	}
	q.f = elems[: 2*b : 2*b]
	rest := elems[2*b:]
	// Pack the clean records into one span so that building charges
	// O(words/B) I/Os, as a streaming write would.
	spanStart := q.allocSpan(len(rest))
	off := 0
	for off < len(rest) {
		sz := 2 * b
		if len(rest)-off < sz+b {
			sz = len(rest) - off // final record up to 3b
		}
		chunk := rest[off : off+sz : off+sz]
		r := &record{
			buf:   chunk,
			total: len(chunk),
			block: spanStart + emio.BlockID(off/d.Config().B),
			words: len(chunk),
		}
		q.c = q.c.pushBack(r)
		off += sz
	}
	q.size = len(elems)
	q.chargeBuffers()
	return q
}
