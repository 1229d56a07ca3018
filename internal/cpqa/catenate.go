package cpqa

import "repro/internal/emio"

// This file transcribes the paper's §4.1 operation CatenateAndAttrite
// case by case. Cases are evaluated in the paper's order; comments quote
// the governing conditions. All operations construct new queue versions;
// inputs are never mutated (see the package comment on persistence).

// CatenateAndAttrite returns the queue {e ∈ Q1 | e < min(Q2)} ∪ Q2.
// O(1) worst-case I/Os. New versions allocate in Q2's context (see
// Scoped): Q2 is the newer arrival — the singleton of an insert, the
// accumulator of CatenateAll.
func CatenateAndAttrite(q1, q2 *Queue) *Queue {
	if q2 == nil || q2.Empty() {
		return q1
	}
	if q1 == nil || q1.Empty() {
		return q2
	}
	if q1.b != q2.b {
		panic("cpqa: catenating queues with different b")
	}
	e, _ := q2.FindMin()
	b := q1.b

	// ---- |Q1| < b: Q1 consists only of F(Q1). ----
	if q1.small() {
		f1 := attriteSorted(q1.f, e)
		nq := q2.derive()
		nq.f = mergeSorted(f1, q2.f)
		if len(nq.f) > 4*b {
			// Spill the last (largest) 2b elements as a new first
			// clean record; they precede everything in C (I.3).
			cut := len(nq.f) - 2*b
			rec := nq.newRecord(append([]Elem(nil), nq.f[cut:]...), nil)
			nq.f = nq.f[:cut]
			nq.c = nq.c.pushFront(rec)
		}
		return nq.finish()
	}

	// In every remaining case Q1 is large. If e <= min(F(Q1)), the
	// whole of Q1 is attrited (everything in Q1 is >= min(F), by
	// I.1–I.5); this is the paper's sub-case 1 of both analyses, hoisted
	// because it does not depend on the last record existing.
	if e.Key <= q1.f[0].Key {
		return q2
	}
	// Everything below derives from Q1 as well.
	if q1.scope != q2.scope {
		q1 = q1.Scoped(q2.scope)
	}
	// Eagerly drop the attrited tail of F(Q1). F is a critical
	// (memory-resident) buffer, so the trim is free; keeping attrited
	// elements in F would break min(Q) = min(F) after DeleteMins.
	if q1.f[len(q1.f)-1].Key >= e.Key {
		t := q1.derive()
		t.f = attriteSorted(q1.f, e)
		q1 = t.finish()
	}

	// If e cuts strictly inside the final record's buffer, trim that
	// buffer eagerly (the last record is critical, so the trim is one
	// O(1) touch); its child — entirely above the buffer by I.1 — is
	// attrited outright. Records earlier in queue order are below
	// min(r) < e by I.2/I.3 and need no trimming; B's lazy tail is
	// handled by Bias as usual.
	if r, _, ok := q1.lastRecord(); ok && r.min().Key < e.Key && e.Key <= r.max().Key {
		q1.touch(r)
		nr := q1.newRecord(attriteSorted(r.buf, e), nil)
		q1 = replaceLastRecord(q1, nr).finish()
	}

	// ---- |Q2| < b: Q2 consists only of F(Q2). ----
	if q2.small() {
		return catenateSmallRight(q1, q2, e).fill()
	}

	// ---- both |Q1| >= b and |Q2| >= b ----
	return catenateLarge(q1, q2, e).fill()
}

// lastRecord returns the final record in queue order (last of Dk, else
// last of B, else last of C) along with a removal closure producing the
// queue without it; ok is false when Q has no records.
func (q *Queue) lastRecord() (r *record, remove func() *Queue, ok bool) {
	if kq := q.k(); kq > 0 {
		dq := q.d[kq-1]
		r = dq.last()
		return r, func() *Queue {
			nq := q.derive()
			nd := append([]rdeq(nil), q.d...)
			if len(dq) == 1 {
				nd = nd[:kq-1]
			} else {
				nd[kq-1] = dq.front()
			}
			nq.d = nd
			return nq
		}, true
	}
	if !q.bq.empty() {
		r = q.bq.last()
		return r, func() *Queue {
			nq := q.derive()
			nq.bq = q.bq.front()
			return nq
		}, true
	}
	if !q.c.empty() {
		r = q.c.last()
		return r, func() *Queue {
			nq := q.derive()
			nq.c = q.c.front()
			return nq
		}, true
	}
	return nil, nil, false
}

// catenateSmallRight handles |Q1| >= b, |Q2| < b. Q2 = F(Q2) only.
func catenateSmallRight(q1, q2 *Queue, e Elem) *Queue {
	b := q1.b
	r, removeR, haveR := q1.lastRecord()
	if haveR {
		q1.touch(r)
	}

	// Case 1: e <= min(r) — the last record is fully attrited
	// (including its child, whose elements exceed max(l) by I.1).
	if haveR && e.Key <= r.min().Key {
		q1r := removeR()

		// (Sub-case 1, e <= min(F(Q1)), was handled by the caller.)
		// 2) e <= max(last(C(Q1))): B, D and L are fully attrited
		// (I.3, I.5); C survives partially, demoted to the buffer
		// deque for lazy attrition.
		if v, ok := maxLastC(q1r); ok && e.Key <= v.Key {
			nq := q1r.derive()
			fRec := nq.newRecord(append([]Elem(nil), q1r.f...), nil)
			nq.bq = q1r.c.pushFront(fRec)
			nq.f = nil
			nq.c = nil
			nq.d = nil
			nq.l = append([]Elem(nil), q2.f...)
			out := nq.finish()
			out = bias(out)
			return out.fill()
		}
		// 3) e <= min(first(B)) or e <= min(first(D1)): dirty deques
		// and L are fully attrited; B is too when the first condition
		// holds (I.3 orders B before D1).
		bOK := false
		if v, ok := minFirstB(q1r); ok && e.Key <= v.Key {
			bOK = true
		}
		dOK := false
		if v, ok := minFirstD1(q1r); ok && e.Key <= v.Key {
			dOK = true
		}
		if bOK || dOK {
			nq := q1r.derive()
			nq.d = nil
			nq.l = append([]Elem(nil), q2.f...)
			if bOK {
				nq.bq = nil
			}
			return nq.finish()
		}
		// 4) Partial attrition of L only.
		lPrime := attriteSorted(q1r.l, e)
		combined := mergeSorted(lPrime, q2.f)
		nq := q1r.derive()
		if len(combined) <= 4*b {
			nq.l = combined
			return nq.finish()
		}
		rec := nq.newRecord(append([]Elem(nil), combined[:4*b]...), nil)
		nq.d = append(append([]rdeq(nil), q1r.d...), rdeq{rec})
		nq.l = combined[4*b:]
		out := nq.finish()
		out = bias(out)
		out = bias(out)
		return out
	}

	// Case 2: e <= min(L(Q1)) (vacuously true when L is empty): L is
	// fully attrited and replaced by F(Q2).
	if len(q1.l) == 0 || e.Key <= q1.l[0].Key {
		nq := q1.derive()
		nq.l = append([]Elem(nil), q2.f...)
		return nq.finish()
	}

	// Case 3: min(L(Q1)) < e. The last record r may itself hold
	// elements already attrited by L; l′ is its surviving prefix.
	minL := q1.l[0]
	lPrime := attriteSorted(q1.l, e) // L under attrition by e
	combined := mergeSorted(lPrime, q2.f)
	if len(combined) <= 4*b {
		nq := q1.derive()
		nq.l = combined
		return nq.finish()
	}
	// |L′|+|F2| > 4b: repack.
	nq := q1
	addBias := false
	if haveR {
		lp := attriteSorted(r.buf, minL)
		if len(lp) < len(r.buf) {
			// Refill r up to 4b with the smallest combined
			// elements; r's child (all > max(buf) >= min(L)) is
			// attrited.
			take := 4*b - len(lp)
			if take > len(combined) {
				take = len(combined)
			}
			newBuf := mergeSorted(lp, combined[:take])
			combined = combined[take:]
			nq = replaceLastRecord(q1, nq.newRecord(newBuf, nil))
		}
	}
	out := nq.derive()
	if len(combined) > 3*b {
		rec := out.newRecord(append([]Elem(nil), combined[:3*b]...), nil)
		nd := append([]rdeq(nil), out.d...)
		if len(nd) == 0 {
			nd = []rdeq{{rec}}
		} else {
			nd[len(nd)-1] = nd[len(nd)-1].pushBack(rec)
		}
		out.d = nd
		out.l = combined[3*b:]
		addBias = true
	} else {
		out.l = combined
	}
	res := out.finish()
	if addBias {
		res = bias(res)
	}
	return res
}

// replaceLastRecord returns q with its final record swapped for nr.
func replaceLastRecord(q *Queue, nr *record) *Queue {
	nq := q.derive()
	if kq := q.k(); kq > 0 {
		nd := append([]rdeq(nil), q.d...)
		nd[kq-1] = nd[kq-1].front().pushBack(nr)
		nq.d = nd
	} else if !q.bq.empty() {
		nq.bq = q.bq.front().pushBack(nr)
	} else if !q.c.empty() {
		nq.c = q.c.front().pushBack(nr)
	} else {
		panic("cpqa: replaceLastRecord on record-less queue")
	}
	return nq
}

// catenateLarge handles |Q1| >= b and |Q2| >= b. Any I/Os here are paid
// for amortization-wise by the disappearance of one large queue.
func catenateLarge(q1, q2 *Queue, e Elem) *Queue {
	b := q1.b

	// (Case 1, e <= min(F(Q1)), was handled by the caller.)
	// 2) e <= max(last(C(Q1))): C1 survives (partially, lazily); F1 is
	// demoted into it; everything later in Q1 is attrited (I.3, I.5).
	// Q2 hangs off a single dirty record whose buffer is F(Q2).
	if v, ok := maxLastC(q1); ok && e.Key <= v.Key {
		nq := q1.derive()
		fRec := nq.newRecord(append([]Elem(nil), q1.f...), nil)
		newB := q1.c.pushFront(fRec)
		dRec, lTail := q2.detachHead()
		nq.f = nil
		nq.c = nil
		nq.bq = newB
		nq.d = []rdeq{{dRec}}
		nq.l = lTail
		out := nq.finish()
		out = bias(out)
		out = bias(out)
		return out.fill()
	}

	// 3) e <= min(first(B(Q1))) or e <= min(first(D1(Q1))): dirty
	// deques and L of Q1 are attrited; B survives only in the second
	// case.
	bOK := false
	if v, ok := minFirstB(q1); ok && e.Key <= v.Key {
		bOK = true
	}
	dOK := false
	if v, ok := minFirstD1(q1); ok && e.Key <= v.Key {
		dOK = true
	}
	if bOK || dOK {
		nq := q1.derive()
		dRec, lTail := q2.detachHead()
		nq.d = []rdeq{{dRec}}
		nq.l = lTail
		if bOK {
			nq.bq = nil
		}
		out := nq.finish()
		out = bias(out)
		out = bias(out)
		return out
	}

	// 4) Otherwise only L(Q1) is (partially) attrited. L′+F2 become
	// the leading record(s) of Q2's clean deque; the first of them is
	// pulled out as a new last dirty deque of the result, pointing at
	// the rest of Q2.
	lPrime := attriteSorted(q1.l, e)
	combined := mergeSorted(lPrime, q2.f)
	var headBuf []Elem
	var restC rdeq = q2.c
	if len(combined) <= 4*b {
		headBuf = combined
	} else {
		half := len(combined) / 2
		headBuf = combined[:half]
		nqTmp := q2 // allocation context only
		second := nqTmp.newRecord(append([]Elem(nil), combined[half:]...), nil)
		restC = q2.c.pushFront(second)
	}
	child := childQueue(q2.disk, b, restC, q2.bq, q2.d)
	nq := q1.derive()
	dRec := nq.newRecord(append([]Elem(nil), headBuf...), child)
	nq.d = append(append([]rdeq(nil), q1.d...), rdeq{dRec})
	nq.l = append([]Elem(nil), q2.l...)
	out := nq.finish()
	out = bias(out)
	out = bias(out)
	return out
}

// detachHead turns Q2 (large) into the pieces used by the large-catenate
// cases 2 and 3: a dirty record whose buffer is F(Q2) and whose child is
// the rest of Q2 (C, B, D; with F and L stripped per I.9), plus Q2's L
// buffer which migrates to the result's L.
func (q2 *Queue) detachHead() (*record, []Elem) {
	child := childQueue(q2.disk, q2.b, q2.c, q2.bq, q2.d)
	rec := q2.newRecord(append([]Elem(nil), q2.f...), child)
	return rec, append([]Elem(nil), q2.l...)
}

// childQueue assembles a child I/O-CPQA (F = L = ∅, invariant I.9) from
// deque components, returning nil when it would be empty.
func childQueue(d *emio.Disk, b int, c, bq rdeq, dd []rdeq) *Queue {
	size := c.total() + bq.total()
	for _, dq := range dd {
		size += dq.total()
	}
	if size == 0 {
		return nil
	}
	q := &Queue{disk: d, b: b, c: c, bq: bq, d: dd, size: size}
	return q
}
