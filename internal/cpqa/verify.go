package cpqa

import (
	"fmt"
	"math"

	"repro/internal/emio"
)

// This file provides the semantic view of a queue (Contents), the
// invariant checker used by the test suite, the Lemma 7 multi-way
// catenation, and space accounting.

// stored returns every element physically present, in queue order
// (F, C, B, D1..Dk, L; a record contributes its buffer followed by the
// Euler tour of its child, per the paper's ordering definition).
func (q *Queue) stored() []Elem {
	var out []Elem
	var emit func(dq rdeq)
	emit = func(dq rdeq) {
		for _, r := range dq {
			out = append(out, r.buf...)
			if r.child != nil {
				out = append(out, r.child.stored()...)
			}
		}
	}
	out = append(out, q.f...)
	emit(q.c)
	emit(q.bq)
	for _, dq := range q.d {
		emit(dq)
	}
	out = append(out, q.l...)
	return out
}

// Contents returns the non-attrited elements in queue order: an element
// survives iff it is strictly smaller than everything that follows it
// (later arrivals attrite earlier elements >= them). The result is
// strictly increasing. Host-side; used by tests and by callers that need
// a full drain without I/O accounting.
func (q *Queue) Contents() []Elem {
	s := q.stored()
	keep := make([]bool, len(s))
	minAfter := int64(math.MaxInt64)
	for i := len(s) - 1; i >= 0; i-- {
		if s[i].Key < minAfter {
			keep[i] = true
			minAfter = s[i].Key
		}
	}
	var out []Elem
	for i, k := range keep {
		if k {
			out = append(out, s[i])
		}
	}
	return out
}

// CheckInvariants verifies invariants I.1–I.9 on q (recursively on child
// queues) and returns a description of the first violation, or "".
func (q *Queue) CheckInvariants() string {
	return q.check(true)
}

func (q *Queue) check(root bool) string {
	b := q.b
	// Buffer size bounds.
	if len(q.f) > 4*b {
		return fmt.Sprintf("F has %d > 4b elements", len(q.f))
	}
	if len(q.l) > 4*b {
		return fmt.Sprintf("L has %d > 4b elements", len(q.l))
	}
	if !sortedStrict(q.f) {
		return "F not sorted"
	}
	if !sortedStrict(q.l) {
		return "L not sorted"
	}
	// I.9: child queues carry no F or L.
	if !root && (len(q.f) > 0 || len(q.l) > 0) {
		return "I.9: child queue with non-empty F or L"
	}
	// I.8 (root queues): |F| < b iff |Q| < b.
	if root && q.size > 0 {
		if (len(q.f) < b) != (q.size < b) {
			return fmt.Sprintf("I.8: |F|=%d, |Q|=%d, b=%d", len(q.f), q.size, b)
		}
	}
	// I.7: state non-negative.
	if q.State() < 0 {
		return fmt.Sprintf("I.7: state %d < 0", q.State())
	}
	// I.6: records in C and B are simple.
	for _, r := range q.c {
		if r.child != nil {
			return "I.6: non-simple record in C"
		}
	}
	for _, r := range q.bq {
		if r.child != nil {
			return "I.6: non-simple record in B"
		}
	}
	// Record buffer bounds: [1, 4b] (the lower bound b is relaxed to 1
	// in transient states the paper allows for small queues).
	checkDeque := func(name string, dq rdeq) string {
		prev := int64(math.MinInt64)
		for _, r := range dq {
			if len(r.buf) == 0 || len(r.buf) > 4*b {
				return fmt.Sprintf("%s record size %d outside [1,4b]", name, len(r.buf))
			}
			if !sortedStrict(r.buf) {
				return name + " record buffer not sorted"
			}
			// I.2: strictly increasing across the deque.
			if r.min().Key <= prev {
				return "I.2: deque " + name + " not increasing"
			}
			prev = r.max().Key
			// I.1: child entirely above the buffer.
			if r.child != nil {
				if m, ok := minStored(r.child); ok && m <= r.max().Key {
					return "I.1: child not above record buffer"
				}
				if msg := r.child.check(false); msg != "" {
					return msg
				}
			}
		}
		return ""
	}
	if msg := checkDeque("C", q.c); msg != "" {
		return msg
	}
	if msg := checkDeque("B", q.bq); msg != "" {
		return msg
	}
	for i, dq := range q.d {
		if dq.empty() {
			return "empty dirty deque"
		}
		if msg := checkDeque(fmt.Sprintf("D%d", i+1), dq); msg != "" {
			return msg
		}
	}
	// I.3: max(F) < min(first(C)) < max(last(C)) < min(first(B)) and
	// < min(first(D1)).
	if len(q.f) > 0 && !q.c.empty() && q.f[len(q.f)-1].Key >= q.c.first().min().Key {
		return "I.3: F not below C"
	}
	if !q.c.empty() {
		top := q.c.last().max().Key
		if v, ok := minFirstB(q); ok && top >= v.Key {
			return "I.3: C not below B"
		}
		if v, ok := minFirstD1(q); ok && top >= v.Key {
			return "I.3: C not below D1"
		}
	}
	if vb, ok := minFirstB(q); ok {
		if vd, ok2 := minFirstD1(q); ok2 && vb.Key >= vd.Key {
			return "I.3: B not below D1"
		}
	}
	// I.4: min(first(D1)) is the smallest element in the dirty deques.
	if v, ok := minFirstD1(q); ok {
		for _, dq := range q.d {
			for _, r := range dq {
				if r.min().Key < v.Key {
					return "I.4: dirty element below min(first(D1))"
				}
			}
		}
	}
	// I.5: min(first(D1)) < min(L).
	if v, ok := minFirstD1(q); ok {
		if lv, ok2 := minL(q); ok2 && v.Key >= lv.Key {
			return "I.5: min(first(D1)) >= min(L)"
		}
	}
	// Size bookkeeping.
	if got := len(q.stored()); got != q.size {
		return fmt.Sprintf("size cache %d != stored %d", q.size, got)
	}
	return ""
}

func sortedStrict(s []Elem) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1].Key >= s[i].Key {
			return false
		}
	}
	return true
}

// minStored returns the smallest element physically stored in q.
func minStored(q *Queue) (int64, bool) {
	s := q.stored()
	if len(s) == 0 {
		return 0, false
	}
	m := s[0].Key
	for _, e := range s {
		if e.Key < m {
			m = e.Key
		}
	}
	return m, true
}

// BiasUntilReady applies Bias until the state satisfies Lemma 7's
// precondition (∆ >= 2, or the queue has at most two records), returning
// the prepared queue. Each Bias is O(1) I/Os and the loop runs O(1)
// times amortized; the dynamic structure runs this when (re)building a
// node's queue.
func (q *Queue) BiasUntilReady() *Queue {
	cur := q
	for guard := 0; cur.State() < 2 && cur.hasRecords(); guard++ {
		if guard > 64 {
			panic("cpqa: BiasUntilReady failed to converge")
		}
		next := bias(cur)
		if next == cur {
			break
		}
		cur = next
	}
	return cur
}

func (q *Queue) hasRecords() bool {
	if !q.c.empty() || !q.bq.empty() {
		return true
	}
	for _, dq := range q.d {
		if !dq.empty() {
			return true
		}
	}
	return false
}

// CatenateAll concatenates the queues right to left (Lemma 7):
// CatenateAndAttrite(q[0], CatenateAndAttrite(q[1], ... q[ℓ-1])).
// Callers that maintain each queue BiasUntilReady and keep critical
// records resident obtain the lemma's no-extra-I/O behaviour; the
// simulation charges whatever record traffic actually occurs.
func CatenateAll(qs []*Queue) *Queue {
	if len(qs) == 0 {
		return nil
	}
	return CatenateAllIn(qs[len(qs)-1].scope, qs)
}

// CatenateAllIn is CatenateAll allocating through the scope sc, whatever
// the operands are bound to; the result is bound to sc. An operand is
// copied only when a catenation actually derives from it, so the ones
// that are attrited outright — most of them, on random input — cost
// nothing.
func CatenateAllIn(sc *emio.Scope, qs []*Queue) *Queue {
	if len(qs) == 0 {
		return nil
	}
	acc := qs[len(qs)-1]
	for i := len(qs) - 2; ; i-- {
		if acc.scope != sc {
			acc = acc.Scoped(sc)
		}
		if i < 0 {
			return acc
		}
		acc = CatenateAndAttrite(qs[i], acc)
	}
}

// ReachableWords returns the number of words reachable from this queue
// version: record buffers (including children) plus the F/L buffers.
// This is the O((n−m)/b)-block space bound of Theorem 3. It is what the
// version needs, not what the disk holds: versions and intermediates
// that nothing references stay allocated until their owner frees them.
// Callers that run operations in an emio.Scope and Keep the surviving
// version (as dyntop does for every node) hold the disk to this figure
// plus the slack of partially shared spans; callers that do not keep
// the whole persistent history live.
func (q *Queue) ReachableWords() int {
	seen := map[*record]bool{}
	var walk func(q *Queue) int
	walk = func(q *Queue) int {
		if q == nil {
			return 0
		}
		w := len(q.f) + len(q.l)
		visit := func(dq rdeq) {
			for _, r := range dq {
				if seen[r] {
					continue
				}
				seen[r] = true
				w += len(r.buf)
				w += walk(r.child)
			}
		}
		visit(q.c)
		visit(q.bq)
		for _, dq := range q.d {
			visit(dq)
		}
		return w
	}
	return walk(q)
}
