package cpqa

import "repro/internal/emio"

// This file ties queue versions to block lifetime. Every operation
// returns a new version and leaves its inputs and intermediates intact,
// so on their own the versions only accumulate. An operation that wants
// its garbage back runs in an emio.Scope (Scoped, FromAscendingIn,
// CatenateAllIn), marks what the surviving version needs (Keep)
// and releases the scope; everything else the operation allocated is
// freed, unwritten if it never left memory.

// Scoped returns q bound to the allocation scope sc: every version
// derived from the result allocates through sc. q itself is unchanged.
// A catenation allocates in its right operand's context; CatenateAllIn
// binds a whole Lemma 7 catenation.
func (q *Queue) Scoped(sc *emio.Scope) *Queue {
	nq := *q
	nq.scope = sc
	return &nq
}

// Keep marks every span of sc that is reachable from q as kept, unbinds
// q from the scope — in place: until the caller publishes it, a version
// an operation produced is the caller's alone — and returns it, ready to
// outlive the scope. Whole spans are kept, never single records: the
// records FromAscending packs alias one span. The walk descends only into
// records sc created — records are immutable, so an older one reaches only
// older blocks — which makes it O(records the operation created + the
// top-level deque spines).
func (q *Queue) Keep(sc *emio.Scope) *Queue {
	q.keep(sc)
	if q.scope != nil { // an unbound q may be a published version: never write to it
		q.scope = nil
	}
	return q
}

func (q *Queue) keep(sc *emio.Scope) {
	if q.fWords > 0 {
		sc.Keep(q.fBlock)
	}
	if q.lWords > 0 {
		sc.Keep(q.lBlock)
	}
	visit := func(dq rdeq) {
		for _, r := range dq {
			if sc.Keep(r.block) && r.child != nil {
				r.child.keep(sc)
			}
		}
	}
	visit(q.c)
	visit(q.bq)
	for _, dq := range q.d {
		visit(dq)
	}
}
