package cpqa

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/emio"
	"repro/internal/pqa"
)

// leafQueues builds ell unscoped queues over random ascending runs — the
// shape of the §4.2 leaves — and the model of their left-to-right
// catenation.
func leafQueues(d *emio.Disk, b, ell int, rng *rand.Rand) ([]*Queue, *pqa.PQA) {
	var qs []*Queue
	model := pqa.New()
	for i := 0; i < ell; i++ {
		seen := map[int64]bool{}
		var run []Elem
		for len(run) < 1+rng.Intn(20*b) {
			if k := rng.Int63n(1 << 20); !seen[k] {
				seen[k] = true
				run = append(run, Elem{Key: k, Aux: int64(i)})
			}
		}
		sort.Slice(run, func(i, j int) bool { return run[i].Key < run[j].Key })
		qs = append(qs, FromAscending(d, b, run).BiasUntilReady())
		m := pqa.New()
		for _, e := range run {
			m.InsertAndAttrite(e)
		}
		model.CatenateAndAttrite(m)
	}
	return qs, model
}

// TestScopedOperationLeavesNothing: a catenation drained to empty inside
// a scope — a §4.2 query — answers like the model and gives back every
// block it allocated, retention or not.
func TestScopedOperationLeavesNothing(t *testing.T) {
	for _, b := range []int{1, 2, 4, 16} {
		d := newDisk()
		rng := rand.New(rand.NewSource(int64(60 + b)))
		qs, model := leafQueues(d, b, 12, rng)
		for _, retained := range []bool{false, true} {
			var ret *emio.Retention
			if retained {
				ret = d.RetainFrees()
			}
			before, beforeWords := d.LiveBlocks(), d.LiveWords()
			sc := d.NewScope()
			q := CatenateAllIn(sc, qs)
			m := model.Clone()
			for !q.Empty() {
				e, nq, _ := q.DeleteMin()
				if want, _ := m.DeleteMin(); e != want {
					t.Fatalf("b=%d: DeleteMin = %v, model %v", b, e, want)
				}
				q = nq
			}
			if m.Len() != 0 {
				t.Fatalf("b=%d: queue ran dry with %d elements left in the model", b, m.Len())
			}
			if d.LiveBlocks() == before {
				t.Fatalf("b=%d: the operation allocated nothing; the test checks nothing", b)
			}
			if kept := sc.Release(); len(kept) != 0 {
				t.Fatalf("b=%d: released scope reports %d kept spans", b, len(kept))
			}
			if d.LiveBlocks() != before || d.LiveWords() != beforeWords || d.DeferredBlocks() != 0 {
				t.Fatalf("b=%d retained=%t: disk moved %d -> %d blocks, %d -> %d words, %d deferred",
					b, retained, before, d.LiveBlocks(), beforeWords, d.LiveWords(), d.DeferredBlocks())
			}
			if retained {
				ret.Release()
			}
		}
		// The inputs are untouched: the same operation, unscoped, still works.
		checkAgainstModel(t, CatenateAll(qs), model, "inputs after scoped drains")
	}
}

// TestKeepHoldsExactlyTheSurvivor: a scoped catenation — a §4.2 node
// refresh — keeps what the surviving version reaches of the scope's
// allocations and nothing else: the survivor stays fully readable after
// the scope is gone, the disk grew by the kept spans alone, and they are
// no more than the version's own reachable words.
func TestKeepHoldsExactlyTheSurvivor(t *testing.T) {
	for _, b := range []int{1, 2, 4, 16} {
		d := newDisk()
		rng := rand.New(rand.NewSource(int64(70 + b)))
		qs, model := leafQueues(d, b, 12, rng)
		beforeWords := d.LiveWords()

		sc := d.NewScope()
		q := CatenateAllIn(sc, qs).BiasUntilReady().Keep(sc)
		allocated := d.LiveWords() - beforeWords
		kept := sc.Release()

		var keptWords int64
		for _, sp := range kept {
			keptWords += int64(sp.Words)
		}
		if got := d.LiveWords() - beforeWords; got != keptWords {
			t.Fatalf("b=%d: disk grew by %d words, kept spans total %d", b, got, keptWords)
		}
		if keptWords >= allocated {
			t.Fatalf("b=%d: kept %d of %d allocated words; the catenation left no garbage to free", b, keptWords, allocated)
		}
		if reach := int64(q.ReachableWords()); keptWords > reach {
			t.Fatalf("b=%d: kept %d words, the version reaches only %d", b, keptWords, reach)
		}
		// Draining touches every record the version reaches; a wrongly
		// freed one is an "access to unallocated block" panic.
		checkAgainstModel(t, q, model, "kept version")
		m := model.Clone()
		drain := d.NewScope()
		for cur := q.Scoped(drain); !cur.Empty(); {
			e, nq, _ := cur.DeleteMin()
			if want, _ := m.DeleteMin(); e != want {
				t.Fatalf("b=%d: DeleteMin = %v, model %v", b, e, want)
			}
			cur = nq
		}
		drain.Release()

		d.FreeSpans(kept)
		if d.LiveWords() != beforeWords {
			t.Fatalf("b=%d: freeing the kept spans left %d words, want %d", b, d.LiveWords(), beforeWords)
		}
	}
}

// TestDroppedVersionIsLoud: a freed block's id never becomes valid
// again (even when its slot is reused), so reading a version its scope
// dropped cannot silently hit someone else's data.
func TestDroppedVersionIsLoud(t *testing.T) {
	d := newDisk()
	sc := d.NewScope()
	q := FromAscendingIn(sc, 2, []Elem{{Key: 1}, {Key: 2}, {Key: 3}})
	sc.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("FindMin on a dropped version did not panic")
		}
	}()
	q.FindMin()
}
