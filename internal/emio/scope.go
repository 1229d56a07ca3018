// Scopes: block lifetime for operations that build more than they keep.
// A confluently persistent structure answers every operation by deriving
// new versions, and most of what one operation derives — catenation
// intermediates, a query's drained queue, partial-leaf queues — is dead
// the moment the operation returns. A Scope records the spans one
// operation allocates and, on Release, frees all of them except the
// ones the caller marked with Keep. A span that is never kept and never
// evicted in between leaves the frame table unwritten (see Free), which
// is the paper's accounting: scratch that fits in memory costs no I/O.
//
// A scratch scope (NewScratchScope) serves an operation that keeps
// nothing, such as a query: its spans of at most B words are packed
// blocks, filled into shared frames in allocation order, so scratch of
// W words in small records takes about ⌈W/B⌉ frames rather than one
// frame a record, and evicts that much less of the structures' working
// set. Each packed block keeps its own id, words and Free.
//
// A Scope belongs to one operation, not to the disk: snapshot reads run
// beside a writer on the same guarded disk, and each must release only
// what it allocated itself. The Scope's own state is unsynchronized (one
// goroutine drives an operation); its calls into the Disk take the
// disk's lock as usual.
package emio

import "sort"

// Span is a run of consecutive blocks obtained from one AllocSpan call:
// the unit structures allocate and free in.
type Span struct {
	ID    BlockID
	Words int
}

// blocks returns the number of blocks AllocSpan allocated for the span:
// ceil(words/B), and one block even for an empty span.
func (c Config) blocks(sp Span) int {
	if n := c.BlocksFor(sp.Words); n > 0 {
		return n
	}
	return 1
}

// FreeSpans frees every span in the list (see FreeSpan).
func (d *Disk) FreeSpans(spans []Span) {
	if len(spans) == 0 {
		return
	}
	d.lock()
	defer d.unlock()
	for _, sp := range spans {
		for i := 0; i < d.cfg.blocks(sp); i++ {
			d.free(sp.ID + BlockID(i))
		}
	}
}

// Scope is the allocation context of one operation. Obtain one from
// Disk.NewScope, allocate through it, Keep what outlives the operation,
// and Release it exactly once.
type Scope struct {
	d *Disk
	// spans is in allocation order, which is ascending ID order because
	// a BlockID leads with its allocation sequence.
	spans    []scopeSpan
	released bool
	// scratch marks a scope from NewScratchScope. shared is the block
	// whose frame its next small span joins, and used the words that
	// frame holds.
	scratch bool
	shared  BlockID
	used    int
	// first backs spans until an operation allocates more than it holds,
	// so that a typical operation's scope is one host allocation.
	first [4]scopeSpan
}

type scopeSpan struct {
	Span
	kept bool
}

// NewScope opens an allocation scope on the disk.
func (d *Disk) NewScope() *Scope {
	s := &Scope{d: d}
	s.spans = s.first[:0]
	return s
}

// NewScratchScope opens an allocation scope for an operation that keeps
// nothing. A span of at most B words is a packed block: it joins the
// frame of the scope's last packed block while that block is live and
// resident and the frame's words stay within B, and starts a frame of
// its own otherwise. Reads, writes, pins and admissions of a packed
// block land on the frame it shares. Keep panics.
func (d *Disk) NewScratchScope() *Scope {
	s := d.NewScope()
	s.scratch = true
	return s
}

// Disk returns the disk the scope allocates on.
func (s *Scope) Disk() *Disk { return s.d }

// AllocSpan is Disk.AllocSpan, recorded in the scope; in a scratch
// scope a span of at most B words is packed (NewScratchScope).
func (s *Scope) AllocSpan(words int) BlockID {
	if s.released {
		panic("emio: AllocSpan on a released scope")
	}
	var id BlockID
	if s.scratch && words <= s.d.cfg.B {
		id = s.allocPacked(max(1, words))
	} else {
		id = s.d.AllocSpan(words)
	}
	s.spans = append(s.spans, scopeSpan{Span: Span{ID: id, Words: words}})
	return id
}

// allocPacked allocates a packed block of w words in the frame of the
// scope's last packed block, or in a frame of its own when that one has
// no room for w more words or is freed or evicted.
func (s *Scope) allocPacked(w int) BlockID {
	share := s.shared
	if s.used+w > s.d.cfg.B {
		share = 0
	}
	s.d.lock()
	defer s.d.unlock()
	id, shared := s.d.allocPacked(w, share)
	if shared != s.shared {
		s.shared, s.used = shared, 0
	}
	s.used += w
	return id
}

// Keep marks the span containing block id as outliving the scope and
// reports whether the scope allocated it. A false result is how a
// reachability walk knows to stop: an immutable record the scope did
// not create can only reference blocks older than the scope. Keep on a
// scratch scope panics.
func (s *Scope) Keep(id BlockID) bool {
	if s.scratch {
		panic("emio: Keep on a scratch scope")
	}
	// The last span starting at or before id is the only candidate.
	i := sort.Search(len(s.spans), func(j int) bool { return s.spans[j].ID > id }) - 1
	if i < 0 {
		return false
	}
	if sp := s.spans[i].Span; id >= sp.ID+BlockID(s.d.cfg.blocks(sp)) {
		return false
	}
	s.spans[i].kept = true
	return true
}

// Release ends the scope: every span not kept is freed, and the kept
// spans are returned for the caller to own (and free, eventually). The
// dropped spans bypass retention deferral — nothing outside the
// operation ever held a pointer to them, so no pinned snapshot can be
// reading them. Dropping a span that is still pinned panics, as Free
// does: release after the operation's unpins.
func (s *Scope) Release() (kept []Span) {
	if s.released {
		panic("emio: scope released twice")
	}
	s.released = true
	d := s.d
	d.lock()
	defer d.unlock()
	for _, sp := range s.spans {
		if sp.kept {
			kept = append(kept, sp.Span)
			continue
		}
		for j := 0; j < d.cfg.blocks(sp.Span); j++ {
			d.reclaim(sp.ID + BlockID(j))
		}
	}
	s.spans = nil
	return kept
}
