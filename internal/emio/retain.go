// Deferred frees: the storage half of snapshot reads. A confluently
// persistent structure never mutates its records, so a point-in-time
// view of it is just a root captured while the live structure moves on
// — EXCEPT that the live structure frees what it owns and no longer
// needs: dyntop leaf spans and representative blocks on every rewrite,
// whole trees (queue versions included) when foursided replaces a
// secondary or a shard is retired. Freeing such a span while a snapshot
// still walks it would trip the access-to-unallocated panic that guards
// the simulated machine.
//
// A Retention closes that window with epoch semantics instead of
// per-block reference counts: opening one (RetainFrees) stamps the
// disk's epoch sequence, and every Free/FreeSpan that arrives while any
// retention is open is DEFERRED — the block stays live (readable,
// still charged to LiveWords) and is tagged with the current epoch.
// A deferred block is actually released once every retention opened
// before its free has been released: a retention opened AFTER the free
// cannot reference the block (the live structure had already dropped
// its last pointer when that snapshot was pinned), so only the earlier
// epochs hold it. Releases are O(deferred) on the last holder and O(1)
// amortized otherwise; the tags are monotone, so the deferred queue
// drains from the front.
//
// The epoch trade: a block freed during a snapshot's lifetime is held
// until that snapshot drops even if the snapshot never touches it.
// That is the same slack a generation/epoch reclamation scheme accepts
// everywhere (RCU, epoch-based memory reclamation), and it is bounded:
// DeferredBlocks is exposed exactly so tests can prove the count
// returns to zero at quiescence — no leaked retired spans.
package emio

import "fmt"

// deferredFree is one block whose Free arrived while a retention was
// open: it is released once every retention with seq <= epoch is gone.
type deferredFree struct {
	id    BlockID
	epoch uint64
}

// Retention defers every Free on the disk until released. Obtained
// from Disk.RetainFrees; Release is idempotent. The zero value is not
// usable.
type Retention struct {
	d   *Disk
	seq uint64
}

// RetainFrees opens a retention: until it is released, blocks freed on
// the disk stay readable (deferred) instead of being released. Callers
// pinning a snapshot open the retention FIRST, then capture their
// roots, so no free can slip between the two. Safe on a guarded disk
// concurrently with operations; on an unguarded disk the usual
// single-goroutine contract applies.
func (d *Disk) RetainFrees() *Retention {
	d.lock()
	defer d.unlock()
	d.retainSeq++
	r := &Retention{d: d, seq: d.retainSeq}
	d.retained[r.seq] = struct{}{}
	return r
}

// Release ends the retention. Deferred frees whose epoch no open
// retention predates are applied now; the last release applies them
// all. Releasing twice is a no-op.
func (r *Retention) Release() {
	d := r.d
	d.lock()
	defer d.unlock()
	if _, open := d.retained[r.seq]; !open {
		return
	}
	delete(d.retained, r.seq)
	// minOpen is the oldest still-open retention; deferred frees
	// stamped at or before every open retention's birth are clear.
	minOpen := d.retainSeq + 1
	for seq := range d.retained {
		if seq < minOpen {
			minOpen = seq
		}
	}
	// A retention opened before a free keeps it deferred; the tags are
	// monotone, so everything after it waits too. Each entry leaves the
	// queue once it is reclaimed. reclaim panics on a still-pinned block
	// before it touches the slot, so a caller that recovers finds the
	// reclaimed entries gone and the pinned one still deferred.
	for len(d.deferred) > 0 && d.deferred[0].epoch < minOpen {
		d.reclaim(d.deferred[0].id)
		d.deferred = d.deferred[1:]
	}
}

// Retained reports the number of open retentions.
func (d *Disk) Retained() int {
	d.lock()
	defer d.unlock()
	return len(d.retained)
}

// DeferredBlocks reports the number of blocks whose Free is deferred
// behind open retentions. At quiescence with no open retentions it is
// zero — the leak check snapshot tests assert.
func (d *Disk) DeferredBlocks() int {
	d.lock()
	defer d.unlock()
	return len(d.deferred)
}

// deferFree queues id for release once the retentions open now are
// gone. The block stays live and readable. Caller holds the lock.
func (d *Disk) deferFree(id BlockID) {
	sl := d.slots.at(uint64(d.mustSlot(id, "Free of unknown block")))
	if sl.words < 0 {
		panic(fmt.Sprintf("emio: double Free of deferred block %d", id))
	}
	sl.words = -sl.words
	d.deferred = append(d.deferred, deferredFree{id: id, epoch: d.retainSeq})
}
