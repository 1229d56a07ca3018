// Durable storage for core: the real-file layer behind Options.Dir.
//
// The simulated machine (emio) is bookkeeping-only — it counts the
// I/Os the theorems bound but stores no payloads — so durability is
// LOGICAL: what persists is the point set and the update history, not
// page images of the structures.
//
//   - skyline.pages (internal/pager): the x-sorted live point set as of
//     the last checkpoint and the WAL sequence it covers, in one
//     sequential file under a CRC-32C; a damaged file is
//     pager.ErrCorrupt, which Open returns unchanged.
//   - skyline.wal (internal/wal): one record per update batch the
//     index acknowledged after that checkpoint — the async queue's
//     drain batches, or individual writes when synchronous.
//
// An engine.LogBackend in the stack appends every batch to the WAL
// BEFORE applying it, so the two files always satisfy: snapshot state
// + WAL records with seq > meta.WALSeq = every acknowledged write.
// Recovery rebuilds the structures from the snapshot and replays the
// WAL tail, one Apply per record; a checkpoint
// (DB.Flush, DB.Close) snapshots the live set and truncates the WAL.
package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/geom"
	"repro/internal/pager"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// File names inside Options.Dir.
const (
	pagesFile = "skyline.pages"
	walFile   = "skyline.wal"
)

// RecoveryStats reports what opening a durable directory involved.
type RecoveryStats struct {
	// Recovered is true when the directory already held an index: the
	// structures were rebuilt from its snapshot and WAL rather than
	// from seed points.
	Recovered bool
	// SnapshotPoints is the point count of the checkpoint snapshot the
	// rebuild started from.
	SnapshotPoints int
	// RecordsReplayed counts the WAL records applied on top of the
	// snapshot — the acknowledged batches a crash left un-checkpointed.
	RecordsReplayed int
	// ReplayedInserts and ReplayedDeletes count the point writes those
	// records carried (deletes count hits: a replayed miss applies
	// nothing, by the presence-check-first rule).
	ReplayedInserts int
	ReplayedDeletes int
	// TornTail is true when the WAL ended mid-record — the signature
	// of a crash during an append. The torn bytes were never
	// acknowledged; they are dropped and counted here.
	TornTail     bool
	DroppedBytes int64
	// WALSeq is the sequence number recovery resumed at: new batches
	// get strictly larger sequences, so re-replaying an old record is
	// impossible.
	WALSeq uint64
}

// durable carries the opened storage from openDurable to the point in
// Open where the engine stack exists to replay into.
type durable struct {
	pager *pager.Pager
	wal   *wal.Log
	sink  *walSink

	// base is what the structures build from: the seed points (fresh
	// directory) or the checkpoint snapshot (existing one). x-sorted.
	base []geom.Point
	// replay holds the WAL records not covered by the snapshot.
	replay []wal.Record
	recov  RecoveryStats
}

// openDurable opens (or initializes) the two files under opts.Dir on
// opts.FS (nil means the real filesystem) with opts.Retry bounding
// transient-failure retries. seed is the caller's x-sorted seed set; a
// fresh directory checkpoints it immediately — the acknowledged-write
// guarantee starts at Open, not at the first Flush — while an existing
// directory rejects a non-empty seed rather than guess how to merge
// two point sets.
func openDurable(opts Options, seed []geom.Point) (*durable, error) {
	dir := opts.Dir
	fsys := opts.FS
	if fsys == nil {
		fsys = vfs.OS
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: create durable dir: %w", err)
	}
	pagesPath := filepath.Join(dir, pagesFile)
	walPath := filepath.Join(dir, walFile)
	_, statErr := fsys.Stat(pagesPath)
	fresh := errors.Is(statErr, os.ErrNotExist)
	if fresh {
		// A WAL without a page file is ambiguous — a half-deleted
		// index, or foreign files. Refuse BEFORE creating anything, so
		// the refused open leaves the directory exactly as it found it.
		if st, err := fsys.Stat(walPath); err == nil && st.Size() > 0 {
			return nil, fmt.Errorf("core: %s has a WAL but no page file; refusing to guess", dir)
		}
	}
	p, err := pager.OpenFS(pagesPath, fsys, opts.Retry)
	if err != nil {
		return nil, err
	}
	l, scan, err := wal.OpenFS(walPath, fsys, opts.Retry)
	if err != nil {
		p.Close() //errlint:ok open failed half-way; best-effort release
		return nil, err
	}
	d := &durable{pager: p, wal: l, sink: &walSink{log: l, sync: opts.SyncWAL}}
	fail := func(err error) (*durable, error) {
		l.Close() //errlint:ok open failed half-way; the original error wins
		p.Close() //errlint:ok open failed half-way; the original error wins
		return nil, err
	}

	if fresh {
		if err := p.WriteSnapshot(seed, l.Seq()); err != nil {
			return fail(err)
		}
		d.base = seed
		return d, nil
	}

	if len(seed) != 0 {
		return fail(fmt.Errorf("core: durable directory %s already holds an index; open it with no seed points", dir))
	}
	snap, err := p.ReadSnapshot()
	if err != nil {
		return fail(err)
	}
	meta := p.Meta()
	d.base = snap
	d.recov = RecoveryStats{
		Recovered:      true,
		SnapshotPoints: len(snap),
		TornTail:       scan.Torn,
		DroppedBytes:   scan.DroppedBytes,
	}
	// The snapshot covers every record with seq <= meta.WALSeq; replay
	// only the tail. (A WAL older than the snapshot appears when a
	// checkpoint's truncate was lost — records below the cut replay as
	// duplicates unless filtered, which is exactly why sequences exist.)
	for _, rec := range scan.Records {
		if rec.Seq <= meta.WALSeq {
			continue
		}
		d.replay = append(d.replay, rec)
	}
	// An empty-after-checkpoint WAL scans to seq 0; new appends must
	// still land above the sequences the snapshot absorbed.
	l.SetSeq(meta.WALSeq)
	return d, nil
}

// walSink adapts *wal.Log to engine.UpdateLog — the LogBackend's
// append target.
type walSink struct {
	log  *wal.Log
	sync bool
}

func (s *walSink) LogBatch(dels, inss []geom.Point) error {
	if _, err := s.log.Append(dels, inss); err != nil {
		return err
	}
	if s.sync {
		if err := s.log.Sync(); err != nil {
			return err
		}
	}
	if testAfterWALAppend != nil {
		testAfterWALAppend()
	}
	return nil
}

// testAfterWALAppend, when non-nil, runs after a WAL append returns
// and before the batch is applied to the structures — the
// crash-injection tests' hook for dying in the window where a write is
// durable but not yet indexed. Recovery must replay it.
var testAfterWALAppend func()

// checkpoint makes the snapshot current and empties the WAL: the live
// set is materialized under the LogBackend's write mutex and installed
// by the pager's shadow-file rename — crash-atomic, so the checkpoint
// file at every instant holds either the old snapshot or the new one,
// each consistent with the WAL sequence its header records — and only
// then is the WAL truncated. A crash before the rename recovers the
// old snapshot and replays the full WAL tail; a crash after the rename
// but before the truncate replays nothing (the sequence filter in
// openDurable skips records the new snapshot covers).
func (db *DB) checkpoint() error {
	return db.logb.Checkpoint(func(live []geom.Point) error {
		if err := db.pager.WriteSnapshot(live, db.wal.Seq()); err != nil {
			return err
		}
		return db.wal.Reset()
	})
}

// Recover reports how the index came back from Options.Dir: zero
// unless the directory already held an index, in which case it counts
// the snapshot and the replayed WAL tail. Useful for asserting crash
// recovery actually exercised the replay path.
func (db *DB) Recover() RecoveryStats { return db.recov }

// WAL exposes the write-ahead log, or nil without Options.Dir.
func (db *DB) WAL() *wal.Log { return db.wal }

// cleanup releases everything a partially-constructed DB owns, in
// reverse construction order: the queue's background drainer first
// (nothing may apply writes once the layers below are gone), then the
// engines' in-flight tasks, then the real files. Open defers it on
// every error return so no construction failure leaks a goroutine or
// file descriptor; it is also the failure-path twin of Close.
func (db *DB) cleanup() {
	if db.queue != nil {
		db.queue.Close() //errlint:ok failure-path teardown; the construction error wins
	}
	db.quiesce()
	if db.wal != nil {
		db.wal.Close() //errlint:ok failure-path teardown; the construction error wins
	}
	if db.pager != nil {
		db.pager.Close() //errlint:ok failure-path teardown; the construction error wins
	}
}
