// Package wal is the write-ahead log of the durable index: an
// append-only file of update batches, each exactly one drain of the
// async update queue (or one synchronous write, which is a batch of
// one). Logging at drain granularity is what makes durability nearly
// free — the queue already batches writes at FlushPoints boundaries,
// so the WAL adds one sequential append per structure-lock acquisition
// instead of one per point.
//
// Record format (little-endian, CRC-framed):
//
//	magic   uint32  0x314C4157 ("WAL1")
//	seq     uint64  strictly increasing, never reused
//	nDels   uint32  number of deleted points
//	nInss   uint32  number of inserted points
//	points  (nDels+nInss) × 16 bytes  (x int64, y int64; deletes first)
//	crc     uint32  IEEE CRC-32 of everything above
//
// Open scans the existing file and truncates an invalid tail — a torn
// final record from a crash mid-append, or trailing garbage — so the
// log is always left in a state where Append can continue. Everything
// before the first invalid byte is replayable; everything after it was
// never acknowledged (the append did not return), so dropping it loses
// nothing the caller was promised.
//
// Replay idempotence is by sequence number: the pager's metadata page
// records the sequence the last checkpoint covered, and recovery
// applies only records with seq > that — replaying a stream twice, or
// replaying records already folded into the snapshot, applies nothing
// twice. Reset truncates the log after a checkpoint and re-bases the
// sequence counter.
//
// Durability scope: Append hands records to the OS with a single
// positional write on the file descriptor — no user-space buffering —
// so an appended record survives any death of the process (os.Exit,
// panic, kill -9). Surviving kernel death or power loss additionally
// needs Sync, which callers opt into per-batch (core.Options.SyncWAL).
//
// All filesystem access goes through a vfs.FS (vfs.OS by default).
// Append writes the record with WriteAt at the current end of the
// valid log, never with a cursored Write, so retrying a transiently
// failed or torn append rewrites the same bytes at the same offset —
// idempotent by construction. A tear that outlives the retry budget is
// exactly what the next Open's scan truncates away.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/geom"
	"repro/internal/vfs"
)

// recordMagic starts every record ("WAL1", little-endian).
const recordMagic uint32 = 0x314C4157

// headerSize is the fixed prefix before the points: magic, seq, nDels,
// nInss.
const headerSize = 4 + 8 + 4 + 4

// pointSize is the on-disk size of one point (x, y as int64).
const pointSize = 16

// Record is one logged update batch: the deletes and inserts of a
// single drain. Deletes apply before inserts, exactly as the queue
// drains them (a delete-then-reinsert of the same point depends on it).
type Record struct {
	// Seq is the record's sequence number; strictly increasing across
	// the life of the log, never reused even across Reset.
	Seq uint64
	// Dels are the points the batch deletes (they may miss; a replay
	// through the presence-check-first Apply path applies nothing
	// for a miss).
	Dels []geom.Point
	// Inss are the points the batch inserts.
	Inss []geom.Point
}

// Ops returns the number of operations in the record.
func (r Record) Ops() int { return len(r.Dels) + len(r.Inss) }

// ScanResult reports what Open found in an existing log file.
type ScanResult struct {
	// Records are the valid records, in append order.
	Records []Record
	// Torn reports that the file ended in an invalid or incomplete
	// record, which Open truncated away. A torn tail is the expected
	// signature of a crash mid-append, not corruption of history:
	// records are CRC-framed, so the prefix before the tear is intact.
	Torn bool
	// DroppedBytes is the size of the truncated tail.
	DroppedBytes int64
}

// Log is an append-only write-ahead log backed by one file.
type Log struct {
	f       vfs.File
	path    string
	retry   vfs.RetryPolicy
	retries vfs.RetryCounters
	seq     uint64 // last assigned sequence number
	size    int64  // current valid file size
	buf     []byte // append encoding buffer, reused
}

// Open opens the log at path on the real filesystem with the default
// retry policy. See OpenFS.
func Open(path string) (*Log, ScanResult, error) {
	return OpenFS(path, vfs.OS, vfs.RetryPolicy{})
}

// OpenFS opens (creating if necessary) the log at path on fsys (nil
// means vfs.OS), retrying transient I/O failures per retry (the zero
// policy means vfs.DefaultRetryPolicy), and scans it, truncating an
// invalid tail so the file ends on a record boundary. The returned
// ScanResult holds every valid record for replay; the next Append
// continues after the highest sequence seen. Callers whose checkpoints
// outpaced the log re-base with SetSeq.
func OpenFS(path string, fsys vfs.FS, retry vfs.RetryPolicy) (*Log, ScanResult, error) {
	if fsys == nil {
		fsys = vfs.OS
	}
	l := &Log{path: path, retry: retry}
	var f vfs.File
	if err := l.retry.Do(&l.retries, func() error {
		var err error
		f, err = fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		return err
	}); err != nil {
		return nil, ScanResult{}, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l.f = f
	res, err := l.scan()
	if err != nil {
		f.Close() //errlint:ok open failed half-way; best-effort release
		return nil, ScanResult{}, err
	}
	return l, res, nil
}

// scan reads the whole file, validating records and truncating the
// tail at the first invalid byte.
func (l *Log) scan() (ScanResult, error) {
	var size int64
	if err := l.retry.Do(&l.retries, func() error {
		var err error
		size, err = l.f.Size()
		return err
	}); err != nil {
		return ScanResult{}, fmt.Errorf("wal: size %s: %w", l.path, err)
	}
	data := make([]byte, size)
	if size > 0 {
		if err := l.retry.Do(&l.retries, func() error {
			_, err := l.f.ReadAt(data, 0)
			return err
		}); err != nil {
			return ScanResult{}, fmt.Errorf("wal: scan %s: %w", l.path, err)
		}
	}
	var res ScanResult
	off := 0
	for {
		rec, n, ok := decodeRecord(data[off:])
		if !ok {
			break
		}
		// A sequence that does not increase is not a record that a
		// Log ever appended; treat it as the start of an invalid tail.
		if rec.Seq <= l.seq && len(res.Records) > 0 {
			break
		}
		res.Records = append(res.Records, rec)
		l.seq = rec.Seq
		off += n
	}
	if off < len(data) {
		res.Torn = true
		res.DroppedBytes = int64(len(data) - off)
		if err := l.retry.Do(&l.retries, func() error {
			return l.f.Truncate(int64(off))
		}); err != nil {
			return res, fmt.Errorf("wal: truncate torn tail of %s: %w", l.path, err)
		}
	}
	l.size = int64(off)
	return res, nil
}

// decodeRecord decodes one record from the front of data, returning
// its encoded length and whether it was valid and complete.
func decodeRecord(data []byte) (Record, int, bool) {
	if len(data) < headerSize {
		return Record{}, 0, false
	}
	if binary.LittleEndian.Uint32(data[0:4]) != recordMagic {
		return Record{}, 0, false
	}
	seq := binary.LittleEndian.Uint64(data[4:12])
	nDels := int(binary.LittleEndian.Uint32(data[12:16]))
	nInss := int(binary.LittleEndian.Uint32(data[16:20]))
	// Reject absurd counts before computing a length that could
	// overflow or force a huge allocation on garbage input.
	if nDels < 0 || nInss < 0 || nDels+nInss > (len(data)-headerSize)/pointSize {
		return Record{}, 0, false
	}
	total := headerSize + (nDels+nInss)*pointSize + 4
	if len(data) < total {
		return Record{}, 0, false
	}
	want := binary.LittleEndian.Uint32(data[total-4 : total])
	if crc32.ChecksumIEEE(data[:total-4]) != want {
		return Record{}, 0, false
	}
	rec := Record{Seq: seq}
	off := headerSize
	decode := func(n int) []geom.Point {
		if n == 0 {
			return nil
		}
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i].X = geom.Coord(binary.LittleEndian.Uint64(data[off : off+8]))
			pts[i].Y = geom.Coord(binary.LittleEndian.Uint64(data[off+8 : off+16]))
			off += pointSize
		}
		return pts
	}
	rec.Dels = decode(nDels)
	rec.Inss = decode(nInss)
	return rec, total, true
}

// Append logs one update batch — deletes applying before inserts —
// and returns its sequence number. The record reaches the OS before
// Append returns (one positional write, no user-space buffering), so
// an acknowledged batch survives process death; call Sync to also
// survive power loss. Transient write failures are retried in place:
// the record always lands at the same offset, so a torn first attempt
// is simply overwritten by the retry. An empty batch is rejected: it
// would burn a sequence number for a record that changes nothing.
func (l *Log) Append(dels, inss []geom.Point) (uint64, error) {
	if len(dels)+len(inss) == 0 {
		return 0, fmt.Errorf("wal: empty batch")
	}
	seq := l.seq + 1
	total := headerSize + (len(dels)+len(inss))*pointSize + 4
	if cap(l.buf) < total {
		l.buf = make([]byte, total)
	}
	b := l.buf[:total]
	binary.LittleEndian.PutUint32(b[0:4], recordMagic)
	binary.LittleEndian.PutUint64(b[4:12], seq)
	binary.LittleEndian.PutUint32(b[12:16], uint32(len(dels)))
	binary.LittleEndian.PutUint32(b[16:20], uint32(len(inss)))
	off := headerSize
	for _, pts := range [][]geom.Point{dels, inss} {
		for _, p := range pts {
			binary.LittleEndian.PutUint64(b[off:off+8], uint64(p.X))
			binary.LittleEndian.PutUint64(b[off+8:off+16], uint64(p.Y))
			off += pointSize
		}
	}
	binary.LittleEndian.PutUint32(b[total-4:total], crc32.ChecksumIEEE(b[:total-4]))
	if err := l.retry.Do(&l.retries, func() error {
		_, err := l.f.WriteAt(b, l.size)
		return err
	}); err != nil {
		// The write may have landed partially; the torn record is
		// exactly what the next Open's scan truncates away, and the
		// caller treats the batch as unacknowledged.
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.seq = seq
	l.size += int64(total)
	return seq, nil
}

// Sync flushes the log to stable storage (fsync), retrying transient
// failures.
func (l *Log) Sync() error {
	if err := l.retry.Do(&l.retries, l.f.Sync); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// Seq returns the last assigned sequence number.
func (l *Log) Seq() uint64 { return l.seq }

// Size returns the current log size in bytes.
func (l *Log) Size() int64 { return l.size }

// Retries exposes the transient-failure counters of the log's retry
// loop; DB.Resilience aggregates them.
func (l *Log) Retries() *vfs.RetryCounters { return &l.retries }

// SetSeq raises the sequence counter to at least seq. Recovery uses it
// when the checkpoint metadata names a higher sequence than the
// (truncated, possibly empty) log file holds, so new appends never
// reuse a sequence a previous checkpoint already covered.
func (l *Log) SetSeq(seq uint64) {
	if seq > l.seq {
		l.seq = seq
	}
}

// Reset truncates the log after a checkpoint: every record is covered
// by the snapshot, so the file restarts empty. The sequence counter is
// NOT reset — sequences are never reused, which is what keeps replay
// idempotent across overlapping histories.
func (l *Log) Reset() error {
	if err := l.retry.Do(&l.retries, func() error {
		return l.f.Truncate(0)
	}); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	l.size = 0
	return nil
}

// Close syncs and closes the file.
func (l *Log) Close() error {
	if err := l.retry.Do(&l.retries, l.f.Sync); err != nil {
		l.f.Close() //errlint:ok close after failed sync; sync error wins
		return fmt.Errorf("wal: close sync: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}
