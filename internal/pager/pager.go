// Package pager stores the durable index's checkpoint: one data file
// holding the x-sorted point set and the WAL sequence number it covers.
// The emio.Disk simulation is bookkeeping-only — structures hold their
// payloads in host memory — so there are no structure pages to store;
// Open rebuilds every structure from the point set (§2.3's SABE builds
// from exactly that sorted run in O(n/B) I/Os), and the WAL sequence
// tells recovery which log records the snapshot already includes.
//
// The file is written and read sequentially, in one pass each. Format 3
// is, all integers little-endian:
//
//	magic "SKYPAGE1" | version u32 = 3 | walSeq u64 | points u64 |
//	points × (x i64, y i64), x-sorted | CRC-32C over every byte before it
//
// Open and ReadSnapshot read the whole file and check its length
// (exactly header + 16·points + 4 bytes) and its checksum before they
// trust a field of it, so a damaged checkpoint is an ErrCorrupt error
// and never becomes the index. Bad magic, truncation, trailing bytes
// and any version other than 3 are ErrCorrupt too: format 1 (a
// checksum over the metadata page only) and format 2 (4 KB pages, a
// checksum over the data pages kept in page 0) are refused, not read.
//
// Snapshot installs are crash-atomic: WriteSnapshot writes the whole
// new file into a shadow beside the data file, fsyncs it, and
// rename(2)s it over the data file (then fsyncs the directory). The
// live file is never written in place, so a crash anywhere leaves
// either the complete old snapshot (whose WAL sequence is still
// consistent with it — recovery replays the longer WAL suffix onto it
// and converges to the same state) or the complete new one. A shadow
// file orphaned by such a crash is deleted at the next Open; the data
// file is always the authority.
//
// All filesystem access goes through a vfs.FS (vfs.OS by default), so
// tests and resilience experiments can stand a vfs.FaultFS between the
// pager and the disk. Transient failures (see vfs.Transient) are
// absorbed below the API with bounded exponential backoff
// (vfs.RetryPolicy); every write here is positional, so a retry at the
// same offset is idempotent. Errors that escape the retry loop are
// fatal and surface to the caller. The pager has no test hooks:
// crash-injection tests die inside vfs.FaultFS.Hook instead.
package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/geom"
	"repro/internal/vfs"
)

// shadowSuffix names the shadow file WriteSnapshot builds next to the
// data file before renaming it into place.
const shadowSuffix = ".tmp"

// magic opens every data file.
var magic = [8]byte{'S', 'K', 'Y', 'P', 'A', 'G', 'E', '1'}

// version is the only file format version Open accepts.
const version uint32 = 3

// A file of n points is headerSize + 16n + crcSize bytes: magic,
// version, WAL sequence and point count; the points; the checksum.
const (
	headerSize = 28
	crcSize    = 4
)

// castagnoli is the CRC-32C table of the trailing checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a data file that fails validation: a bad magic
// string, an unsupported format version (formats 1 and 2 included), a
// checksum mismatch, or a length that does not match its point count.
var ErrCorrupt = errors.New("pager: corrupt data file")

// Meta is the header of the data file.
type Meta struct {
	// Version is the file format version (currently 3).
	Version uint32
	// WALSeq is the last WAL sequence number whose effects the
	// snapshot includes; recovery replays only records after it.
	WALSeq uint64
	// Points is the number of points in the snapshot.
	Points uint64
}

// Pager is the checkpoint file of one durable index.
type Pager struct {
	fs      vfs.FS
	f       vfs.File
	path    string
	retry   vfs.RetryPolicy
	retries vfs.RetryCounters
	meta    Meta
}

// Open opens the data file at path on the real filesystem with the
// default retry policy. frames is ignored. See OpenFS.
func Open(path string, frames int) (*Pager, error) {
	return OpenFS(path, vfs.OS, vfs.RetryPolicy{})
}

// OpenFS opens (creating if necessary) the data file at path on fsys
// (nil means vfs.OS), retrying transient I/O failures per retry (the
// zero policy means vfs.DefaultRetryPolicy). A fresh file is
// initialized with an empty, fsynced snapshot; an existing file is
// read and validated in full (magic, version, length, checksum).
func OpenFS(path string, fsys vfs.FS, retry vfs.RetryPolicy) (*Pager, error) {
	if fsys == nil {
		fsys = vfs.OS
	}
	p := &Pager{fs: fsys, path: path, retry: retry}
	// A shadow file here is a snapshot install a crash interrupted
	// before the rename; the data file is the authority, the shadow is
	// garbage.
	if err := fsys.Remove(path + shadowSuffix); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("pager: remove stale shadow of %s: %w", path, err)
	}
	if err := p.retry.Do(&p.retries, func() error {
		var err error
		p.f, err = fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		return err
	}); err != nil {
		return nil, fmt.Errorf("pager: open %s: %w", path, err)
	}
	b, err := p.readAll()
	switch {
	case err != nil:
	case len(b) == 0:
		// Fresh file: write an empty snapshot, so that a reopen racing
		// a crash before the first checkpoint finds a valid one.
		p.meta = Meta{Version: version}
		if err = p.writeAll(p.f, encode(nil, 0)); err != nil {
			break
		}
		if err = p.retry.Do(&p.retries, p.f.Sync); err != nil {
			err = fmt.Errorf("pager: sync fresh %s: %w", path, err)
		}
	default:
		p.meta, _, err = p.decode(b)
	}
	if err != nil {
		p.f.Close() //errlint:ok open failed half-way; best-effort release
		return nil, err
	}
	return p, nil
}

// Meta returns the header read at Open or ReadSnapshot, or written by
// the last WriteSnapshot.
func (p *Pager) Meta() Meta { return p.meta }

// Retries exposes the transient-failure counters of the pager's retry
// loop; DB.Resilience aggregates them.
func (p *Pager) Retries() *vfs.RetryCounters { return &p.retries }

// Close closes the file; every snapshot is already durable.
func (p *Pager) Close() error {
	if err := p.f.Close(); err != nil {
		return fmt.Errorf("pager: close %s: %w", p.path, err)
	}
	return nil
}

// encode lays out the format-3 file holding pts and walSeq.
func encode(pts []geom.Point, walSeq uint64) []byte {
	b := make([]byte, headerSize, headerSize+16*len(pts)+crcSize)
	copy(b, magic[:])
	binary.LittleEndian.PutUint32(b[8:], version)
	binary.LittleEndian.PutUint64(b[12:], walSeq)
	binary.LittleEndian.PutUint64(b[20:], uint64(len(pts)))
	for _, pt := range pts {
		b = binary.LittleEndian.AppendUint64(b, uint64(pt.X))
		b = binary.LittleEndian.AppendUint64(b, uint64(pt.Y))
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// decode validates a whole data file and returns its header and the
// bytes of its points.
func (p *Pager) decode(b []byte) (Meta, []byte, error) {
	corrupt := func(format string, args ...any) (Meta, []byte, error) {
		return Meta{}, nil, fmt.Errorf("%w: %s: %s", ErrCorrupt, p.path, fmt.Sprintf(format, args...))
	}
	if len(b) < headerSize+crcSize {
		return corrupt("%d bytes, shorter than an empty snapshot", len(b))
	}
	if [8]byte(b[:8]) != magic {
		return corrupt("not a skyline checkpoint (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != version {
		return corrupt("format version %d, want %d", v, version)
	}
	m := Meta{
		Version: version,
		WALSeq:  binary.LittleEndian.Uint64(b[12:20]),
		Points:  binary.LittleEndian.Uint64(b[20:28]),
	}
	body := b[headerSize : len(b)-crcSize]
	if len(body)%16 != 0 || uint64(len(body)/16) != m.Points {
		return corrupt("%d points in %d bytes (truncated or trailing bytes)", m.Points, len(b))
	}
	if crc32.Checksum(b[:len(b)-crcSize], castagnoli) != binary.LittleEndian.Uint32(b[len(b)-crcSize:]) {
		return corrupt("checksum mismatch")
	}
	return m, body, nil
}

// readAll reads the whole data file in one pass, retrying transient
// failures.
func (p *Pager) readAll() ([]byte, error) {
	var b []byte
	if err := p.retry.Do(&p.retries, func() error {
		size, err := p.f.Size()
		if err != nil {
			return err
		}
		b = make([]byte, size)
		_, err = p.f.ReadAt(b, 0)
		return err
	}); err != nil {
		return nil, fmt.Errorf("pager: read %s: %w", p.path, err)
	}
	return b, nil
}

// writeAll writes b at the start of f, retrying transient failures.
func (p *Pager) writeAll(f vfs.File, b []byte) error {
	if err := p.retry.Do(&p.retries, func() error {
		_, err := f.WriteAt(b, 0)
		return err
	}); err != nil {
		return fmt.Errorf("pager: write %s: %w", p.path, err)
	}
	return nil
}

// WriteSnapshot writes pts (x-sorted, as core checkpoints them) and
// walSeq into a shadow file, fsyncs it, and atomically installs it over
// the data file with rename(2). It is the whole durable state
// transition: after WriteSnapshot returns, a reopen recovers exactly
// pts plus whatever the WAL holds after walSeq. The install is
// crash-atomic — the live file is never partially overwritten, so a
// crash at any point leaves either the previous snapshot or the new
// one, each consistent with its recorded WAL sequence.
func (p *Pager) WriteSnapshot(pts []geom.Point, walSeq uint64) error {
	shadowPath := p.path + shadowSuffix
	var shadow vfs.File
	if err := p.retry.Do(&p.retries, func() error {
		var err error
		shadow, err = p.fs.OpenFile(shadowPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		return err
	}); err != nil {
		return fmt.Errorf("pager: create shadow %s: %w", shadowPath, err)
	}
	abort := func(err error) error {
		shadow.Close()          //errlint:ok best-effort cleanup of an aborted install
		p.fs.Remove(shadowPath) //errlint:ok best-effort cleanup; next Open removes it too
		return err
	}
	if err := p.writeAll(shadow, encode(pts, walSeq)); err != nil {
		return abort(err)
	}
	if err := p.retry.Do(&p.retries, shadow.Sync); err != nil {
		return abort(fmt.Errorf("pager: sync shadow %s: %w", shadowPath, err))
	}
	if err := p.retry.Do(&p.retries, func() error {
		return p.fs.Rename(shadowPath, p.path)
	}); err != nil {
		return abort(fmt.Errorf("pager: install snapshot %s: %w", p.path, err))
	}
	// Past the rename the install has happened: the shadow fd now IS
	// the data file (rename does not invalidate it). Retire the old fd
	// and adopt the new state before reporting any remaining
	// durability error.
	old := p.f
	p.f = shadow
	old.Close() //errlint:ok fd superseded by the installed shadow
	p.meta = Meta{Version: version, WALSeq: walSeq, Points: uint64(len(pts))}
	// The rename is durable only once the directory entry is.
	dir := filepath.Dir(p.path)
	if err := p.retry.Do(&p.retries, func() error { return p.fs.SyncDir(dir) }); err != nil {
		return fmt.Errorf("pager: sync dir %s: %w", dir, err)
	}
	return nil
}

// ReadSnapshot reads the checkpointed point set back, in the order it
// was written. It reads the whole file in one pass and returns no point
// unless the file passes every check Open makes (ErrCorrupt otherwise).
func (p *Pager) ReadSnapshot() ([]geom.Point, error) {
	b, err := p.readAll()
	if err != nil {
		return nil, err
	}
	m, body, err := p.decode(b)
	if err != nil {
		return nil, err
	}
	p.meta = m
	if m.Points == 0 {
		return nil, nil
	}
	pts := make([]geom.Point, m.Points)
	for i := range pts {
		pts[i] = geom.Point{
			X: geom.Coord(binary.LittleEndian.Uint64(body[16*i:])),
			Y: geom.Coord(binary.LittleEndian.Uint64(body[16*i+8:])),
		}
	}
	return pts, nil
}
