// Package pager is the real storage backend of the durable index: one
// data file of 4 KB OS-aligned pages accessed with ReadAt/WriteAt at
// offset = pageID × PageSize, fronted by an LRU page cache that reuses
// the frame/pin/eviction discipline of the simulated disk
// (emio.FrameTable) — the same rules the paper's I/O accounting runs
// on, now moving real bytes.
//
// Page 0 is reserved for metadata: a magic string, the format version,
// the number of data pages, the WAL sequence number the snapshot
// covers, the point count, a CRC-32C over the data pages, and a CRC-32C
// over the whole metadata page in its last four bytes. Pages 1..Pages
// hold the checkpointed point set, 256 points per page (16 bytes
// each). Open verifies page 0 and ReadSnapshot verifies the data pages
// before it returns a single point, so a damaged checkpoint is an
// ErrCorrupt error and never becomes the index. Format-1 files, whose
// CRC covered page 0 only, are refused with ErrCorrupt as well: their
// data pages cannot be verified.
//
// The emio.Disk simulation stays bookkeeping-only — structures hold
// their payloads in host memory, so there are no structure pages to
// store; what the file persists is the POINT SET, from which Open
// rebuilds every structure, plus the WAL sequence that tells recovery
// which log records the snapshot already includes.
//
// Snapshot installs are crash-atomic: WriteSnapshot builds the whole
// new snapshot — data pages and metadata — in a shadow file beside the
// data file, fsyncs it, and rename(2)s it over the data file (then
// fsyncs the directory). The live file is never written in place, so
// at no instant does it hold a mix of old and new pages: a crash
// anywhere leaves either the complete old snapshot (whose metadata and
// WAL sequence are still mutually consistent — recovery replays the
// longer WAL suffix onto it and converges to the same state) or the
// complete new one. A shadow file orphaned by such a crash is deleted
// at the next Open; the data file is always the authority.
//
// All filesystem access goes through a vfs.FS (vfs.OS by default), so
// tests and resilience experiments can stand a vfs.FaultFS between the
// pager and the disk. Transient failures (see vfs.Transient) are
// absorbed below the API with bounded exponential backoff
// (vfs.RetryPolicy); every write here is positional, so a retry at the
// same offset is idempotent. Errors that escape the retry loop are
// fatal and surface to the caller. Crash-injection tests die inside
// vfs.FaultFS.Hook at the exact filesystem operation they target (the
// rename, the directory sync, …); the pager itself has no test hooks.
package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/emio"
	"repro/internal/geom"
	"repro/internal/vfs"
)

// PageSize is the fixed page size: 4 KB, matching the OS page size so
// aligned ReadAt/WriteAt never straddle kernel pages.
const PageSize = 4096

// PointsPerPage is how many 16-byte points one snapshot page holds.
const PointsPerPage = PageSize / 16

// DefaultCacheFrames is the page cache capacity used when the caller
// passes 0.
const DefaultCacheFrames = 64

// shadowSuffix names the shadow file WriteSnapshot builds next to the
// data file before renaming it into place.
const shadowSuffix = ".tmp"

// magic opens every data file.
var magic = [8]byte{'S', 'K', 'Y', 'P', 'A', 'G', 'E', '1'}

// version is the current file format version: 2 added the data-page
// checksum and extended the metadata checksum to the whole page.
const version uint32 = 2

// castagnoli is the CRC-32C table both checksums use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a data file that fails validation: a bad magic
// string, an unsupported format version (format 1 included), a
// checksum mismatch, or metadata that does not describe the file.
var ErrCorrupt = errors.New("pager: corrupt data file")

// Meta is the content of page 0.
type Meta struct {
	// Version is the file format version (currently 2).
	Version uint32
	// Pages is the number of snapshot data pages (excluding page 0).
	Pages uint64
	// WALSeq is the last WAL sequence number whose effects the
	// snapshot includes; recovery replays only records after it.
	WALSeq uint64
	// Points is the number of points in the snapshot.
	Points uint64
	// DataCRC is the CRC-32C of data pages 1..Pages, in order.
	DataCRC uint32
}

// Stats counts real page traffic since the pager was opened.
type Stats struct {
	// Reads counts pages fetched from the file (cache misses).
	Reads uint64
	// Writes counts pages written back to the file (dirty evictions
	// and flushes).
	Writes uint64
	// Hits counts page accesses served from the cache.
	Hits uint64
}

// Pager is a file-backed page store with an LRU page cache.
type Pager struct {
	fs      vfs.FS
	f       vfs.File
	path    string
	retry   vfs.RetryPolicy
	retries vfs.RetryCounters
	meta    Meta
	cache   *emio.FrameTable
	frames  int // cache capacity, for resets after a snapshot install
	onEvict func(emio.Frame)
	pages   map[uint64][]byte // payload of every resident frame
	stats   Stats
	// evictErr records the first write-back error from inside the
	// eviction callback (which cannot return one); surfaced by the
	// next Flush/Close (or page admission, which then backs out the
	// admitted frame).
	evictErr error
}

// Open opens the data file at path on the real filesystem with the
// default retry policy. See OpenFS.
func Open(path string, cacheFrames int) (*Pager, error) {
	return OpenFS(path, cacheFrames, vfs.OS, vfs.RetryPolicy{})
}

// OpenFS opens (creating if necessary) the data file at path on fsys
// (nil means vfs.OS) with a cache of cacheFrames pages (0 means
// DefaultCacheFrames), retrying transient I/O failures per retry (the
// zero policy means vfs.DefaultRetryPolicy). A fresh file is
// initialized with an empty, fsynced metadata page; an existing file's
// metadata is validated (magic, version, CRC).
func OpenFS(path string, cacheFrames int, fsys vfs.FS, retry vfs.RetryPolicy) (*Pager, error) {
	if cacheFrames <= 0 {
		cacheFrames = DefaultCacheFrames
	}
	if fsys == nil {
		fsys = vfs.OS
	}
	p := &Pager{fs: fsys, path: path, retry: retry, frames: cacheFrames, pages: make(map[uint64][]byte)}
	// A shadow file here is a snapshot install a crash interrupted
	// before the rename; the data file is the authority, the shadow is
	// garbage.
	if err := fsys.Remove(path + shadowSuffix); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("pager: remove stale shadow of %s: %w", path, err)
	}
	var f vfs.File
	if err := p.retry.Do(&p.retries, func() error {
		var err error
		f, err = fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		return err
	}); err != nil {
		return nil, fmt.Errorf("pager: open %s: %w", path, err)
	}
	p.f = f
	p.onEvict = func(fr emio.Frame) {
		if fr.Dirty {
			if err := p.writePage(fr.Key, p.pages[fr.Key]); err != nil && p.evictErr == nil {
				p.evictErr = err
			}
		}
		delete(p.pages, fr.Key)
	}
	p.cache = emio.NewFrameTable(cacheFrames, p.onEvict)
	var size int64
	if err := p.retry.Do(&p.retries, func() error {
		var err error
		size, err = f.Size()
		return err
	}); err != nil {
		f.Close() //errlint:ok open failed half-way; best-effort release
		return nil, fmt.Errorf("pager: size %s: %w", path, err)
	}
	if size == 0 {
		// Fresh file: write an empty metadata page so a reopen —
		// even one racing a crash before the first checkpoint — finds
		// a valid (empty) snapshot.
		p.meta = Meta{Version: version}
		if err := p.writeMeta(); err != nil {
			f.Close() //errlint:ok open failed half-way; best-effort release
			return nil, err
		}
		if err := p.retry.Do(&p.retries, f.Sync); err != nil {
			f.Close() //errlint:ok open failed half-way; best-effort release
			return nil, fmt.Errorf("pager: sync fresh %s: %w", path, err)
		}
		return p, nil
	}
	m, err := p.readMeta()
	if err != nil {
		f.Close() //errlint:ok open failed half-way; best-effort release
		return nil, err
	}
	p.meta = m
	return p, nil
}

// Meta returns the metadata read at Open or set by the last Checkpoint.
func (p *Pager) Meta() Meta { return p.meta }

// Stats returns the real-I/O counters.
func (p *Pager) Stats() Stats { return p.stats }

// Retries exposes the transient-failure counters of the pager's retry
// loop; DB.Resilience aggregates them.
func (p *Pager) Retries() *vfs.RetryCounters { return &p.retries }

// writePage writes one page at its aligned offset, retrying transient
// failures (positional writes are idempotent).
func (p *Pager) writePage(id uint64, data []byte) error {
	err := p.retry.Do(&p.retries, func() error {
		_, err := p.f.WriteAt(data, int64(id)*PageSize)
		return err
	})
	if err != nil {
		return fmt.Errorf("pager: write page %d: %w", id, err)
	}
	p.stats.Writes++
	return nil
}

// readPage reads one page at its aligned offset, retrying transient
// failures.
func (p *Pager) readPage(id uint64) ([]byte, error) {
	buf := make([]byte, PageSize)
	err := p.retry.Do(&p.retries, func() error {
		_, err := p.f.ReadAt(buf, int64(id)*PageSize)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("pager: read page %d: %w", id, err)
	}
	p.stats.Reads++
	return buf, nil
}

// page returns the cached frame buffer for id, fetching it on a miss
// (fetch = one real read; the admission may evict the LRU unpinned
// page, writing it back if dirty). create skips the fetch for a page
// about to be fully overwritten.
func (p *Pager) page(id uint64, create bool) ([]byte, error) {
	if p.cache.Touch(id, false) {
		p.stats.Hits++
		return p.pages[id], nil
	}
	var buf []byte
	if create {
		buf = make([]byte, PageSize)
	} else {
		var err error
		if buf, err = p.readPage(id); err != nil {
			return nil, err
		}
	}
	p.pages[id] = buf
	p.cache.Admit(id, create, 0)
	if err := p.evictErr; err != nil {
		// The admission's eviction failed to write a dirty page back.
		// Back the new frame out: on the create path it is a dirty
		// all-zero page, and leaving it resident would let a later
		// Flush/Close write zeros over a page the current metadata
		// still describes.
		p.evictErr = nil
		p.cache.Remove(id)
		delete(p.pages, id)
		return nil, err
	}
	return buf, nil
}

// Read copies page id into out (len PageSize) through the cache.
func (p *Pager) Read(id uint64, out []byte) error {
	buf, err := p.page(id, false)
	if err != nil {
		return err
	}
	copy(out, buf)
	return nil
}

// Write replaces page id with data (len <= PageSize; the rest is
// zeroed) through the cache. The page is dirty until evicted or
// flushed.
func (p *Pager) Write(id uint64, data []byte) error {
	buf, err := p.page(id, true)
	if err != nil {
		return err
	}
	n := copy(buf, data)
	for i := n; i < PageSize; i++ {
		buf[i] = 0
	}
	p.cache.Touch(id, true)
	return nil
}

// Pin pins page id in the cache (fetching it if needed): it will not
// be evicted until unpinned, the same discipline the simulated disk
// applies to the paper's critical records.
func (p *Pager) Pin(id uint64) error {
	if p.cache.Pin(id) {
		return nil
	}
	buf, err := p.readPage(id)
	if err != nil {
		return err
	}
	p.pages[id] = buf
	p.cache.Admit(id, false, 1)
	if err := p.evictErr; err != nil {
		// Same backout as page(): a failed admission must not leave
		// the new frame (here additionally pinned) resident.
		p.evictErr = nil
		p.cache.Remove(id)
		delete(p.pages, id)
		return err
	}
	return nil
}

// Unpin releases one pin of page id.
func (p *Pager) Unpin(id uint64) {
	if !p.cache.Unpin(id) {
		panic(fmt.Sprintf("pager: Unpin of unpinned page %d", id))
	}
}

// Flush writes every dirty cached page back to the file (keeping the
// cache warm) and fsyncs. It also surfaces any write-back error a
// dirty eviction hit since the last call.
func (p *Pager) Flush() error {
	firstErr := p.evictErr
	p.evictErr = nil
	for id, buf := range p.pages {
		if fr, ok := p.cache.Get(id); !ok || !fr.Dirty {
			continue
		}
		if err := p.writePage(id, buf); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		p.cache.Clean(id)
	}
	if firstErr != nil {
		return firstErr
	}
	if err := p.retry.Do(&p.retries, p.f.Sync); err != nil {
		return fmt.Errorf("pager: sync %s: %w", p.path, err)
	}
	return nil
}

// Close flushes and closes the file.
func (p *Pager) Close() error {
	flushErr := p.Flush()
	if err := p.f.Close(); err != nil && flushErr == nil {
		flushErr = fmt.Errorf("pager: close %s: %w", p.path, err)
	}
	return flushErr
}

// metaCRCOff is the offset of page 0's own checksum, which covers
// every byte of the page before it.
const metaCRCOff = PageSize - 4

// writeMeta encodes p.meta into page 0 of the data file (direct, not
// through the cache: metadata must never be evicted-then-reordered
// around the data pages it describes). Only the fresh-file path in
// OpenFS uses it; snapshot installs write their metadata into the
// shadow file instead.
func (p *Pager) writeMeta() error {
	if err := p.writeMetaTo(p.f, p.meta); err != nil {
		return err
	}
	p.stats.Writes++
	return nil
}

// writeMetaTo encodes m into page 0 of f, retrying transient failures.
func (p *Pager) writeMetaTo(f vfs.File, m Meta) error {
	var b [PageSize]byte
	copy(b[0:8], magic[:])
	binary.LittleEndian.PutUint32(b[8:12], m.Version)
	binary.LittleEndian.PutUint64(b[12:20], m.Pages)
	binary.LittleEndian.PutUint64(b[20:28], m.WALSeq)
	binary.LittleEndian.PutUint64(b[28:36], m.Points)
	binary.LittleEndian.PutUint32(b[36:40], m.DataCRC)
	binary.LittleEndian.PutUint32(b[metaCRCOff:], crc32.Checksum(b[:metaCRCOff], castagnoli))
	err := p.retry.Do(&p.retries, func() error {
		_, err := f.WriteAt(b[:], 0)
		return err
	})
	if err != nil {
		return fmt.Errorf("pager: write meta: %w", err)
	}
	return nil
}

// readMeta decodes and validates page 0.
func (p *Pager) readMeta() (Meta, error) {
	var b [PageSize]byte
	err := p.retry.Do(&p.retries, func() error {
		_, err := p.f.ReadAt(b[:], 0)
		return err
	})
	if err != nil {
		return Meta{}, fmt.Errorf("pager: read meta of %s: %w", p.path, err)
	}
	p.stats.Reads++
	if [8]byte(b[0:8]) != magic {
		return Meta{}, fmt.Errorf("%w: %s is not a skyline pager file (bad magic)", ErrCorrupt, p.path)
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != version {
		return Meta{}, fmt.Errorf("%w: %s format version %d, want %d", ErrCorrupt, p.path, v, version)
	}
	if crc32.Checksum(b[:metaCRCOff], castagnoli) != binary.LittleEndian.Uint32(b[metaCRCOff:]) {
		return Meta{}, fmt.Errorf("%w: %s metadata checksum mismatch", ErrCorrupt, p.path)
	}
	return Meta{
		Version: version,
		Pages:   binary.LittleEndian.Uint64(b[12:20]),
		WALSeq:  binary.LittleEndian.Uint64(b[20:28]),
		Points:  binary.LittleEndian.Uint64(b[28:36]),
		DataCRC: binary.LittleEndian.Uint32(b[36:40]),
	}, nil
}

// WriteSnapshot packs pts into data pages 1..ceil(n/PointsPerPage) of
// a shadow file (metadata naming walSeq on page 0), fsyncs it, and
// atomically installs it over the data file with rename(2). It is the
// whole durable state transition: after WriteSnapshot returns, a
// reopen recovers exactly pts plus whatever the WAL holds after
// walSeq. The install is crash-atomic — the live file is never
// partially overwritten, so a crash at any point leaves either the
// previous snapshot or the new one, each consistent with its recorded
// WAL sequence. The page cache is reset afterwards: the install
// replaced the whole file, superseding every cached page (dirty pages
// written through the generic Write API included).
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
	m := Meta{Version: version, WALSeq: walSeq, Points: uint64(len(pts))}
	var buf [PageSize]byte
	for off := 0; off < len(pts); off += PointsPerPage {
		chunk := pts[off:min(off+PointsPerPage, len(pts))]
		for i, pt := range chunk {
			binary.LittleEndian.PutUint64(buf[i*16:i*16+8], uint64(pt.X))
			binary.LittleEndian.PutUint64(buf[i*16+8:i*16+16], uint64(pt.Y))
		}
		for i := len(chunk) * 16; i < PageSize; i++ {
			buf[i] = 0
		}
		m.Pages++
		m.DataCRC = crc32.Update(m.DataCRC, castagnoli, buf[:])
		if err := p.retry.Do(&p.retries, func() error {
			_, err := shadow.WriteAt(buf[:], int64(m.Pages)*PageSize)
			return err
		}); err != nil {
			return abort(fmt.Errorf("pager: write shadow page %d: %w", m.Pages, err))
		}
		p.stats.Writes++
	}
	if err := p.writeMetaTo(shadow, m); err != nil {
		return abort(err)
	}
	p.stats.Writes++
	if err := p.retry.Do(&p.retries, shadow.Sync); err != nil {
		return abort(fmt.Errorf("pager: sync shadow %s: %w", shadowPath, err))
	}
	if err := p.retry.Do(&p.retries, func() error {
		return p.fs.Rename(shadowPath, p.path)
	}); err != nil {
		return abort(fmt.Errorf("pager: install snapshot %s: %w", p.path, err))
	}
	// Past the rename the install has happened: the shadow fd now IS
	// the data file (rename does not invalidate it). Retire the old fd,
	// adopt the new state, and drop the superseded cache before
	// reporting any remaining durability error.
	old := p.f
	p.f = shadow
	old.Close() //errlint:ok fd superseded by the installed shadow
	p.meta = m
	p.cache = emio.NewFrameTable(p.frames, p.onEvict)
	p.pages = make(map[uint64][]byte)
	p.evictErr = nil
	// The rename is durable only once the directory entry is.
	return p.syncDir(filepath.Dir(p.path))
}

// syncDir fsyncs a directory, making renames inside it durable.
func (p *Pager) syncDir(dir string) error {
	if err := p.retry.Do(&p.retries, func() error { return p.fs.SyncDir(dir) }); err != nil {
		return fmt.Errorf("pager: sync dir %s: %w", dir, err)
	}
	return nil
}

// ReadSnapshot reads the checkpointed point set back, in the order it
// was written (sorted by x, as core checkpoints it). It returns no
// points unless the data pages match the checksum in the metadata; a
// mismatch, or a file shorter than the metadata says, is ErrCorrupt.
func (p *Pager) ReadSnapshot() ([]geom.Point, error) {
	m := p.meta
	if want := (m.Points + PointsPerPage - 1) / PointsPerPage; m.Pages != want {
		return nil, fmt.Errorf("%w: %s metadata inconsistent: %d points need %d pages, have %d",
			ErrCorrupt, p.path, m.Points, want, m.Pages)
	}
	if m.Points == 0 {
		return nil, nil
	}
	pts := make([]geom.Point, 0, m.Points)
	var buf [PageSize]byte
	var crc uint32
	remaining := int(m.Points)
	for page := uint64(1); page <= m.Pages; page++ {
		if err := p.Read(page, buf[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return nil, fmt.Errorf("%w: %s is truncated: %v", ErrCorrupt, p.path, err)
			}
			return nil, err
		}
		crc = crc32.Update(crc, castagnoli, buf[:])
		n := min(remaining, PointsPerPage)
		for i := 0; i < n; i++ {
			pts = append(pts, geom.Point{
				X: geom.Coord(binary.LittleEndian.Uint64(buf[i*16 : i*16+8])),
				Y: geom.Coord(binary.LittleEndian.Uint64(buf[i*16+8 : i*16+16])),
			})
		}
		remaining -= n
	}
	if crc != m.DataCRC {
		return nil, fmt.Errorf("%w: %s data checksum mismatch", ErrCorrupt, p.path)
	}
	return pts, nil
}
