package pager

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geom"
)

func tmpFile(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "skyline.db")
}

// TestFreshFileMeta: a fresh file gets a valid empty metadata page,
// and a reopen reads it back.
func TestFreshFileMeta(t *testing.T) {
	path := tmpFile(t)
	p, err := Open(path, 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if m := p.Meta(); m.Pages != 0 || m.Points != 0 || m.WALSeq != 0 {
		t.Fatalf("fresh meta = %+v", m)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st, _ := os.Stat(path)
	if st.Size() != PageSize {
		t.Fatalf("fresh file size = %d, want one meta page", st.Size())
	}
	p2, err := Open(path, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	p2.Close()
}

// TestNotAPagerFile: garbage and foreign files are rejected, not
// misread.
func TestNotAPagerFile(t *testing.T) {
	path := tmpFile(t)
	if err := os.WriteFile(path, make([]byte, 2*PageSize), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, 0); err == nil {
		t.Fatalf("zero-filled file accepted as pager file")
	}
}

// TestMetaCorruptionDetected: a flipped bit in page 0 fails the CRC.
func TestMetaCorruptionDetected(t *testing.T) {
	path := tmpFile(t)
	p, _ := Open(path, 0)
	if err := p.WriteSnapshot([]geom.Point{{X: 1, Y: 2}}, 7); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	p.Close()
	data, _ := os.ReadFile(path)
	data[12] ^= 1 // pages field
	os.WriteFile(path, data, 0o644)
	if _, err := Open(path, 0); err == nil {
		t.Fatalf("corrupt metadata accepted")
	}
}

// TestSnapshotRoundTrip: points written at a checkpoint come back
// byte-identically across a reopen, including multi-page snapshots
// with a partial last page.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, PointsPerPage, PointsPerPage + 1, 3*PointsPerPage - 5} {
		path := tmpFile(t)
		p, _ := Open(path, 4) // tiny cache: snapshot spills through evictions
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: int64(i * 3), Y: int64(-i)}
		}
		if err := p.WriteSnapshot(pts, uint64(n)); err != nil {
			t.Fatalf("n=%d WriteSnapshot: %v", n, err)
		}
		if err := p.Close(); err != nil {
			t.Fatalf("n=%d Close: %v", n, err)
		}

		p2, err := Open(path, 4)
		if err != nil {
			t.Fatalf("n=%d reopen: %v", n, err)
		}
		if m := p2.Meta(); m.WALSeq != uint64(n) || m.Points != uint64(n) {
			t.Fatalf("n=%d meta = %+v", n, m)
		}
		got, err := p2.ReadSnapshot()
		if err != nil {
			t.Fatalf("n=%d ReadSnapshot: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: read %d points", n, len(got))
		}
		for i := range got {
			if got[i] != pts[i] {
				t.Fatalf("n=%d: point %d = %v, want %v", n, i, got[i], pts[i])
			}
		}
		p2.Close()
	}
}

// TestSnapshotShrinks: a smaller snapshot truncates the file — the
// durable state never grows monotonically with history.
func TestSnapshotShrinks(t *testing.T) {
	path := tmpFile(t)
	p, _ := Open(path, 0)
	big := make([]geom.Point, 5*PointsPerPage)
	for i := range big {
		big[i] = geom.Point{X: int64(i), Y: int64(i)}
	}
	if err := p.WriteSnapshot(big, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteSnapshot(big[:3], 2); err != nil {
		t.Fatal(err)
	}
	p.Close()
	st, _ := os.Stat(path)
	if st.Size() != 2*PageSize { // meta + one data page
		t.Fatalf("file size after shrink = %d, want %d", st.Size(), 2*PageSize)
	}
	p2, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p2.ReadSnapshot()
	if err != nil || len(got) != 3 {
		t.Fatalf("ReadSnapshot after shrink: %d points, err %v", len(got), err)
	}
	p2.Close()
}

// TestCacheDisciplineCounts: the page cache actually caches — a re-read
// of a resident page is a hit, an over-capacity workload evicts and
// re-fetches, and pinned pages survive eviction pressure.
func TestCacheDisciplineCounts(t *testing.T) {
	path := tmpFile(t)
	p, _ := Open(path, 2)
	var page [PageSize]byte
	for id := uint64(1); id <= 3; id++ {
		page[0] = byte(id)
		if err := p.Write(id, page[:]); err != nil {
			t.Fatal(err)
		}
	}
	// Cache holds 2 frames: writing 1,2,3 evicted page 1 (dirty →
	// one real write).
	if got := p.Stats().Writes; got < 1 {
		t.Fatalf("no write-back after over-capacity writes: %+v", p.Stats())
	}
	var out [PageSize]byte
	preReads := p.Stats().Reads
	if err := p.Read(3, out[:]); err != nil { // resident: hit
		t.Fatal(err)
	}
	if p.Stats().Reads != preReads || p.Stats().Hits == 0 {
		t.Fatalf("resident read missed: %+v", p.Stats())
	}
	if err := p.Read(1, out[:]); err != nil { // evicted: real read
		t.Fatal(err)
	}
	if out[0] != 1 {
		t.Fatalf("page 1 content lost across eviction: %d", out[0])
	}
	if p.Stats().Reads != preReads+1 {
		t.Fatalf("evicted read did not hit the file: %+v", p.Stats())
	}

	// Pin page 1; stream pages 2..5 through the 2-frame cache; page 1
	// must stay resident (no new read to serve it).
	if err := p.Pin(1); err != nil {
		t.Fatal(err)
	}
	for id := uint64(2); id <= 5; id++ {
		page[0] = byte(id)
		p.Write(id, page[:])
	}
	preReads = p.Stats().Reads
	p.Read(1, out[:])
	if p.Stats().Reads != preReads {
		t.Fatalf("pinned page was evicted under pressure")
	}
	p.Unpin(1)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEvictErrorDropsAdmittedFrame: when admitting a page fails
// because the eviction's dirty write-back failed, the just-admitted
// frame must not stay resident — on the create path it is a dirty
// all-zero page, and a later Flush/Close would write zeros over a page
// the metadata still describes.
func TestEvictErrorDropsAdmittedFrame(t *testing.T) {
	path := tmpFile(t)
	p, err := Open(path, 1)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var page [PageSize]byte
	page[0] = 1
	if err := p.Write(1, page[:]); err != nil { // dirty, resident
		t.Fatal(err)
	}
	p.f.Close() // break the file: the eviction write-back must fail
	if err := p.Write(2, page[:]); err == nil {
		t.Fatalf("Write over a broken write-back reported success")
	}
	if p.cache.Resident(2) {
		t.Fatalf("failed admission left frame 2 resident (a zeroed dirty page)")
	}
	if _, ok := p.pages[2]; ok {
		t.Fatalf("failed admission left page 2's payload in the side table")
	}
}

// TestLeftoverShadowSwept: a shadow file orphaned by a crash between
// write and rename is deleted at Open, and the data file — the
// authority — reads back unharmed.
func TestLeftoverShadowSwept(t *testing.T) {
	path := tmpFile(t)
	p, err := Open(path, 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	pts := []geom.Point{{X: 1, Y: 9}, {X: 4, Y: 2}}
	if err := p.WriteSnapshot(pts, 5); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	shadow := path + shadowSuffix
	if err := os.WriteFile(shadow, make([]byte, 3*PageSize), 0o644); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(path, 0)
	if err != nil {
		t.Fatalf("reopen next to a shadow: %v", err)
	}
	defer p2.Close()
	if _, err := os.Stat(shadow); !os.IsNotExist(err) {
		t.Fatalf("Open did not sweep the orphaned shadow: %v", err)
	}
	got, err := p2.ReadSnapshot()
	if err != nil || len(got) != len(pts) {
		t.Fatalf("snapshot after sweep: %d points, err %v", len(got), err)
	}
	for i := range got {
		if got[i] != pts[i] {
			t.Fatalf("point %d = %v, want %v", i, got[i], pts[i])
		}
	}
}

// TestUnpinUnpinnedPanics matches the simulated disk's discipline.
func TestUnpinUnpinnedPanics(t *testing.T) {
	p, _ := Open(tmpFile(t), 0)
	defer p.Close()
	defer func() {
		if recover() == nil {
			t.Fatalf("Unpin of unpinned page did not panic")
		}
	}()
	p.Unpin(42)
}

// openAndRead opens the data file and reads its snapshot back: the two
// steps core.Open takes before it builds anything from the points.
func openAndRead(path string) ([]geom.Point, error) {
	p, err := Open(path, 0)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	return p.ReadSnapshot()
}

// TestEveryFlippedByteIsCorrupt: a single damaged byte anywhere in a
// checkpoint — metadata, point data or a page's zero padding — makes
// the open fail with ErrCorrupt; no damaged point set is returned.
func TestEveryFlippedByteIsCorrupt(t *testing.T) {
	path := tmpFile(t)
	p, err := Open(path, 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := p.WriteSnapshot([]geom.Point{{X: 1, Y: 9}, {X: 2, Y: 8}, {X: 3, Y: 7}}, 4); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(good) != 2*PageSize {
		t.Fatalf("checkpoint is %d bytes, want %d", len(good), 2*PageSize)
	}
	bad := make([]byte, len(good))
	for i := range good {
		copy(bad, good)
		bad[i] ^= 0xff
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		pts, err := openAndRead(path)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("byte %d flipped: got %v, err %v; want ErrCorrupt", i, pts, err)
		}
	}
	if err := os.WriteFile(path, good[:PageSize+16], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openAndRead(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated checkpoint: err %v, want ErrCorrupt", err)
	}
}

// TestFormatOneRefused: a format-1 file (its CRC covered page 0 only)
// is refused with ErrCorrupt rather than read without a data check.
func TestFormatOneRefused(t *testing.T) {
	path := tmpFile(t)
	var b [PageSize]byte
	copy(b[0:8], magic[:])
	binary.LittleEndian.PutUint32(b[8:12], 1)
	binary.LittleEndian.PutUint32(b[36:40], crc32.ChecksumIEEE(b[:36]))
	if err := os.WriteFile(path, b[:], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("format-1 file: err %v, want ErrCorrupt", err)
	}
}
