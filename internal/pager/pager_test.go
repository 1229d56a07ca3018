package pager

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/vfs"
)

func tmpFile(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "skyline.db")
}

// TestFreshFileMeta: a fresh file gets a valid empty snapshot, and a
// reopen reads it back.
func TestFreshFileMeta(t *testing.T) {
	path := tmpFile(t)
	p, err := Open(path, 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if m := p.Meta(); m.Version != version || m.Points != 0 || m.WALSeq != 0 {
		t.Fatalf("fresh meta = %+v", m)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st, _ := os.Stat(path)
	if st.Size() != headerSize+crcSize {
		t.Fatalf("fresh file size = %d, want an empty snapshot's %d", st.Size(), headerSize+crcSize)
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
	if err := os.WriteFile(path, make([]byte, 8192), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, 0); err == nil {
		t.Fatalf("zero-filled file accepted as pager file")
	}
}

// TestMetaCorruptionDetected: a flipped bit in the header fails the
// CRC at Open.
func TestMetaCorruptionDetected(t *testing.T) {
	path := tmpFile(t)
	p, _ := Open(path, 0)
	if err := p.WriteSnapshot([]geom.Point{{X: 1, Y: 2}}, 7); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	p.Close()
	data, _ := os.ReadFile(path)
	data[12] ^= 1 // WAL sequence
	os.WriteFile(path, data, 0o644)
	if _, err := Open(path, 0); err == nil {
		t.Fatalf("corrupt metadata accepted")
	}
}

// TestSnapshotRoundTrip: points written at a checkpoint come back
// byte-identically across a reopen, at several sizes.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 256, 257, 763} {
		path := tmpFile(t)
		p, _ := Open(path, 4)
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
	big := make([]geom.Point, 1280)
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
	if want := int64(headerSize + 3*16 + crcSize); st.Size() != want {
		t.Fatalf("file size after shrink = %d, want %d", st.Size(), want)
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
	if err := os.WriteFile(shadow, make([]byte, 3*4096), 0o644); err != nil {
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
// checkpoint — header, point data or checksum — makes the open fail
// with ErrCorrupt; no damaged point set is returned. So do a truncated
// file and one with a trailing byte.
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
	if want := headerSize + 3*16 + crcSize; len(good) != want {
		t.Fatalf("checkpoint is %d bytes, want %d", len(good), want)
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
	for name, data := range map[string][]byte{
		"truncated":     good[:headerSize+16],
		"trailing byte": append(slices.Clip(good), 0),
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := openAndRead(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s checkpoint: err %v, want ErrCorrupt", name, err)
		}
	}
}

// formatTwoFile is an empty checkpoint in the paged format 2: one 4 KB
// metadata page (magic, version 2, pages, WAL sequence, points, data
// CRC) whose last four bytes are a CRC-32C of the rest of the page.
func formatTwoFile(walSeq uint64) []byte {
	b := make([]byte, 4096)
	copy(b[0:8], magic[:])
	binary.LittleEndian.PutUint32(b[8:12], 2)
	binary.LittleEndian.PutUint64(b[20:28], walSeq)
	binary.LittleEndian.PutUint32(b[4092:], crc32.Checksum(b[:4092], castagnoli))
	return b
}

// TestFormatOneRefused: files of the older formats are refused with
// ErrCorrupt rather than read: format 1 (its CRC covered page 0 only)
// and format 2 (paged, its data CRC kept in page 0).
func TestFormatOneRefused(t *testing.T) {
	one := make([]byte, 4096)
	copy(one[0:8], magic[:])
	binary.LittleEndian.PutUint32(one[8:12], 1)
	binary.LittleEndian.PutUint32(one[36:40], crc32.ChecksumIEEE(one[:36]))
	for name, data := range map[string][]byte{"format 1": one, "format 2": formatTwoFile(4)} {
		path := tmpFile(t)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path, 0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s file: err %v, want ErrCorrupt", name, err)
		}
	}
}

// TestFormatThreeLayout pins the byte layout of a format-3 file,
// spelled out field by field: magic, version, WAL sequence, point
// count, the points as little-endian (x, y) pairs, and a CRC-32C of
// every byte before it.
func TestFormatThreeLayout(t *testing.T) {
	path := tmpFile(t)
	p, err := Open(path, 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := p.WriteSnapshot([]geom.Point{{X: -2, Y: 0x0102030405060708}}, 0xAB); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("SKYPAGE1")
	want = append(want, 3, 0, 0, 0)
	want = append(want, 0xAB, 0, 0, 0, 0, 0, 0, 0)
	want = append(want, 1, 0, 0, 0, 0, 0, 0, 0)
	want = append(want, 0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
	want = append(want, 8, 7, 6, 5, 4, 3, 2, 1)
	want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(want, crc32.MakeTable(crc32.Castagnoli)))
	if !bytes.Equal(got, want) {
		t.Fatalf("file = % x\nwant   % x", got, want)
	}
}

// FuzzCheckpointFile writes arbitrary bytes as the data file and opens
// it the way core.Open does. Open + ReadSnapshot must never panic, and
// must return either ErrCorrupt or exactly the points (and WAL
// sequence) the bytes encode — which they do precisely when
// re-encoding those points reproduces the bytes, checksum included. An
// empty file is a fresh one: an empty snapshot.
func FuzzCheckpointFile(f *testing.F) {
	for _, n := range []int{0, 1, 300} {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: int64(i*7 - 50), Y: int64(1000 - i)}
		}
		f.Add(encode(pts, uint64(n)+3))
	}
	f.Add(formatTwoFile(9))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := tmpFile(t)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var want []geom.Point
		var walSeq uint64
		valid := len(data) == 0
		if body := len(data) - headerSize - crcSize; body >= 0 && body%16 == 0 {
			walSeq = binary.LittleEndian.Uint64(data[12:20])
			for i := headerSize; i < headerSize+body; i += 16 {
				want = append(want, geom.Point{
					X: int64(binary.LittleEndian.Uint64(data[i:])),
					Y: int64(binary.LittleEndian.Uint64(data[i+8:])),
				})
			}
			valid = bytes.Equal(encode(want, walSeq), data)
		}
		p, err := Open(path, 0)
		var got []geom.Point
		if err == nil {
			got, err = p.ReadSnapshot()
			if m := p.Meta(); err == nil && (m.WALSeq != walSeq || m.Points != uint64(len(got))) {
				t.Fatalf("meta %+v for %d points at WAL sequence %d", m, len(got), walSeq)
			}
			if cerr := p.Close(); cerr != nil {
				t.Fatalf("Close: %v", cerr)
			}
		}
		switch {
		case !valid && !errors.Is(err, ErrCorrupt):
			t.Fatalf("invalid file: got %d points, err %v; want ErrCorrupt", len(got), err)
		case valid && err != nil:
			t.Fatalf("valid file of %d points refused: %v", len(want), err)
		case valid && !slices.Equal(got, want):
			t.Fatalf("read %v, want %v", got, want)
		}
	})
}

// TestFailedInstall: an install that fails fatally before the rename —
// at the shadow's create, write or sync, or at the rename itself —
// returns the error, removes the shadow and leaves the old snapshot in
// place; one that fails at the directory sync after the rename has
// installed the new one. A torn write is transient: it is retried,
// counted, and the install completes.
func TestFailedInstall(t *testing.T) {
	old := []geom.Point{{X: 1, Y: 9}, {X: 4, Y: 2}}
	next := []geom.Point{{X: 2, Y: 7}}
	cases := []struct {
		rule      vfs.Fault
		installed bool
	}{
		{rule: vfs.Fault{Op: vfs.OpOpen, Nth: 1, Err: syscall.EIO}},
		{rule: vfs.Fault{Op: vfs.OpWriteAt, Nth: 1, Err: syscall.ENOSPC}},
		{rule: vfs.Fault{Op: vfs.OpSync, Nth: 1, Err: syscall.EIO}},
		{rule: vfs.Fault{Op: vfs.OpRename, Nth: 1, Err: syscall.EIO}},
		{rule: vfs.Fault{Op: vfs.OpSyncDir, Nth: 1, Err: syscall.EIO}, installed: true},
		{rule: vfs.Fault{Op: vfs.OpWriteAt, Nth: 1, Short: true}, installed: true},
	}
	for _, c := range cases {
		path := tmpFile(t)
		ffs := vfs.NewFaultFS(vfs.OS, 1)
		p, _, err := OpenFS(path, ffs, vfs.RetryPolicy{Sleep: func(time.Duration) {}})
		if err != nil {
			t.Fatalf("OpenFS: %v", err)
		}
		if err := p.WriteSnapshot(old, 3); err != nil {
			t.Fatalf("WriteSnapshot: %v", err)
		}
		ffs.AddFault(c.rule)
		err = p.WriteSnapshot(next, 4)
		transient := c.rule.Err == nil
		if transient && (err != nil || p.Retries().Retried() != 1) {
			t.Fatalf("%v torn write: err %v after %d retries, want one retry", c.rule.Op, err, p.Retries().Retried())
		}
		if !transient && !errors.Is(err, c.rule.Err) {
			t.Fatalf("%v fault: err %v, want %v", c.rule.Op, err, c.rule.Err)
		}
		ffs.ClearFaults()
		if _, err := os.Stat(path + shadowSuffix); !os.IsNotExist(err) {
			t.Fatalf("%v fault left the shadow behind: %v", c.rule.Op, err)
		}
		if err := p.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		want, seq := old, uint64(3)
		if c.installed {
			want, seq = next, 4
		}
		p2, err := Open(path, 0)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		got, err := p2.ReadSnapshot()
		if err != nil || !slices.Equal(got, want) || p2.Meta().WALSeq != seq {
			t.Fatalf("%v fault: reopened %v at WAL sequence %d (err %v), want %v at %d",
				c.rule.Op, got, p2.Meta().WALSeq, err, want, seq)
		}
		p2.Close()
	}
}
