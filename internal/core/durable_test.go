package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/emio"
	"repro/internal/geom"
	"repro/internal/pager"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// smallMachine keeps the simulated structures tiny in durable tests.
var smallMachine = emio.Config{B: 16, M: 16 * 64}

// sevenShapes builds one query of every Figure-2 shape (plus the whole
// plane) around the given coordinate scale.
func sevenShapes(scale geom.Coord) []geom.Rect {
	lo, mid, hi := scale/4, scale/2, 3*scale/4
	return []geom.Rect{
		geom.TopOpen(lo, hi, mid),
		geom.RightOpen(mid, lo, hi),
		geom.BottomOpen(lo, hi, mid),
		geom.LeftOpen(mid, lo, hi),
		geom.Dominance(mid, mid),
		geom.AntiDominance(mid, mid),
		geom.Contour(mid),
		{X1: geom.NegInf, X2: geom.PosInf, Y1: geom.NegInf, Y2: geom.PosInf},
	}
}

// assertSameAnswers compares got against a never-crashed twin on every
// query shape, byte-for-byte.
func assertSameAnswers(t *testing.T, label string, got, twin *DB, scale geom.Coord) {
	t.Helper()
	for _, r := range sevenShapes(scale) {
		g, w := got.RangeSkyline(r), twin.RangeSkyline(r)
		if !sameAnswer(g, w) {
			t.Fatalf("%s: RangeSkyline(%v) = %v, twin says %v", label, r, g, w)
		}
	}
}

// TestDurableLifecycle: a durable index seeds, mutates, closes, and a
// reopen of the directory restores the exact point set — answers on
// every query shape byte-identical to a purely simulated twin.
func TestDurableLifecycle(t *testing.T) {
	dir := t.TempDir()
	seed := geom.GenUniform(300, 4000, 97)
	db, err := Open(Options{Machine: smallMachine, Dynamic: true, Dir: dir}, seed)
	if err != nil {
		t.Fatalf("Open durable: %v", err)
	}
	if r := db.Recover(); r.Recovered {
		t.Fatalf("fresh directory reported recovered: %+v", r)
	}
	live := append([]geom.Point(nil), seed...)
	for i := 0; i < 50; i++ {
		p := geom.Point{X: 5000 + geom.Coord(i), Y: 5000 - geom.Coord(i)}
		if err := db.Insert(p); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		live = append(live, p)
	}
	for i := 0; i < 20; i++ {
		if ok, err := db.Delete(seed[i]); !ok || err != nil {
			t.Fatalf("Delete(%v) = %v, %v", seed[i], ok, err)
		}
	}
	live = live[20:]
	wantLen := db.Len()
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	re, err := Open(Options{Machine: smallMachine, Dynamic: true, Dir: dir}, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	rec := re.Recover()
	if !rec.Recovered || rec.SnapshotPoints != wantLen || rec.RecordsReplayed != 0 {
		t.Fatalf("reopen after clean Close: %+v (want snapshot of %d, no replay)", rec, wantLen)
	}
	if re.Len() != wantLen {
		t.Fatalf("recovered Len = %d, want %d", re.Len(), wantLen)
	}
	twin, err := Open(Options{Machine: smallMachine, Dynamic: true}, live)
	if err != nil {
		t.Fatalf("twin: %v", err)
	}
	defer twin.Close()
	assertSameAnswers(t, "reopen", re, twin, 6000)
}

// TestDurableExistingDirRejectsSeed: reopening an existing durable
// directory with seed points is an error, not a silent merge.
func TestDurableExistingDirRejectsSeed(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Machine: smallMachine, Dir: dir, Dynamic: true}, geom.GenUniform(10, 100, 1))
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if _, err := Open(Options{Machine: smallMachine, Dir: dir, Dynamic: true}, geom.GenUniform(5, 100, 2)); err == nil {
		t.Fatalf("existing directory accepted a non-empty seed")
	}
}

// TestDurableReplaySeqFilter: a WAL holding records the snapshot
// already covers — the on-disk state of a crash between a checkpoint's
// snapshot write and its WAL truncate — must replay only the tail
// beyond meta.WALSeq. The files are crafted directly through the pager
// and wal packages.
func TestDurableReplaySeqFilter(t *testing.T) {
	dir := t.TempDir()
	base := []geom.Point{{X: 10, Y: 90}, {X: 20, Y: 80}, {X: 30, Y: 70}}

	l, _, err := wal.Open(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	// Records 1..3 are absorbed by the snapshot below; 4..5 are not.
	l.Append(nil, []geom.Point{{X: 1, Y: 1}})   // seq 1 (covered)
	l.Append([]geom.Point{{X: 1, Y: 1}}, nil)   // seq 2 (covered)
	l.Append(nil, []geom.Point{{X: 2, Y: 2}})   // seq 3 (covered)
	l.Append(nil, []geom.Point{{X: 40, Y: 60}}) // seq 4: insert
	l.Append([]geom.Point{{X: 10, Y: 90}}, nil) // seq 5: delete hit
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := pager.Open(filepath.Join(dir, pagesFile), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteSnapshot(base, 3); err != nil { // snapshot covers seq <= 3
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	db, err := Open(Options{Machine: smallMachine, Dynamic: true, Dir: dir}, nil)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer db.Close()
	rec := db.Recover()
	if rec.RecordsReplayed != 2 || rec.ReplayedInserts != 1 || rec.ReplayedDeletes != 1 {
		t.Fatalf("replayed %+v, want exactly records 4 and 5", rec)
	}
	if rec.WALSeq != 5 {
		t.Fatalf("WALSeq after recovery = %d, want 5", rec.WALSeq)
	}
	want := []geom.Point{{X: 20, Y: 80}, {X: 30, Y: 70}, {X: 40, Y: 60}}
	twin, err := Open(Options{Machine: smallMachine, Dynamic: true}, want)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	if db.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", db.Len(), len(want))
	}
	assertSameAnswers(t, "seq-filter", db, twin, 100)
}

// TestDurableAsyncDrainsAreRecords: with AsyncWrites, WAL records are
// the queue's drain batches — buffered writes log nothing until a
// drain, and a queue flush (without checkpoint) makes them durable.
func TestDurableAsyncDrainsAreRecords(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{
		Machine: smallMachine, Dynamic: true, Dir: dir,
		AsyncWrites: true, FlushPoints: 1 << 20, FlushInterval: -time.Millisecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := db.Insert(geom.Point{X: geom.Coord(i), Y: geom.Coord(100 - i)}); err != nil {
			t.Fatal(err)
		}
	}
	if sz := db.WAL().Size(); sz != 0 {
		t.Fatalf("buffered writes reached the WAL: %d bytes", sz)
	}
	if err := db.Queue().Flush(); err != nil { // drain, no checkpoint
		t.Fatal(err)
	}
	if db.WAL().Size() == 0 {
		t.Fatalf("drained batch produced no WAL record")
	}
	if got := db.WAL().Seq(); got != 1 {
		t.Fatalf("one drain produced %d records, want 1", got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableMixedDrainIsOneRecord: a queue drain holding deletes AND
// inserts reaches the stack as one Apply, so it appends exactly one WAL
// record and makes one cache invalidation sweep. The directory as a
// kill -9 leaves it — files copied mid-flight, no Close, no checkpoint
// — replays that record to an index byte-identical to the live one and
// to a never-crashed twin.
func TestDurableMixedDrainIsOneRecord(t *testing.T) {
	const scale = 1000
	var base []geom.Point
	for i := 1; i <= 40; i++ {
		base = append(base, geom.Point{X: geom.Coord(i * 20), Y: geom.Coord((i * 37) % 41 * 20)})
	}
	dir := t.TempDir()
	db, err := Open(Options{
		Machine: smallMachine, Dynamic: true, Dir: dir, CacheEntries: 16,
		AsyncWrites: true, FlushPoints: 1 << 20, FlushInterval: -time.Millisecond,
	}, base)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	assertSameAnswers(t, "warm", db, db, scale) // fill the cache
	seq, sweeps := db.WAL().Seq(), db.CacheCounters().Sweeps

	miss := geom.Point{X: 5, Y: 5}
	dels := []geom.Point{base[30], miss, base[4], base[17]}
	inss := []geom.Point{base[17], {X: 401, Y: 3}, {X: 777, Y: 811}}
	if _, err := db.Apply(dels, inss); err != nil {
		t.Fatal(err)
	}
	if err := db.Queue().Flush(); err != nil { // drain, no checkpoint
		t.Fatal(err)
	}
	if got := db.WAL().Seq() - seq; got != 1 {
		t.Fatalf("one mixed drain appended %d WAL records, want 1", got)
	}
	if got := db.CacheCounters().Sweeps - sweeps; got != 1 {
		t.Fatalf("one mixed drain made %d invalidation sweeps, want 1", got)
	}

	crashed := t.TempDir()
	for _, name := range []string{walFile, pagesFile} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashed, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re, err := Open(Options{Machine: smallMachine, Dynamic: true, Dir: crashed}, nil)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer re.Close()
	if rec := re.Recover(); rec.RecordsReplayed != 1 || rec.ReplayedDeletes != 3 || rec.ReplayedInserts != 3 {
		t.Fatalf("replayed %+v, want the one mixed record: 3 delete hits, 3 inserts", rec)
	}
	var want []geom.Point
	for _, p := range base {
		if p != base[30] && p != base[4] {
			want = append(want, p)
		}
	}
	want = append(want, inss[1:]...)
	twin, err := Open(Options{Machine: smallMachine, Dynamic: true}, want)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	if re.Len() != len(want) || db.Len() != len(want) {
		t.Fatalf("Len recovered %d, live %d, want %d", re.Len(), db.Len(), len(want))
	}
	assertSameAnswers(t, "recovered vs live", re, db, scale)
	assertSameAnswers(t, "recovered vs twin", re, twin, scale)
}

// TestOpenErrorPathsReleaseEverything: every construction failure in
// Open must quiesce what was already built — no goroutine may outlive
// the error, and the durable files must be closed and reopenable. The
// goroutine check is the regression test for the resource leak the
// deferred cleanup fixes.
func TestOpenErrorPathsReleaseEverything(t *testing.T) {
	dir := t.TempDir()
	// A durable dir whose WAL tail cannot replay into a static index:
	// Open gets past the files and the engines, then fails in replay —
	// the deepest error return in the constructor.
	db, err := Open(Options{Machine: smallMachine, Dynamic: true, Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	db.Insert(geom.Point{X: 1, Y: 1}) // sync durable: one WAL record
	// Leave the WAL non-empty: bypass Close's checkpoint by closing the
	// files directly through cleanup.
	db.cleanup()

	fail := func(label string, o Options, pts []geom.Point) {
		t.Helper()
		if _, err := Open(o, pts); err == nil {
			t.Fatalf("%s: Open succeeded, expected failure", label)
		}
	}
	baseline := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		fail("replay into static shards", Options{Machine: smallMachine, Shards: 4, Mirrors: true, Dir: dir}, nil)
		fail("async without dynamic", Options{Machine: smallMachine, Shards: 4, AsyncWrites: true}, geom.GenUniform(64, 1000, 8))
		fail("replay into static", Options{Machine: smallMachine, Dir: dir}, nil)
		fail("seed into existing dir", Options{Machine: smallMachine, Dynamic: true, Dir: dir}, geom.GenUniform(8, 100, 9))
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		t.Fatalf("failed Opens leaked goroutines: %d running, baseline %d", got, baseline)
	}

	// The files the failed Opens touched are intact and reopenable: the
	// dynamic recovery still works and replays the one record.
	re, err := Open(Options{Machine: smallMachine, Dynamic: true, Dir: dir}, nil)
	if err != nil {
		t.Fatalf("reopen after failed Opens: %v", err)
	}
	defer re.Close()
	if rec := re.Recover(); rec.RecordsReplayed != 1 || rec.ReplayedInserts != 1 {
		t.Fatalf("recovery after failed Opens: %+v, want the 1 logged insert", rec)
	}
	if re.Len() != 1 {
		t.Fatalf("Len = %d, want 1", re.Len())
	}
}

// TestRefusedOpenLeavesDirEmpty: every option Open rejects is rejected
// before a fresh durable directory is seeded, so the refusal leaves Dir
// empty and the corrected Open with the same seed succeeds instead of
// finding "an index" the refused one wrote.
func TestRefusedOpenLeavesDirEmpty(t *testing.T) {
	seed := geom.GenUniform(128, 2048, 6401)
	base := Options{Machine: smallMachine, Dynamic: true, FlushInterval: -1}
	for _, tc := range []struct {
		name string
		bad  func(*Options)
		fix  func(*Options)
	}{
		{"async-static",
			func(o *Options) { o.AsyncWrites, o.Dynamic = true, false },
			func(o *Options) { o.Dynamic = true }},
		{"flush-points",
			func(o *Options) { o.AsyncWrites, o.FlushPoints = true, -1 },
			func(o *Options) { o.FlushPoints = 0 }},
		{"max-buffered",
			func(o *Options) { o.AsyncWrites, o.MaxBuffered = true, -1 },
			func(o *Options) { o.MaxBuffered = 0 }},
		{"cache-entries",
			func(o *Options) { o.CacheEntries = -1 },
			func(o *Options) { o.CacheEntries = 0 }},
		{"shards",
			func(o *Options) { o.Shards = -1 },
			func(o *Options) { o.Shards = 0 }},
		{"workers",
			func(o *Options) { o.Shards, o.Workers = 4, -1 },
			func(o *Options) { o.Workers = 0 }},
		{"machine-b",
			func(o *Options) { o.Machine.B = -1 },
			func(o *Options) { o.Machine = smallMachine }},
		{"machine-m",
			func(o *Options) { o.Machine.M = -1 },
			func(o *Options) { o.Machine = smallMachine }},
		{"machine-m-without-b",
			func(o *Options) { o.Machine = emio.Config{M: 999} },
			func(o *Options) { o.Machine = smallMachine }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := base
			o.Dir = t.TempDir()
			tc.bad(&o)
			if db, err := Open(o, seed); err == nil {
				db.Close()
				t.Fatal("Open accepted the invalid options")
			}
			if ents, err := os.ReadDir(o.Dir); err != nil || len(ents) != 0 {
				t.Fatalf("refused Open left %d entries in Dir (%v)", len(ents), err)
			}
			tc.fix(&o)
			db, err := Open(o, seed)
			if err != nil {
				t.Fatalf("corrected Open: %v", err)
			}
			if db.Len() != len(seed) {
				t.Fatalf("Len = %d, want %d", db.Len(), len(seed))
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFlushSkipsCheckpointOnDrainError: when a drain latches an apply
// error, Flush and Close must NOT checkpoint — the live set is missing
// the failed writes, and snapshotting it while truncating the WAL
// would permanently discard records a reopen-replay can still recover.
func TestFlushSkipsCheckpointOnDrainError(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{
		Machine: smallMachine, Dynamic: true, Dir: dir,
		AsyncWrites: true, FlushPoints: 1 << 20, FlushInterval: -time.Millisecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, db, 0, 10)
	if err := db.Queue().Flush(); err != nil { // drain: WAL record 1, no checkpoint
		t.Fatal(err)
	}
	pagesPath := filepath.Join(dir, pagesFile)
	before, err := os.ReadFile(pagesPath)
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, db, 10, 20) // buffered
	db.WAL().Close()        // break the log: the next drain's append fails
	if err := db.Flush(); err == nil {
		t.Fatalf("Flush over a failed drain reported success")
	}
	if got, err := os.ReadFile(pagesPath); err != nil || !bytes.Equal(got, before) {
		t.Fatalf("Flush checkpointed despite the drain error: %s changed (read err %v)", pagesFile, err)
	}
	if err := db.Close(); err == nil {
		t.Fatalf("Close over a latched drain error reported success")
	}
	// The WAL record whose writes DID apply survives the skipped
	// checkpoints; recovery replays it. Ops 10..20 were never
	// acknowledged (their append failed, and Flush errored), so the
	// acknowledged set is exactly ops [0,10).
	assertRecovered(t, "drain-error", dir, 10)
}

// TestFlushAfterCloseRejected: Flush racing (or following) Close must
// not checkpoint through the file descriptors Close released.
func TestFlushAfterCloseRejected(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Machine: smallMachine, Dynamic: true, Dir: dir}, geom.GenUniform(20, 500, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush while open: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err == nil {
		t.Fatalf("Flush after Close reported success")
	}
}

// TestDurableFreshDirWithOrphanWAL: a directory holding a WAL but no
// page file is ambiguous (half-deleted index?); Open refuses to guess.
func TestDurableFreshDirWithOrphanWAL(t *testing.T) {
	dir := t.TempDir()
	l, _, err := wal.Open(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	l.Append(nil, []geom.Point{{X: 1, Y: 1}})
	l.Close()
	if _, err := Open(Options{Machine: smallMachine, Dynamic: true, Dir: dir}, nil); err == nil {
		t.Fatalf("orphan WAL silently discarded")
	}
	// The refused open left the directory untouched: no page file was
	// created, so a second attempt still refuses instead of silently
	// replaying the orphan records into an empty snapshot.
	if _, err := os.Stat(filepath.Join(dir, pagesFile)); !os.IsNotExist(err) {
		t.Fatalf("refused open created %s (stat err %v)", pagesFile, err)
	}
	if _, err := Open(Options{Machine: smallMachine, Dynamic: true, Dir: dir}, nil); err == nil {
		t.Fatalf("second open accepted the orphan WAL")
	}
}

// TestDurableCorruptCheckpointRefused: Open passes the pager's
// ErrCorrupt through for a damaged header and for a damaged point,
// instead of building an index from the damaged point set.
func TestDurableCorruptCheckpointRefused(t *testing.T) {
	for _, off := range []int{12, 28 + 8} { // format 3: the WAL sequence; the first point's y
		dir := t.TempDir()
		db, err := Open(Options{Machine: smallMachine, Dynamic: true, Dir: dir}, geom.GenUniform(40, 1000, 5))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		path := filepath.Join(dir, pagesFile)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[off] ^= 1
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if re, err := Open(Options{Machine: smallMachine, Dynamic: true, Dir: dir}, nil); !errors.Is(err, pager.ErrCorrupt) {
			if err == nil {
				re.Close()
			}
			t.Fatalf("byte %d flipped: Open err = %v, want pager.ErrCorrupt", off, err)
		}
	}
}

// TestDurableRecoveryReadsCheckpointOnce: reopening a durable directory
// reads skyline.pages in exactly one pass — the pager verifies the file
// and hands recovery the points it verified — and rebuilds the
// checkpointed index.
func TestDurableRecoveryReadsCheckpointOnce(t *testing.T) {
	dir := t.TempDir()
	seed := geom.GenUniform(300, 4000, 98)
	db, err := Open(Options{Machine: smallMachine, Dynamic: true, Dir: dir}, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(geom.Point{X: 5000, Y: 5000}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	ffs := vfs.NewFaultFS(vfs.OS, 1)
	reads := 0
	ffs.Hook = func(op vfs.Op, path string) {
		if op == vfs.OpReadAt && filepath.Base(path) == pagesFile {
			reads++
		}
	}
	re, err := Open(Options{Machine: smallMachine, Dynamic: true, Dir: dir, FS: ffs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if reads != 1 {
		t.Fatalf("recovery read %s in %d passes, want 1", pagesFile, reads)
	}
	if rec := re.Recover(); !rec.Recovered || rec.SnapshotPoints != len(seed)+1 || re.Len() != len(seed)+1 {
		t.Fatalf("recovered %+v, Len %d; want a snapshot of %d points", rec, re.Len(), len(seed)+1)
	}
}

// TestDurableStaticSkipsCheckpoint: a static durable index refuses
// writes before they reach the log, so its WAL stays empty and Flush
// and Close leave the checkpoint it was seeded with untouched; a reopen
// serves the seed.
func TestDurableStaticSkipsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	seed := geom.GenUniform(200, 4000, 99)
	db, err := Open(Options{Machine: smallMachine, Dir: dir}, seed)
	if err != nil {
		t.Fatal(err)
	}
	pages := filepath.Join(dir, pagesFile)
	before, err := os.ReadFile(pages)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(geom.Point{X: 5000, Y: 5000}); !errors.Is(err, ErrStatic) {
		t.Fatalf("Insert into a static index = %v, want ErrStatic", err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(filepath.Join(dir, walFile)); err != nil || st.Size() != 0 {
		t.Fatalf("static WAL: %v, err %v; want empty", st, err)
	}
	after, err := os.ReadFile(pages)
	if err != nil || !bytes.Equal(before, after) {
		t.Fatalf("Flush/Close rewrote the static index's checkpoint (err %v)", err)
	}
	re, err := Open(Options{Machine: smallMachine, Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	twin, err := Open(Options{Machine: smallMachine}, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	assertSameAnswers(t, "static reopen", re, twin, 4000)
}
