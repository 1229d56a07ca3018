package core

import (
	"errors"
	"fmt"
	"slices"
	"syscall"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/vfs"
)

// Fault-injection tests: a vfs.FaultFS between the durable stack and
// the disk fires transient and fatal faults at every filesystem
// operation class, and the assertions pin the resilience contract:
//
//   - transient faults are absorbed below the API (bounded retry) and
//     never surface to a caller;
//   - fatal faults latch degraded read-only mode — reads, Len and
//     Snapshot keep serving the applied state byte-identically to an
//     oracle, writes return ErrDegraded — and reopening the directory
//     recovers every acknowledged write;
//   - no error ever escapes untyped: anything a write path returns
//     satisfies vfs.IsStorageErr or errors.Is one of the sentinels.
//
// The op sequence and its oracle are crash_test.go's (opPoint,
// applyOps, expectedSet, assertRecovered), so fault scenarios and crash
// scenarios check the same acknowledged-prefix invariant.

// noSleep makes retry backoff free (and deterministic) in tests.
func noSleep(time.Duration) {}

// fastRetry is the default budget with free backoff.
func fastRetry() vfs.RetryPolicy { return vfs.RetryPolicy{Sleep: noSleep} }

// TestFaultSweepAllOps drives one scenario per vfs injection point:
// each arms a single deterministic rule on one operation class, runs a
// reopen/update/checkpoint workload through it, and requires the fault
// to have FIRED and the acknowledged state to survive. Together the
// scenarios fire every vfs.AllOps() injection point — the sweep's
// coverage assertion at the bottom.
func TestFaultSweepAllOps(t *testing.T) {
	const seeded = 40 // ops acknowledged before any fault is armed
	covered := map[vfs.Op]bool{}
	scenarios := []struct {
		name string
		op   vfs.Op
		rule vfs.Fault
		// broken: the rule hits an operation the stack cannot retry
		// (the stale-shadow Remove tolerates only ErrNotExist), so the
		// faulted reopen must FAIL with a typed storage error — and the
		// next open, fault cleared, must recover everything.
		broken bool
		// flush runs a checkpoint during the faulted phase; the rules
		// targeting install-only ops (sync, truncate, rename, syncdir,
		// close) need one to fire.
		flush bool
	}{
		{name: "open", op: vfs.OpOpen, rule: vfs.Fault{Op: vfs.OpOpen, Nth: 1}},
		{name: "stat", op: vfs.OpStat, rule: vfs.Fault{Op: vfs.OpStat, Nth: 1}},
		{name: "readat", op: vfs.OpReadAt, rule: vfs.Fault{Op: vfs.OpReadAt, Nth: 1}},
		{name: "size", op: vfs.OpSize, rule: vfs.Fault{Op: vfs.OpSize, Nth: 1}},
		{name: "writeat", op: vfs.OpWriteAt, rule: vfs.Fault{Op: vfs.OpWriteAt, Path: walFile, Nth: 1}},
		{name: "torn-writeat", op: vfs.OpWriteAt, rule: vfs.Fault{Op: vfs.OpWriteAt, Path: walFile, Nth: 2, Short: true}},
		{name: "sync", op: vfs.OpSync, rule: vfs.Fault{Op: vfs.OpSync, Nth: 1}, flush: true},
		{name: "truncate", op: vfs.OpTruncate, rule: vfs.Fault{Op: vfs.OpTruncate, Path: walFile, Nth: 1}, flush: true},
		{name: "rename", op: vfs.OpRename, rule: vfs.Fault{Op: vfs.OpRename, Nth: 1}, flush: true},
		{name: "syncdir", op: vfs.OpSyncDir, rule: vfs.Fault{Op: vfs.OpSyncDir, Nth: 1}, flush: true},
		// The first Close in the faulted phase is WriteSnapshot retiring
		// the pre-install fd — deliberately best-effort, so the injected
		// error is swallowed where a real EBADF would be.
		{name: "close", op: vfs.OpClose, rule: vfs.Fault{Op: vfs.OpClose, Nth: 1}, flush: true},
		{name: "remove", op: vfs.OpRemove, rule: vfs.Fault{Op: vfs.OpRemove, Nth: 1}, broken: true},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := vfs.NewFaultFS(vfs.OS, 0x5EED)
			opts := Options{Machine: smallMachine, Dynamic: true, Dir: dir, FS: ffs, Retry: fastRetry()}
			db, err := Open(opts, nil)
			if err != nil {
				t.Fatalf("clean open: %v", err)
			}
			applyOps(t, db, 0, seeded)
			if err := db.Flush(); err != nil {
				t.Fatalf("clean checkpoint: %v", err)
			}
			if err := db.Close(); err != nil {
				t.Fatalf("clean close: %v", err)
			}

			ffs.AddFault(sc.rule)
			acked := seeded
			if sc.broken {
				if _, err := Open(opts, nil); err == nil {
					t.Fatalf("reopen absorbed a %v fault the stack cannot retry", sc.op)
				} else if !vfs.IsStorageErr(err) {
					t.Fatalf("untyped reopen error: %v", err)
				}
			} else {
				db2, err := Open(opts, nil)
				if err != nil {
					t.Fatalf("faulted reopen: %v", err)
				}
				applyOps(t, db2, seeded, seeded+20)
				acked += 20
				if sc.flush {
					if err := db2.Flush(); err != nil {
						t.Fatalf("faulted checkpoint: %v", err)
					}
				}
				if res := db2.Resilience(); res.Degraded || res.Exhausted != 0 {
					t.Fatalf("transient %v fault was not absorbed: %+v", sc.op, res)
				}
				ffs.ClearFaults()
				if err := db2.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
			}
			fired := ffs.FiredOps()
			if !slices.Contains(fired, sc.op) {
				t.Fatalf("scenario %s: fault on %v never fired (fired: %v)", sc.name, sc.op, fired)
			}
			for _, op := range fired {
				covered[op] = true
			}
			ffs.ClearFaults()
			assertRecovered(t, sc.name, dir, acked)
		})
	}
	for _, op := range vfs.AllOps() {
		if !covered[op] {
			t.Errorf("injection point %v never fired in the sweep", op)
		}
	}
}

// TestTransientBurstsInvisible runs a workload through periodic
// transient faults on writes, fsyncs and reads: every fault must be
// absorbed by the retry loop (Retried > 0, Exhausted == 0, nothing
// surfaced), and the final state must equal the oracle's.
func TestTransientBurstsInvisible(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, 77,
		vfs.Fault{Op: vfs.OpWriteAt, Every: 7},
		vfs.Fault{Op: vfs.OpSync, Every: 3},
		vfs.Fault{Op: vfs.OpReadAt, Every: 5},
	)
	opts := Options{Machine: smallMachine, Dynamic: true, Dir: dir, FS: ffs, Retry: fastRetry(), SyncWAL: true}
	db, err := Open(opts, nil)
	if err != nil {
		t.Fatalf("open through faults: %v", err)
	}
	applyOps(t, db, 0, 150)
	if err := db.Flush(); err != nil {
		t.Fatalf("checkpoint through faults: %v", err)
	}
	res := db.Resilience()
	if res.Retried == 0 {
		t.Fatalf("no retries recorded; the burst never hit: %+v (injected %d)", res, ffs.Injected())
	}
	if res.Exhausted != 0 || res.Degraded {
		t.Fatalf("transient bursts should be invisible: %+v", res)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close through faults: %v", err)
	}
	if ffs.Injected() == 0 {
		t.Fatal("fault injector never fired; the test is vacuous")
	}
	ffs.ClearFaults()
	assertRecovered(t, "transient-burst", dir, 150)
}

// TestRetryExhaustionDegrades pins the transient→fatal promotion: a
// fault that keeps firing past the whole retry budget surfaces
// ErrRetryExhausted, latches degraded mode, and the reopen still
// recovers every acknowledged write.
func TestRetryExhaustionDegrades(t *testing.T) {
	const acked = 30
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, 1,
		// Permanent transient failure from the 31st WAL append on.
		vfs.Fault{Op: vfs.OpWriteAt, Path: walFile, After: acked})
	opts := Options{Machine: smallMachine, Dynamic: true, Dir: dir, FS: ffs,
		Retry: vfs.RetryPolicy{MaxRetries: 3, Sleep: noSleep}}
	db, err := Open(opts, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	applyOps(t, db, 0, acked)
	err = applyOp(db, acked)
	if err == nil {
		t.Fatal("write past the fault wall succeeded")
	}
	if !errors.Is(err, ErrRetryExhausted) || !vfs.IsStorageErr(err) {
		t.Fatalf("exhaustion error is untyped: %v", err)
	}
	if db.Degraded() == nil {
		t.Fatal("retry exhaustion did not latch degraded mode")
	}
	if err := db.Insert(opPoint(500)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("write on a degraded index = %v, want ErrDegraded", err)
	}
	res := db.Resilience()
	if res.Exhausted == 0 || res.Retried < 3 || !res.Degraded {
		t.Fatalf("counters missed the exhaustion: %+v", res)
	}
	// Reads keep serving the applied (acknowledged) state.
	want := expectedSet(acked)
	if got := db.Len(); got != len(want) {
		t.Fatalf("degraded Len = %d, want %d", got, len(want))
	}
	twin, err := Open(Options{Machine: smallMachine, Dynamic: true}, want)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	assertSameAnswers(t, "exhausted", db, twin, 1_100_000)
	// The latch never clears in-process, even once the disk recovers.
	ffs.ClearFaults()
	if err := db.Close(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Close of a degraded index = %v, want ErrDegraded (checkpoint must be skipped)", err)
	}
	assertRecovered(t, "exhausted", dir, acked)
}

// TestFatalFaultDegradedLifecycle is the sticky-error lifecycle matrix:
// across every stack shape (±shards, ±mirrors, ±cache, ±async) a fatal
// ENOSPC on the WAL latches degraded read-only mode — typed write
// rejection, reads and Snapshot byte-identical to the oracle — and a
// reopen of the directory recovers all acknowledged state.
func TestFatalFaultDegradedLifecycle(t *testing.T) {
	const acked = 80
	configs := []struct {
		name   string
		mutate func(*Options)
	}{
		{"plain", func(o *Options) {}},
		{"sharded", func(o *Options) { o.Shards = 3; o.Workers = 2 }},
		{"mirrored", func(o *Options) { o.Mirrors = true }},
		{"cached", func(o *Options) { o.CacheEntries = 32 }},
		{"async", func(o *Options) {
			o.AsyncWrites = true
			o.FlushPoints = 1 << 20
			o.FlushInterval = -time.Millisecond
		}},
		{"full", func(o *Options) {
			o.Shards = 3
			o.Workers = 2
			o.Mirrors = true
			o.CacheEntries = 32
			o.AsyncWrites = true
			o.FlushPoints = 1 << 20
			o.FlushInterval = -time.Millisecond
		}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := vfs.NewFaultFS(vfs.OS, 7)
			opts := Options{Machine: smallMachine, Dynamic: true, Dir: dir, FS: ffs, Retry: fastRetry()}
			cfg.mutate(&opts)
			db, err := Open(opts, nil)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			applyOps(t, db, 0, acked)
			if opts.AsyncWrites {
				// Acknowledged means drained: flush so the 80 ops are
				// WAL records before the disk fills up.
				if err := db.Queue().Flush(); err != nil {
					t.Fatalf("pre-fault drain: %v", err)
				}
			}

			// The disk fills up: every further WAL append fails fatally.
			ffs.AddFault(vfs.Fault{Op: vfs.OpWriteAt, Path: walFile, Err: syscall.ENOSPC})
			if opts.AsyncWrites {
				if err := applyOp(db, acked); err != nil {
					t.Fatalf("buffered write rejected before any drain: %v", err)
				}
				err = db.Flush()
			} else {
				err = applyOp(db, acked)
			}
			if err == nil {
				t.Fatal("write through a full disk succeeded")
			}
			if !vfs.IsStorageErr(err) || !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("fatal fault surfaced untyped: %v", err)
			}

			// Degraded: typed write rejection, no retry of the fatal op.
			if db.Degraded() == nil {
				t.Fatal("fatal storage error did not latch degraded mode")
			}
			if err := db.Insert(opPoint(600)); !errors.Is(err, ErrDegraded) {
				t.Fatalf("Insert on degraded index = %v, want ErrDegraded", err)
			}
			if _, err := db.Delete(opPoint(601)); !errors.Is(err, ErrDegraded) {
				t.Fatalf("Delete on degraded index = %v, want ErrDegraded", err)
			}
			if err := db.Flush(); err == nil {
				t.Fatal("Flush on degraded index succeeded; the checkpoint would truncate unreplayed WAL records")
			}
			if res := db.Resilience(); !res.Degraded {
				t.Fatalf("Resilience does not report degradation: %+v", res)
			}

			// Reads, Len and Snapshot keep serving the applied state,
			// byte-identical to the oracle of the acknowledged prefix.
			want := expectedSet(acked)
			if got := db.Len(); got != len(want) {
				t.Fatalf("degraded Len = %d, want %d", got, len(want))
			}
			twin, err := Open(Options{Machine: smallMachine, Dynamic: true}, want)
			if err != nil {
				t.Fatal(err)
			}
			defer twin.Close()
			assertSameAnswers(t, cfg.name, db, twin, 1_100_000)
			snap, err := db.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot on degraded index: %v", err)
			}
			for _, r := range sevenShapes(1_100_000) {
				if g, w := snap.RangeSkyline(r), twin.RangeSkyline(r); !sameAnswer(g, w) {
					t.Fatalf("degraded snapshot RangeSkyline(%v) = %v, twin says %v", r, g, w)
				}
			}
			snap.Close()

			// Reopen-replay is the recovery path.
			ffs.ClearFaults()
			if err := db.Close(); !errors.Is(err, ErrDegraded) {
				t.Fatalf("Close of degraded index = %v, want ErrDegraded", err)
			}
			assertRecovered(t, cfg.name, dir, acked)
		})
	}
}

// TestRandomizedFaultSweep is the seed-enumerated randomized harness:
// for each seed, probabilistic transient faults (plus a rare fatal EIO)
// pepper a synchronous durable workload. Whatever happens, the
// invariants hold: every surfaced error is typed, an error implies the
// degraded latch, reads always serve exactly the acknowledged set, and
// a reopen recovers it.
func TestRandomizedFaultSweep(t *testing.T) {
	var totalInjected uint64
	// The sharded configuration forces a split after the second batch
	// and a merge after the third: a transition rebuilds shards from the
	// live points while faults pepper the log around it.
	for _, c := range []struct {
		name      string
		shards    int
		rebalance bool
	}{{"", 0, false}, {"shards4-rebalance-", 4, true}} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%sseed%d", c.name, seed), func(t *testing.T) {
				totalInjected += faultSweep(t, seed, c.shards, c.rebalance)
			})
		}
	}
	if totalInjected == 0 {
		t.Fatal("no seed injected a single fault; the sweep is vacuous")
	}
}

// faultSweep runs one seed of TestRandomizedFaultSweep on an index of
// the given shards and rebalancing, and returns the faults it injected.
func faultSweep(t *testing.T, seed int64, shards int, rebalance bool) uint64 {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, seed)
	opts := Options{Machine: smallMachine, Dynamic: true, Dir: dir, FS: ffs, Shards: shards, Rebalance: rebalance,
		Retry: vfs.RetryPolicy{MaxRetries: 2, Sleep: noSleep}, SyncWAL: true}
	db, err := Open(opts, nil)
	if err != nil {
		t.Fatalf("clean open: %v", err)
	}
	ffs.AddFault(vfs.Fault{Op: vfs.OpWriteAt, Prob: 0.04})
	ffs.AddFault(vfs.Fault{Op: vfs.OpWriteAt, Prob: 0.01, Short: true})
	ffs.AddFault(vfs.Fault{Op: vfs.OpSync, Prob: 0.05})
	ffs.AddFault(vfs.Fault{Op: vfs.OpRename, Prob: 0.10})
	ffs.AddFault(vfs.Fault{Op: vfs.OpSyncDir, Prob: 0.10})
	ffs.AddFault(vfs.Fault{Op: vfs.OpTruncate, Prob: 0.10})
	ffs.AddFault(vfs.Fault{Op: vfs.OpWriteAt, Prob: 0.003, Err: syscall.EIO})

	live := map[geom.Point]struct{}{}
	degraded := false
	requireTyped := func(err error, what string, i int) {
		t.Helper()
		if !vfs.IsStorageErr(err) && !errors.Is(err, ErrDegraded) {
			t.Fatalf("%s %d surfaced an untyped error: %v", what, i, err)
		}
		if db.Degraded() == nil {
			t.Fatalf("%s %d failed (%v) without latching degraded mode", what, i, err)
		}
		degraded = true
	}
	for i := 0; i < 160; i++ {
		if err := applyOp(db, i); err != nil {
			requireTyped(err, "op", i)
		} else if i%5 == 4 {
			delete(live, opPoint(i-4))
		} else {
			live[opPoint(i)] = struct{}{}
		}
		if i%40 == 39 {
			if err := db.Flush(); err != nil {
				requireTyped(err, "flush", i)
			}
			if rebalance && i/40 == 1 {
				if err := db.ForceSplit(-1); err != nil {
					t.Fatalf("split after op %d: %v", i, err)
				}
			}
			if rebalance && i/40 == 2 {
				if err := db.ForceMerge(-1); err != nil {
					t.Fatalf("merge after op %d: %v", i, err)
				}
			}
		}
	}
	if rebalance {
		if st := db.RebalanceStats(); st.Splits != 1 || st.Merges != 1 {
			t.Fatalf("rebalance stats %+v, want one split and one merge", st)
		}
	}

	// Reads serve exactly the acknowledged set, faulted or not.
	if got := db.Len(); got != len(live) {
		t.Fatalf("Len = %d, acknowledged set has %d (degraded=%v)", got, len(live), degraded)
	}
	want := make([]geom.Point, 0, len(live))
	for p := range live {
		want = append(want, p)
	}
	geom.SortByX(want)
	twin, err := Open(Options{Machine: smallMachine, Dynamic: true}, want)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	assertSameAnswers(t, "randomized", db, twin, 1_100_000)

	// The disk recovers; the latch does not — reopen does.
	ffs.ClearFaults()
	closeErr := db.Close()
	if degraded && closeErr == nil {
		t.Fatal("Close of a degraded index returned nil")
	}
	if !degraded && closeErr != nil {
		t.Fatalf("Close of a healthy index: %v", closeErr)
	}
	re, err := Open(Options{Machine: smallMachine, Dynamic: true, Dir: dir, Shards: shards, Rebalance: rebalance}, nil)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer re.Close()
	if !re.Recover().Recovered {
		t.Fatalf("reopen did not recover: %+v", re.Recover())
	}
	if got := re.Len(); got != len(live) {
		t.Fatalf("recovered Len = %d, acknowledged set has %d", got, len(live))
	}
	for _, p := range want {
		q := geom.Rect{X1: p.X, X2: p.X, Y1: p.Y, Y2: p.Y}
		if got := re.RangeSkyline(q); len(got) != 1 || got[0] != p {
			t.Fatalf("acknowledged point %v lost (query got %v)", p, got)
		}
	}
	assertSameAnswers(t, "recovered", re, twin, 1_100_000)
	return ffs.Injected()
}

// TestCoreBackpressure pins the Options plumbing of the queue's
// admission control: MaxBuffered + ShedWrites sheds with a typed
// ErrBackpressure; the default block policy drains inline and admits.
func TestCoreBackpressure(t *testing.T) {
	t.Run("shed", func(t *testing.T) {
		db, err := Open(Options{Machine: smallMachine, Dynamic: true,
			AsyncWrites: true, FlushPoints: 1 << 20, FlushInterval: -time.Millisecond,
			MaxBuffered: 3, ShedWrites: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		for i := 0; i < 3; i++ {
			if err := db.Insert(opPoint(i)); err != nil {
				t.Fatalf("Insert %d under cap: %v", i, err)
			}
		}
		if err := db.Insert(opPoint(3)); !errors.Is(err, ErrBackpressure) {
			t.Fatalf("Insert over cap = %v, want ErrBackpressure", err)
		}
		if res := db.Resilience(); res.Shed != 1 || res.Blocked != 0 {
			t.Fatalf("Resilience = %+v, want Shed 1", res)
		}
		if err := db.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		if err := db.Insert(opPoint(3)); err != nil {
			t.Fatalf("retry after Flush: %v", err)
		}
		if got := db.Len(); got != 4 {
			t.Fatalf("Len = %d, want 4", got)
		}
	})
	t.Run("block", func(t *testing.T) {
		db, err := Open(Options{Machine: smallMachine, Dynamic: true,
			AsyncWrites: true, FlushPoints: 1 << 20, FlushInterval: -time.Millisecond,
			MaxBuffered: 3}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		for i := 0; i < 4; i++ {
			if err := db.Insert(opPoint(i)); err != nil {
				t.Fatalf("Insert %d: %v", i, err)
			}
		}
		if res := db.Resilience(); res.Blocked != 1 || res.Shed != 0 {
			t.Fatalf("Resilience = %+v, want Blocked 1", res)
		}
		if got := db.Len(); got != 4 {
			t.Fatalf("Len = %d, want 4", got)
		}
	})
}
