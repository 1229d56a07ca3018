package shard

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
)

// rebalanceOpts is the base rebalancing configuration the tests build
// engines from: small floors so transitions are easy to force.
func rebalanceOpts() Options {
	return Options{
		Machine: testCfg, Shards: 4, Workers: 2, Dynamic: true,
		Rebalance: true, MinShardPoints: 4, RebalanceEvery: 8, MaxShards: 16,
	}
}

// checkBothFamilies cross-checks both query families against the oracle
// over ref — the acceptance bar after every topology change.
func checkBothFamilies(t *testing.T, eng *Engine, ref []geom.Point, span geom.Coord, seed int64, ctx string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for q := 0; q < 30; q++ {
		x1, x2, beta := randTopOpen(rng, span)
		samePoints(t, eng.TopOpen(x1, x2, beta),
			geom.RangeSkyline(ref, geom.TopOpen(x1, x2, beta)), ctx+" top q="+itoa(q))
		r := randFourSided(rng, span)
		samePoints(t, eng.FourSided(r), geom.RangeSkyline(ref, r), ctx+" four q="+itoa(q))
	}
}

// TestRebalanceForcedTransitions drives explicit splits and merges
// through the public Force entry points and checks, after every
// transition: both query families byte-identical to the oracle, the
// counters, the cut ordering, and the listener receiving each new cut
// set in transition order with no engine locks held.
func TestRebalanceForcedTransitions(t *testing.T) {
	const n = 600
	span := geom.Coord(n * 16)
	pts := geom.GenUniform(n, span, 8500)
	geom.SortByX(pts)
	eng, err := New(rebalanceOpts(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if c := eng.RebalanceCounters(); c.Splits != 0 || c.Merges != 0 || c.Shards != 4 || c.Skew != 0 {
		t.Fatalf("idle counters = %+v", c)
	}
	var mu sync.Mutex
	var heard [][]geom.Coord
	eng.SetCutsListener(func(cuts []geom.Coord) {
		// The listener may call back into the engine: no lock is held.
		_ = eng.NumShards()
		mu.Lock()
		heard = append(heard, cuts)
		mu.Unlock()
	})

	steps := []struct {
		name  string
		run   func() error
		split bool
	}{
		{"split hottest", func() error { return eng.ForceSplit(-1) }, true},
		{"split 2", func() error { return eng.ForceSplit(2) }, true},
		{"merge coldest", func() error { return eng.ForceMerge(-1) }, false},
		{"merge 0", func() error { return eng.ForceMerge(0) }, false},
	}
	wantShards, wantSplits, wantMerges := 4, uint64(0), uint64(0)
	for i, step := range steps {
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if step.split {
			wantShards++
			wantSplits++
		} else {
			wantShards--
			wantMerges++
		}
		c := eng.RebalanceCounters()
		if c.Splits != wantSplits || c.Merges != wantMerges || c.Shards != wantShards {
			t.Fatalf("%s: counters = %+v, want %d/%d/%d", step.name, c, wantSplits, wantMerges, wantShards)
		}
		cuts := eng.Cuts()
		if len(cuts) != wantShards-1 {
			t.Fatalf("%s: %d cuts for %d shards", step.name, len(cuts), wantShards)
		}
		for j := 1; j < len(cuts); j++ {
			if cuts[j-1] >= cuts[j] {
				t.Fatalf("%s: cuts not increasing: %v", step.name, cuts)
			}
		}
		mu.Lock()
		if len(heard) != i+1 {
			t.Fatalf("%s: listener heard %d transitions, want %d", step.name, len(heard), i+1)
		}
		last := heard[len(heard)-1]
		mu.Unlock()
		if len(last) != len(cuts) {
			t.Fatalf("%s: listener got %v, engine has %v", step.name, last, cuts)
		}
		for j := range last {
			if last[j] != cuts[j] {
				t.Fatalf("%s: listener got %v, engine has %v", step.name, last, cuts)
			}
		}
		checkBothFamilies(t, eng, pts, span, int64(8600+i), step.name)
	}
	if eng.Len() != n {
		t.Fatalf("Len = %d after transitions, want %d", eng.Len(), n)
	}
}

// TestRebalanceForceErrors covers every refusal: disabled engine,
// out-of-range indices, a shard too small to split, and a single-shard
// engine with nothing to merge.
func TestRebalanceForceErrors(t *testing.T) {
	pts := geom.GenUniform(200, 4000, 8700)
	geom.SortByX(pts)
	plain, err := New(Options{Machine: testCfg, Shards: 4, Dynamic: true}, pts)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.ForceSplit(0); err == nil || !strings.Contains(err.Error(), "disabled") {
		t.Fatalf("ForceSplit on plain engine: %v", err)
	}
	if err := plain.ForceMerge(0); err == nil || !strings.Contains(err.Error(), "disabled") {
		t.Fatalf("ForceMerge on plain engine: %v", err)
	}

	eng, err := New(rebalanceOpts(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ForceSplit(99); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("ForceSplit(99): %v", err)
	}
	if err := eng.ForceMerge(99); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("ForceMerge(99): %v", err)
	}

	opts := rebalanceOpts()
	opts.Shards = 1
	tiny, err := New(opts, pts[:1])
	if err != nil {
		t.Fatal(err)
	}
	if err := tiny.ForceSplit(0); err == nil || !strings.Contains(err.Error(), "too small") {
		t.Fatalf("ForceSplit on 1-point shard: %v", err)
	}
	// One shard: the coldest-pair pick has no pair, merge must refuse.
	if err := tiny.ForceMerge(-1); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("ForceMerge on single-shard engine: %v", err)
	}
}

// TestRebalancePolicy drives the load policy itself: a stream of
// inserts landing entirely in the rightmost shard's x-range must trip
// splits (the hot shard exceeds MaxSkew × mean), and once the shard
// count hits MaxShards the idle left shards must trip merges (coldest
// pair far under the mean). Answers stay oracle-identical throughout.
func TestRebalancePolicy(t *testing.T) {
	const n, stream = 300, 500
	span := geom.Coord((n + stream) * 16)
	// GenUniform returns x-sorted points: the tail of the pool lies
	// entirely right of the base's cuts, which is exactly the hot
	// stream the policy exists for.
	all := geom.GenUniform(n+stream, span, 8800)
	base := append([]geom.Point(nil), all[:n]...)
	pool := all[n:]
	opts := rebalanceOpts()
	opts.MaxSkew = 1.5
	opts.MaxShards = 6
	eng, err := New(opts, base)
	if err != nil {
		t.Fatal(err)
	}
	ref := append([]geom.Point(nil), base...)
	for i, p := range pool {
		if i%3 == 0 {
			// Batches exercise the batched cadence accounting.
			hi := i + 1
			if hi > len(pool) {
				hi = len(pool)
			}
			if err := eng.BatchInsert(pool[i:hi]); err != nil {
				t.Fatal(err)
			}
			ref = append(ref, pool[i:hi]...)
		} else {
			if err := eng.Insert(p); err != nil {
				t.Fatal(err)
			}
			ref = append(ref, p)
		}
	}
	c := eng.RebalanceCounters()
	if c.Splits == 0 {
		t.Fatalf("hot stream tripped no splits: %+v", c)
	}
	if c.Merges == 0 {
		t.Fatalf("cold left shards tripped no merges after hitting MaxShards: %+v", c)
	}
	if c.Shards > opts.MaxShards {
		t.Fatalf("shard count %d exceeded MaxShards %d", c.Shards, opts.MaxShards)
	}
	if c.Skew < 0 {
		t.Fatalf("negative skew: %+v", c)
	}
	if eng.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", eng.Len(), len(ref))
	}
	checkBothFamilies(t, eng, ref, span, 8801, "post-policy")

	// A no-op batch delete must not advance the policy cadence.
	before := eng.rebalOps.Load()
	if removed, err := eng.Apply([]geom.Point{{X: -5, Y: -5}}, nil); err != nil || len(removed) != 0 {
		t.Fatalf("Apply(absent) = %v, %v", removed, err)
	}
	if eng.rebalOps.Load() != before {
		t.Fatal("a removed-nothing batch advanced the rebalance cadence")
	}
}

// TestRebalanceGenRetry races an insert/delete storm against forced
// transitions: the storm moves the victim shards' generations while the
// replacement structures build unlocked, so a transition may find its
// build stale and take the rebuild under the exclusive topology lock.
// Whichever path each transition takes, answers and Len must come out
// oracle-identical.
func TestRebalanceGenRetry(t *testing.T) {
	const n = 600
	span := geom.Coord(n * 16)
	pts := geom.GenUniform(n, span, 8900)
	geom.SortByX(pts)
	opts := rebalanceOpts()
	opts.Shards = 2
	eng, err := New(opts, pts)
	if err != nil {
		t.Fatal(err)
	}

	// The storm targets x < 0: always routed to the leftmost shard, no
	// matter where transitions move the cuts. Odd slots are deleted
	// again, so generations move on both the insert and delete paths.
	const stormN = 400
	storm := make([]geom.Point, stormN)
	for i := range storm {
		storm[i] = geom.Point{X: -geom.Coord(i + 1), Y: span + geom.Coord(i) + 1}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			p := storm[i%stormN]
			select {
			case <-stop:
				return
			default:
			}
			if i%(2*stormN) < stormN {
				if err := eng.Insert(p); err != nil {
					t.Error(err)
					return
				}
			} else {
				if ok, err := eng.Delete(p); err != nil || !ok {
					t.Errorf("Delete(%v) = %t, %v", p, ok, err)
					return
				}
			}
		}
	}()
	for round := 0; round < 6; round++ {
		if err := eng.ForceSplit(0); err != nil && !strings.Contains(err.Error(), "too small") {
			t.Fatal(err)
		}
		if err := eng.ForceMerge(0); err != nil && !strings.Contains(err.Error(), "out of range") {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Drain the storm's leftovers to a known state: whatever is still
	// inserted gets deleted, then the base alone must remain.
	for _, p := range storm {
		if _, err := eng.Delete(p); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Len() != n {
		t.Fatalf("Len = %d after storm drain, want %d", eng.Len(), n)
	}
	checkBothFamilies(t, eng, pts, span, 8901, "post-storm")
}

// forceStale drives one transition through its stale path
// deterministically. The test holds topoMu shared, so the transition —
// started concurrently — captures its generations, builds unlocked, and
// then parks at the exclusive swap; the test sees it parked once a
// shared TryRLock fails behind the waiting writer. It then writes p
// into the victim shard, as a writer holding the victim's lock would,
// and releases: the swap finds its build stale and must rebuild under
// the exclusive lock, or lose p.
func forceStale(t *testing.T, eng *Engine, victim *shard, p geom.Point, run func() error) {
	t.Helper()
	errc := make(chan error, 1)
	eng.topoMu.RLock()
	go func() {
		eng.rebalMu.Lock()
		defer eng.rebalMu.Unlock()
		errc <- run()
	}()
	for eng.topoMu.TryRLock() {
		eng.topoMu.RUnlock()
		time.Sleep(time.Millisecond)
	}
	(&shardBatch{s: victim, inss: []geom.Point{p}}).apply(nil, nil)
	eng.n.Add(1)
	eng.topoMu.RUnlock()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestRebalanceStaleRetry forces the stale path — a write lands in a
// replaced shard during the unlocked build, so the transition rebuilds
// under the exclusive lock — for split and merge alike, then checks the
// answers, the late writes included, came out oracle-identical.
func TestRebalanceStaleRetry(t *testing.T) {
	const n = 2000
	span := geom.Coord(n * 16)
	pts := geom.GenUniform(n, span, 9100)
	geom.SortByX(pts)

	opts := rebalanceOpts()
	opts.Shards = 1
	eng, err := New(opts, pts)
	if err != nil {
		t.Fatal(err)
	}
	// Each late write lies right of every point and above them all, so
	// it is on the skyline of every query that reaches its x.
	late := geom.Point{X: span + 1, Y: span + 2}
	forceStale(t, eng, eng.shards[0], late, func() error { return eng.split(0, 2) })
	pts = append(pts, late)
	if got := eng.RebalanceCounters(); got.Splits != 1 || got.Shards != 2 {
		t.Fatalf("after stale split: %+v", got)
	}
	checkBothFamilies(t, eng, pts, 2*span, 9101, "stale split")

	// Same protocol against merge, with the second shard as the victim.
	late = geom.Point{X: span + 2, Y: span + 1}
	forceStale(t, eng, eng.shards[1], late, func() error { return eng.merge(0) })
	pts = append(pts, late)
	if got := eng.RebalanceCounters(); got.Merges != 1 || got.Shards != 1 {
		t.Fatalf("after stale merge: %+v", got)
	}
	if eng.Len() != len(pts) {
		t.Fatalf("Len = %d after stale merge, want %d", eng.Len(), len(pts))
	}
	checkBothFamilies(t, eng, pts, 2*span, 9102, "stale merge")
}

// TestSnapshotAcrossTransition pins a snapshot, then splits and merges
// the live engine: the pinned view must keep answering from its frozen
// topology (the retired shards it pinned are never mutated), the
// retention ledger must keep counting the retired disks, and Release
// must return every retention and deferred block.
func TestSnapshotAcrossTransition(t *testing.T) {
	const n = 500
	span := geom.Coord(n * 16)
	pts := geom.GenUniform(n, span, 9000)
	geom.SortByX(pts)
	eng, err := New(rebalanceOpts(), pts)
	if err != nil {
		t.Fatal(err)
	}
	v, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sv := v.(*Snapshot)
	if got := eng.Retained(); got != 4 {
		t.Fatalf("Retained = %d at pin, want one per shard", got)
	}

	check := func(stage string) {
		t.Helper()
		rng := rand.New(rand.NewSource(9001))
		for q := 0; q < 25; q++ {
			x1, x2, beta := randTopOpen(rng, span)
			samePoints(t, sv.TopOpen(x1, x2, beta),
				geom.RangeSkyline(pts, geom.TopOpen(x1, x2, beta)), stage+" top q="+itoa(q))
			r := randFourSided(rng, span)
			samePoints(t, sv.RangeSkyline(r), geom.RangeSkyline(pts, r), stage+" four q="+itoa(q))
			top := geom.TopOpen(x1, x2, beta)
			samePoints(t, sv.RangeSkyline(top), geom.RangeSkyline(pts, top), stage+" routed-top q="+itoa(q))
		}
	}
	check("pre-transition")
	if err := eng.ForceSplit(-1); err != nil {
		t.Fatal(err)
	}
	check("post-split")
	if err := eng.ForceMerge(-1); err != nil {
		t.Fatal(err)
	}
	check("post-merge")
	// The retired shards' retentions are still open and still counted.
	if got := eng.Retained(); got != 4 {
		t.Fatalf("Retained = %d after transitions, want the pinned 4", got)
	}
	sv.Release()
	if got := eng.Retained(); got != 0 {
		t.Fatalf("Retained = %d after Release, want 0", got)
	}
	if got := eng.DeferredBlocks(); got != 0 {
		t.Fatalf("DeferredBlocks = %d after Release, want 0", got)
	}
}

// TestRebalancePointsFromLeafScan: after a seeded 3:1 insert/delete
// churn and forced splits and merges, Engine.Points lists exactly the
// oracle's points in increasing x; and a split reads its points from
// the retiring shard's leaves, charging that shard's disk for exactly
// the cold leaf scan.
func TestRebalancePointsFromLeafScan(t *testing.T) {
	const n = 800
	span := geom.Coord(n * 16)
	all := geom.GenUniform(n+600, span, 9200)
	ref := append([]geom.Point(nil), all[:n]...)
	pool := all[n:]
	geom.SortByX(ref)
	eng, err := New(rebalanceOpts(), ref)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		want := append([]geom.Point(nil), ref...)
		geom.SortByX(want)
		samePoints(t, eng.Points(), want, stage)
	}
	check("built")

	rng := rand.New(rand.NewSource(9201))
	for u := 0; u < 800; u++ {
		if u%4 == 3 {
			i := rng.Intn(len(ref))
			if ok, err := eng.Delete(ref[i]); !ok || err != nil {
				t.Fatalf("Delete(%v) = %t, %v", ref[i], ok, err)
			}
			ref[i] = ref[len(ref)-1]
			ref = ref[:len(ref)-1]
			continue
		}
		p := pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		if err := eng.Insert(p); err != nil {
			t.Fatal(err)
		}
		ref = append(ref, p)
	}
	check("churned")

	// The split's only read of the retiring disk is its capture: the
	// same cold scan Points makes of that shard alone.
	i := eng.pickHottestBySize()
	old := eng.shards[i]
	scan := old.disk.Measure(func() { old.dyn.Scan(geom.NegInf, geom.PosInf, nil) })
	if scan.Reads == 0 {
		t.Fatal("a cold leaf scan read nothing")
	}
	old.disk.DropCache()
	before := old.disk.Stats()
	if err := eng.ForceSplit(i); err != nil {
		t.Fatal(err)
	}
	if got := old.disk.Stats().Sub(before); got.Reads != scan.Reads {
		t.Errorf("split charged the retiring shard %d reads, want the cold leaf scan's %d", got.Reads, scan.Reads)
	}
	check("split")
	for _, step := range []func() error{
		func() error { return eng.ForceSplit(-1) },
		func() error { return eng.ForceMerge(-1) },
		func() error { return eng.ForceMerge(0) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
		check("transition")
	}
	if eng.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", eng.Len(), len(ref))
	}
	checkBothFamilies(t, eng, ref, span, 9202, "after transitions")
}
