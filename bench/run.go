package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/serve"
)

const (
	preloadBatch = 512 // points per preload insert request
	sampleEvery  = 100 // read-only phases verify 1 response in 100
	verifyCount  = 200 // queries checked at each quiesce point
	maxFailures  = 100 // a phase gives up past this many failed ops
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// runOpts are the knobs of one end-to-end run.
type runOpts struct {
	bin       string // skylined binary
	workDir   string // scratch space; every run gets a subdirectory, removed at the end
	setupReps int    // boots+preloads per run; setup_s is their median
	segments  int    // equal-op-count slices per timed phase
}

// tally counts attempts and failures and keeps the first few reasons.
// Every op of a timed phase, every verification query and every
// membership probe is one attempt.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	reasons   []string
}

func (t *tally) fail(err error) {
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.reasons) < 5 {
		t.reasons = append(t.reasons, err.Error())
	}
	t.mu.Unlock()
}

// runResult is what one workload run measured.
type runResult struct {
	tally    tally
	e2e      []metric // the BENCHMARK.json end_to_end metrics
	layer    []metric // per-layer metrics the end-to-end run itself yields
	lostAcks int
}

// sample is a response kept for off-the-clock verification.
type sample struct {
	rect geom.Rect
	body []byte
}

// runPhase drives the per-client streams closed-loop, one goroutine per
// client, in segments slices of equal op count with the calibration
// kernel run before, between and after them. With sampleEvery > 0 it
// keeps every sampleEvery-th read response for later verification.
func runPhase(ctx context.Context, clients []*client, streams [][]op, segments, sampleEvery int, t *tally) (segs []segment, samples []sample, respBytes int64) {
	per := len(streams[0]) / segments
	cal := calibrate()
	for s := 0; s < segments && ctx.Err() == nil && t.failed.Load() <= maxFailures; s++ {
		seg := segment{calBefore: cal}
		var mu sync.Mutex
		var wg sync.WaitGroup
		start := time.Now()
		for c, cl := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ops := streams[c][s*per : (s+1)*per]
				reads := make([]float64, 0, per)
				writes := make([]float64, 0, per)
				var kept []sample
				var bytes, attempted int64
				for i := range ops {
					o := &ops[i]
					t0 := time.Now()
					body, err := cl.do(o)
					us := float64(time.Since(t0)) / float64(time.Microsecond)
					attempted++
					if err != nil {
						t.fail(err)
						if ctx.Err() != nil || t.failed.Load() > maxFailures {
							break
						}
						continue
					}
					if o.kind != opRead {
						writes = append(writes, us)
						continue
					}
					reads = append(reads, us)
					bytes += int64(len(body))
					if sampleEvery > 0 && i%sampleEvery == 0 {
						kept = append(kept, sample{o.rect, append([]byte(nil), body...)})
					}
				}
				t.attempted.Add(attempted)
				mu.Lock()
				seg.ops += len(reads) + len(writes) // successes: a failed op adds no throughput
				seg.readUS = append(seg.readUS, reads...)
				seg.writeUS = append(seg.writeUS, writes...)
				samples = append(samples, kept...)
				respBytes += bytes
				mu.Unlock()
			}()
		}
		wg.Wait()
		seg.wall = time.Since(start)
		cal = calibrate()
		seg.calAfter = cal
		segs = append(segs, seg)
	}
	return segs, samples, respBytes
}

// namespace is the config the rep-th server of a run is booted with: a
// durable workload gets a data directory per set-up.
func (w *workload) namespace(runDir string, rep int) serve.NamespaceConfig {
	ns := w.spec.ns
	if w.spec.durable {
		ns.Dir = filepath.Join(runDir, fmt.Sprintf("data%d", rep))
	}
	return ns
}

// setup boots skylined and preloads w over the wire, returning the
// server and the raw wall time from exec to /len == n0.
func setup(ctx context.Context, o runOpts, runDir string, w *workload, rep int) (*server, time.Duration, error) {
	start := time.Now()
	srv, err := boot(ctx, o.bin, runDir, w.namespace(runDir, rep))
	if err != nil {
		return nil, 0, err
	}
	cl := newClient(srv.base)
	defer cl.close()
	for i := 0; i < len(w.preload); i += preloadBatch {
		if err := cl.insertBatch(w.preload[i:min(i+preloadBatch, len(w.preload))]); err != nil {
			srv.kill()
			return nil, 0, fmt.Errorf("preload: %w", err)
		}
	}
	n, err := cl.length()
	if err == nil && n != len(w.preload) {
		err = fmt.Errorf("preloaded %d points, /len says %d", len(w.preload), n)
	}
	if err != nil {
		srv.kill()
		return nil, 0, err
	}
	return srv, time.Since(start), nil
}

// verify checks queries against the oracle over model, one attempt
// each.
func verify(cl *client, queries []op, model []geom.Point, t *tally) {
	for i := range queries {
		t.attempted.Add(1)
		body, err := cl.do(&queries[i])
		if err == nil {
			err = checkAnswer(body, queries[i].rect, model)
		}
		if err != nil {
			t.fail(err)
		}
	}
}

// driven is what the timed phases and the quiesce-point checks of one
// run yield.
type driven struct {
	phaseStats
	before, after stats // GET /stats around the timed phase
	respBytes     int64
	reads         int
}

// drive runs w's timed phase against the server at base and then, with
// timing stopped, checks its answers: the responses sampled during a
// read-only phase against the preload, /len and verifyCount queries over
// every shape against the model of the final live set.
func drive(ctx context.Context, base string, w *workload, seed int64, segments int, t *tally) (*driven, error) {
	s := w.spec
	clients := make([]*client, s.clients)
	for c := range clients {
		clients[c] = newClient(base)
		defer clients[c].close()
	}
	ctl := clients[0]

	d := &driven{}
	var err error
	if d.before, err = ctl.stats(); err != nil {
		return nil, fmt.Errorf("stats before: %w", err)
	}
	// Only a phase without writes can check answers against a fixed
	// model while it runs; the others are checked at the quiesce point.
	every := 0
	if s.readFrac == 1 {
		every = sampleEvery
	}
	segs, samples, respBytes := runPhase(ctx, clients, w.streams, segments, every, t)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if d.after, err = ctl.stats(); err != nil {
		return nil, fmt.Errorf("stats after: %w", err)
	}
	d.phaseStats, d.respBytes = summarize(segs), respBytes
	for _, sg := range segs {
		d.reads += len(sg.readUS)
	}

	for _, sm := range samples {
		t.attempted.Add(1)
		if err := checkAnswer(sm.body, sm.rect, w.preload); err != nil {
			t.fail(err)
		}
	}
	t.attempted.Add(1)
	if n, err := ctl.length(); err != nil || n != len(w.final) {
		t.fail(fmt.Errorf("/len at quiesce = %d (%v), model has %d", n, err, len(w.final)))
	}
	verify(ctl, verifyQueries(w.final, verifyCount, seed), w.final, t)
	return d, nil
}

// runWorkload is one end-to-end run: set up (setupReps times), drive
// the timed phase, check answers at the quiesce point, and — for a
// durable workload — SIGKILL the server, restart it on the same
// directory and check that no acknowledged write is missing.
func runWorkload(ctx context.Context, o runOpts, w *workload, seed int64) (*runResult, error) {
	runDir, err := os.MkdirTemp(o.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	// Set-up, several times; the last server stays up for the run.
	var srv *server
	var setups []float64
	cal := calibrate()
	for rep := 0; rep < o.setupReps; rep++ {
		if srv != nil {
			srv.kill()
		}
		var raw time.Duration
		if srv, raw, err = setup(ctx, o, runDir, w, rep); err != nil {
			return nil, err
		}
		next := calibrate()
		setups = append(setups, raw.Seconds()*correction(cal, next))
		cal = next
	}
	defer func() { srv.kill() }()

	res := &runResult{}
	d, err := drive(ctx, srv.base, w, seed, o.segments, &res.tally)
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	var recovery float64
	if w.spec.durable {
		if srv, recovery, err = crashAndRecover(ctx, o, runDir, w, srv, seed, res); err != nil {
			return nil, err
		}
	}

	ops := w.spec.clients * len(w.streams[0])
	q, c := d.after.Queue, d.after.Cache
	q0, c0 := d.before.Queue, d.before.Cache
	res.e2e = []metric{
		{"setup_s", median(setups), "s"},
		{"sim_ios_per_op", float64(d.after.IOs-d.before.IOs) / float64(ops), "count"},
		{"server_rss_mb", rss, "MB"},
	}
	hit := 0.0
	if lookups := c.Hits + c.Misses - c0.Hits - c0.Misses; lookups > 0 {
		hit = float64(c.Hits-c0.Hits) / float64(lookups)
	}
	res.layer = []metric{
		{"serve.ops_per_s", d.opsPerS, "1/s"},
		{"serve.read_p50_us", d.readP50, "us"},
		{"serve.write_p50_us", d.writeP50, "us"},
		{"serve.read_p99_us", d.readP99, "us"},
		{"serve.write_p99_us", d.writeP99, "us"},
		{"serve.raw_ops_per_s", d.rawOpsPerS, "1/s"},
		{"serve.raw_read_p50_us", d.rawReadP50, "us"},
		{"serve.raw_write_p50_us", d.rawWriteP50, "us"},
		{"serve.cal_ms", d.calMS, "ms"},
		{"serve.resp_bytes_per_read", float64(d.respBytes) / float64(max(d.reads, 1)), "B"},
		{"core.recovery_s", recovery, "s"},
		{"core.lost_acks", float64(res.lostAcks), "count"},
		{"engine.queue.drained", float64(q.Drained - q0.Drained), "count"},
		{"engine.queue.coalesced", float64(q.Coalesced - q0.Coalesced), "count"},
		{"engine.queue.forced_drains", float64(q.ForcedDrains - q0.ForcedDrains), "count"},
		{"engine.queue.read_drains", float64(q.ReadDrains - q0.ReadDrains), "count"},
		{"engine.cache.hit_ratio", hit, "ratio"},
		{"engine.cache.evictions", float64(c.Evictions - c0.Evictions), "count"},
		{"engine.cache.invalidations", float64(c.Invalidations - c0.Invalidations), "count"},
		{"shard.shards", float64(d.after.Rebalance.Shards), "count"},
		{"shard.transitions", float64(d.after.transitions() - d.before.transitions()), "count"},
	}
	return res, nil
}

// crashAndRecover is the write_stream crash phase. The quiesce-point
// /stats and /len calls already drained every buffered write into the
// WAL (no checkpoint), so every acknowledged write must survive the
// SIGKILL. It returns the speed-corrected time from the kill to the
// first answered query on the restarted server, and records in res the
// acknowledged inserts (net of acknowledged deletes) that went missing.
// The server it returns is the one for the caller to stop: the restarted
// one, or — if the restart failed — the killed one, which is harmless to
// kill again.
func crashAndRecover(ctx context.Context, o runOpts, runDir string, w *workload, srv *server, seed int64, res *runResult) (*server, float64, error) {
	t := &res.tally
	calBefore := calibrate()
	start := time.Now()
	srv.kill()
	next, err := boot(ctx, o.bin, runDir, w.namespace(runDir, o.setupReps-1))
	if err != nil {
		return srv, 0, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	cl := newClient(next.base)
	defer cl.close()
	first := verifyQueries(w.final, 1, seed)
	if _, err := cl.do(&first[0]); err != nil {
		return next, 0, fmt.Errorf("first query after recovery: %w", err)
	}
	recovery := time.Since(start).Seconds() * correction(calBefore, calibrate())

	t.attempted.Add(1)
	if n, err := cl.length(); err != nil || n != len(w.final) {
		t.fail(fmt.Errorf("/len after recovery = %d (%v), model has %d", n, err, len(w.final)))
	}
	// Membership probe of every acknowledged insert that no
	// acknowledged delete removed: a degenerate 4-sided query.
	preloaded := make(map[geom.Point]struct{}, len(w.preload))
	for _, p := range w.preload {
		preloaded[p] = struct{}{}
	}
	for _, p := range w.final {
		if _, ok := preloaded[p]; ok {
			continue
		}
		t.attempted.Add(1)
		probe := fourSided(geom.Rect{X1: p.X, X2: p.X, Y1: p.Y, Y2: p.Y})
		body, err := cl.do(&probe)
		if err == nil {
			err = checkAnswer(body, probe.rect, []geom.Point{p})
		}
		if err != nil {
			res.lostAcks++
			t.fail(fmt.Errorf("lost ack %v: %w", p, err))
		}
	}
	verify(cl, verifyQueries(w.final, verifyCount, seed+1), w.final, t)
	return next, recovery, nil
}
