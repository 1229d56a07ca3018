package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cpqa"
	"repro/internal/dyntop"
	"repro/internal/emio"
	"repro/internal/engine"
	"repro/internal/extsort"
	"repro/internal/foursided"
	"repro/internal/geom"
	"repro/internal/pager"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/topopen"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// The traced pass. A prefix of client 0's op stream is replayed, single
// goroutine, once through each rung of a ladder: every rung is the
// stack from one layer's public constructor down, built fresh over the
// same preload, so the same op id reaches every rung in the same state.
// A rung's span for op i minus the span of the rung below for op i is
// what that layer adds. Spans come from this file, around the calls
// into each layer; nothing inside the program is instrumented.

// Every workload runs on the default simulated machine; the ladder
// builds its disks and structures for the same one.
var (
	machine = emio.DefaultConfig()
	eps     = 0.5
)

const (
	ladderOps     = 1000 // prefix replayed per rung
	replayRecords = 8    // WAL tail of the core.replay_us_per_record probe
	replayBatch   = 128  // points per WAL record there
	cpqaOps       = 4000 // length of the cpqa op stream
)

// span is one timed call into one layer for one op. Start and End are
// speed-corrected nanoseconds since the layer's replay began; Parent is
// the layer whose span for the same Op contains this one.
type span struct {
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Op       int    `json:"op"`
	Kind     string `json:"kind"` // read | write
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   string `json:"parent,omitempty"`
	Allocs   uint64 `json:"allocs"` // heap objects the runtime counted inside the span, process-wide
}

func (s span) dur() float64    { return float64(s.End - s.Start) }
func (s span) allocs() float64 { return float64(s.Allocs) }

// selfOf returns, for each span, value(span) minus the summed value of
// its children: the spans of the same op whose Parent is its layer.
func selfOf(spans []span, value func(span) float64) []float64 {
	type key struct {
		layer string
		op    int
	}
	children := make(map[key]float64)
	for _, s := range spans {
		if s.Parent != "" {
			children[key{s.Parent, s.Op}] += value(s)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] = value(s) - children[key{s.Layer, s.Op}]
	}
	return self
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close() //errlint:ok the encode error is the one to report
		return err
	}
	return f.Close()
}

// store is the call surface every in-process rung shares.
type store interface {
	RangeSkyline(geom.Rect) []geom.Point
	Insert(geom.Point) error
	Delete(geom.Point) (bool, error)
	BatchInsert([]geom.Point) error
}

// rung is one step of the ladder. It is built empty and preloaded the
// way the server is — load, once per 512-point batch, then settle — so
// that it replays the prefix from the state the end-to-end run is in:
// structures grown by insertion, not bulk-built, and (as skylined opens
// every namespace empty) whatever shard cuts an empty engine starts with.
type rung struct {
	name    string
	handles func(*op) bool           // nil: every op
	exec    func(*op) error          // the timed call
	load    func([]geom.Point) error // one preload batch
	settle  func() error             // after the preload; nil if nothing buffers
	ios     func() emio.Stats        // simulated I/O counters, nil if not reported
	close   func() error             // nil if nothing to release
	wall    time.Duration            // the whole traced replay loop
	wal     *countingFS              // set on the core rung of a durable workload
	totals  map[string]*ioTotal      // per kind, filled by replay
}

// preload feeds pts to r in the server's batch size.
func (r *rung) preload(pts []geom.Point) error {
	for i := 0; i < len(pts); i += preloadBatch {
		if err := r.load(pts[i:min(i+preloadBatch, len(pts))]); err != nil {
			return fmt.Errorf("%s: preload: %w", r.name, err)
		}
	}
	if r.settle != nil {
		return r.settle()
	}
	return nil
}

type ioTotal struct {
	ops           int
	reads, writes uint64 // simulated block reads / writes
}

// answer keeps query results reachable so the compiler cannot drop the
// call.
var answer []geom.Point

func storeExec(s store) func(*op) error {
	return func(o *op) error {
		switch o.kind {
		case opRead:
			answer = s.RangeSkyline(o.rect)
			return nil
		case opInsert:
			return s.Insert(o.pt)
		default:
			ok, err := s.Delete(o.pt)
			if err == nil && !ok {
				err = fmt.Errorf("delete %v: not present", o.pt)
			}
			return err
		}
	}
}

func topFamily(o *op) bool {
	return o.kind != opRead || engine.Classify(o.rect).TopOpenFamily()
}

func kindOf(o *op) string {
	if o.kind == opRead {
		return "read"
	}
	return "write"
}

// mallocs is the process-wide count of heap objects ever allocated:
// MemStats.Mallocs read through runtime/metrics, which does not stop
// the world (ReadMemStats twice per op tripled the replay time). The
// runtime folds a P's counts in when its allocation span fills, so a
// single span's delta is lumpy; sums over the prefix are what is
// reported.
func mallocs() uint64 {
	sample := [2]metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	metrics.Read(sample[:])
	return sample[0].Value.Uint64() + sample[1].Value.Uint64()
}

// replay runs ops through r. Traced, it records a span, the allocation
// delta and the simulated-I/O delta per op; untraced it only runs them.
// It returns the wall time of the whole loop.
func replay(r *rung, workload string, ops []op, traced bool) ([]span, time.Duration, error) {
	var spans []span
	if traced {
		spans = make([]span, 0, len(ops))
		r.totals = map[string]*ioTotal{"read": {}, "write": {}}
	}
	begin := time.Now()
	for i := range ops {
		o := &ops[i]
		if r.handles != nil && !r.handles(o) {
			continue
		}
		if !traced {
			if err := r.exec(o); err != nil {
				return nil, 0, fmt.Errorf("%s op %d: %w", r.name, i, err)
			}
			continue
		}
		var io0 emio.Stats
		if r.ios != nil {
			io0 = r.ios()
		}
		m0 := mallocs()
		t0 := time.Since(begin)
		err := r.exec(o)
		t1 := time.Since(begin)
		m1 := mallocs()
		if err != nil {
			return nil, 0, fmt.Errorf("%s op %d: %w", r.name, i, err)
		}
		kind := kindOf(o)
		tot := r.totals[kind]
		tot.ops++
		if r.ios != nil {
			d := r.ios().Sub(io0)
			tot.reads += d.Reads
			tot.writes += d.Writes
		}
		spans = append(spans, span{Workload: workload, Layer: r.name, Op: i, Kind: kind,
			Start: int64(t0), End: int64(t1), Allocs: m1 - m0})
	}
	return spans, time.Since(begin), nil
}

// level orders the engine layers the way core.Open stacks them.
type level int

const (
	lvlBase level = iota // planner over the shard engine, or over dyntop+foursided
	lvlMirror
	lvlCache
	lvlLog
	lvlQueue
)

type walSink struct{ log *wal.Log }

func (s walSink) LogBatch(dels, inss []geom.Point) error {
	_, err := s.log.Append(dels, inss)
	return err
}

// buildStack assembles the engine layers up to and including top from
// their public constructors, in core.Open's order and empty as skylined
// opens them, leaving out the ones ns does not enable. The returned
// close releases them outermost first.
func buildStack(ns serve.NamespaceConfig, top level, dir string) (engine.Backend, func() error, error) {
	opts := ns.Options()
	var closers []func() error
	closeAll := func() error {
		var first error
		for i := len(closers) - 1; i >= 0; i-- {
			if err := closers[i](); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	fail := func(err error) (engine.Backend, func() error, error) {
		closeAll() //errlint:ok the construction error is the one to report
		return nil, nil, err
	}
	sharded := func(topOnly bool) (*shard.Engine, error) {
		eng, err := shard.New(shard.Options{Machine: machine, Epsilon: eps,
			Shards: opts.Shards, Workers: opts.Workers, Dynamic: true, TopOnly: topOnly,
			Rebalance: opts.Rebalance}, nil)
		if err == nil {
			closers = append(closers, func() error { eng.Quiesce(); return nil })
		}
		return eng, err
	}

	var (
		eng, meng *shard.Engine
		cache     *engine.CacheBackend
		queue     *engine.AsyncQueue
		err       error
	)
	pl := new(engine.Planner)
	if opts.Shards > 1 {
		if eng, err = sharded(false); err != nil {
			return fail(err)
		}
		pl.RegisterTopOpen(eng)
		pl.RegisterGeneral(eng)
	} else {
		d := emio.NewConcurrentDisk(machine)
		pl.RegisterTopOpen(engine.NewDynTop(dyntop.New(d, eps), d))
		pl.RegisterGeneral(engine.NewFourSided(foursided.Build(d, eps, nil), d))
	}
	var front engine.Backend = pl
	if top >= lvlMirror && opts.Mirrors {
		var inner engine.Backend
		if opts.Shards > 1 {
			if meng, err = sharded(true); err != nil {
				return fail(err)
			}
			inner = meng
		} else {
			d := emio.NewConcurrentDisk(machine)
			inner = engine.NewDynTop(dyntop.New(d, eps), d)
		}
		m, err := engine.NewMirror(geom.ReflectSwapXY, inner)
		if err != nil {
			return fail(err)
		}
		pl.RegisterMirror(m)
	}
	if top >= lvlCache && opts.CacheEntries > 0 {
		if cache, err = engine.NewCache(pl, opts.CacheEntries); err != nil {
			return fail(err)
		}
		front = cache
	}
	if top >= lvlLog && dir != "" {
		l, _, err := wal.Open(filepath.Join(dir, "ladder.wal"))
		if err != nil {
			return fail(err)
		}
		closers = append(closers, l.Close)
		front = engine.NewLogBackend(front, walSink{l}, nil)
	}
	if top >= lvlQueue && opts.AsyncWrites {
		queue, err = engine.NewAsyncQueue(front, engine.QueueOptions{
			FlushPoints: opts.FlushPoints, FlushInterval: opts.FlushInterval})
		if err != nil {
			return fail(err)
		}
		closers = append(closers, queue.Close)
		front = queue
	}
	if opts.Rebalance {
		// Cut propagation as core.Open wires it, once every layer exists:
		// a transition of the primary engine re-tags the cache's x-slabs
		// and re-learns the queue's, one of the mirror engine the cache's
		// y-slabs.
		eng.SetCutsListener(func(cuts []geom.Coord) {
			if cache != nil {
				cache.SetXCuts(cuts)
			}
			if queue != nil {
				queue.SetCuts(cuts)
			}
		})
		if meng != nil {
			meng.SetCutsListener(func(cuts []geom.Coord) {
				if cache != nil {
					cache.SetYCuts(cuts)
				}
			})
		}
	}
	return front, closeAll, nil
}

// countingFS is vfs.OS with counters on the write-ahead log file.
type countingFS struct {
	vfs.FS
	appends, fsyncs int
	bytes           int64
	inWrite         time.Duration
}

type countingFile struct {
	vfs.File
	fs *countingFS
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasSuffix(name, ".wal") {
		return f, err
	}
	return countingFile{f, c}, nil
}

func (f countingFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.fs.inWrite += time.Since(t0)
	f.fs.appends++
	f.fs.bytes += int64(n)
	return n, err
}

func (f countingFile) Sync() error {
	f.fs.fsyncs++
	return f.File.Sync()
}

// ladderResult is what the traced pass of one workload yields.
type ladderResult struct {
	metrics []metric
	spans   []span
}

// treeLayers are the ladder's rungs, outermost first. Every workload
// reports all of them; a layer its namespace does not enable reports 0:
// it adds nothing to that workload.
var treeLayers = []string{"serve.socket", "serve", "core", "engine.queue", "engine.log",
	"engine.cache", "engine.mirror", "shard", "engine.planner", "dyntop", "foursided"}

// runLadder replays w's prefix through every rung and the side probes
// and returns the per-layer metrics.
func runLadder(ctx context.Context, workDir string, w *workload, quick bool) (*ladderResult, error) {
	dir, err := os.MkdirTemp(workDir, "ladder-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	n := ladderOps
	if quick {
		n = ladderOps / 10
	}
	ops := w.streams[0][:min(n, len(w.streams[0]))]
	ns, name := w.spec.ns, w.spec.name

	// Every durable rung gets a directory of its own.
	dataDir := func() (string, error) {
		if !w.spec.durable {
			return "", nil
		}
		return os.MkdirTemp(dir, "data-")
	}
	storeRung := func(name string, s store, closeFn func() error) *rung {
		return &rung{name: name, exec: storeExec(s), load: s.BatchInsert, close: closeFn}
	}

	// The paper's structures, behind nothing but the engine's adapters
	// (a method call each).
	builds := []func() (*rung, error){
		func() (*rung, error) {
			d := emio.NewDisk(machine)
			r := storeRung("dyntop", engine.NewDynTop(dyntop.New(d, eps), d), nil)
			r.handles, r.ios = topFamily, d.Stats
			return r, nil
		},
		func() (*rung, error) {
			d := emio.NewDisk(machine)
			r := storeRung("foursided", engine.NewFourSided(foursided.Build(d, eps, nil), d), nil)
			r.handles, r.ios = func(o *op) bool { return o.kind != opRead || !topFamily(o) }, d.Stats
			return r, nil
		},
	}
	// The engine layers, innermost first, one rung per layer ns enables.
	// The single-disk planner is always there: it is what the shard
	// rung is contrasted with.
	single := ns
	single.Shards, single.Workers, single.Rebalance = 0, 0, false
	for _, l := range []struct {
		name    string
		ns      serve.NamespaceConfig
		top     level
		enabled bool
	}{
		{"engine.planner", single, lvlBase, true},
		{"shard", ns, lvlBase, ns.Shards > 1},
		{"engine.mirror", ns, lvlMirror, ns.Mirrors},
		{"engine.cache", ns, lvlCache, ns.CacheEntries > 0},
		{"engine.log", ns, lvlLog, w.spec.durable},
		{"engine.queue", ns, lvlQueue, ns.AsyncWrites},
	} {
		if !l.enabled {
			continue
		}
		builds = append(builds, func() (*rung, error) {
			d, err := dataDir()
			if err != nil {
				return nil, err
			}
			b, closeFn, err := buildStack(l.ns, l.top, d)
			if err != nil {
				return nil, err
			}
			r := storeRung(l.name, b, closeFn)
			if q, ok := b.(*engine.AsyncQueue); ok {
				r.settle = q.Flush
			}
			return r, nil
		})
	}
	// core, serve and the socket: the product's own entry points.
	serveRung := func() (http.Handler, func() error, error) {
		c := ns
		d, err := dataDir()
		if err != nil {
			return nil, nil, err
		}
		c.Dir = d
		srv, err := serve.New(serve.Config{Namespaces: map[string]serve.NamespaceConfig{namespace: c}})
		if err != nil {
			return nil, nil, err
		}
		return srv.Handler(), srv.Close, nil
	}
	socket := func() (*rung, error) {
		h, closeFn, err := serveRung()
		if err != nil {
			return nil, err
		}
		ts := httptest.NewServer(h)
		cl := newClient(ts.URL)
		return &rung{name: "serve.socket", load: cl.insertBatch,
			settle: func() error { _, err := cl.length(); return err },
			exec:   func(o *op) error { _, err := cl.do(o); return err },
			close: func() error {
				cl.close()
				ts.Close()
				return closeFn()
			}}, nil
	}
	builds = append(builds,
		func() (*rung, error) {
			opts := ns.Options()
			d, err := dataDir()
			if err != nil {
				return nil, err
			}
			opts.Dir = d
			var cfs *countingFS
			if w.spec.durable {
				cfs = &countingFS{FS: vfs.OS}
				opts.FS = cfs
			}
			db, err := core.Open(opts, nil)
			if err != nil {
				return nil, err
			}
			r := storeRung("core", db, db.Close)
			r.ios, r.wal = db.Stats, cfs
			r.settle = func() error { db.Len(); return nil } // drains the queue, as GET /len does
			return r, nil
		},
		func() (*rung, error) {
			h, closeFn, err := serveRung()
			if err != nil {
				return nil, err
			}
			post := func(path string, body []byte) error { _, err := handle(h, path, body); return err }
			return &rung{name: "serve", close: closeFn,
				load:   func(pts []geom.Point) error { return post("/insert", encodeBatch(pts)) },
				settle: func() error { _, err := handleGet(h, "/len"); return err },
				exec:   func(o *op) error { return post(opPath[o.kind], o.body) }}, nil
		},
		socket,
	)

	// run builds a rung, preloads it, replays the prefix through it and
	// releases it. Parent links chain the tree rungs in build order;
	// both bare structures hang off the planner.
	var all []span
	byName := make(map[string]*rung)
	run := func(build func() (*rung, error), traced bool) (*rung, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := build()
		if err != nil {
			return nil, err
		}
		err = r.preload(w.preload)
		if err == nil {
			if r.wal != nil {
				*r.wal = countingFS{FS: r.wal.FS} // count the prefix, not the preload
			}
			// Rungs are replayed seconds apart on a machine whose speed
			// drifts, and their spans are subtracted from one another:
			// each replay is one segment of the estimator.
			calBefore := calibrate()
			var spans []span
			spans, r.wall, err = replay(r, name, ops, traced)
			k := correction(calBefore, calibrate())
			r.wall = time.Duration(float64(r.wall) * k)
			for i := range spans {
				spans[i].Start = int64(float64(spans[i].Start) * k)
				spans[i].End = int64(float64(spans[i].End) * k)
			}
			all = append(all, spans...)
		}
		if r.close != nil {
			if cerr := r.close(); err == nil {
				err = cerr
			}
		}
		return r, err
	}
	for _, b := range builds {
		r, err := run(b, true)
		if err != nil {
			return nil, err
		}
		byName[r.name] = r
	}
	parentOf := map[string]string{"dyntop": "engine.planner", "foursided": "engine.planner"}
	prev := ""
	for _, l := range treeLayers { // outermost first
		if byName[l] == nil || parentOf[l] != "" {
			continue
		}
		parentOf[l] = prev
		prev = l
	}
	for i := range all {
		all[i].Parent = parentOf[all[i].Layer]
	}
	// Tracing overhead: the top rung again, untraced.
	untraced, err := run(socket, false)
	if err != nil {
		return nil, err
	}

	res := &ladderResult{spans: all}
	add := func(name string, v float64, unit string) {
		res.metrics = append(res.metrics, metric{name, v, unit})
	}

	// Self time and self allocations, averaged per layer and kind.
	type agg struct{ ns, allocs, n float64 }
	sums := make(map[[2]string]*agg)
	selfNS, selfAllocs := selfOf(all, span.dur), selfOf(all, span.allocs)
	for i, s := range all {
		k := [2]string{s.Layer, s.Kind}
		if sums[k] == nil {
			sums[k] = &agg{}
		}
		sums[k].ns += selfNS[i]
		sums[k].allocs += selfAllocs[i]
		sums[k].n++
	}
	mean := func(layer, kind string, allocs bool) float64 {
		a := sums[[2]string{layer, kind}]
		if a == nil {
			return 0
		}
		if allocs {
			return a.allocs / a.n
		}
		return a.ns / a.n / 1e3
	}
	for _, l := range treeLayers {
		add(l+".read_self_us", mean(l, "read", false), "us")
		add(l+".write_self_us", mean(l, "write", false), "us")
		add(l+".allocs_per_read", mean(l, "read", true), "count")
		add(l+".allocs_per_write", mean(l, "write", true), "count")
	}
	perOp := func(r *rung, kind string) float64 {
		t := r.totals[kind]
		return float64(t.reads+t.writes) / float64(max(t.ops, 1))
	}
	for _, l := range []string{"dyntop", "foursided"} {
		add(l+".sim_ios_per_read", perOp(byName[l], "read"), "count")
		add(l+".sim_ios_per_write", perOp(byName[l], "write"), "count")
	}
	coreRung := byName["core"]
	var emioReads, emioWrites, nOps float64
	for _, t := range coreRung.totals {
		emioReads += float64(t.reads)
		emioWrites += float64(t.writes)
		nOps += float64(t.ops)
	}
	add("emio.reads_per_op", emioReads/nOps, "count")
	add("emio.writes_per_op", emioWrites/nOps, "count")
	var cfs countingFS
	if coreRung.wal != nil {
		cfs = *coreRung.wal
	}
	add("wal.appends", float64(cfs.appends), "count")
	add("wal.fsyncs", float64(cfs.fsyncs), "count")
	add("wal.bytes_per_write", float64(cfs.bytes)/float64(max(coreRung.totals["write"].ops, 1)), "B")
	add("wal.append_us", float64(cfs.inWrite)/1e3/float64(max(cfs.appends, 1)), "us")
	add("trace.overhead_frac", float64(byName["serve.socket"].wall-untraced.wall)/float64(untraced.wall), "ratio")

	sorted := append([]geom.Point(nil), w.preload...)
	geom.SortByX(sorted)
	probes := []func() ([]metric, error){
		func() ([]metric, error) { return buildProbe(ns, sorted) },
		func() ([]metric, error) { return topOpenProbe(sorted, ops, name) },
		func() ([]metric, error) { return replayProbe(dir, ns, w) },
		func() ([]metric, error) { return pagerProbe(dir, sorted) },
		func() ([]metric, error) { return cpqaProbe(sorted), nil },
	}
	// The probes are one more segment: their times are corrected by the
	// kernel runs around them, their counts are not.
	calBefore := calibrate()
	var probed []metric
	for _, p := range probes {
		ms, err := p()
		if err != nil {
			return nil, err
		}
		probed = append(probed, ms...)
	}
	k := correction(calBefore, calibrate())
	for _, m := range probed {
		if m.unit == "ms" || m.unit == "us" {
			m.value *= k
		}
		res.metrics = append(res.metrics, m)
	}
	return res, nil
}

// handleGet calls a GET endpoint of the handler in-process.
func handleGet(h http.Handler, path string) ([]byte, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/"+namespace+path, nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s: %d %s", path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec.Body.Bytes(), nil
}

// buildProbe times the bulk builds over the sorted preload: what a
// recovery or a library caller with its points in hand pays, as opposed
// to the insert-by-insert growth every rung above went through.
func buildProbe(ns serve.NamespaceConfig, sorted []geom.Point) ([]metric, error) {
	ms := func(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }
	t0 := time.Now()
	dyntop.BuildSABE(emio.NewDisk(machine), eps, sorted)
	dyn := ms(t0)
	t0 = time.Now()
	foursided.Build(emio.NewDisk(machine), eps, sorted)
	four := ms(t0)
	t0 = time.Now()
	db, err := core.Open(ns.Options(), sorted)
	open := ms(t0)
	if err != nil {
		return nil, err
	}
	if err := db.Close(); err != nil {
		return nil, err
	}
	return []metric{
		{"dyntop.build_ms", dyn, "ms"},
		{"foursided.build_ms", four, "ms"},
		{"core.open_ms", open, "ms"},
	}, nil
}

// handle calls the handler in-process with a pre-encoded body.
func handle(h http.Handler, path string, body []byte) ([]byte, error) {
	req := httptest.NewRequest(http.MethodPost, "/v1/"+namespace+path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s: %d %s", path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec.Body.Bytes(), nil
}

// topOpenProbe is the static Theorem 1 index over the preload: a
// reference rung, since no wire workload can seed a static namespace.
// It answers the prefix's top-open-family reads against the preload.
func topOpenProbe(sorted []geom.Point, ops []op, workload string) ([]metric, error) {
	d := emio.NewDisk(machine)
	t0 := time.Now()
	f := extsort.FromSlice(d, 2, sorted)
	ix := topopen.Build(d, f)
	f.Free()
	buildMS := float64(time.Since(t0)) / float64(time.Millisecond)
	r := &rung{name: "topopen", ios: d.Stats,
		handles: func(o *op) bool { return o.kind == opRead && topFamily(o) },
		exec: func(o *op) error {
			answer = ix.Query(o.rect.X1, o.rect.X2, o.rect.Y1)
			return nil
		}}
	spans, _, err := replay(r, workload, ops, true)
	if err != nil {
		return nil, err
	}
	var us, allocs float64
	for _, s := range spans {
		us += s.dur() / 1e3
		allocs += s.allocs()
	}
	n := float64(max(len(spans), 1))
	t := r.totals["read"]
	return []metric{
		{"topopen.read_self_us", us / n, "us"},
		{"topopen.allocs_per_read", allocs / n, "count"},
		{"topopen.sim_ios_per_read", float64(t.reads+t.writes) / n, "count"},
		{"topopen.build_ms", buildMS, "ms"},
	}, nil
}

// replayProbe measures crash replay per WAL record: it reopens a copy
// of a durable directory taken with replayRecords un-checkpointed
// 128-point records in its log, and the same directory after its
// checkpoint, and charges the difference to the records.
func replayProbe(dir string, ns serve.NamespaceConfig, w *workload) ([]metric, error) {
	live, crashed := filepath.Join(dir, "replay-live"), filepath.Join(dir, "replay-crashed")
	opts := ns.Options()
	opts.AsyncWrites = false // one BatchInsert, one WAL record
	opts.Dir = live
	db, err := core.Open(opts, w.preload)
	if err != nil {
		return nil, err
	}
	for i := 0; i < replayRecords; i++ {
		if err := db.BatchInsert(w.spare[i*replayBatch : (i+1)*replayBatch]); err != nil {
			db.Close() //errlint:ok the insert error is the one to report
			return nil, err
		}
	}
	// The copy is what a SIGKILL here would have left behind.
	if err := os.CopyFS(crashed, os.DirFS(live)); err != nil {
		db.Close() //errlint:ok the copy error is the one to report
		return nil, err
	}
	if err := db.Close(); err != nil {
		return nil, err
	}
	reopen := func(d string, wantRecords int) (time.Duration, error) {
		opts.Dir = d
		t0 := time.Now()
		db, err := core.Open(opts, nil)
		took := time.Since(t0)
		if err != nil {
			return 0, err
		}
		if got := db.Recover().RecordsReplayed; got != wantRecords {
			db.Close() //errlint:ok the mismatch is the one to report
			return 0, fmt.Errorf("reopen %s replayed %d WAL records, want %d", d, got, wantRecords)
		}
		return took, db.Close()
	}
	clean, err := reopen(live, 0)
	if err != nil {
		return nil, err
	}
	replayed, err := reopen(crashed, replayRecords)
	if err != nil {
		return nil, err
	}
	return []metric{{"core.replay_us_per_record",
		float64(replayed-clean) / 1e3 / replayRecords, "us"}}, nil
}

// pagerProbe writes and reads back a checkpoint snapshot of the
// preload.
func pagerProbe(dir string, sorted []geom.Point) ([]metric, error) {
	path := filepath.Join(dir, "probe.pages")
	p, err := pager.Open(path, 0)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := p.WriteSnapshot(sorted, 1); err != nil {
		p.Close() //errlint:ok the snapshot error is the one to report
		return nil, err
	}
	t1 := time.Now()
	got, err := p.ReadSnapshot()
	t2 := time.Now()
	if err == nil && len(got) != len(sorted) {
		err = fmt.Errorf("snapshot read back %d points, wrote %d", len(got), len(sorted))
	}
	if cerr := p.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	return []metric{
		{"pager.snapshot_write_ms", float64(t1.Sub(t0)) / float64(time.Millisecond), "ms"},
		{"pager.snapshot_read_ms", float64(t2.Sub(t1)) / float64(time.Millisecond), "ms"},
		{"pager.bytes_per_point", float64(st.Size()) / float64(len(sorted)), "B"},
	}, nil
}

// cpqaProbe drives one catenable priority queue with attrition through
// a seeded stream of its three operations, keyed like dyntop keys it
// (−y, so attrition is dominance), with dyntop's buffer parameter.
func cpqaProbe(sorted []geom.Point) []metric {
	d := emio.NewDisk(machine)
	b := int(math.Pow(float64(machine.B), 1-eps)) // dyntop's buffer parameter
	rng := rand.New(rand.NewSource(int64(len(sorted))))
	elem := func() cpqa.Elem {
		p := sorted[rng.Intn(len(sorted))]
		return cpqa.Elem{Key: -p.Y, Aux: p.X}
	}
	q := cpqa.New(d, b)
	m0 := mallocs()
	t0 := time.Now()
	for i := 0; i < cpqaOps; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			q = q.InsertAndAttrite(elem())
		case 6, 7:
			_, q, _ = q.DeleteMin()
		default:
			q2 := cpqa.New(d, b)
			for j := rng.Intn(32); j >= 0; j-- {
				q2 = q2.InsertAndAttrite(elem())
			}
			q = cpqa.CatenateAndAttrite(q, q2.BiasUntilReady())
		}
	}
	took := time.Since(t0)
	allocs := mallocs() - m0
	return []metric{
		{"cpqa.op_self_us", float64(took) / 1e3 / cpqaOps, "us"},
		{"cpqa.allocs_per_op", float64(allocs) / cpqaOps, "count"},
		{"cpqa.sim_ios_per_op", float64(d.Stats().IOs()) / cpqaOps, "count"},
	}
}
