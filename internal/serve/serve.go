// Package serve is the network front end of the repository — the
// "skyline-as-a-service" layer cmd/skylined wraps in a binary. It
// exposes the full core.DB surface over HTTP/JSON:
//
//   - every Figure-2 query shape plus the general 4-sided rectangle
//     and the whole-set skyline (POST /v1/{ns}/query);
//   - single and batched inserts and deletes (POST /v1/{ns}/insert,
//     POST /v1/{ns}/delete), with single-point writes multiplexed
//     through per-namespace group-commit combiners that feed each
//     batch to core.DB.Apply — concurrent clients share one structure
//     lock per batch instead of paying it per request;
//   - snapshot-pinned paginated reads (POST /v1/{ns}/snapshot to pin,
//     query with {"snapshot": id, "limit": k, "after_x": token} to
//     page without tearing, DELETE /v1/{ns}/snapshot/{id} to release);
//   - Len and the observability counters (GET /v1/{ns}/len,
//     GET /v1/{ns}/stats: queue, cache, resilience, recovery, I/O).
//
// Multi-tenancy is namespace-per-DB: the Config maps each namespace
// name to its own core.Options (shards, mirrors, cache, async queue,
// durable directory, admission caps), and the DB is opened lazily on
// the namespace's first request. Tenants share nothing but the
// process.
//
// Admission control maps the engine's typed failures onto HTTP status
// codes (see Status): ErrBackpressure → 429 with Retry-After,
// ErrDegraded and ErrClosed → 503 — a degraded namespace keeps serving
// reads, so only its writes fail — and ErrStatic → 409. Shutdown is
// graceful and ordered: stop accepting requests (the http.Server's
// job), then Server.Close every namespace — releasing snapshots,
// draining the async queues and checkpointing the durable ones — so an
// acknowledged write is never lost across SIGTERM and a reopen.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/emio"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/vfs"
)

// NamespaceConfig is the JSON-friendly subset of core.Options one
// namespace is opened with. The zero value is a purely in-memory
// dynamic index on the default simulated machine.
type NamespaceConfig struct {
	// B and M fix the simulated external-memory machine (block size
	// and memory, in words); zero means emio.DefaultConfig().
	B int `json:"b,omitempty"`
	M int `json:"m,omitempty"`
	// Epsilon is the paper's query/update trade knob; zero means 0.5,
	// so the selectable range is (0, 1] (see core.Options.Epsilon).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Static builds the immutable Theorem 1 index (writes return 409).
	// The default is dynamic — the wire is a write path, so the
	// polarity is inverted from core.Options.Dynamic.
	Static bool `json:"static,omitempty"`
	// Shards/Workers select the sharded concurrent engine.
	Shards  int `json:"shards,omitempty"`
	Workers int `json:"workers,omitempty"`
	// Mirrors maintains the transposed fast path for the
	// grounded-right-edge query family.
	Mirrors bool `json:"mirrors,omitempty"`
	// CacheEntries bounds the read-through LRU skyline cache.
	CacheEntries int `json:"cache_entries,omitempty"`
	// AsyncWrites buffers writes in the per-slab queue; FlushPoints
	// and FlushIntervalMS are its drain triggers (interval < 0
	// disables the background drainer).
	AsyncWrites     bool `json:"async_writes,omitempty"`
	FlushPoints     int  `json:"flush_points,omitempty"`
	FlushIntervalMS int  `json:"flush_interval_ms,omitempty"`
	// Dir makes the namespace durable (pager + WAL under Dir);
	// SyncWAL fsyncs every logged batch.
	Dir     string `json:"dir,omitempty"`
	SyncWAL bool   `json:"sync_wal,omitempty"`
	// MaxBuffered/ShedWrites are the async queue's admission cap: an
	// over-cap write drains inline (blocking) or, with ShedWrites, is
	// rejected — surfaced to clients as 429 + Retry-After.
	MaxBuffered int  `json:"max_buffered,omitempty"`
	ShedWrites  bool `json:"shed_writes,omitempty"`
	// Rebalance enables online shard rebalancing (requires a dynamic
	// namespace with shards > 1).
	Rebalance bool `json:"rebalance,omitempty"`
}

// Options translates the wire config into core.Options.
func (c NamespaceConfig) Options() core.Options {
	opts := core.Options{
		Machine:      emio.Config{B: c.B, M: c.M},
		Epsilon:      c.Epsilon,
		Dynamic:      !c.Static,
		Shards:       c.Shards,
		Workers:      c.Workers,
		Mirrors:      c.Mirrors,
		CacheEntries: c.CacheEntries,
		AsyncWrites:  c.AsyncWrites,
		FlushPoints:  c.FlushPoints,
		Dir:          c.Dir,
		SyncWAL:      c.SyncWAL,
		MaxBuffered:  c.MaxBuffered,
		ShedWrites:   c.ShedWrites,
		Rebalance:    c.Rebalance,
	}
	if c.FlushIntervalMS != 0 {
		opts.FlushInterval = time.Duration(c.FlushIntervalMS) * time.Millisecond
	}
	return opts
}

// jsonField names the NamespaceConfig JSON field a core.Options field
// path comes from: "Machine.B" is "b", "Epsilon" is "epsilon".
func jsonField(goField string) string {
	f, ok := reflect.TypeOf(NamespaceConfig{}).FieldByName(strings.TrimPrefix(goField, "Machine."))
	if !ok {
		return goField
	}
	name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	return name
}

// Config is the server's whole configuration — cmd/skylined reads it
// from a JSON file.
type Config struct {
	// Listen is the address cmd/skylined binds (the library ignores
	// it; tests drive the Handler directly).
	Listen string `json:"listen,omitempty"`
	// Namespaces maps each tenant name to its index configuration.
	// A request for a name absent here is a 404 — namespaces are
	// declared, not created on demand, so a typo cannot silently open
	// an empty index.
	Namespaces map[string]NamespaceConfig `json:"namespaces"`
	// SnapshotTTLMS bounds, in milliseconds, how long an idle pinned
	// snapshot may live before the server releases it (snapshots hold
	// retired storage spans; an abandoned one would hold them
	// forever). Zero means DefaultSnapshotTTL. Each query against a
	// snapshot renews it.
	SnapshotTTLMS int `json:"snapshot_ttl_ms,omitempty"`
	// MeasureIO serializes each query to measure its exact cold
	// simulated I/O cost, from empty frame caches (returned as "ios" in
	// query responses). Off by default: the measurement mutex would
	// serialize concurrent readers.
	MeasureIO bool `json:"measure_io,omitempty"`
	// FS is the filesystem durable namespaces open their files on; nil
	// means the real one. Tests inject a vfs.FaultFS here.
	FS vfs.FS `json:"-"`
}

// DefaultSnapshotTTL is the idle lifetime of a pinned snapshot when
// Config.SnapshotTTLMS is zero.
const DefaultSnapshotTTL = 60 * time.Second

// Server serves the configured namespaces. Create with New, expose
// with Handler, shut down with Close (drain + checkpoint).
type Server struct {
	cfg Config
	// ttl is the pinned-snapshot idle lifetime cfg.SnapshotTTLMS asks for.
	ttl time.Duration

	mu  sync.Mutex
	nss map[string]*namespace

	// closed rejects new namespace opens and writes during shutdown.
	closed bool

	// stopJanitor ends the snapshot-TTL sweeper.
	stopJanitor chan struct{}
	janitorWG   sync.WaitGroup
}

// namespace is one tenant: a lazily opened DB plus the serving-tier
// state layered on it (write combiners, pinned snapshots).
type namespace struct {
	name string
	cfg  NamespaceConfig

	once sync.Once
	db   *core.DB
	err  error

	ins *combiner[error]
	del *combiner[delResult]

	// ioMu serializes queries when Config.MeasureIO is set, so the
	// before/after Stats() delta is exactly this query's cold cost.
	ioMu sync.Mutex

	snapMu   sync.Mutex
	snaps    map[string]*pinnedSnap
	nextSnap int
}

// pinnedSnap is one client-pinned snapshot with its idle deadline.
type pinnedSnap struct {
	snap     *core.Snapshot
	deadline time.Time
}

// delResult is the per-point answer of a combined delete batch.
type delResult struct {
	removed bool
	err     error
}

// New validates cfg and returns a Server. No namespace is opened yet —
// each opens on its first request, so a 20-tenant config does not pay
// 20 index builds to start serving the one hot tenant.
func New(cfg Config) (*Server, error) {
	if len(cfg.Namespaces) == 0 {
		return nil, fmt.Errorf("serve: config declares no namespaces")
	}
	ttl := DefaultSnapshotTTL
	if cfg.SnapshotTTLMS > 0 {
		ttl = time.Duration(cfg.SnapshotTTLMS) * time.Millisecond
	}
	s := &Server{
		cfg:         cfg,
		ttl:         ttl,
		nss:         make(map[string]*namespace, len(cfg.Namespaces)),
		stopJanitor: make(chan struct{}),
	}
	for name, nc := range cfg.Namespaces {
		if name == "" {
			return nil, fmt.Errorf("serve: empty namespace name")
		}
		var oe *core.OptionError
		if err := nc.Options().Validate(); errors.As(err, &oe) {
			return nil, fmt.Errorf("serve: namespace %q: field %q: %s", name, jsonField(oe.Field), oe.Reason)
		}
		s.nss[name] = &namespace{name: name, cfg: nc}
	}
	s.janitorWG.Add(1)
	go s.janitor()
	return s, nil
}

// janitor sweeps expired pinned snapshots so an abandoned client
// cannot hold retired storage spans forever.
func (s *Server) janitor() {
	defer s.janitorWG.Done()
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-s.stopJanitor:
			return
		case now := <-tick.C:
			s.mu.Lock()
			nss := make([]*namespace, 0, len(s.nss))
			for _, ns := range s.nss {
				nss = append(nss, ns)
			}
			s.mu.Unlock()
			for _, ns := range nss {
				ns.sweepSnaps(now)
			}
		}
	}
}

func (ns *namespace) sweepSnaps(now time.Time) {
	ns.snapMu.Lock()
	defer ns.snapMu.Unlock()
	for id, ps := range ns.snaps {
		if now.After(ps.deadline) {
			ps.snap.Close()
			delete(ns.snaps, id)
		}
	}
}

// open returns the namespace's DB, opening it on first use. The
// sync.Once makes concurrent first requests share one build; a failed
// open is sticky (the config is wrong — retrying cannot fix it).
func (s *Server) open(name string) (*namespace, error) {
	s.mu.Lock()
	ns, ok := s.nss[name]
	closed := s.closed
	s.mu.Unlock()
	if !ok {
		return nil, errUnknownNamespace
	}
	if closed {
		return nil, fmt.Errorf("serve: %w", core.ErrClosed)
	}
	ns.once.Do(func() {
		opts := ns.cfg.Options()
		opts.FS = s.cfg.FS
		ns.db, ns.err = core.Open(opts, nil)
		if ns.err != nil {
			return
		}
		ns.snaps = make(map[string]*pinnedSnap)
		db := ns.db
		ns.ins = newCombiner(func(pts []geom.Point) []error {
			out := make([]error, len(pts))
			if _, err := db.Apply(nil, pts); err != nil {
				for i := range out {
					out[i] = err
				}
			}
			return out
		})
		ns.del = newCombiner(func(pts []geom.Point) []delResult {
			out := make([]delResult, len(pts))
			// removed is a subsequence of pts in pts order, so one walk
			// hands each waiter its own verdict — and of two waiters
			// deleting the same point, only the one that removed it.
			removed, err := db.Apply(pts, nil)
			for i, p := range pts {
				hit := len(removed) > 0 && removed[0] == p
				if hit {
					removed = removed[1:]
				}
				out[i] = delResult{removed: hit, err: err}
			}
			return out
		})
	})
	if ns.err != nil {
		return nil, fmt.Errorf("serve: open namespace %q: %w", name, ns.err)
	}
	return ns, nil
}

// Close shuts every opened namespace down in dependency order: pinned
// snapshots first (they hold retired storage), then the DBs — each
// Close drains the async queue and, when durable, checkpoints — so
// every write acknowledged before Close returns is applied and, with a
// Dir, on disk. The http.Server must stop accepting requests BEFORE
// Close runs (cmd/skylined orders exactly that on SIGTERM); requests
// racing past anyway get 503 from the closed flag.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	nss := make([]*namespace, 0, len(s.nss))
	for _, ns := range s.nss {
		nss = append(nss, ns)
	}
	s.mu.Unlock()
	close(s.stopJanitor)
	s.janitorWG.Wait()
	var firstErr error
	for _, ns := range nss {
		if ns.db == nil {
			continue
		}
		ns.snapMu.Lock()
		for id, ps := range ns.snaps {
			ps.snap.Close()
			delete(ns.snaps, id)
		}
		ns.snapMu.Unlock()
		if err := ns.db.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("serve: close namespace %q: %w", ns.name, err)
		}
	}
	return firstErr
}

// Handler returns the HTTP handler serving the wire protocol of
// docs/API.md.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/namespaces", s.handleNamespaces)
	mux.HandleFunc("POST /v1/{ns}/query", s.withNS(handleQuery))
	mux.HandleFunc("POST /v1/{ns}/insert", s.withNS(handleInsert))
	mux.HandleFunc("POST /v1/{ns}/delete", s.withNS(handleDelete))
	mux.HandleFunc("GET /v1/{ns}/len", s.withNS(handleLen))
	mux.HandleFunc("GET /v1/{ns}/stats", s.withNS(handleStats))
	mux.HandleFunc("POST /v1/{ns}/snapshot", s.withNS(handleSnapshotPin))
	mux.HandleFunc("DELETE /v1/{ns}/snapshot/{id}", s.withNS(handleSnapshotClose))
	return mux
}

// withNS resolves the {ns} path segment before the handler runs.
func (s *Server) withNS(h func(s *Server, ns *namespace, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ns, err := s.open(r.PathValue("ns"))
		if err != nil {
			writeErr(w, err)
			return
		}
		h(s, ns, w, r)
	}
}

// handleHealthz reports process liveness plus per-namespace health:
// 200 while every opened namespace is healthy, 503 when any is
// degraded (its reads still serve; see docs/API.md).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	nss := make([]*namespace, 0, len(s.nss))
	for _, ns := range s.nss {
		nss = append(nss, ns)
	}
	s.mu.Unlock()
	type nsHealth struct {
		Status string `json:"status"`
	}
	resp := struct {
		Status     string              `json:"status"`
		Namespaces map[string]nsHealth `json:"namespaces"`
	}{Status: "ok", Namespaces: map[string]nsHealth{}}
	code := http.StatusOK
	if closed {
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	for _, ns := range nss {
		switch {
		case ns.db == nil:
			resp.Namespaces[ns.name] = nsHealth{Status: "unopened"}
		case ns.db.Degraded() != nil:
			resp.Namespaces[ns.name] = nsHealth{Status: "degraded"}
			resp.Status = "degraded"
			if code == http.StatusOK {
				code = http.StatusServiceUnavailable
			}
		default:
			resp.Namespaces[ns.name] = nsHealth{Status: "ok"}
		}
	}
	writeJSON(w, code, resp)
}

func (s *Server) handleNamespaces(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	names := make([]string, 0, len(s.nss))
	for name := range s.nss {
		names = append(names, name)
	}
	s.mu.Unlock()
	sort.Strings(names)
	writeJSON(w, http.StatusOK, struct {
		Namespaces []string `json:"namespaces"`
	}{names})
}

// writeJSON writes v as the response body with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //errlint:ok response already committed; a broken client connection is its problem
}

// decode reads the request body into v, limited to 8 MiB so a rogue
// client cannot balloon the heap.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequestf("malformed request body: %v", err)
	}
	return nil
}

// renewFor computes the snapshot deadline from now.
func (s *Server) renewFor() time.Time { return time.Now().Add(s.ttl) }

// retryAfter is the Retry-After value served with 429 and draining
// 503 responses: long enough for a queue flush, short enough that a
// load generator's backoff does not crater its throughput.
const retryAfter = "1"

var errUnknownNamespace = errors.New("unknown namespace")
var errUnknownSnapshot = errors.New("unknown snapshot")

// badRequest tags client errors for Status.
type badRequest struct{ msg string }

func (e badRequest) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return badRequest{fmt.Sprintf(format, args...)}
}

// Status maps an error from the engine stack (or the wire layer) onto
// the HTTP status code and machine-readable code string of docs/API.md.
// It is the single source of truth for the error table — the handler
// tests assert the mapping against the real sentinels.
func Status(err error) (httpStatus int, code string) {
	var br badRequest
	switch {
	case err == nil:
		return http.StatusOK, "ok"
	case errors.Is(err, errUnknownNamespace), errors.Is(err, errUnknownSnapshot):
		return http.StatusNotFound, "not-found"
	case errors.As(err, &br):
		return http.StatusBadRequest, "bad-request"
	case errors.Is(err, core.ErrBackpressure):
		return http.StatusTooManyRequests, "backpressure"
	case errors.Is(err, core.ErrDegraded):
		return http.StatusServiceUnavailable, "degraded"
	case errors.Is(err, core.ErrClosed):
		return http.StatusServiceUnavailable, "closed"
	case errors.Is(err, core.ErrStatic):
		return http.StatusConflict, "static"
	case vfs.IsStorageErr(err):
		// The fatal storage fault that LATCHES degraded mode: the same
		// 503 its successors get from the ErrDegraded latch, so
		// clients see one consistent signal from the first fault on.
		return http.StatusServiceUnavailable, "degraded"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// writeErr renders err per the Status table, attaching the headers the
// code calls for (Retry-After on 429 and on draining 503s).
func writeErr(w http.ResponseWriter, err error) {
	status, code := Status(err)
	if status == http.StatusTooManyRequests || code == "closed" {
		w.Header().Set("Retry-After", retryAfter)
	}
	if code == "degraded" {
		w.Header().Set("X-Skyline-Degraded", "true")
	}
	writeJSON(w, status, struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}{err.Error(), code})
}

// ioCost runs query under the namespace's measurement mutex and
// returns its exact cold simulated I/O cost; with MeasureIO off it just
// runs the query. It empties every frame cache first (core.DB.DropCache,
// whose write-backs it does not count), so the cost does not depend on
// what earlier requests left resident. core.DB.Stats aggregates every
// shard and mirror disk, so the delta covers them all.
func (s *Server) ioCost(ns *namespace, query func() []geom.Point) (pts []geom.Point, ios uint64, measured bool) {
	if !s.cfg.MeasureIO {
		return query(), 0, false
	}
	ns.ioMu.Lock()
	defer ns.ioMu.Unlock()
	ns.db.DropCache()
	before := ns.db.Stats().IOs()
	pts = query()
	return pts, ns.db.Stats().IOs() - before, true
}

// --- wire types -----------------------------------------------------

// wirePoint is a point on the wire. Coordinates are int64 (geom.Coord)
// and decode exactly; JSON numbers with a fractional part are
// rejected.
type wirePoint struct {
	X geom.Coord `json:"x"`
	Y geom.Coord `json:"y"`
}

func (p wirePoint) pt() geom.Point { return geom.Point{X: p.X, Y: p.Y} }

func fromPoints(pts []geom.Point) []wirePoint {
	out := make([]wirePoint, len(pts))
	for i, p := range pts {
		out[i] = wirePoint{X: p.X, Y: p.Y}
	}
	return out
}

// queryReq is the body of POST /v1/{ns}/query. Shape selects which
// named parameters are required (see docs/API.md); grounded sides are
// implied by the shape, so clients never spell an infinity.
type queryReq struct {
	Shape string `json:"shape"`

	X1   *geom.Coord `json:"x1,omitempty"`
	X2   *geom.Coord `json:"x2,omitempty"`
	Y1   *geom.Coord `json:"y1,omitempty"`
	Y2   *geom.Coord `json:"y2,omitempty"`
	X    *geom.Coord `json:"x,omitempty"`
	Y    *geom.Coord `json:"y,omitempty"`
	Beta *geom.Coord `json:"beta,omitempty"`

	// Snapshot serves the query from a pinned snapshot instead of the
	// live index.
	Snapshot string `json:"snapshot,omitempty"`
	// Limit > 0 returns at most Limit points plus a resume token.
	Limit int `json:"limit,omitempty"`
	// AfterX resumes a paginated read: only points with x > AfterX
	// are reported. Sound for every shape — a skyline is reported in
	// increasing x, and a point's dominators never have smaller x.
	AfterX *geom.Coord `json:"after_x,omitempty"`
}

// queryResp is the answer: the (possibly paginated) skyline points,
// the resume token when Limit truncated, and the exact simulated I/O
// cost when the server measures it.
type queryResp struct {
	Points []wirePoint `json:"points"`
	More   bool        `json:"more,omitempty"`
	// NextAfterX is the after_x to pass for the next page.
	NextAfterX *geom.Coord `json:"next_after_x,omitempty"`
	IOs        *uint64     `json:"ios,omitempty"`
}

// rect builds the query rectangle from the shape's named parameters.
func (q *queryReq) rect() (geom.Rect, error) {
	need := func(name string, v *geom.Coord) (geom.Coord, error) {
		if v == nil {
			return 0, badRequestf("shape %q requires parameter %q", q.Shape, name)
		}
		return *v, nil
	}
	two := func(an string, a *geom.Coord, bn string, b *geom.Coord, f func(x, y geom.Coord) geom.Rect) (geom.Rect, error) {
		av, err := need(an, a)
		if err != nil {
			return geom.Rect{}, err
		}
		bv, err := need(bn, b)
		if err != nil {
			return geom.Rect{}, err
		}
		return f(av, bv), nil
	}
	three := func(an string, a *geom.Coord, bn string, b *geom.Coord, cn string, c *geom.Coord, f func(x, y, z geom.Coord) geom.Rect) (geom.Rect, error) {
		av, err := need(an, a)
		if err != nil {
			return geom.Rect{}, err
		}
		bv, err := need(bn, b)
		if err != nil {
			return geom.Rect{}, err
		}
		cv, err := need(cn, c)
		if err != nil {
			return geom.Rect{}, err
		}
		return f(av, bv, cv), nil
	}
	switch q.Shape {
	case "skyline":
		return geom.Rect{X1: geom.NegInf, X2: geom.PosInf, Y1: geom.NegInf, Y2: geom.PosInf}, nil
	case "top-open":
		return three("x1", q.X1, "x2", q.X2, "beta", q.Beta, geom.TopOpen)
	case "right-open":
		return three("x", q.X, "y1", q.Y1, "y2", q.Y2, geom.RightOpen)
	case "bottom-open":
		return three("x1", q.X1, "x2", q.X2, "y", q.Y, geom.BottomOpen)
	case "left-open":
		return three("x", q.X, "y1", q.Y1, "y2", q.Y2, geom.LeftOpen)
	case "dominance":
		return two("x", q.X, "y", q.Y, geom.Dominance)
	case "anti-dominance":
		return two("x", q.X, "y", q.Y, geom.AntiDominance)
	case "contour":
		x, err := need("x", q.X)
		if err != nil {
			return geom.Rect{}, err
		}
		return geom.Contour(x), nil
	case "4-sided":
		r1, err := two("x1", q.X1, "x2", q.X2, func(a, b geom.Coord) geom.Rect { return geom.Rect{X1: a, X2: b} })
		if err != nil {
			return geom.Rect{}, err
		}
		y1, err := need("y1", q.Y1)
		if err != nil {
			return geom.Rect{}, err
		}
		y2, err := need("y2", q.Y2)
		if err != nil {
			return geom.Rect{}, err
		}
		r1.Y1, r1.Y2 = y1, y2
		return r1, nil
	case "":
		return geom.Rect{}, badRequestf("missing query shape")
	default:
		return geom.Rect{}, badRequestf("unknown query shape %q", q.Shape)
	}
}

// handleQuery serves POST /v1/{ns}/query: classify the shape, narrow
// for pagination, run against the live index or a pinned snapshot,
// truncate to the page and hand back the resume token.
func handleQuery(s *Server, ns *namespace, w http.ResponseWriter, r *http.Request) {
	var req queryReq
	if err := decode(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	rect, err := req.rect()
	if err != nil {
		writeErr(w, err)
		return
	}
	if req.Limit < 0 {
		writeErr(w, badRequestf("negative limit %d", req.Limit))
		return
	}
	// Pagination narrows the rectangle instead of re-reporting and
	// skipping: every remaining skyline point — and each of its
	// dominators — has x past the token, so the narrowed query's
	// answer IS the rest of the staircase.
	if req.AfterX != nil {
		if *req.AfterX == geom.PosInf {
			writeJSON(w, http.StatusOK, queryResp{Points: []wirePoint{}})
			return
		}
		if *req.AfterX+1 > rect.X1 {
			rect.X1 = *req.AfterX + 1
		}
	}
	var run func() []geom.Point
	if req.Snapshot != "" {
		snap, err := ns.lookupSnap(req.Snapshot, s.renewFor())
		if err != nil {
			writeErr(w, err)
			return
		}
		run = func() []geom.Point { return snap.RangeSkyline(rect) }
	} else {
		run = func() []geom.Point { return ns.db.RangeSkyline(rect) }
	}
	pts, ios, measured := s.ioCost(ns, run)
	resp := queryResp{}
	if measured {
		resp.IOs = &ios
	}
	if req.Limit > 0 && len(pts) > req.Limit {
		page := pts[:req.Limit]
		last := page[len(page)-1].X
		resp.Points = fromPoints(page)
		resp.More = true
		resp.NextAfterX = &last
	} else {
		resp.Points = fromPoints(pts)
	}
	writeJSON(w, http.StatusOK, resp)
}

// lookupSnap resolves a pinned snapshot id, renewing its TTL.
func (ns *namespace) lookupSnap(id string, deadline time.Time) (*core.Snapshot, error) {
	ns.snapMu.Lock()
	defer ns.snapMu.Unlock()
	ps, ok := ns.snaps[id]
	if !ok {
		return nil, fmt.Errorf("serve: snapshot %q: %w", id, errUnknownSnapshot)
	}
	ps.deadline = deadline
	return ps.snap, nil
}

// writeReq is the body of POST /v1/{ns}/insert and /v1/{ns}/delete:
// one point (multiplexed through the group-commit combiner) or a
// batch (fed to core.DB.Apply directly).
type writeReq struct {
	Point  *wirePoint  `json:"point,omitempty"`
	Points []wirePoint `json:"points,omitempty"`
}

func (wr *writeReq) validate() ([]geom.Point, bool, error) {
	switch {
	case wr.Point != nil && wr.Points != nil:
		return nil, false, badRequestf(`exactly one of "point" and "points" must be set`)
	case wr.Point != nil:
		return []geom.Point{wr.Point.pt()}, true, nil
	case len(wr.Points) > 0:
		pts := make([]geom.Point, len(wr.Points))
		for i, p := range wr.Points {
			pts[i] = p.pt()
		}
		return pts, false, nil
	default:
		return nil, false, badRequestf(`missing "point" or "points"`)
	}
}

// handleInsert serves POST /v1/{ns}/insert. A 200 means the write is
// ACKNOWLEDGED: applied on a synchronous namespace, accepted into the
// queue on an async one (durable once drained — graceful shutdown
// drains, so acknowledged writes survive SIGTERM; kill -9 loses
// undrained ones, the documented async-commit trade).
func handleInsert(s *Server, ns *namespace, w http.ResponseWriter, r *http.Request) {
	var req writeReq
	if err := decode(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	pts, single, err := req.validate()
	if err != nil {
		writeErr(w, err)
		return
	}
	if single {
		err = ns.ins.do(pts[0])
	} else {
		_, err = ns.db.Apply(nil, pts)
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Inserted int `json:"inserted"`
	}{len(pts)})
}

// handleDelete serves POST /v1/{ns}/delete, reporting how many of the
// batch were present and removed (on async namespaces: accepted — the
// hit/miss resolves at drain, exactly core.DB.Delete's contract).
func handleDelete(s *Server, ns *namespace, w http.ResponseWriter, r *http.Request) {
	var req writeReq
	if err := decode(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	pts, single, err := req.validate()
	if err != nil {
		writeErr(w, err)
		return
	}
	removed := 0
	if single {
		res := ns.del.do(pts[0])
		if res.err != nil {
			writeErr(w, res.err)
			return
		}
		if res.removed {
			removed = 1
		}
	} else {
		got, err := ns.db.Apply(pts, nil)
		if err != nil {
			writeErr(w, err)
			return
		}
		removed = len(got)
	}
	writeJSON(w, http.StatusOK, struct {
		Removed int `json:"removed"`
	}{removed})
}

func handleLen(s *Server, ns *namespace, w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Len int `json:"len"`
	}{ns.db.Len()})
}

// statsResp mirrors the DB's observability surface onto the wire.
type statsResp struct {
	Len        int                  `json:"len"`
	IOs        uint64               `json:"ios"`
	Queue      engine.QueueCounters `json:"queue"`
	Cache      engine.CacheCounters `json:"cache"`
	Resilience core.ResilienceStats `json:"resilience"`
	Recovery   core.RecoveryStats   `json:"recovery"`
	Snapshots  int                  `json:"open_snapshots"`
	// SpaceStats adds live_blocks, peak_words and deferred_blocks: the
	// simulated space summed over shard and mirror disks.
	core.SpaceStats
	// Rebalance reports shard-rebalancing activity; omitted for
	// namespaces opened without "rebalance": true.
	Rebalance *core.RebalanceStats `json:"rebalance,omitempty"`
}

func handleStats(s *Server, ns *namespace, w http.ResponseWriter, r *http.Request) {
	resp := statsResp{
		Len:        ns.db.Len(),
		IOs:        ns.db.Stats().IOs(),
		Queue:      ns.db.QueueCounters(),
		Cache:      ns.db.CacheCounters(),
		Resilience: ns.db.Resilience(),
		Recovery:   ns.db.Recover(),
		Snapshots:  ns.db.OpenSnapshots(),
		SpaceStats: ns.db.Space(),
	}
	if ns.cfg.Rebalance {
		rb := ns.db.RebalanceStats()
		resp.Rebalance = &rb
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSnapshotPin serves POST /v1/{ns}/snapshot: pin a point-in-time
// view and hand back its id. The client pages through it with query
// {"snapshot": id, "limit": k, "after_x": token} and releases it with
// DELETE — or lets the TTL reap it.
func handleSnapshotPin(s *Server, ns *namespace, w http.ResponseWriter, r *http.Request) {
	snap, err := ns.db.Snapshot()
	if err != nil {
		writeErr(w, err)
		return
	}
	deadline := s.renewFor()
	ns.snapMu.Lock()
	ns.nextSnap++
	id := "s" + strconv.Itoa(ns.nextSnap)
	ns.snaps[id] = &pinnedSnap{snap: snap, deadline: deadline}
	ns.snapMu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Snapshot string `json:"snapshot"`
		TTLMS    int64  `json:"ttl_ms"`
	}{id, s.ttl.Milliseconds()})
}

func handleSnapshotClose(s *Server, ns *namespace, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ns.snapMu.Lock()
	ps, ok := ns.snaps[id]
	if ok {
		delete(ns.snaps, id)
	}
	ns.snapMu.Unlock()
	if !ok {
		writeErr(w, fmt.Errorf("serve: snapshot %q: %w", id, errUnknownSnapshot))
		return
	}
	ps.snap.Close()
	writeJSON(w, http.StatusOK, struct {
		Closed string `json:"closed"`
	}{id})
}
