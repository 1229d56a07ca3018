package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/vfs"
)

// newTestServer starts a Server over cfg behind an httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close() //errlint:ok idempotent cleanup; tests that care assert the first Close
	})
	return srv, hs
}

// call issues one JSON request and decodes the response body into out
// (which may be nil).
func call(t *testing.T, method, url string, body, out any) (int, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close() //errlint:ok test client
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("unmarshal %q: %v", raw, err)
		}
	}
	return resp.StatusCode, resp.Header
}

func wire(pts []geom.Point) []map[string]geom.Coord {
	out := make([]map[string]geom.Coord, len(pts))
	for i, p := range pts {
		out[i] = map[string]geom.Coord{"x": p.X, "y": p.Y}
	}
	return out
}

func pointsOf(resp queryResp) []geom.Point {
	out := make([]geom.Point, len(resp.Points))
	for i, p := range resp.Points {
		out[i] = geom.Point{X: p.X, Y: p.Y}
	}
	return out
}

func samePts(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var testNS = map[string]NamespaceConfig{"t": {B: 32, M: 32 * 32}}

// TestShapesVsOracle drives every query shape through the wire and
// compares byte-for-byte against the in-memory oracle.
func TestShapesVsOracle(t *testing.T) {
	_, hs := newTestServer(t, Config{Namespaces: testNS})
	pts := geom.GenUniform(500, 1<<14, 42)
	var ins struct {
		Inserted int `json:"inserted"`
	}
	if code, _ := call(t, "POST", hs.URL+"/v1/t/insert", map[string]any{"points": wire(pts)}, &ins); code != 200 {
		t.Fatalf("batch insert: status %d", code)
	}
	if ins.Inserted != len(pts) {
		t.Fatalf("inserted %d, want %d", ins.Inserted, len(pts))
	}
	checkShapes(t, hs.URL+"/v1/t/query", pts)
}

// TestEpsilonOneNamespace opens a namespace at ε = 1 — the shallowest
// Theorem 6 tree, two internal levels — writes to it, and checks every
// shape against the oracle.
func TestEpsilonOneNamespace(t *testing.T) {
	_, hs := newTestServer(t, Config{Namespaces: map[string]NamespaceConfig{"e1": {B: 32, M: 32 * 32, Epsilon: 1}}})
	pts := geom.GenUniform(600, 1<<14, 43)
	if code, _ := call(t, "POST", hs.URL+"/v1/e1/insert", map[string]any{"points": wire(pts)}, nil); code != 200 {
		t.Fatalf("batch insert: status %d", code)
	}
	gone, pts := pts[:100], pts[100:]
	if code, _ := call(t, "POST", hs.URL+"/v1/e1/delete", map[string]any{"points": wire(gone)}, nil); code != 200 {
		t.Fatalf("batch delete: status %d", code)
	}
	checkShapes(t, hs.URL+"/v1/e1/query", pts)
}

// checkShapes queries all nine shapes at url and compares each answer
// with the oracle over pts.
func checkShapes(t *testing.T, url string, pts []geom.Point) {
	t.Helper()
	const a, b, c = 3000, 11000, 7000
	cases := []struct {
		req  map[string]any
		rect geom.Rect
	}{
		{map[string]any{"shape": "skyline"}, geom.Rect{X1: geom.NegInf, X2: geom.PosInf, Y1: geom.NegInf, Y2: geom.PosInf}},
		{map[string]any{"shape": "top-open", "x1": a, "x2": b, "beta": c}, geom.TopOpen(a, b, c)},
		{map[string]any{"shape": "right-open", "x": a, "y1": c, "y2": b}, geom.RightOpen(a, c, b)},
		{map[string]any{"shape": "bottom-open", "x1": a, "x2": b, "y": c}, geom.BottomOpen(a, b, c)},
		{map[string]any{"shape": "left-open", "x": b, "y1": a, "y2": c}, geom.LeftOpen(b, a, c)},
		{map[string]any{"shape": "dominance", "x": a, "y": c}, geom.Dominance(a, c)},
		{map[string]any{"shape": "anti-dominance", "x": b, "y": c}, geom.AntiDominance(b, c)},
		{map[string]any{"shape": "contour", "x": a}, geom.Contour(a)},
		{map[string]any{"shape": "4-sided", "x1": a, "x2": b, "y1": 100, "y2": 12000}, geom.Rect{X1: a, X2: b, Y1: 100, Y2: 12000}},
	}
	for _, tc := range cases {
		var resp queryResp
		if code, _ := call(t, "POST", url, tc.req, &resp); code != 200 {
			t.Fatalf("%v: status %d", tc.req, code)
		}
		want := geom.RangeSkyline(pts, tc.rect)
		if got := pointsOf(resp); !samePts(got, want) {
			t.Errorf("%v: got %d points, want %d", tc.req, len(got), len(want))
		}
	}
}

// TestPagination pages a skyline with limit/after_x and checks the
// concatenation equals the unpaginated answer.
func TestPagination(t *testing.T) {
	_, hs := newTestServer(t, Config{Namespaces: testNS})
	pts := geom.GenStaircase(200, 7) // all maximal: 200-point skyline
	call(t, "POST", hs.URL+"/v1/t/insert", map[string]any{"points": wire(pts)}, nil)

	var full queryResp
	call(t, "POST", hs.URL+"/v1/t/query", map[string]any{"shape": "skyline"}, &full)
	if len(full.Points) != 200 {
		t.Fatalf("staircase skyline has %d points, want 200", len(full.Points))
	}

	var paged []geom.Point
	req := map[string]any{"shape": "skyline", "limit": 17}
	pages := 0
	for {
		var resp queryResp
		if code, _ := call(t, "POST", hs.URL+"/v1/t/query", req, &resp); code != 200 {
			t.Fatalf("page %d: status %d", pages, code)
		}
		paged = append(paged, pointsOf(resp)...)
		pages++
		if !resp.More {
			break
		}
		if resp.NextAfterX == nil {
			t.Fatal("more=true but no next_after_x")
		}
		req["after_x"] = *resp.NextAfterX
		if pages > 50 {
			t.Fatal("pagination did not terminate")
		}
	}
	if !samePts(paged, pointsOf(full)) {
		t.Fatalf("paged walk gave %d points, full answer %d", len(paged), len(full.Points))
	}
	if pages != 12 { // ceil(200/17)
		t.Errorf("took %d pages, want 12", pages)
	}
}

// TestSnapshotLifecycle pins a snapshot, mutates the live index, and
// checks the pinned view stays at the pin point until closed.
func TestSnapshotLifecycle(t *testing.T) {
	_, hs := newTestServer(t, Config{Namespaces: testNS})
	pts := geom.GenUniform(300, 1<<14, 9)
	call(t, "POST", hs.URL+"/v1/t/insert", map[string]any{"points": wire(pts)}, nil)

	var pin struct {
		Snapshot string `json:"snapshot"`
	}
	if code, _ := call(t, "POST", hs.URL+"/v1/t/snapshot", nil, &pin); code != 200 || pin.Snapshot == "" {
		t.Fatalf("pin failed: %q", pin.Snapshot)
	}
	var before queryResp
	call(t, "POST", hs.URL+"/v1/t/query", map[string]any{"shape": "skyline", "snapshot": pin.Snapshot}, &before)

	// A new global maximum changes the live skyline but not the pin.
	call(t, "POST", hs.URL+"/v1/t/insert", map[string]any{"point": map[string]geom.Coord{"x": 1 << 20, "y": 1 << 20}}, nil)
	var after, live queryResp
	call(t, "POST", hs.URL+"/v1/t/query", map[string]any{"shape": "skyline", "snapshot": pin.Snapshot}, &after)
	call(t, "POST", hs.URL+"/v1/t/query", map[string]any{"shape": "skyline"}, &live)
	if !samePts(pointsOf(before), pointsOf(after)) {
		t.Error("snapshot answer changed after a live write")
	}
	if samePts(pointsOf(live), pointsOf(after)) {
		t.Error("live answer still equals the snapshot's after a skyline-changing write")
	}

	if code, _ := call(t, "DELETE", hs.URL+"/v1/t/snapshot/"+pin.Snapshot, nil, nil); code != 200 {
		t.Fatalf("snapshot close: status %d", code)
	}
	if code, _ := call(t, "POST", hs.URL+"/v1/t/query", map[string]any{"shape": "skyline", "snapshot": pin.Snapshot}, nil); code != 404 {
		t.Fatalf("query on closed snapshot: status %d, want 404", code)
	}
	if code, _ := call(t, "DELETE", hs.URL+"/v1/t/snapshot/nope", nil, nil); code != 404 {
		t.Fatal("closing an unknown snapshot should 404")
	}
}

// TestSnapshotTTL lets the janitor reap an idle pinned snapshot.
func TestSnapshotTTL(t *testing.T) {
	_, hs := newTestServer(t, Config{Namespaces: testNS, SnapshotTTL: 50 * time.Millisecond})
	call(t, "POST", hs.URL+"/v1/t/insert", map[string]any{"points": wire(geom.GenUniform(50, 1<<12, 3))}, nil)
	var pin struct {
		Snapshot string `json:"snapshot"`
	}
	call(t, "POST", hs.URL+"/v1/t/snapshot", nil, &pin)
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _ := call(t, "POST", hs.URL+"/v1/t/query", map[string]any{"shape": "skyline", "snapshot": pin.Snapshot}, nil)
		if code == 404 {
			return // reaped
		}
		if time.Now().After(deadline) {
			t.Fatal("janitor never reaped the expired snapshot")
		}
		// Only off-TTL polls would renew it; wait out the deadline
		// without touching the snapshot.
		time.Sleep(1200 * time.Millisecond)
	}
}

// TestStatusTable pins the error → status mapping docs/API.md promises.
func TestStatusTable(t *testing.T) {
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{nil, 200, "ok"},
		{fmt.Errorf("x: %w", core.ErrBackpressure), 429, "backpressure"},
		{fmt.Errorf("x: %w", core.ErrDegraded), 503, "degraded"},
		{fmt.Errorf("x: %w", core.ErrClosed), 503, "closed"},
		{fmt.Errorf("x: %w", core.ErrStatic), 409, "static"},
		{fmt.Errorf("x: %w", errUnknownNamespace), 404, "not-found"},
		{fmt.Errorf("x: %w", errUnknownSnapshot), 404, "not-found"},
		{badRequestf("no"), 400, "bad-request"},
		{errors.New("surprise"), 500, "internal"},
	}
	for _, tc := range cases {
		status, code := Status(tc.err)
		if status != tc.status || code != tc.code {
			t.Errorf("Status(%v) = %d %q, want %d %q", tc.err, status, code, tc.status, tc.code)
		}
	}
}

// TestErrorMappingLive exercises the real failure paths end to end:
// 404 unknown namespace, 400 malformed requests, 409 static, 429 shed
// with Retry-After, 503 degraded (reads keep serving), 503 closed.
func TestErrorMappingLive(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, 1,
		// One fatal fault on the 30th data write: enough room for the
		// open, then the namespace degrades mid-stream.
		vfs.Fault{Op: vfs.OpWriteAt, After: 29, Nth: 1, Err: syscall.EIO},
	)
	srv, hs := newTestServer(t, Config{
		FS: ffs,
		Namespaces: map[string]NamespaceConfig{
			"t":      {B: 32, M: 32 * 32},
			"static": {B: 32, M: 32 * 32, Static: true},
			"shed": {B: 32, M: 32 * 32, AsyncWrites: true,
				FlushPoints: 1 << 20, FlushIntervalMS: -1,
				MaxBuffered: 1, ShedWrites: true},
			"fragile": {B: 32, M: 32 * 32, Dir: dir, SyncWAL: true},
		},
	})

	pt := func(i int) map[string]any {
		return map[string]any{"point": map[string]geom.Coord{"x": geom.Coord(i), "y": geom.Coord(1000 - i)}}
	}

	if code, _ := call(t, "POST", hs.URL+"/v1/nope/query", map[string]any{"shape": "skyline"}, nil); code != 404 {
		t.Errorf("unknown namespace: status %d, want 404", code)
	}
	var errResp struct {
		Code string `json:"code"`
	}
	if code, _ := call(t, "POST", hs.URL+"/v1/t/query", map[string]any{"shape": "pentagon"}, &errResp); code != 400 || errResp.Code != "bad-request" {
		t.Errorf("unknown shape: %d %q, want 400 bad-request", code, errResp.Code)
	}
	if code, _ := call(t, "POST", hs.URL+"/v1/t/query", map[string]any{"shape": "top-open", "x1": 1}, nil); code != 400 {
		t.Errorf("missing shape params: status %d, want 400", code)
	}
	if code, _ := call(t, "POST", hs.URL+"/v1/t/insert", map[string]any{}, nil); code != 400 {
		t.Errorf("empty write: status %d, want 400", code)
	}

	if code, _ := call(t, "POST", hs.URL+"/v1/static/insert", pt(1), &errResp); code != 409 || errResp.Code != "static" {
		t.Errorf("static write: %d %q, want 409 static", code, errResp.Code)
	}
	if code, _ := call(t, "POST", hs.URL+"/v1/static/query", map[string]any{"shape": "skyline"}, nil); code != 200 {
		t.Errorf("static read: status %d, want 200", code)
	}

	// Shed: cap 1 slab, no drain trigger — the second write sheds.
	sawShed := false
	for i := 0; i < 10; i++ {
		code, hdr := call(t, "POST", hs.URL+"/v1/shed/insert", pt(i), &errResp)
		if code == 429 {
			if errResp.Code != "backpressure" {
				t.Errorf("shed code %q, want backpressure", errResp.Code)
			}
			if hdr.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			sawShed = true
			break
		}
	}
	if !sawShed {
		t.Error("MaxBuffered=1 + ShedWrites never returned 429")
	}

	// Degraded: writes fail from the injected fatal fault on, reads
	// keep serving, healthz flips.
	sawDegraded := false
	for i := 0; i < 200; i++ {
		code, hdr := call(t, "POST", hs.URL+"/v1/fragile/insert", pt(i), &errResp)
		if code == 503 {
			if errResp.Code != "degraded" {
				t.Fatalf("fragile write failed with %q, want degraded", errResp.Code)
			}
			if hdr.Get("X-Skyline-Degraded") == "" && errResp.Code == "degraded" {
				// Header only set when the latch (not the raw fault)
				// answered; either is a valid first response.
				_ = hdr
			}
			sawDegraded = true
			break
		}
		if code != 200 {
			t.Fatalf("fragile insert %d: unexpected status %d %q", i, code, errResp.Code)
		}
	}
	if !sawDegraded {
		t.Fatal("fault schedule never degraded the namespace")
	}
	if code, _ := call(t, "POST", hs.URL+"/v1/fragile/query", map[string]any{"shape": "skyline"}, nil); code != 200 {
		t.Errorf("degraded read: status %d, want 200", code)
	}
	if code, _ := call(t, "POST", hs.URL+"/v1/fragile/insert", pt(999), &errResp); code != 503 || errResp.Code != "degraded" {
		t.Errorf("post-latch write: %d %q, want 503 degraded", code, errResp.Code)
	}
	var health struct {
		Status     string                       `json:"status"`
		Namespaces map[string]map[string]string `json:"namespaces"`
	}
	if code, _ := call(t, "GET", hs.URL+"/healthz", nil, &health); code != 503 || health.Namespaces["fragile"]["status"] != "degraded" {
		t.Errorf("healthz after degrade: %d %+v", code, health)
	}

	// Closed: after Close every request is a 503 "closed".
	if err := srv.Close(); err == nil || !errors.Is(err, core.ErrDegraded) {
		// fragile's skipped checkpoint must surface the degraded
		// latch from Close, not swallow it.
		t.Errorf("Close on a degraded durable namespace returned %v, want ErrDegraded", err)
	}
	if code, _ := call(t, "POST", hs.URL+"/v1/t/query", map[string]any{"shape": "skyline"}, &errResp); code != 503 || errResp.Code != "closed" {
		t.Errorf("post-close request: %d %q, want 503 closed", code, errResp.Code)
	}
}

// TestConcurrentNamespaces hammers several namespaces from many
// goroutines at once — the multi-tenant race test (run under -race in
// CI).
func TestConcurrentNamespaces(t *testing.T) {
	nss := map[string]NamespaceConfig{}
	for i := 0; i < 4; i++ {
		nss[fmt.Sprintf("n%d", i)] = NamespaceConfig{B: 32, M: 32 * 32, Shards: 2, Workers: 2, CacheEntries: 32}
	}
	_, hs := newTestServer(t, Config{Namespaces: nss})

	const perNS, writers = 60, 3
	var wg sync.WaitGroup
	errc := make(chan error, 4*writers+4)
	for i := 0; i < 4; i++ {
		ns := fmt.Sprintf("n%d", i)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(ns string, w int) {
				defer wg.Done()
				for k := 0; k < perNS; k++ {
					// Unique coordinates per (ns is its own DB; w,k
					// unique within it) keep general position.
					id := w*perNS + k
					body := map[string]any{"point": map[string]geom.Coord{
						"x": geom.Coord(id*7 + 1), "y": geom.Coord(1_000_000 - id*13)}}
					if code, _ := call(t, "POST", hs.URL+"/v1/"+ns+"/insert", body, nil); code != 200 {
						errc <- fmt.Errorf("%s insert %d: status %d", ns, id, code)
						return
					}
				}
			}(ns, w)
		}
		wg.Add(1)
		go func(ns string) {
			defer wg.Done()
			for k := 0; k < perNS; k++ {
				if code, _ := call(t, "POST", hs.URL+"/v1/"+ns+"/query", map[string]any{"shape": "skyline"}, nil); code != 200 {
					errc <- fmt.Errorf("%s query: status %d", ns, code)
					return
				}
			}
		}(ns)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	for i := 0; i < 4; i++ {
		var ln struct {
			Len int `json:"len"`
		}
		call(t, "GET", hs.URL+fmt.Sprintf("/v1/n%d/len", i), nil, &ln)
		if ln.Len != writers*perNS {
			t.Errorf("n%d has %d points, want %d", i, ln.Len, writers*perNS)
		}
	}
}

// TestStatsEndpoint sanity-checks the observability surface.
func TestStatsEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Config{Namespaces: map[string]NamespaceConfig{
		"t": {B: 32, M: 32 * 32, CacheEntries: 16, AsyncWrites: true, FlushPoints: 4, FlushIntervalMS: -1},
	}})
	call(t, "POST", hs.URL+"/v1/t/insert", map[string]any{"points": wire(geom.GenUniform(64, 1<<12, 5))}, nil)
	call(t, "POST", hs.URL+"/v1/t/query", map[string]any{"shape": "skyline"}, nil)
	call(t, "POST", hs.URL+"/v1/t/query", map[string]any{"shape": "skyline"}, nil)
	var stats statsResp
	if code, _ := call(t, "GET", hs.URL+"/v1/t/stats", nil, &stats); code != 200 {
		t.Fatalf("stats: status %d", code)
	}
	if stats.Len != 64 {
		t.Errorf("stats len %d, want 64", stats.Len)
	}
	if stats.Queue.Enqueued == 0 {
		t.Error("async namespace reports zero enqueued")
	}
	if stats.Cache.Hits == 0 {
		t.Error("repeated identical query never hit the cache")
	}
	// 64 points are 128 words: at least 4 blocks of 32, and the peak can
	// be no lower than what is live.
	if stats.LiveBlocks < 4 || stats.PeakWords < int64(stats.LiveBlocks) || stats.DeferredBlocks != 0 {
		t.Errorf("space = %+v, want live_blocks >= 4, peak_words >= live_blocks, deferred_blocks 0", stats.SpaceStats)
	}
}

// TestMeasureIO checks the per-query I/O cost surfaces when enabled
// and stays absent when not.
func TestMeasureIO(t *testing.T) {
	_, hs := newTestServer(t, Config{Namespaces: testNS, MeasureIO: true})
	call(t, "POST", hs.URL+"/v1/t/insert", map[string]any{"points": wire(geom.GenUniform(400, 1<<14, 11))}, nil)
	var resp queryResp
	call(t, "POST", hs.URL+"/v1/t/query", map[string]any{"shape": "contour", "x": 0}, &resp)
	if resp.IOs == nil {
		t.Fatal("measure_io on but no ios in response")
	}

	_, hs2 := newTestServer(t, Config{Namespaces: testNS})
	call(t, "POST", hs2.URL+"/v1/t/insert", map[string]any{"points": wire(geom.GenUniform(50, 1<<12, 12))}, nil)
	var resp2 queryResp
	call(t, "POST", hs2.URL+"/v1/t/query", map[string]any{"shape": "skyline"}, &resp2)
	if resp2.IOs != nil {
		t.Error("measure_io off but ios present")
	}
}

// TestDeleteRemovedCount checks the wire reports how many of a delete
// batch were actually present.
func TestDeleteRemovedCount(t *testing.T) {
	_, hs := newTestServer(t, Config{Namespaces: testNS})
	pts := geom.GenUniform(20, 1<<12, 21)
	call(t, "POST", hs.URL+"/v1/t/insert", map[string]any{"points": wire(pts)}, nil)

	var del struct {
		Removed int `json:"removed"`
	}
	// Half present, half absent (GenUniform coordinates are < 1<<12).
	batch := append(wire(pts[:5]), wire([]geom.Point{{X: 1 << 20, Y: 1 << 20}, {X: 1<<20 + 1, Y: 1<<20 + 1}})...)
	if code, _ := call(t, "POST", hs.URL+"/v1/t/delete", map[string]any{"points": batch}, &del); code != 200 {
		t.Fatalf("batch delete: status %d", code)
	}
	if del.Removed != 5 {
		t.Errorf("removed %d, want 5", del.Removed)
	}
	var ln struct {
		Len int `json:"len"`
	}
	call(t, "GET", hs.URL+"/v1/t/len", nil, &ln)
	if ln.Len != 15 {
		t.Errorf("len %d after deletes, want 15", ln.Len)
	}

	// Single-point deletes through the combiner report per-point hits.
	call(t, "POST", hs.URL+"/v1/t/delete", map[string]any{"point": wire(pts[6:7])[0]}, &del)
	if del.Removed != 1 {
		t.Errorf("present single delete removed %d, want 1", del.Removed)
	}
	call(t, "POST", hs.URL+"/v1/t/delete", map[string]any{"point": wire(pts[6:7])[0]}, &del)
	if del.Removed != 0 {
		t.Errorf("repeat single delete removed %d, want 0", del.Removed)
	}
}
