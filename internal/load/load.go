// Package load generates skylined workloads and measures what came
// back. It is the engine room shared by cmd/skyload (the standalone
// load generator) and skybench's E19 (the serving-tier experiment):
// both run the same seeded op stream through the same HTTP client, so
// the numbers CI gates and the numbers an operator measures by hand
// are the same code path.
//
// A workload is a deterministic function of its Config: inserts pop
// from a pre-generated general-position pool (geom.GenUniform — the
// engine requires distinct coordinates, so write keys cannot be
// skewed), deletes target earlier acknowledged inserts, and queries
// draw their shape and anchor from the seeded RNG with optional Zipf
// skew over the x-axis — hot-spot READS, unique-key WRITES, the usual
// serving-tier shape.
//
// Two kinds of numbers come out:
//
//   - wall-clock latency percentiles and achieved QPS — host-dependent,
//     reported but never gated;
//   - simulated-I/O-cost percentiles per query (the "ios" field the
//     server returns when it runs with measure_io) — deterministic for
//     a seeded closed-loop run at concurrency 1, so CI gates them.
package load

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/geom"
)

// Config fixes a workload. Every field with a zero default is usable
// as-is; see cmd/skyload for the flag spelling of each.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8787".
	BaseURL string
	// Namespace is the tenant every op targets.
	Namespace string
	// Ops is the total operation count.
	Ops int
	// Conc is the closed-loop concurrency (workers issuing
	// back-to-back requests). 1 — the default — is fully
	// deterministic.
	Conc int
	// TargetQPS > 0 switches to an open loop: arrivals are scheduled
	// at the target rate regardless of completions, so queueing delay
	// shows up in the latency tail instead of hiding in a slowed
	// arrival stream (coordinated omission).
	TargetQPS float64
	// ReadFrac in [0,1] is the fraction of ops that are queries; the
	// rest are writes, split 3:1 insert:delete.
	ReadFrac float64
	// ZipfS > 1 skews query anchors toward low x with a Zipf(s)
	// distribution over Span buckets; 0 means uniform.
	ZipfS float64
	// Span is the coordinate universe [0, Span)²; zero means 1<<20.
	Span int64
	// Seed fixes the op stream.
	Seed int64
	// Client overrides the HTTP client (nil: a fresh one, no timeout).
	Client *http.Client
}

// Result is what one Run measured.
type Result struct {
	Ops, Reads, Inserts, Deletes int
	// Errors counts non-2xx responses and transport failures;
	// Backpressure counts the 429 subset (retried, not failed).
	Errors, Backpressure int
	// Acked are the insert points the server acknowledged with 200 and
	// DelAcked the delete points — after a graceful shutdown and a
	// reopen, Acked minus DelAcked must all be present (the zero-
	// lost-acks invariant E19 and the server tests assert).
	Acked, DelAcked []geom.Point
	// InsUnknown and DelUnknown are the writes whose outcome is unknown:
	// a transport error with no HTTP status after the request may have
	// been sent (anything but a failed dial), so the server may have
	// applied the write before the reply was lost — a connection closed
	// by a shutdown after the request was read. They count in Errors
	// and not in Expected.
	InsUnknown, DelUnknown []geom.Point
	// Wall holds one end-to-end latency per completed op; under an
	// open loop it is measured from the op's SCHEDULED start.
	Wall []time.Duration
	// IOs holds one simulated-I/O cost per query, when the server
	// measures them (measure_io); empty otherwise.
	IOs []uint64
	// Elapsed is the whole run's wall time.
	Elapsed time.Duration
}

// QPS is the achieved throughput.
func (r *Result) QPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// WallPercentile returns the p-th (0 < p <= 100) wall-latency
// percentile.
func (r *Result) WallPercentile(p float64) time.Duration {
	if len(r.Wall) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), r.Wall...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[pctIndex(p, len(s))]
}

// IOPercentile returns the p-th percentile of per-query simulated I/O
// cost.
func (r *Result) IOPercentile(p float64) uint64 {
	if len(r.IOs) == 0 {
		return 0
	}
	s := append([]uint64(nil), r.IOs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[pctIndex(p, len(s))]
}

// pctIndex is the nearest-rank index of percentile p in n samples.
func pctIndex(p float64, n int) int {
	i := int(p/100*float64(n)+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// op is one scheduled operation.
type op struct {
	kind  byte // 'q', 'i', 'd'
	pt    geom.Point
	shape string
	req   map[string]any
}

// shapes are the read mix: every Figure-2 shape plus the whole-set
// skyline, uniformly.
var shapes = []string{
	"top-open", "right-open", "bottom-open", "left-open",
	"dominance", "anti-dominance", "contour", "skyline",
}

// plan expands cfg into its deterministic op stream.
func plan(cfg Config) []op {
	span := cfg.Span
	if span <= 0 {
		span = 1 << 20
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var zipf *rand.Zipf
	if cfg.ZipfS > 1 {
		zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(span-1))
	}
	anchor := func() geom.Coord {
		if zipf != nil {
			return geom.Coord(zipf.Uint64())
		}
		return geom.Coord(rng.Int63n(span))
	}
	// The insert pool: every op could be an insert, so size for all of
	// them. GenUniform keeps general position within the pool; live
	// deletes keep the server's set a subset of it.
	pool := geom.GenUniform(cfg.Ops, geom.Coord(span), cfg.Seed+1)
	nextIns := 0
	var live []geom.Point

	ops := make([]op, cfg.Ops)
	for i := range ops {
		if rng.Float64() < cfg.ReadFrac {
			shape := shapes[rng.Intn(len(shapes))]
			a, b := anchor(), anchor()
			if a > b {
				a, b = b, a
			}
			c := anchor()
			req := map[string]any{"shape": shape}
			switch shape {
			case "top-open":
				req["x1"], req["x2"], req["beta"] = a, b, c
			case "bottom-open":
				req["x1"], req["x2"], req["y"] = a, b, c
			case "right-open", "left-open":
				req["x"], req["y1"], req["y2"] = c, a, b
			case "dominance", "anti-dominance":
				req["x"], req["y"] = a, c
			case "contour":
				req["x"] = a
			case "skyline":
			}
			ops[i] = op{kind: 'q', shape: shape, req: req}
			continue
		}
		// Writes: 3:1 insert:delete, deletes drawn from the live set.
		if len(live) > 0 && rng.Intn(4) == 0 {
			j := rng.Intn(len(live))
			ops[i] = op{kind: 'd', pt: live[j]}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		p := pool[nextIns]
		nextIns++
		ops[i] = op{kind: 'i', pt: p}
		live = append(live, p)
	}
	return ops
}

// Client is a minimal skylined wire client.
type Client struct {
	Base string
	NS   string
	HTTP *http.Client
}

func (c *Client) post(path string, body, out any) (int, error) {
	blob, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := c.HTTP.Post(c.Base+"/v1/"+c.NS+path, "application/json", bytes.NewReader(blob))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close() //errlint:ok read-side close of a fully drained response
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	if out != nil {
		return resp.StatusCode, json.Unmarshal(raw, out)
	}
	return resp.StatusCode, nil
}

// Query runs one query request body and returns the response.
func (c *Client) Query(req map[string]any) (pts []geom.Point, ios *uint64, status int, err error) {
	var resp struct {
		Points []struct {
			X geom.Coord `json:"x"`
			Y geom.Coord `json:"y"`
		} `json:"points"`
		IOs *uint64 `json:"ios"`
	}
	status, err = c.post("/query", req, &resp)
	if err != nil {
		return nil, nil, status, err
	}
	pts = make([]geom.Point, len(resp.Points))
	for i, p := range resp.Points {
		pts[i] = geom.Point{X: p.X, Y: p.Y}
	}
	return pts, resp.IOs, status, nil
}

// Insert inserts one point.
func (c *Client) Insert(p geom.Point) (int, error) {
	return c.post("/insert", map[string]any{"point": map[string]geom.Coord{"x": p.X, "y": p.Y}}, nil)
}

// Delete deletes one point.
func (c *Client) Delete(p geom.Point) (int, error) {
	return c.post("/delete", map[string]any{"point": map[string]geom.Coord{"x": p.X, "y": p.Y}}, nil)
}

// Run executes the workload and returns its measurements. With
// Conc <= 1 and no TargetQPS the run is closed-loop single-threaded:
// op order, and therefore every simulated-I/O cost, is deterministic.
func Run(cfg Config) (*Result, error) {
	if cfg.Ops <= 0 {
		return nil, fmt.Errorf("load: Ops must be positive")
	}
	conc := cfg.Conc
	if conc < 1 {
		conc = 1
	}
	hc := cfg.Client
	if hc == nil {
		hc = &http.Client{}
	}
	client := &Client{Base: cfg.BaseURL, NS: cfg.Namespace, HTTP: hc}
	ops := plan(cfg)

	type sample struct {
		op      op
		wall    time.Duration
		ios     *uint64
		status  int
		err     error
		started bool
	}
	samples := make([]sample, len(ops))

	// Open loop: precompute each op's scheduled start offset.
	var sched []time.Duration
	if cfg.TargetQPS > 0 {
		sched = make([]time.Duration, len(ops))
		per := time.Duration(float64(time.Second) / cfg.TargetQPS)
		for i := range sched {
			sched[i] = time.Duration(i) * per
		}
	}

	start := time.Now()
	next := make(chan int, conc)
	go func() {
		for i := range ops {
			if sched != nil {
				if d := time.Until(start.Add(sched[i])); d > 0 {
					time.Sleep(d)
				}
			}
			next <- i
		}
		close(next)
	}()
	done := make(chan struct{}, conc)
	for w := 0; w < conc; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range next {
				o := ops[i]
				t0 := time.Now()
				if sched != nil {
					// Open loop measures from the scheduled start, so
					// time spent queued behind slow completions counts.
					t0 = start.Add(sched[i])
				}
				s := &samples[i]
				s.op, s.started = o, true
				switch o.kind {
				case 'q':
					_, s.ios, s.status, s.err = client.Query(o.req)
				case 'i':
					s.status, s.err = client.Insert(o.pt)
				case 'd':
					s.status, s.err = client.Delete(o.pt)
				}
				s.wall = time.Since(t0)
			}
		}()
	}
	for w := 0; w < conc; w++ {
		<-done
	}

	res := &Result{Elapsed: time.Since(start)}
	for i := range samples {
		s := &samples[i]
		if !s.started {
			continue
		}
		res.Ops++
		res.Wall = append(res.Wall, s.wall)
		if s.err != nil {
			if s.status == http.StatusTooManyRequests {
				res.Backpressure++
			} else {
				res.Errors++
			}
			if s.status == 0 && mayHaveApplied(s.err) {
				switch s.op.kind {
				case 'i':
					res.InsUnknown = append(res.InsUnknown, s.op.pt)
				case 'd':
					res.DelUnknown = append(res.DelUnknown, s.op.pt)
				}
			}
			continue
		}
		switch s.op.kind {
		case 'q':
			res.Reads++
			if s.ios != nil {
				res.IOs = append(res.IOs, *s.ios)
			}
		case 'i':
			res.Inserts++
			res.Acked = append(res.Acked, s.op.pt)
		case 'd':
			res.Deletes++
			res.DelAcked = append(res.DelAcked, s.op.pt)
		}
	}
	return res, nil
}

// mayHaveApplied reports whether a request that failed with no HTTP
// status could have reached the server: every transport error except a
// failed dial, which sent nothing.
func mayHaveApplied(err error) bool {
	var op *net.OpError
	return !errors.As(err, &op) || op.Op != "dial"
}

// Expected returns the point set a server must hold after every
// acknowledged op in r is applied: acknowledged inserts minus
// acknowledged deletes. The zero-lost-acks checks diff this against
// the reopened index.
func (r *Result) Expected() map[geom.Point]bool {
	want := make(map[geom.Point]bool, len(r.Acked))
	for _, p := range r.Acked {
		want[p] = true
	}
	for _, p := range r.DelAcked {
		delete(want, p)
	}
	return want
}

// WriteCSV writes one row per completed op class to path: the artifact
// cmd/skyload leaves behind for offline analysis.
func (r *Result) WriteCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	rows := [][]string{
		{"metric", "value"},
		{"ops", strconv.Itoa(r.Ops)},
		{"reads", strconv.Itoa(r.Reads)},
		{"inserts", strconv.Itoa(r.Inserts)},
		{"deletes", strconv.Itoa(r.Deletes)},
		{"errors", strconv.Itoa(r.Errors)},
		{"backpressure_429", strconv.Itoa(r.Backpressure)},
		{"elapsed_s", fmt.Sprintf("%.3f", r.Elapsed.Seconds())},
		{"qps", fmt.Sprintf("%.1f", r.QPS())},
		{"wall_p50_us", strconv.FormatInt(r.WallPercentile(50).Microseconds(), 10)},
		{"wall_p99_us", strconv.FormatInt(r.WallPercentile(99).Microseconds(), 10)},
		{"wall_p999_us", strconv.FormatInt(r.WallPercentile(99.9).Microseconds(), 10)},
		{"io_p50", strconv.FormatUint(r.IOPercentile(50), 10)},
		{"io_p99", strconv.FormatUint(r.IOPercentile(99), 10)},
		{"io_p999", strconv.FormatUint(r.IOPercentile(99.9), 10)},
	}
	if err := w.WriteAll(rows); err != nil {
		f.Close() //errlint:ok write error already reported
		return err
	}
	return f.Close()
}
