package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"

	"repro/internal/geom"
)

// client is one closed-loop caller: its own keep-alive connection, so
// the two clients never share a connection pool lock.
type client struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer // response body, reused across requests
}

func newClient(base string) *client {
	return &client{base: base + "/v1/" + namespace, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// Acknowledgement bodies of a single-point write. Sync namespaces
// report presence, async ones acceptance; the generator only deletes
// live points, so both always say 1.
var (
	ackInsert = []byte("{\"inserted\":1}\n")
	ackDelete = []byte("{\"removed\":1}\n")
)

var opPath = [...]string{opRead: "/query", opInsert: "/insert", opDelete: "/delete"}

// do sends one op and returns the response body (valid until the next
// call). Any transport error or non-200 is an error; a write whose
// acknowledgement is not the expected one is too.
func (c *client) do(o *op) ([]byte, error) {
	body, err := c.post(opPath[o.kind], o.body)
	if err != nil {
		return nil, err
	}
	switch o.kind {
	case opInsert:
		if !bytes.Equal(body, ackInsert) {
			return nil, fmt.Errorf("insert %v: unexpected ack %q", o.pt, body)
		}
	case opDelete:
		if !bytes.Equal(body, ackDelete) {
			return nil, fmt.Errorf("delete %v: unexpected ack %q", o.pt, body)
		}
	}
	return body, nil
}

func (c *client) post(path string, body []byte) ([]byte, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return c.drain(resp)
}

func (c *client) get(path string, out any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	body, err := c.drain(resp)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

func (c *client) drain(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := io.Copy(&c.buf, resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(c.buf.Bytes()))
	}
	return c.buf.Bytes(), nil
}

// encodeBatch is the body of a batched insert of pts.
func encodeBatch(pts []geom.Point) []byte {
	var b bytes.Buffer
	b.WriteString(`{"points":[`)
	for i, p := range pts {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"x":%d,"y":%d}`, p.X, p.Y)
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// insertBatch preloads pts through the batched insert path.
func (c *client) insertBatch(pts []geom.Point) error {
	_, err := c.post("/insert", encodeBatch(pts))
	return err
}

func (c *client) length() (int, error) {
	var out struct {
		Len int `json:"len"`
	}
	err := c.get("/len", &out)
	return out.Len, err
}

// stats is the slice of GET /stats the benchmark reports. Reading it
// flushes the async queue, so it is only ever taken at quiesce points.
type stats struct {
	IOs   uint64 `json:"ios"`
	Queue struct {
		Drained, Coalesced, ForcedDrains, ReadDrains uint64
	} `json:"queue"`
	Cache struct {
		Hits, Misses, Evictions, Invalidations uint64
	} `json:"cache"`
	Rebalance struct { // zero for a namespace without rebalance
		Splits, Merges uint64
		MirrorSplits   uint64 `json:"mirror_splits"`
		MirrorMerges   uint64 `json:"mirror_merges"`
		Shards         int
	} `json:"rebalance"`
}

// transitions is the number of shard splits and merges so far, primary
// and mirror engine together.
func (s stats) transitions() uint64 {
	r := s.Rebalance
	return r.Splits + r.Merges + r.MirrorSplits + r.MirrorMerges
}

func (c *client) stats() (stats, error) {
	var st stats
	err := c.get("/stats", &st)
	return st, err
}

// checkAnswer decodes a query response body and compares it with the
// oracle's answer for rect over the model of the live set.
func checkAnswer(body []byte, rect geom.Rect, model []geom.Point) error {
	var resp struct {
		Points []geom.Point `json:"points"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode answer: %w", err)
	}
	if want := geom.RangeSkyline(model, rect); !slices.Equal(resp.Points, want) {
		return fmt.Errorf("query %v: got %d points, oracle says %d", rect, len(resp.Points), len(want))
	}
	return nil
}
