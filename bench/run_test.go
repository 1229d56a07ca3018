package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/serve"
)

// TestAccountingCountsFailures drives a fake that is a real in-process
// server except for two requests: one query gets a 500, one verified
// query gets a wrong answer. The tally must read exactly 2 failed.
func TestAccountingCountsFailures(t *testing.T) {
	const ops = 400
	w := generate(specByName("thin_reads"), 5, 512, ops)
	srv, err := serve.New(serve.Config{Namespaces: map[string]serve.NamespaceConfig{namespace: w.spec.ns}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	if _, err := handle(h, "/insert", encodeBatch(w.preload)); err != nil {
		t.Fatal(err)
	}
	var queries atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/query") {
			switch queries.Add(1) {
			case 10: // inside the timed phase
				http.Error(rw, "injected failure", http.StatusInternalServerError)
				return
			case ops + 7: // one of the quiesce-point verification queries
				rw.Write([]byte(`{"points":[]}`)) //errlint:ok test fake
				return
			}
		}
		h.ServeHTTP(rw, r)
	}))
	defer fake.Close()

	var tl tally
	if _, err := drive(context.Background(), fake.URL, w, 5, quickSegments, &tl); err != nil {
		t.Fatal(err)
	}
	if got := tl.failed.Load(); got != 2 {
		t.Errorf("ops_failed = %d, want 2 (one 500, one wrong answer); reasons: %v", got, tl.reasons)
	}
	// the phase + sampled responses (1 in 100 per client segment, the 500
	// may have eaten one) + /len + verification queries
	least := int64(ops + 1 + verifyCount)
	if got := tl.attempted.Load(); got < least {
		t.Errorf("ops_attempted = %d, want at least %d", got, least)
	}
}

// benchmarkJSON is the slice of ../BENCHMARK.json the tests hold the
// program to.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// lastLine decodes the result line a run printed last.
func lastLine(t *testing.T, out *bytes.Buffer) report {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last output line is not the result object: %v\n%s", err, out)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("correct=%t attempted=%d failed=%d, want a clean run\n%s", rep.Correct, rep.Attempted, rep.Failed, out)
	}
	return rep
}

// TestQuickEndToEnd is the whole benchmark at smoke size: build
// skylined, then for each of the four workloads boot, preload, drive,
// verify — and on write_stream kill, recover and probe every
// acknowledged write — and report every end-to-end metric
// BENCHMARK.json names, none of them zero.
func TestQuickEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("boots skylined four times")
	}
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(specs))
	}
	var out bytes.Buffer
	err := run(context.Background(), &out, options{seed: 1, trace: "0", quick: true, workDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%v\n%s", err, &out)
	}
	rep := lastLine(t, &out)
	for i, s := range specs {
		if bj.Workloads[i].Name != s.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, bj.Workloads[i].Name, s.name)
		}
		for _, m := range bj.EndToEnd {
			got, ok := rep.Metrics[s.name+"."+m.Name]
			if !ok || got.Value <= 0 || got.Unit != m.Unit {
				t.Errorf("%s.%s = %+v (reported: %t), want a positive value in %s", s.name, m.Name, got, ok, m.Unit)
			}
		}
	}
	if want := len(specs) * len(bj.EndToEnd); len(rep.Metrics) != want {
		t.Errorf("run reported %d metrics, BENCHMARK.json names %d", len(rep.Metrics), want)
	}
}

// TestQuickTraced runs the traced pass on the workload with the tallest
// stack and checks that it reports exactly BENCHMARK.json's per-layer
// metrics and writes the spans.
func TestQuickTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("boots skylined")
	}
	bj := readBenchmarkJSON(t)
	spansPath := filepath.Join(t.TempDir(), "spans.json")
	var out bytes.Buffer
	err := run(context.Background(), &out, options{workload: "write_stream", seed: 2,
		trace: spansPath, quick: true, workDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%v\n%s", err, &out)
	}
	rep := lastLine(t, &out)
	for _, m := range bj.PerLayer {
		if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("%s = %+v (reported: %t), want unit %s", m.Name, got, ok, m.Unit)
		}
	}
	if len(rep.Metrics) != len(bj.PerLayer) {
		t.Errorf("traced run reported %d metrics, BENCHMARK.json names %d", len(rep.Metrics), len(bj.PerLayer))
	}
	blob, err := os.ReadFile(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(blob, &spans); err != nil {
		t.Fatal(err)
	}
	layers := make(map[string]bool)
	for _, s := range spans {
		layers[s.Layer] = true
	}
	for _, l := range treeLayers {
		if l != "engine.cache" && !layers[l] { // write_stream has no cache
			t.Errorf("no span for layer %s", l)
		}
	}
}
