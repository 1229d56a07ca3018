// Command benchguard compares two skybench -json artifacts against the
// committed baseline. It is the benchstat-style gate of the CI bench
// job, with two severities:
//
//   - Warn-only (the default, and always the rule for wall-clock
//     comparisons): regressions surface as GitHub workflow warnings on
//     the job summary, because wall-clock on shared runners is noisy.
//   - Failing (-strict-io): the deterministic I/O metrics compare
//     exactly across hosts — a simulated block transfer does not care
//     what machine CI landed on — so a metric regression, or a metric
//     that vanished from the current run, is a real algorithmic
//     regression and exits non-zero with ::error:: annotations.
//
// Regardless of mode, a gate that compares NOTHING is a broken gate: a
// missing, malformed or empty baseline (for example a renamed
// BENCH_*.json, or an -e filter that matches no experiment) exits
// non-zero instead of silently passing. And a run that passes is not
// silent either: every performed comparison is printed as a delta table
// (baseline, current, relative change), so a green build still shows
// what moved.
//
// Two kinds of comparison, per experiment ID:
//
//   - Deterministic I/O metrics: any output line of the form
//     "<ID>-METRIC key=value ...". Fields with a decimal point are the
//     metrics (thm6=13.1 mirrored=4.0); every other field — strings and
//     integers alike — labels the measurement (shape=right-open
//     n=4096). Simulated block transfers do not depend on the host, so
//     these compare exactly across machines; a metric regression is a
//     real algorithmic regression. A metric regresses by rising, except
//     a throughput (a name ending in persec), which regresses by
//     falling.
//   - Wall-clock seconds, as a fallback for experiments that emit no
//     metric lines.
//
// Usage:
//
//	benchguard [-threshold 0.30] [-strict-io] baseline.json[,more.json...] current.json
//
// The baseline argument is a comma-separated list of artifact files
// merged by experiment ID — the committed BENCH_*.json files each
// carry one experiment, and one gate invocation covers them all. The
// same experiment in two baseline files is ambiguous and fails the
// run. Every row of the delta table names the baseline file its
// metric came from, so a regression message traces straight to the
// artifact to regenerate.
//
// Exit status: 0 when comparisons ran and (in -strict-io mode) no
// deterministic metric regressed; 1 for unreadable or malformed
// inputs, duplicate baseline experiments, zero performed comparisons,
// or strict-mode metric failures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

var (
	flagThreshold = flag.Float64("threshold", 0.30, "relative regression that triggers a warning")
	flagStrictIO  = flag.Bool("strict-io", false,
		"fail (exit 1) on deterministic I/O-metric regressions and on baseline metrics missing from the current run; wall-clock comparisons stay warn-only")
)

// result mirrors cmd/skybench's -json record.
type result struct {
	ID      string  `json:"id"`
	Quick   bool    `json:"quick"`
	Seconds float64 `json:"seconds"`
	Output  string  `json:"output"`
}

// metric is one labelled measurement parsed from a METRIC line.
type metric struct {
	labels string // canonical "k=v k=v" string of the non-numeric fields
	values map[string]float64
}

// parseMetrics extracts "<ID>-METRIC" lines from an experiment's
// captured output, keyed by their label set.
func parseMetrics(id, output string) map[string]metric {
	out := make(map[string]metric)
	prefix := id + "-METRIC"
	for _, line := range strings.Split(output, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		var labels []string
		values := make(map[string]float64)
		for _, tok := range strings.Fields(line[len(prefix):]) {
			k, v, ok := strings.Cut(tok, "=")
			if !ok {
				continue
			}
			// Decimal point ⇒ metric; integers (like n=4096) and
			// strings are labels identifying the measurement.
			if f, err := strconv.ParseFloat(v, 64); err == nil && strings.Contains(v, ".") {
				values[k] = f
			} else {
				labels = append(labels, tok)
			}
		}
		if len(values) > 0 {
			key := strings.Join(labels, " ")
			out[key] = metric{labels: key, values: values}
		}
	}
	return out
}

func load(path string) (map[string]result, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []result
	if err := json.Unmarshal(blob, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]result, len(rs))
	for _, r := range rs {
		out[r.ID] = r
	}
	return out, nil
}

// sourced pairs a baseline record with the file it came from, so every
// delta row and regression message names its provenance.
type sourced struct {
	result
	file string
}

// loadBaselines merges a comma-separated list of baseline artifacts by
// experiment ID. The same experiment in two files would make "which
// baseline gated this" ambiguous, so duplicates are an error rather
// than a silent override.
func loadBaselines(arg string) (map[string]sourced, error) {
	out := make(map[string]sourced)
	for _, path := range strings.Split(arg, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		rs, err := load(path)
		if err != nil {
			return nil, err
		}
		for id, r := range rs {
			if prev, ok := out[id]; ok {
				return nil, fmt.Errorf("experiment %s in both %s and %s", id, prev.file, path)
			}
			out[id] = sourced{result: r, file: path}
		}
	}
	return out, nil
}

// warn prints a GitHub-Actions warning annotation (a plain line off CI).
func warn(format string, args ...any) {
	fmt.Printf("::warning::benchguard: "+format+"\n", args...)
}

// failed is set by fail; main exits non-zero when it is.
var failed bool

// fail prints a GitHub-Actions error annotation and marks the run
// failed. Deterministic-metric problems route here in -strict-io mode,
// and warn otherwise.
func fail(format string, args ...any) {
	failed = true
	fmt.Printf("::error::benchguard: "+format+"\n", args...)
}

// metricProblem reports a deterministic-metric regression or gap:
// failing in -strict-io mode, a warning otherwise.
func metricProblem(format string, args ...any) {
	if *flagStrictIO {
		fail(format, args...)
	} else {
		warn(format, args...)
	}
}

// regressed is the slack math of the metric gate: a regression needs
// BOTH a relative excursion beyond threshold AND an absolute movement
// of more than one printed-precision step (metrics print with >= 0.1
// granularity), so a near-zero baseline cannot trip on its last rounded
// digit — but nothing looser: these metrics are deterministic, and a
// wider slack would quietly exempt small baselines from the documented
// threshold contract. A metric named like a throughput (higherIsBetter)
// regresses by falling, every other by rising.
func regressed(name string, base, cur, threshold float64) bool {
	if higherIsBetter(name) {
		return cur < base*(1-threshold) && base-cur > 0.1
	}
	return cur > base*(1+threshold) && cur-base > 0.1
}

// higherIsBetter reports whether a metric is a throughput, a count per
// second (E16's ingestpersec), which improves as it rises.
func higherIsBetter(name string) bool { return strings.HasSuffix(name, "persec") }

// deltaRow is one performed comparison, kept for the summary table.
// src is the baseline file the compared metric came from.
type deltaRow struct {
	id, labels, name, src string
	base, cur             float64
	bad                   bool
}

// printDelta renders every performed comparison — regressed or not — so
// a green run still shows exactly what moved and by how much, and from
// which baseline file, instead of passing silently.
func printDelta(rows []deltaRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Printf("%-4s %-44s %-10s %10s %10s %8s  %s\n",
		"exp", "labels", "metric", "baseline", "current", "delta", "source")
	for _, r := range rows {
		delta := "0.0%"
		switch {
		case r.base != 0:
			delta = fmt.Sprintf("%+.1f%%", 100*(r.cur/r.base-1))
		case r.cur != 0:
			delta = "new"
		}
		mark := ""
		if r.bad {
			mark = "  <-- regressed"
		}
		fmt.Printf("%-4s %-44s %-10s %10.2f %10.2f %8s  %s%s\n",
			r.id, r.labels, r.name, r.base, r.cur, delta, r.src, mark)
	}
}

func main() {
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchguard [-threshold 0.30] baseline.json[,more.json...] current.json")
		os.Exit(1)
	}
	baseline, err := loadBaselines(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
	current, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
	compared, regressions := 0, 0
	var table []deltaRow
	for id, base := range baseline {
		cur, ok := current[id]
		if !ok {
			metricProblem("experiment %s (baseline %s) missing from current run", id, base.file)
			continue
		}
		if base.Quick != cur.Quick {
			warn("experiment %s: baseline %s quick=%t vs current quick=%t; comparison skipped",
				id, base.file, base.Quick, cur.Quick)
			continue
		}
		bm, cm := parseMetrics(id, base.Output), parseMetrics(id, cur.Output)
		if len(bm) == 0 {
			// Fallback: wall clock, host-dependent and noisy — hence
			// warn-only by design.
			compared++
			bad := cur.Seconds > base.Seconds*(1+*flagThreshold)
			table = append(table, deltaRow{
				id: id, labels: "(wall clock)", name: "seconds", src: base.file,
				base: base.Seconds, cur: cur.Seconds, bad: bad,
			})
			if bad {
				regressions++
				warn("%s wall clock %.2fs vs baseline %.2fs (%s, +%.0f%%)",
					id, cur.Seconds, base.Seconds, base.file, 100*(cur.Seconds/base.Seconds-1))
			}
			continue
		}
		for key, b := range bm {
			c, ok := cm[key]
			if !ok {
				metricProblem("%s metric line [%s] (baseline %s) missing from current run", id, key, base.file)
				continue
			}
			for name, bv := range b.values {
				cv, ok := c.values[name]
				if !ok {
					metricProblem("%s [%s] metric %s (baseline %s) missing from current run", id, key, name, base.file)
					continue
				}
				compared++
				bad := regressed(name, bv, cv, *flagThreshold)
				table = append(table, deltaRow{id: id, labels: key, name: name, src: base.file, base: bv, cur: cv, bad: bad})
				if bad {
					regressions++
					metricProblem("%s [%s] %s=%.2f vs baseline %.2f (%s, %+.0f%%)",
						id, key, name, cv, bv, base.file, 100*(cv/bv-1))
				}
			}
		}
	}
	sort.Slice(table, func(i, j int) bool {
		if table[i].id != table[j].id {
			return table[i].id < table[j].id
		}
		if table[i].labels != table[j].labels {
			return table[i].labels < table[j].labels
		}
		return table[i].name < table[j].name
	})
	printDelta(table)
	if compared == 0 {
		// A renamed baseline, an empty artifact or a filter matching
		// nothing would otherwise disable the gate without a trace.
		fail("no comparisons performed: baseline %s provides nothing to compare against %s",
			flag.Arg(0), flag.Arg(1))
	}
	mode := "warn-only"
	if *flagStrictIO {
		mode = "strict-io"
	}
	fmt.Printf("benchguard: %d comparisons, %d regressions beyond %.0f%% (%s)\n",
		compared, regressions, 100**flagThreshold, mode)
	if failed {
		os.Exit(1)
	}
}
