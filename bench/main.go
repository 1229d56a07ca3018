// Command bench is the repository benchmark: four skylined workloads
// measured end to end over the wire, plus a traced in-process pass that
// replays a prefix of each workload through a ladder of the layers'
// public constructors. See README.md in this directory.
//
//	go run ./bench -seed 1                        # all four workloads
//	go run ./bench -workload fat_reads -seed 7    # one workload
//	go run ./bench -seed 1 -trace spans.json      # traced pass, spans written out
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (BENCHMARK.json's contract).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
)

// workDir holds the skylined binary the harness builds and, per run, a
// subdirectory for configs and WAL directories that is removed at the
// end. It is inside the checkout because the benchmark driver allows no
// write outside it, and it is listed in the root .gitignore.
const workDir = ".bench_build"

func main() {
	var (
		flagWorkload = flag.String("workload", "", "run one workload (default: all four, in order)")
		flagSeed     = flag.Int64("seed", 1, "workload seed: same seed, same op streams")
		flagTrace    = flag.String("trace", "0", "0: end-to-end metrics; 1: per-layer metrics; a file name: per-layer metrics, spans written there")
		flagQuick    = flag.Bool("quick", false, "smoke size: n0=2500, 2000 ops per workload")
	)
	// The benchmark driver passes BENCHMARK.json's run_seconds on every
	// command line. It is accepted and not used: a workload's op count is
	// a constant sized for that many seconds (see spec), so that two
	// commits always do the same work.
	flag.Int("seconds", 10, "accepted for the benchmark driver and ignored: op counts are fixed")
	flag.Parse()

	// SIGINT/SIGTERM cancel ctx; every child is started under it and
	// every run function kills its child on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Stdout, options{
		workload: *flagWorkload, seed: *flagSeed,
		trace: *flagTrace, quick: *flagQuick, workDir: workDir,
	})
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	trace    string
	quick    bool
	workDir  string // tests use a temp dir
}

// report is the contract's result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(ctx context.Context, out io.Writer, o options) error {
	todo := specs
	if o.workload != "" {
		s := specByName(o.workload)
		if s == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		todo = []*spec{s}
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}
	bin, err := buildServer(ctx, o.workDir)
	if err != nil {
		return err
	}
	printHeader(out, o)

	traced := o.trace != "0"
	ro := runOpts{bin: bin, workDir: o.workDir, setupReps: 3, segments: fullSegments}
	if traced || o.quick {
		ro.setupReps = 1
	}
	if o.quick {
		ro.segments = quickSegments
	}
	rep := report{Metrics: map[string]metricValue{}}
	var spans []span
	for _, s := range todo {
		n0, ops := s.sizes(o.quick)
		w := generate(s, o.seed, n0, ops)
		fmt.Fprintf(out, "\n== %s  n0=%d ops=%d clients=%d\n", s.name, n0, ops, s.clients)
		res, err := runWorkload(ctx, ro, w, o.seed)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		// The table shows everything the run measured; the result line
		// carries the end-to-end metrics of an untraced run and the
		// per-layer ones of a traced run.
		table, result := slices.Concat(res.e2e, res.layer), res.e2e
		if traced {
			lad, err := runLadder(ctx, o.workDir, w, o.quick)
			if err != nil {
				return fmt.Errorf("%s: traced pass: %w", s.name, err)
			}
			result = slices.Concat(res.layer, lad.metrics)
			table = slices.Concat(res.e2e, result)
			spans = append(spans, lad.spans...)
		}
		fmt.Fprintf(out, "   ops_attempted=%d ops_failed=%d lost_acks=%d\n",
			res.tally.attempted.Load(), res.tally.failed.Load(), res.lostAcks)
		for _, reason := range res.tally.reasons {
			fmt.Fprintf(out, "   failed: %s\n", reason)
		}
		for _, m := range table {
			fmt.Fprintf(out, "   %-34s %14.4f %s\n", m.name, m.value, m.unit)
		}
		for _, m := range result {
			name := m.name
			if len(todo) > 1 {
				name = s.name + "." + name
			}
			rep.Metrics[name] = metricValue{m.value, m.unit}
		}
		rep.Attempted += res.tally.attempted.Load()
		rep.Failed += res.tally.failed.Load()
	}
	rep.Correct = rep.Failed == 0
	if traced && o.trace != "1" {
		if err := writeSpans(o.trace, spans); err != nil {
			return err
		}
		fmt.Fprintf(out, "\n%d spans written to %s\n", len(spans), o.trace)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\n%s\n", line)
	return nil
}

// printHeader records what the numbers were measured on: the machine's
// momentary speed (five kernel runs) next to the constant they are
// corrected to.
func printHeader(out io.Writer, o options) {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	cals := make([]float64, 5)
	for i := range cals {
		cals[i] = calibrate()
	}
	sort.Float64s(cals)
	fmt.Fprintf(out, "bench: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d quick=%t\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, o.seed, o.quick)
	fmt.Fprintf(out, "bench: cal_ms min=%.2f median=%.2f max=%.2f (cal_ref_ms=%.2f)\n",
		cals[0], cals[2], cals[4], calRefMS)
}
