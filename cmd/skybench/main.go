// Command skybench regenerates the paper's evaluation artifacts: one
// experiment per row of Table 1 plus the Theorem 3, SABE and baseline
// claims, and the engine-level scaling studies (experiments E1–E12 of
// EXPERIMENTS.md). Each experiment prints a table of measured I/O costs
// whose growth shape is the reproduced result; absolute constants depend
// on the simulator, the shapes do not.
//
// Usage:
//
//	skybench                       # run everything
//	skybench -e E1,E4              # run selected experiments
//	skybench -quick                # smaller sweeps
//	skybench -json BENCH_run.json  # also record a machine-readable artifact
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cpqa"
	"repro/internal/dyntop"
	"repro/internal/emio"
	"repro/internal/engine"
	"repro/internal/extsort"
	"repro/internal/foursided"
	"repro/internal/geom"
	"repro/internal/lowerbound"
	"repro/internal/ppb"
	"repro/internal/rankspace"
	"repro/internal/shard"
	"repro/internal/skyline"
	"repro/internal/topopen"
	"repro/internal/vfs"
)

var (
	flagExp   = flag.String("e", "", "comma-separated experiment ids (default: all)")
	flagQuick = flag.Bool("quick", false, "smaller parameter sweeps")
	flagJSON  = flag.String("json", "", "write a JSON artifact of every experiment's output and timing (e.g. BENCH_smoke.json)")
)

var cfg = emio.Config{B: 64, M: 64 * 64}

// result is one experiment's record in the -json artifact.
type result struct {
	ID      string  `json:"id"`
	Quick   bool    `json:"quick"`
	Seconds float64 `json:"seconds"`
	Output  string  `json:"output"`
}

// capture runs fn with os.Stdout teed into a buffer, returning what it
// printed. Output streams to the real stdout live (io.MultiWriter), so
// long experiments stay watchable in -json mode; stdout is restored
// even if fn panics.
func capture(fn func()) string {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		fn() // no capture, but still run
		return ""
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		var b strings.Builder
		io.Copy(io.MultiWriter(&b, old), r) //errlint:ok best-effort tee; a broken pipe just ends capture
		r.Close()                           //errlint:ok read side of our own pipe
		done <- b.String()
	}()
	defer func() {
		w.Close() //errlint:ok second Close after the one below is a no-op on panic-free paths
		os.Stdout = old
	}()
	fn()
	w.Close() //errlint:ok in-memory pipe; Close only signals EOF to the tee
	os.Stdout = old
	return <-done
}

func main() {
	flag.Parse()
	want := map[string]bool{}
	for _, e := range strings.Split(*flagExp, ",") {
		if e != "" {
			want[strings.ToUpper(strings.TrimSpace(e))] = true
		}
	}
	results := []result{} // non-nil so -json writes [] when nothing runs
	run := func(id string, fn func()) {
		if len(want) > 0 && !want[id] {
			return
		}
		start := time.Now()
		if *flagJSON != "" {
			out := capture(fn)
			results = append(results, result{
				ID:      id,
				Quick:   *flagQuick,
				Seconds: time.Since(start).Seconds(),
				Output:  out,
			})
		} else {
			fn()
		}
		fmt.Println()
	}
	run("E1", e1)
	run("E2", e2)
	run("E3", e3)
	run("E4", e4)
	run("E5", e5)
	run("E6", e6)
	run("E7", e7)
	run("E8", e8)
	run("E9", e9)
	run("E10", e10)
	run("E11", e11)
	run("E12", e12)
	run("E13", e13)
	run("E14", e14)
	run("E15", e15)
	run("E16", e16)
	run("E17", e17)
	run("E18", e18)
	run("E19", e19)
	run("E20", e20)
	if *flagJSON != "" {
		blob, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(*flagJSON, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "skybench: writing %s: %v\n", *flagJSON, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d experiments)\n", *flagJSON, len(results))
	}
}

func sizes(quickSizes, fullSizes []int) []int {
	if *flagQuick {
		return quickSizes
	}
	return fullSizes
}

// avgWorst runs queries and returns (mean I/Os, worst I/Os, mean k).
func measure(d *emio.Disk, rounds int, fn func() int) (mean, worst, meanK float64) {
	var tot, wk, kk uint64
	for i := 0; i < rounds; i++ {
		st := d.Measure(func() { kk += uint64(fn()) })
		tot += st.IOs()
		if st.IOs() > wk {
			wk = st.IOs()
		}
	}
	return float64(tot) / float64(rounds), float64(wk), float64(kk) / float64(rounds)
}

func e1() {
	fmt.Println("E1  static top-open (Theorem 1): query ~ log_B n + k/B")
	fmt.Printf("%10s %12s %12s %10s\n", "n", "mean I/Os", "worst I/Os", "mean k")
	for _, n := range sizes([]int{1 << 12, 1 << 14}, []int{1 << 12, 1 << 14, 1 << 16, 1 << 18}) {
		d := emio.NewDisk(cfg)
		pts := geom.GenUniform(n, int64(n)*16, int64(n))
		geom.SortByX(pts)
		ix := topopen.Build(d, extsort.FromSlice(d, 2, pts))
		rng := rand.New(rand.NewSource(1))
		mean, worst, k := measure(d, 60, func() int {
			x1 := geom.Coord(rng.Int63n(int64(n) * 16))
			return len(ix.Query(x1, x1+int64(n), geom.Coord(rng.Int63n(int64(n)*16))))
		})
		fmt.Printf("%10d %12.1f %12.0f %10.1f\n", n, mean, worst, k)
	}
}

func e2() {
	fmt.Println("E2  grid top-open (Corollary 1): query ~ log log_B U + k/B")
	fmt.Printf("%10s %12s %12s\n", "log2 U", "mean I/Os", "worst I/Os")
	n := 1 << 12
	for _, lu := range sizes([]int{20, 40}, []int{16, 24, 32, 40, 56}) {
		u := int64(1) << lu
		d := emio.NewDisk(cfg)
		pts := geom.GenUniform(n, u, 3)
		g := rankspace.BuildGrid(d, u, pts)
		rng := rand.New(rand.NewSource(2))
		mean, worst, _ := measure(d, 40, func() int {
			x1 := geom.Coord(rng.Int63n(u))
			return len(g.Query(x1, x1+u/16, geom.Coord(rng.Int63n(u))))
		})
		fmt.Printf("%10d %12.1f %12.0f\n", lu, mean, worst)
	}
}

func e3() {
	fmt.Println("E3  rank-space top-open (Theorem 2): query ~ 1 + k/B (flat in n)")
	fmt.Printf("%10s %12s %12s %10s\n", "n", "mean I/Os", "worst I/Os", "mean k")
	for _, n := range sizes([]int{1 << 11, 1 << 13}, []int{1 << 11, 1 << 13, 1 << 15}) {
		d := emio.NewDisk(cfg)
		pts := geom.GenPermutation(n, int64(n))
		ix := rankspace.Build(d, int64(n), pts)
		rng := rand.New(rand.NewSource(4))
		mean, worst, k := measure(d, 40, func() int {
			x1 := geom.Coord(rng.Int63n(int64(n)))
			return len(ix.Query(x1, x1+64, geom.Coord(rng.Int63n(int64(n)))))
		})
		fmt.Printf("%10d %12.1f %12.0f %10.1f\n", n, mean, worst, k)
	}
}

func e4() {
	fmt.Println("E4  anti-dominance on the Lemma 8 workload (Theorem 5):")
	fmt.Println("    cost grows polynomially in n at linear space ((2,ω)-favorability verified)")
	fmt.Printf("%10s %8s %12s %14s\n", "n", "queries", "mean I/Os", "(n/B)^0.5 ref")
	for _, lam := range sizes([]int{2, 3}, []int{2, 3, 4}) {
		omega := 16
		pts := lowerbound.Input(omega, lam)
		qs := lowerbound.Queries(omega, lam)
		if ok, worst := lowerbound.Verify(omega, pts, qs); !ok {
			fmt.Printf("    favorability FAILED (overlap %d)\n", worst)
			continue
		}
		d := emio.NewDisk(cfg)
		ix := foursided.Build(d, 0.5, pts)
		i := 0
		mean, _, _ := measure(d, min(len(qs), 60), func() int {
			r := qs[i%len(qs)]
			i++
			return len(ix.Query(r))
		})
		nb := float64(len(pts)) / float64(cfg.B)
		fmt.Printf("%10d %8d %12.1f %14.1f\n", len(pts), len(qs), mean, math.Sqrt(nb))
	}
}

func e5() {
	fmt.Println("E5  static 4-sided (Theorem 6): query ~ (n/B)^eps + k/B")
	fmt.Printf("%10s %12s %12s %10s\n", "n", "mean I/Os", "worst I/Os", "mean k")
	for _, n := range sizes([]int{1 << 12, 1 << 14}, []int{1 << 12, 1 << 14, 1 << 16}) {
		d := emio.NewDisk(cfg)
		pts := geom.GenUniform(n, int64(n)*16, 7)
		ix := foursided.Build(d, 0.5, pts)
		rng := rand.New(rand.NewSource(8))
		mean, worst, k := measure(d, 30, func() int {
			x1 := geom.Coord(rng.Int63n(int64(n) * 16))
			y1 := geom.Coord(rng.Int63n(int64(n) * 16))
			return len(ix.Query(geom.Rect{X1: x1, X2: x1 + int64(n)*2, Y1: y1, Y2: y1 + int64(n)*2}))
		})
		fmt.Printf("%10d %12.1f %12.0f %10.1f\n", n, mean, worst, k)
		fmt.Printf("E5-METRIC n=%d ios=%.1f worst=%.1f\n", n, mean, worst)
	}
}

func e6() {
	fmt.Println("E6  dynamic top-open (Theorem 4): eps trades query vs update; space stays O(n/B)")
	fmt.Println("    live/raw is Disk.LiveWords() after n/4 further updates over the 2n words of raw")
	fmt.Println("    points; live/reach is the same over Tree.SpaceWords(), what the tree can reach.")
	fmt.Printf("%6s %14s %14s %10s %11s\n", "eps", "query I/Os", "update I/Os", "live/raw", "live/reach")
	n := 1 << 14
	for _, eps := range []float64{0, 0.25, 0.5, 0.75, 1} {
		d := emio.NewDisk(cfg)
		pts := geom.GenUniform(n, int64(n)*16, 9)
		geom.SortByX(pts)
		tr := dyntop.BuildSABE(d, eps, pts)
		rng := rand.New(rand.NewSource(10))
		qMean, _, _ := measure(d, 30, func() int {
			x1 := geom.Coord(rng.Int63n(int64(n) * 16))
			return len(tr.Query(x1, x1+int64(n), geom.Coord(rng.Int63n(int64(n)*16))))
		})
		uMean, _, _ := measure(d, 30, func() int {
			p := geom.Point{X: int64(n)*32 + rng.Int63n(1<<30), Y: int64(n)*32 + rng.Int63n(1<<30)}
			tr.Insert(p)
			tr.Delete(p)
			return 0
		})
		// Update phase for the space figures: n/8 fresh points in, n/8
		// original points out, so n holds still while the tree moves.
		for _, i := range rng.Perm(n)[:n/8] {
			tr.Insert(geom.Point{X: int64(n)*32 + rng.Int63n(1<<30), Y: int64(n)*32 + rng.Int63n(1<<30)})
			tr.Delete(pts[i])
		}
		live := float64(d.LiveWords())
		raw, reach := live/float64(2*tr.Len()), live/float64(tr.SpaceWords())
		fmt.Printf("%6.2f %14.1f %14.1f %10.2f %11.2f\n", eps, qMean, uMean/2, raw, reach)
		// eps is a label, so it goes out as an integer percentage:
		// benchguard reads any field with a decimal point as a metric,
		// so the pin counts go out with one. Peak pins above M/B, or
		// any overflow, mean the paper's M = Ω(ℓb) assumption fails at
		// this ε.
		fmt.Printf("E6-METRIC epspct=%d n=%d livewords=%.1f liveratio=%.2f reachratio=%.2f queryios=%.1f updateios=%.1f peakpins=%.1f overflows=%.1f\n",
			int(eps*100), tr.Len(), live, raw, reach, qMean, uMean/2,
			float64(d.PeakPinned()), float64(d.PinOverflows()))
	}
}

func e7() {
	fmt.Println("E7  dynamic 4-sided (Theorem 6): updates ~ log(n/B) amortized; space stays O(n/B)")
	fmt.Println("    live/raw is Disk.LiveWords() after the inserts over the 2n words of raw points.")
	fmt.Printf("%10s %16s %10s\n", "n", "amortized I/Os", "live/raw")
	for _, n := range sizes([]int{1 << 12}, []int{1 << 12, 1 << 14}) {
		d := emio.NewDisk(cfg)
		pts := geom.GenUniform(n, int64(n)*16, 13)
		ix := foursided.Build(d, 0.5, pts)
		rng := rand.New(rand.NewSource(14))
		d.ResetStats()
		rounds := n / 4
		for i := 0; i < rounds; i++ {
			p := geom.Point{X: int64(n)*32 + rng.Int63n(1<<30), Y: int64(n)*32 + rng.Int63n(1<<30)}
			ix.Insert(p)
		}
		live := float64(d.LiveWords())
		raw := live / float64(2*ix.Len())
		ios := float64(d.Stats().IOs()) / float64(rounds)
		fmt.Printf("%10d %16.1f %10.2f\n", n, ios, raw)
		fmt.Printf("E7-METRIC n=%d livewords=%.1f liveratio=%.2f ios=%.1f\n", ix.Len(), live, raw, ios)
		e7Random(pts)
	}
}

// e7Random is E7's random-x leg: on a fresh index over pts, 1 000 inserts
// of new points at uniform random x and y inside the indexed range,
// alternating with deletes of random live points, so most updates land
// inside a leaf and off its staircase. It prints the mean and the worst
// warm-cache I/Os of one update.
func e7Random(pts []geom.Point) {
	n := len(pts)
	d := emio.NewDisk(cfg)
	ix := foursided.Build(d, 0.5, pts)
	rng := rand.New(rand.NewSource(15))
	live := slices.Clone(pts)
	usedX, usedY := map[geom.Coord]bool{}, map[geom.Coord]bool{}
	for _, p := range pts {
		usedX[p.X], usedY[p.Y] = true, true
	}
	fresh := func(used map[geom.Coord]bool) geom.Coord {
		for {
			if c := geom.Coord(rng.Int63n(int64(n) * 16)); !used[c] {
				used[c] = true
				return c
			}
		}
	}
	const rounds = 1000
	var total, worst uint64
	for i := 0; i < rounds; i++ {
		p := geom.Point{X: fresh(usedX), Y: fresh(usedY)}
		before := d.Stats()
		ix.Insert(p)
		ins := d.Stats().Sub(before).IOs()
		live = append(live, p)
		j := rng.Intn(len(live))
		q := live[j]
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
		before = d.Stats()
		if !ix.Delete(q) {
			panic("e7: delete of a live point missed")
		}
		del := d.Stats().Sub(before).IOs()
		total += ins + del
		worst = max(worst, ins, del)
	}
	mean := float64(total) / (2 * rounds)
	fmt.Printf("%10s %16.1f %10s   (random x, max %d)\n", "", mean, "", worst)
	fmt.Printf("E7-METRIC leg=random n=%d ios=%.1f max=%.1f\n", ix.Len(), mean, float64(worst))
}

func e8() {
	fmt.Println("E8  I/O-CPQA (Theorem 3): worst-case O(1), amortized o(1) per op")
	fmt.Println("    peak pins and overflows: each run's most blocks pinned at once, and its")
	fmt.Println("    admissions past M/B frames (M=0 run / amortized run); M = Ω(ℓb) wants no overflow.")
	fmt.Printf("%6s %16s %16s %10s %10s\n", "b", "worst I/Os (M=0)", "amortized I/Os", "peak pins", "overflows")
	for _, b := range []int{1, 8, 64} {
		// Worst case: no cache at all.
		d0 := emio.NewDisk(emio.Config{B: 64, M: 0})
		q := cpqa.New(d0, b)
		rng := rand.New(rand.NewSource(15))
		var worst uint64
		for op := 0; op < 4000; op++ {
			before := d0.Stats().IOs()
			if rng.Intn(3) == 0 {
				_, nq, _ := q.DeleteMin()
				q = nq
			} else {
				q = q.InsertAndAttrite(cpqa.Elem{Key: rng.Int63n(1 << 30)})
			}
			if c := d0.Stats().IOs() - before; c > worst {
				worst = c
			}
		}
		// Amortized: criticals resident.
		d1 := emio.NewDisk(emio.Config{B: 64, M: 1 << 24})
		q2 := cpqa.New(d1, b)
		d1.ResetStats()
		const ops = 20000
		for op := 0; op < ops; op++ {
			if rng.Intn(3) == 0 {
				_, nq, _ := q2.DeleteMin()
				q2 = nq
			} else {
				q2 = q2.InsertAndAttrite(cpqa.Elem{Key: rng.Int63n(1 << 30)})
			}
		}
		fmt.Printf("%6d %16d %16.3f %10s %10s\n", b, worst, float64(d1.Stats().IOs())/ops,
			fmt.Sprintf("%d/%d", d0.PeakPinned(), d1.PeakPinned()),
			fmt.Sprintf("%d/%d", d0.PinOverflows(), d1.PinOverflows()))
	}
}

func e9() {
	fmt.Println("E9  PPB-tree loading (§2.3): SABE O(n/B) vs classic O(n log_B n)")
	fmt.Printf("%10s %12s %12s %8s\n", "n", "SABE I/Os", "classic I/Os", "ratio")
	for _, n := range sizes([]int{1 << 12, 1 << 14}, []int{1 << 12, 1 << 14, 1 << 16}) {
		pts := geom.GenUniform(n, int64(n)*8, 17)
		geom.SortByX(pts)
		cost := func(mode ppb.Mode) uint64 {
			d := emio.NewDisk(cfg)
			f := extsort.FromSlice(d, 2, pts)
			d.DropCache()
			d.ResetStats()
			if mode == ppb.SABE {
				ppb.BuildSABE(d, f)
			} else {
				ppb.BuildClassic(d, f)
			}
			d.DropCache()
			return d.Stats().IOs()
		}
		s, c := cost(ppb.SABE), cost(ppb.Classic)
		fmt.Printf("%10d %12d %12d %8.1f\n", n, s, c, float64(c)/float64(s))
	}
}

func e10() {
	fmt.Println("E10 naive baseline (§1.2) vs Theorem 1 index, same queries")
	fmt.Printf("%10s %14s %14s %10s\n", "n", "naive I/Os", "index I/Os", "speedup")
	for _, n := range sizes([]int{1 << 12}, []int{1 << 12, 1 << 14, 1 << 16}) {
		d := emio.NewDisk(cfg)
		pts := geom.GenUniform(n, int64(n)*16, 18)
		geom.SortByX(pts)
		f := extsort.FromSlice(d, 2, pts)
		ix := topopen.Build(d, f)
		rng := rand.New(rand.NewSource(19))
		x1 := geom.Coord(rng.Int63n(int64(n) * 16))
		x2 := x1 + int64(n)
		beta := geom.Coord(rng.Int63n(int64(n) * 16))
		naive, _, _ := measure(d, 5, func() int {
			return len(skyline.NaiveRangeSkyline(d, f, geom.TopOpen(x1, x2, beta)))
		})
		indexed, _, _ := measure(d, 5, func() int {
			return len(ix.Query(x1, x2, beta))
		})
		fmt.Printf("%10d %14.1f %14.1f %10.1f\n", n, naive, indexed, naive/indexed)
	}
}

func e11() {
	fmt.Println("E11 sharded concurrent engine (internal/shard): throughput scaling")
	n := sizes([]int{1 << 12}, []int{1 << 14})[0]
	nq := sizes([]int{400}, []int{2000})[0]
	const clients = 8
	all := geom.GenUniform(n+n/2, int64(n)*32, 21)
	base := append([]geom.Point(nil), all[:n]...)
	extra := all[n:]
	geom.SortByX(base)
	span := int64(n) * 32

	build := func(shards, workers int) *shard.Engine {
		eng, err := shard.New(shard.Options{Machine: cfg, Shards: shards, Workers: workers, Dynamic: true}, base)
		if err != nil {
			panic(err)
		}
		return eng
	}

	fmt.Printf("    %d clients, %d queries over n=%d points\n", clients, nq, n)
	fmt.Printf("%8s %8s %12s %12s %12s\n", "shards", "workers", "queries/s", "I/Os/query", "mean k")
	for _, sw := range [][2]int{{1, 1}, {2, 2}, {4, 4}, {8, 4}, {8, 8}} {
		eng := build(sw[0], sw[1])
		eng.ResetStats()
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for q := 0; q < nq/clients; q++ {
					x1 := rng.Int63n(span)
					eng.TopOpen(x1, x1+int64(n), rng.Int63n(span))
				}
			}(int64(c))
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		ctr := eng.Counters()
		fmt.Printf("%8d %8d %12.0f %12.1f %12.1f\n", sw[0], sw[1],
			float64(ctr.Queries)/elapsed,
			float64(eng.Stats().IOs())/float64(ctr.Queries),
			float64(ctr.Points)/float64(ctr.Queries))
	}

	fmt.Println("    loading: batched inserts vs single-point updates (8 shards)")
	fmt.Printf("%12s %12s %12s\n", "mode", "points/s", "I/Os/point")
	for _, batched := range []bool{false, true} {
		eng := build(8, 8)
		eng.ResetStats()
		start := time.Now()
		if batched {
			if err := eng.BatchInsert(extra); err != nil {
				panic(err)
			}
		} else {
			for _, p := range extra {
				if err := eng.Insert(p); err != nil {
					panic(err)
				}
			}
		}
		elapsed := time.Since(start).Seconds()
		mode := "single"
		if batched {
			mode = "batched"
		}
		fmt.Printf("%12s %12.0f %12.1f\n", mode,
			float64(len(extra))/elapsed,
			float64(eng.Stats().IOs())/float64(len(extra)))
	}
}

func e12() {
	fmt.Println("E12 sharded 4-sided family + batched updates (internal/shard)")
	n := sizes([]int{1 << 12}, []int{1 << 14})[0]
	nq := sizes([]int{400}, []int{2000})[0]
	const clients = 8
	all := geom.GenUniform(n+n/2, int64(n)*32, 27)
	base := append([]geom.Point(nil), all[:n]...)
	extra := all[n:]
	geom.SortByX(base)
	span := int64(n) * 32

	build := func(shards, workers int) *shard.Engine {
		eng, err := shard.New(shard.Options{Machine: cfg, Shards: shards, Workers: workers, Dynamic: true}, base)
		if err != nil {
			panic(err)
		}
		return eng
	}

	// randFour draws from the 4-sided family: 4-sided, left-open,
	// right-open, bottom-open, anti-dominance.
	randFour := func(rng *rand.Rand) geom.Rect {
		x1 := rng.Int63n(span)
		y1 := rng.Int63n(span)
		r := geom.Rect{X1: x1, X2: x1 + int64(n)*2, Y1: y1, Y2: y1 + int64(n)*2}
		switch rng.Intn(5) {
		case 0:
			r.X1 = geom.NegInf
		case 1:
			r.Y1 = geom.NegInf
		case 2:
			r.X2 = geom.PosInf
		case 3:
			r.X1, r.Y1 = geom.NegInf, geom.NegInf
		}
		return r
	}

	fmt.Printf("    %d clients, %d 4-sided-family queries over n=%d points\n", clients, nq, n)
	fmt.Printf("%8s %8s %12s %12s %12s\n", "shards", "workers", "queries/s", "I/Os/query", "mean k")
	for _, sw := range [][2]int{{1, 1}, {2, 2}, {4, 4}, {8, 8}} {
		eng := build(sw[0], sw[1])
		eng.ResetStats()
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for q := 0; q < nq/clients; q++ {
					eng.FourSided(randFour(rng))
				}
			}(int64(c + 100))
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		ctr := eng.Counters()
		fmt.Printf("%8d %8d %12.0f %12.1f %12.1f\n", sw[0], sw[1],
			float64(ctr.Queries)/elapsed,
			float64(eng.Stats().IOs())/float64(ctr.Queries),
			float64(ctr.Points)/float64(ctr.Queries))
	}

	// Best of three trials per mode: the quantity of interest is
	// coordination overhead (lock round-trips, fan-out), and a best-of
	// run suppresses host scheduler noise the same way testing.B's
	// -count does.
	const trials = 3
	fmt.Println("    batched vs single-point updates, 8 shards (insert all, delete all)")
	fmt.Printf("%12s %12s %12s %12s\n", "mode", "insert pts/s", "delete pts/s", "I/Os/point")
	var rate [2][2]float64 // [single|batched][insert|delete]
	for mi, batched := range []bool{false, true} {
		var bestIns, bestDel float64
		var ios float64
		for trial := 0; trial < trials; trial++ {
			eng := build(8, 8)
			eng.ResetStats()
			startIns := time.Now()
			if batched {
				if err := eng.BatchInsert(extra); err != nil {
					panic(err)
				}
			} else {
				for _, p := range extra {
					if err := eng.Insert(p); err != nil {
						panic(err)
					}
				}
			}
			insElapsed := time.Since(startIns).Seconds()
			startDel := time.Now()
			if batched {
				if got, err := eng.Apply(extra, nil); err != nil || len(got) != len(extra) {
					panic(fmt.Sprintf("Apply(deletes) = %d, %v", len(got), err))
				}
			} else {
				for _, p := range extra {
					if ok, err := eng.Delete(p); err != nil || !ok {
						panic(fmt.Sprintf("Delete(%v) = %t, %v", p, ok, err))
					}
				}
			}
			delElapsed := time.Since(startDel).Seconds()
			if v := float64(len(extra)) / insElapsed; v > bestIns {
				bestIns = v
			}
			if v := float64(len(extra)) / delElapsed; v > bestDel {
				bestDel = v
			}
			ios = float64(eng.Stats().IOs()) / float64(2*len(extra))
		}
		mode := "single"
		if batched {
			mode = "batched"
		}
		rate[mi][0], rate[mi][1] = bestIns, bestDel
		fmt.Printf("%12s %12.0f %12.0f %12.1f\n", mode, bestIns, bestDel, ios)
	}
	// The batch's structural win — one lock acquisition per shard per
	// batch plus parallel shard loading — needs real cores to show in
	// wall-clock; on a single-CPU host the ratio sits at ~1.0 because
	// the structures' own work dominates coordination cost.
	fmt.Printf("    speedup batched/single: insert %.2fx, delete %.2fx (GOMAXPROCS-bound)\n",
		rate[1][0]/rate[0][0], rate[1][1]/rate[0][1])
}

func e13() {
	fmt.Println("E13 mirrored fast paths (Options.Mirrors): transposed top-open structures")
	fmt.Println("    right-open is log-cost either way: thm6 asks the Theorem 6 tree's root secondary")
	fmt.Println("    R(root) once (O(log(n/B) + k/B)), mirrored asks a transposed top-open structure;")
	fmt.Println("    bottom-open/left-open/anti-dominance cannot move (Theorem 5 lower bound at linear")
	fmt.Println("    space: no other axis reflection preserves dominance) and stay byte-identical on")
	fmt.Println("    the Theorem 6 (n/B)^eps path with or without mirrors.")
	type shapeGen struct {
		name string
		make func(rng *rand.Rand, n int, span int64) geom.Rect
	}
	shapes := []shapeGen{
		{"right-open", func(rng *rand.Rand, n int, span int64) geom.Rect {
			y1 := rng.Int63n(span)
			return geom.RightOpen(rng.Int63n(span), y1, y1+int64(n)*2)
		}},
		{"bottom-open", func(rng *rand.Rand, n int, span int64) geom.Rect {
			x1 := rng.Int63n(span)
			return geom.BottomOpen(x1, x1+int64(n)*2, rng.Int63n(span))
		}},
		{"left-open", func(rng *rand.Rand, n int, span int64) geom.Rect {
			y1 := rng.Int63n(span)
			return geom.LeftOpen(rng.Int63n(span), y1, y1+int64(n)*2)
		}},
		{"anti-dominance", func(rng *rand.Rand, n int, span int64) geom.Rect {
			return geom.AntiDominance(rng.Int63n(span), rng.Int63n(span))
		}},
	}
	ns := sizes([]int{1 << 12, 1 << 14}, []int{1 << 12, 1 << 14, 1 << 16})
	const rounds = 40
	type row struct {
		plain, mirrored, k float64
		served             string
	}
	results := make(map[string]map[int]row)
	for _, g := range shapes {
		results[g.name] = make(map[int]row)
	}
	for _, n := range ns {
		span := int64(n) * 16
		pts := geom.GenUniform(n, span, int64(n)+29)
		for _, g := range shapes {
			// Fresh indexes per shape: reusing one pair across shapes
			// would let an earlier shape's queries warm one DB's cache
			// and not the other's, skewing the comparison.
			plain, err := core.Open(core.Options{Machine: cfg}, pts)
			if err != nil {
				panic(err)
			}
			mirrored, err := core.Open(core.Options{Machine: cfg, Mirrors: true}, pts)
			if err != nil {
				panic(err)
			}
			rng := rand.New(rand.NewSource(int64(n) + 31))
			qs := make([]geom.Rect, rounds)
			for i := range qs {
				qs[i] = g.make(rng, n, span)
			}
			// Measure both paths before the cross-check loop, so
			// neither benefits from a cache the other's verification
			// pass warmed, and from a cold cache, so neither inherits
			// the frames its build happened to leave resident.
			mirrored.DropCache()
			plain.DropCache()
			mirrored.ResetStats()
			for _, q := range qs {
				mirrored.RangeSkyline(q)
			}
			mirroredIOs := float64(mirrored.Stats().IOs()) / rounds
			var k uint64
			plain.ResetStats()
			for _, q := range qs {
				k += uint64(len(plain.RangeSkyline(q)))
			}
			plainIOs := float64(plain.Stats().IOs()) / rounds
			for _, q := range qs {
				// Byte-identical is the contract the differential
				// harness enforces; re-check it on the fly here so a
				// benchmark can never report a fast-but-wrong path.
				got, want := mirrored.RangeSkyline(q), plain.RangeSkyline(q)
				if len(got) != len(want) {
					panic(fmt.Sprintf("E13: answers diverge on %v", q))
				}
				for j := range got {
					if got[j] != want[j] {
						panic(fmt.Sprintf("E13: answers diverge on %v", q))
					}
				}
			}
			served := "thm6"
			if _, ok := mirrored.Planner().Route(qs[0]).(*engine.MirrorBackend); ok {
				served = "mirror"
			}
			results[g.name][n] = row{plain: plainIOs, mirrored: mirroredIOs,
				k: float64(k) / rounds, served: served}
		}
	}
	for _, g := range shapes {
		fmt.Printf("    shape %s\n", g.name)
		fmt.Printf("%10s %12s %14s %10s %10s %10s %10s\n",
			"n", "thm6 I/Os", "mirrored I/Os", "served-by", "mean k", "log_B n", "(n/B)^.5")
		for _, n := range ns {
			r := results[g.name][n]
			fmt.Printf("%10d %12.1f %14.1f %10s %10.1f %10.1f %10.1f\n",
				n, r.plain, r.mirrored, r.served, r.k,
				math.Log(float64(n))/math.Log(float64(cfg.B)),
				math.Sqrt(float64(n)/float64(cfg.B)))
			// Machine-parsable, host-independent (simulated I/Os are
			// deterministic): cmd/benchguard compares these against the
			// committed BENCH_e13.json baseline.
			fmt.Printf("E13-METRIC shape=%s n=%d thm6=%.1f mirrored=%.1f\n",
				g.name, n, r.plain, r.mirrored)
		}
	}
}

// e14Rect draws rectangle i of the E14 query pool: shape cycles through
// all seven Figure-2 shapes plus whole-plane and general 4-sided, so
// the cache is exercised across the full routing surface (top-open
// family, mirror family, Theorem 6 shapes).
func e14Rect(rng *rand.Rand, shape, n int, span int64) geom.Rect {
	x1 := rng.Int63n(span)
	x2 := x1 + int64(n)*2
	y1 := rng.Int63n(span)
	y2 := y1 + int64(n)*2
	switch shape {
	case 0:
		return geom.TopOpen(x1, x2, y1)
	case 1:
		return geom.RightOpen(x1, y1, y2)
	case 2:
		return geom.BottomOpen(x1, x2, y2)
	case 3:
		return geom.LeftOpen(x2, y1, y2)
	case 4:
		return geom.Dominance(x1, y1)
	case 5:
		return geom.AntiDominance(x2, y2)
	case 6:
		return geom.Contour(x2)
	case 7:
		return geom.Rect{X1: geom.NegInf, X2: geom.PosInf, Y1: geom.NegInf, Y2: geom.PosInf}
	default:
		return geom.Rect{X1: x1, X2: x2, Y1: y1, Y2: y2}
	}
}

// e14Check panics unless got and want are byte-identical: a cache that
// is fast but wrong must never survive a benchmark run.
func e14Check(ctx string, q geom.Rect, got, want []geom.Point) {
	if len(got) != len(want) {
		panic(fmt.Sprintf("E14 %s: answers diverge on %v (%d vs %d points)", ctx, q, len(got), len(want)))
	}
	for i := range got {
		if got[i] != want[i] {
			panic(fmt.Sprintf("E14 %s: answers diverge on %v at %d", ctx, q, i))
		}
	}
}

func e14() {
	fmt.Println("E14 read-through skyline cache (Options.CacheEntries): Zipf-skewed query streams")
	fmt.Println("    Hot rectangles are re-answered from memory at zero simulated I/O; every cached")
	fmt.Println("    answer is cross-checked byte-identical to the uncached engines. All rates and")
	fmt.Println("    I/O counts below are deterministic (simulated disks, seeded streams), so the")
	fmt.Println("    E14-METRIC lines compare exactly across hosts (cmd/benchguard -strict-io).")
	n := sizes([]int{1 << 12}, []int{1 << 14})[0]
	span := int64(n) * 16
	poolSize := sizes([]int{256}, []int{512})[0]
	nQueries := sizes([]int{4000}, []int{16000})[0]

	all := geom.GenUniform(n+n/4, span, 57)
	base := append([]geom.Point(nil), all[:n]...)
	writePool := all[n:]
	geom.SortByX(base)

	rng := rand.New(rand.NewSource(59))
	qpool := make([]geom.Rect, poolSize)
	for i := range qpool {
		qpool[i] = e14Rect(rng, i%9, n, span)
	}

	refStatic, err := core.Open(core.Options{Machine: cfg, Shards: 8, Workers: 4, Mirrors: true}, base)
	if err != nil {
		panic(err)
	}

	fmt.Printf("    part 1: read-only Zipf streams over a %d-rect pool, %d queries, n=%d\n",
		poolSize, nQueries, n)
	fmt.Printf("    (static, 8 shards, mirrors; entries=0 is the uncached reference)\n")
	fmt.Printf("%8s %10s %10s %12s %12s\n", "zipf s", "entries", "hit rate", "I/Os/query", "evictions")
	for _, skew := range []float64{1.1, 1.5} {
		for _, entries := range []int{0, poolSize / 8, poolSize} {
			db, err := core.Open(core.Options{
				Machine: cfg, Shards: 8, Workers: 4, Mirrors: true, CacheEntries: entries,
			}, base)
			if err != nil {
				panic(err)
			}
			zipf := rand.NewZipf(rand.New(rand.NewSource(61)), skew, 1, uint64(poolSize-1))
			db.ResetStats()
			for q := 0; q < nQueries; q++ {
				db.RangeSkyline(qpool[zipf.Uint64()])
			}
			ios := float64(db.Stats().IOs()) / float64(nQueries)
			hitRate, missRate := 0.0, 1.0
			var evictions uint64
			if entries > 0 {
				ctr := db.Cache().Counters()
				hitRate = float64(ctr.Hits) / float64(ctr.Hits+ctr.Misses)
				missRate = 1 - hitRate
				evictions = ctr.Evictions
				// The whole pool is answerable from the cached DB;
				// every answer must match the uncached reference bit
				// for bit (the differential harness enforces the same
				// under updates).
				for _, q := range qpool {
					e14Check("part1", q, db.RangeSkyline(q), refStatic.RangeSkyline(q))
				}
				if entries == poolSize && hitRate < 0.90 {
					panic(fmt.Sprintf("E14: full-cache hit rate %.3f < 0.90 at zipf s=%.1f", hitRate, skew))
				}
			}
			fmt.Printf("%8.1f %10d %10.3f %12.2f %12d\n", skew, entries, hitRate, ios, evictions)
			// zipf=s1.1 and entries=4096 parse as labels (no lone
			// decimal number), missrate/ios as metrics — and missrate,
			// unlike hit rate, regresses UPWARD, matching benchguard's
			// bigger-is-worse comparison.
			fmt.Printf("E14-METRIC mix=zipf zipf=s%.1f entries=%d n=%d missrate=%.4f ios=%.2f\n",
				skew, entries, n, missRate, ios)
		}
	}

	fmt.Println("    part 2: 5% writes interleaved (insert/delete cycle), zipf s=1.1 —")
	fmt.Println("    answer-exact invalidation (a write evicts only the entries whose answer")
	fmt.Println("    it changes), 1 shard vs 8 shards: the miss rate does not depend on the layout")
	streamLen := sizes([]int{3000}, []int{10000})[0]
	entries2 := poolSize / 2
	// The bounded-x shapes (top-open, bottom-open, 4-sided), whose
	// rectangles touch one or two shards: the working set on which
	// slab-granular invalidation did best, kept so the series continues.
	rng2 := rand.New(rand.NewSource(63))
	qpool2 := make([]geom.Rect, poolSize)
	for i := range qpool2 {
		qpool2[i] = e14Rect(rng2, []int{0, 2, 8}[i%3], n, span)
	}
	refRW, err := core.Open(core.Options{Machine: cfg, Dynamic: true, Shards: 8, Workers: 4}, base)
	if err != nil {
		panic(err)
	}
	flat, err := core.Open(core.Options{Machine: cfg, Dynamic: true, CacheEntries: entries2}, base)
	if err != nil {
		panic(err)
	}
	sharded, err := core.Open(core.Options{
		Machine: cfg, Dynamic: true, Shards: 8, Workers: 4, CacheEntries: entries2,
	}, base)
	if err != nil {
		panic(err)
	}
	dbs := []*core.DB{refRW, flat, sharded}
	zipf := rand.NewZipf(rand.New(rand.NewSource(67)), 1.1, 1, uint64(poolSize-1))
	for _, db := range dbs {
		db.ResetStats()
	}
	var inserted []geom.Point
	wi := 0
	queries := 0
	for op := 0; op < streamLen; op++ {
		if op%20 == 19 {
			if len(inserted) > 0 && wi%2 == 1 {
				p := inserted[0]
				inserted = inserted[1:]
				for _, db := range dbs {
					if ok, err := db.Delete(p); err != nil || !ok {
						panic(fmt.Sprintf("E14: Delete(%v) = %t, %v", p, ok, err))
					}
				}
			} else {
				p := writePool[wi%len(writePool)]
				for _, db := range dbs {
					if err := db.Insert(p); err != nil {
						panic(err)
					}
				}
				inserted = append(inserted, p)
			}
			wi++
			continue
		}
		q := qpool2[zipf.Uint64()]
		want := refRW.RangeSkyline(q)
		e14Check("part2 flat", q, flat.RangeSkyline(q), want)
		e14Check("part2 sharded", q, sharded.RangeSkyline(q), want)
		queries++
	}
	fmt.Printf("%12s %10s %12s %14s %12s\n", "layout", "hit rate", "I/Os/query", "invalidations", "entries")
	for _, row := range []struct {
		name   string
		shards int
		db     *core.DB
	}{{"1 shard", 1, flat}, {"8 shards", 8, sharded}} {
		ctr := row.db.Cache().Counters()
		hitRate := float64(ctr.Hits) / float64(ctr.Hits+ctr.Misses)
		ios := float64(row.db.Stats().IOs()) / float64(queries)
		fmt.Printf("%12s %10.3f %12.2f %14d %12d\n",
			row.name, hitRate, ios, ctr.Invalidations, entries2)
		fmt.Printf("E14-METRIC mix=readwrite shards=%d entries=%d n=%d missrate=%.4f ios=%.2f\n",
			row.shards, entries2, n, 1-hitRate, ios)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// e16 exercises the real-storage layer (Options.Dir): unlike E1–E15,
// whose simulated I/O counts are deterministic, its numbers are WALL
// CLOCK on real files and vary by host — BENCH_e16.json is compared
// warn-only (no -strict-io) in CI.
func e16() {
	fmt.Println("E16 durable storage (Options.Dir): file-backed pager + WAL, wall clock")
	fmt.Println("    Every acknowledged write is WAL-appended before it is applied; Flush/Close")
	fmt.Println("    checkpoint the live set into 4 KB pages and truncate the WAL; reopening")
	fmt.Println("    replays the tail. Durability modes: sync logs per op, async logs one record")
	fmt.Println("    per drain batch (acknowledged = drained). Wall-clock numbers are host-")
	fmt.Println("    dependent; the replayed-record and WAL-size columns are deterministic.")
	n := sizes([]int{1 << 12}, []int{1 << 14})[0]
	ops := sizes([]int{2000}, []int{10000})[0]
	span := int64(n) * 16

	all := geom.GenUniform(n+ops, span, 83)
	base := append([]geom.Point(nil), all[:n]...)
	ingest := all[n:]
	geom.SortByX(base)

	tmp, err := os.MkdirTemp("", "skybench-e16-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(tmp)

	open := func(dir string, async bool) *core.DB {
		o := core.Options{Machine: cfg, Dynamic: true, Dir: dir}
		if async {
			o.AsyncWrites = true
			o.FlushPoints = 256
			o.FlushInterval = -1
		}
		db, err := core.Open(o, base)
		if err != nil {
			panic(err)
		}
		return db
	}
	walSize := func(dir string) int64 {
		st, err := os.Stat(dir + "/skyline.wal")
		if err != nil {
			return 0
		}
		return st.Size()
	}

	fmt.Printf("    ingest %d points over a %d-point seed, then checkpoint and recover\n", ops, n)
	fmt.Printf("%8s %12s %12s %14s %14s %10s\n",
		"mode", "ingest/s", "WAL KiB", "checkpoint ms", "recover ms", "replayed")
	for _, mode := range []string{"sync", "async"} {
		dir := tmp + "/" + mode
		db := open(dir, mode == "async")
		start := time.Now()
		for _, p := range ingest {
			if err := db.Insert(p); err != nil {
				panic(err)
			}
		}
		if mode == "async" {
			// Drain (making the writes durable WAL records) without
			// checkpointing, as the background drainer would.
			if err := db.Queue().Flush(); err != nil {
				panic(err)
			}
		}
		ingestSec := time.Since(start).Seconds()
		walKiB := float64(walSize(dir)) / 1024

		start = time.Now()
		if err := db.Flush(); err != nil { // checkpoint: snapshot + WAL truncate
			panic(err)
		}
		checkpointMS := time.Since(start).Seconds() * 1000
		if err := db.Close(); err != nil {
			panic(err)
		}

		start = time.Now()
		re, err := core.Open(core.Options{Machine: cfg, Dynamic: true, Dir: dir}, nil)
		if err != nil {
			panic(err)
		}
		recoverMS := time.Since(start).Seconds() * 1000
		rec := re.Recover()
		if got, want := re.Len(), n+len(ingest); got != want {
			panic(fmt.Sprintf("E16 %s: recovered Len %d, want %d", mode, got, want))
		}
		if err := re.Close(); err != nil {
			panic(err)
		}
		fmt.Printf("%8s %12.0f %12.1f %14.2f %14.2f %10d\n",
			mode, float64(ops)/ingestSec, walKiB, checkpointMS, recoverMS, rec.RecordsReplayed)
		// All four values carry decimals on purpose: benchguard reads
		// integer-valued fields as labels, decimal ones as metrics.
		fmt.Printf("E16-METRIC mode=%s n=%d ingestpersec=%.1f walkib=%.1f checkpointms=%.2f recoverms=%.2f\n",
			mode, n, float64(ops)/ingestSec, walKiB, checkpointMS, recoverMS)
	}

	// Crash-shaped recovery: ingest without any checkpoint, abandon the
	// handle (no Close — the crash), and time the replay-heavy reopen.
	dir := tmp + "/crash"
	db := open(dir, false)
	for _, p := range ingest {
		if err := db.Insert(p); err != nil {
			panic(err)
		}
	}
	// Deliberately NOT closed: the files hold every op as WAL records.
	start := time.Now()
	re, err := core.Open(core.Options{Machine: cfg, Dynamic: true, Dir: dir}, nil)
	if err != nil {
		panic(err)
	}
	replayMS := time.Since(start).Seconds() * 1000
	rec := re.Recover()
	if rec.RecordsReplayed != len(ingest) {
		panic(fmt.Sprintf("E16 crash: replayed %d records, want %d", rec.RecordsReplayed, len(ingest)))
	}
	if got, want := re.Len(), n+len(ingest); got != want {
		panic(fmt.Sprintf("E16 crash: recovered Len %d, want %d", got, want))
	}
	if err := re.Close(); err != nil {
		panic(err)
	}
	fmt.Printf("    crash recovery (no checkpoint): %d records replayed in %.2f ms\n",
		rec.RecordsReplayed, replayMS)
	fmt.Printf("E16-METRIC mode=crash n=%d replayed=%d recoverms=%.2f\n",
		n, rec.RecordsReplayed, replayMS)
}

// e15op is one precomputed operation of an E15 stream: the same
// sequence is applied in lockstep to the synchronous reference and
// every queued index, so answers can be cross-checked byte for byte.
type e15op struct {
	write bool
	del   bool
	p     geom.Point
	q     geom.Rect
}

// e15Stream precomputes a deterministic op stream: writeFrac of the ops
// are writes (inserts of fresh points, deletes of recently-inserted
// points — the coalescing candidates — deletes of old points, and a few
// guaranteed misses), the rest are queries drawn from a recurring
// rectangle pool spanning all nine shapes.
func e15Stream(streamLen int, writeFrac float64, n int, span int64, base, pool []geom.Point, seed int64) []e15op {
	rng := rand.New(rand.NewSource(seed))
	qpool := make([]geom.Rect, 128)
	for i := range qpool {
		qpool[i] = e14Rect(rng, i%9, n, span)
	}
	liveOld := append([]geom.Point(nil), base...)
	var recent []geom.Point
	next := 0
	ops := make([]e15op, 0, streamLen)
	for len(ops) < streamLen {
		if rng.Float64() < writeFrac {
			r := rng.Float64()
			switch {
			case r < 0.10 && len(liveOld) > 0:
				// Guaranteed miss: resolves to nothing at drain.
				ops = append(ops, e15op{write: true, del: true,
					p: geom.Point{X: span + int64(len(ops)) + 1, Y: span + int64(len(ops)) + 1}})
			case r < 0.35 && len(recent) > 0:
				// Delete the newest insert: very likely still buffered
				// on the queued indexes, so the pair coalesces.
				p := recent[len(recent)-1]
				recent = recent[:len(recent)-1]
				ops = append(ops, e15op{write: true, del: true, p: p})
			case r < 0.55 && len(liveOld) > 0:
				j := rng.Intn(len(liveOld))
				p := liveOld[j]
				liveOld = append(liveOld[:j], liveOld[j+1:]...)
				ops = append(ops, e15op{write: true, del: true, p: p})
			default:
				if next >= len(pool) {
					continue
				}
				p := pool[next]
				next++
				recent = append(recent, p)
				if len(recent) > 16 {
					liveOld = append(liveOld, recent[0])
					recent = recent[1:]
				}
				ops = append(ops, e15op{write: true, p: p})
			}
		} else {
			ops = append(ops, e15op{q: qpool[rng.Intn(len(qpool))]})
		}
	}
	return ops
}

func e15() {
	fmt.Println("E15 async update queue (Options.AsyncWrites): buffered per-shard writes")
	fmt.Println("    Writes append to per-shard buffers and return without touching any structure;")
	fmt.Println("    buffers drain through the batched paths at FlushPoints or when a read's")
	fmt.Println("    rectangle intersects them (drain-on-read), so every answer below is")
	fmt.Println("    cross-checked byte-identical to the synchronous reference. The background")
	fmt.Println("    drainer is disabled and size-triggered drains run inline, so the drain,")
	fmt.Println("    coalesce and simulated-I/O numbers are deterministic across hosts and the")
	fmt.Println("    E15-METRIC lines gate regressions exactly (cmd/benchguard -strict-io).")
	n := sizes([]int{1 << 12}, []int{1 << 14})[0]
	span := int64(n) * 16
	streamLen := sizes([]int{4000}, []int{12000})[0]

	all := geom.GenUniform(n+streamLen, span, 71)
	base := append([]geom.Point(nil), all[:n]...)
	writePool := all[n:]
	geom.SortByX(base)

	streams := []struct {
		name      string
		writeFrac float64
	}{
		{"writeheavy", 0.70},
		{"mixed", 0.20},
	}
	for _, stream := range streams {
		ops := e15Stream(streamLen, stream.writeFrac, n, span, base, writePool, 73)
		writes, reads := 0, 0
		for _, op := range ops {
			if op.write {
				writes++
			} else {
				reads++
			}
		}
		fmt.Printf("    stream %s: %d ops (%d writes, %d reads), n=%d, 8 shards\n",
			stream.name, len(ops), writes, reads, n)

		ref, err := core.Open(core.Options{Machine: cfg, Dynamic: true, Shards: 8, Workers: 4}, base)
		if err != nil {
			panic(err)
		}
		queued, err := core.Open(core.Options{
			Machine: cfg, Dynamic: true, Shards: 8, Workers: 4,
			AsyncWrites: true, FlushPoints: 64, FlushInterval: -1,
		}, base)
		if err != nil {
			panic(err)
		}
		qcached, err := core.Open(core.Options{
			Machine: cfg, Dynamic: true, Shards: 8, Workers: 4, CacheEntries: 128,
			AsyncWrites: true, FlushPoints: 64, FlushInterval: -1,
		}, base)
		if err != nil {
			panic(err)
		}
		dbs := []*core.DB{ref, queued, qcached}
		for _, db := range dbs {
			db.ResetStats()
		}
		for _, op := range ops {
			switch {
			case op.write && op.del:
				for _, db := range dbs {
					if _, err := db.Delete(op.p); err != nil {
						panic(err)
					}
				}
			case op.write:
				for _, db := range dbs {
					if err := db.Insert(op.p); err != nil {
						panic(err)
					}
				}
			default:
				want := ref.RangeSkyline(op.q)
				e14Check("E15 queued", op.q, queued.RangeSkyline(op.q), want)
				e14Check("E15 queued+cache", op.q, qcached.RangeSkyline(op.q), want)
			}
		}
		for _, db := range dbs[1:] {
			if err := db.Flush(); err != nil {
				panic(err)
			}
			if db.Len() != ref.Len() {
				panic(fmt.Sprintf("E15 %s: Len %d, want %d", stream.name, db.Len(), ref.Len()))
			}
		}
		fmt.Printf("%14s %12s %10s %10s %10s %12s\n",
			"mode", "I/Os/op", "drainfrac", "coalesced", "forced", "cache hits")
		for _, row := range []struct {
			mode string
			db   *core.DB
		}{{"sync", ref}, {"queued", queued}, {"queued+cache", qcached}} {
			ios := float64(row.db.Stats().IOs()) / float64(len(ops))
			ctr := row.db.QueueCounters()
			if row.db.Queue() == nil {
				fmt.Printf("%14s %12.2f %10s %10s %10s %12s\n", row.mode, ios, "-", "-", "-", "-")
				fmt.Printf("E15-METRIC mix=%s mode=sync n=%d ios=%.2f\n", stream.name, n, ios)
				continue
			}
			if ctr.Enqueued != ctr.Drained+ctr.Coalesced {
				panic(fmt.Sprintf("E15 %s %s: quiescent invariant violated: %+v", stream.name, row.mode, ctr))
			}
			if stream.name == "writeheavy" && ctr.Coalesced == 0 {
				panic(fmt.Sprintf("E15 %s: write-heavy stream coalesced nothing: %+v", row.mode, ctr))
			}
			drainFrac := float64(ctr.Drained) / float64(ctr.Enqueued)
			hits := "-"
			if c := row.db.Cache(); c != nil {
				hits = fmt.Sprintf("%d", c.Counters().Hits)
			}
			fmt.Printf("%14s %12.2f %10.4f %10d %10d %12s\n",
				row.mode, ios, drainFrac, ctr.Coalesced, ctr.ForcedDrains, hits)
			// drainfrac regresses UPWARD when coalescing degrades
			// (fewer ops cancelled in-buffer), forced when reads stall
			// on drains more often — both, like ios, are deterministic
			// and bigger-is-worse, matching benchguard's comparison.
			mode := "queued"
			if row.db.Cache() != nil {
				mode = "queuedcache"
			}
			fmt.Printf("E15-METRIC mix=%s mode=%s n=%d ios=%.2f drainfrac=%.4f forced=%.1f\n",
				stream.name, mode, n, ios, drainFrac, float64(ctr.ForcedDrains))
		}
	}
}

// e17op is one write of the hot-writer stream.
type e17op struct {
	del bool
	p   geom.Point
}

// e17Bursts precomputes the hot write stream: per burst, Zipf-ranked
// inserts from the low-x-sorted pool (so the lowest-x shards absorb
// most of the traffic) mixed with deletes of recently inserted hot
// points. Precomputing keeps the drain and snapshot runs on the exact
// same ops.
func e17Bursts(bursts, perBurst int, pool []geom.Point, seed int64) [][]e17op {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(pool)-1))
	used := make([]bool, len(pool))
	var recent []geom.Point
	out := make([][]e17op, 0, bursts)
	for b := 0; b < bursts; b++ {
		ops := make([]e17op, 0, perBurst)
		for len(ops) < perBurst {
			if rng.Float64() < 0.35 && len(recent) > 8 {
				p := recent[0]
				recent = recent[1:]
				ops = append(ops, e17op{del: true, p: p})
				continue
			}
			idx := int(zipf.Uint64())
			for idx < len(pool) && used[idx] {
				idx++
			}
			if idx >= len(pool) {
				if len(recent) == 0 {
					break
				}
				p := recent[0]
				recent = recent[1:]
				ops = append(ops, e17op{del: true, p: p})
				continue
			}
			used[idx] = true
			recent = append(recent, pool[idx])
			ops = append(ops, e17op{p: pool[idx]})
		}
		out = append(out, ops)
	}
	return out
}

// e17Rects draws the reader's rectangle pool: narrow top-open
// rectangles over the hot low-x region — the slabs the writer keeps
// dirty, so a drain-on-read pays a forced drain on almost every query
// while the query itself stays cheap (Theorem 4 logarithmic search,
// small output). Mode-independent query cost would only dilute the
// drain-vs-pin comparison, so the pool stays hot and narrow.
func e17Rects(rng *rand.Rand, n int, span int64) []geom.Rect {
	pool := make([]geom.Rect, 64)
	for i := range pool {
		x1 := rng.Int63n(span / 8)
		x2 := x1 + span/32
		pool[i] = geom.TopOpen(x1, x2, rng.Int63n(span))
	}
	return pool
}

// e17Open opens the E17 configuration: sharded, async, FlushPoints 64
// — small enough that in snapshot mode the WRITE path absorbs drains
// at batch boundaries (size-triggered, inline) while in drain-on-read
// mode the frequent reads drain first, charging the same work to the
// read path.
func e17Open(base []geom.Point) *core.DB {
	db, err := core.Open(core.Options{
		Machine: cfg, Dynamic: true, Shards: 8, Workers: 4,
		AsyncWrites: true, FlushPoints: 64, FlushInterval: -1,
	}, base)
	if err != nil {
		panic(err)
	}
	return db
}

func e17() {
	fmt.Println("E17 snapshot reads (DB.Snapshot): point-in-time views vs drain-on-read")
	fmt.Println("    A hot Zipf writer keeps the lowest-x shards dirty while a reader asks")
	fmt.Println("    mostly-hot rectangles. Drain-on-read readers pay the forced drains of")
	fmt.Println("    every slab their rectangles touch; snapshot readers pin a view (one")
	fmt.Println("    flush per pin, refreshed every few bursts) and then query pinned roots")
	fmt.Println("    with no locks and no drains. Part 1 is single-caller and deterministic:")
	fmt.Println("    the E17-METRIC read-path I/O totals gate exactly (cmd/benchguard")
	fmt.Println("    -strict-io), and snapcost = snapshot/drain read I/Os must stay <= 0.5 —")
	fmt.Println("    the >=2x reader-throughput claim in simulated I/Os. Part 2 (E17-WALL,")
	fmt.Println("    warn-only) races live goroutines for wall-clock throughput and p99.")
	n := sizes([]int{1 << 12}, []int{1 << 13})[0]
	span := int64(n) * 16
	bursts := sizes([]int{120}, []int{240})[0]
	const writesPerBurst, readsPerBurst, refreshEvery = 32, 8, 4

	all := geom.GenUniform(n+8*bursts*writesPerBurst, span, 171)
	base := append([]geom.Point(nil), all[:n]...)
	pool := append([]geom.Point(nil), all[n:]...)
	geom.SortByX(base)
	geom.SortByX(pool)
	stream := e17Bursts(bursts, writesPerBurst, pool, 173)
	qpool := e17Rects(rand.New(rand.NewSource(175)), n, span)

	fmt.Printf("    part 1: %d bursts x (%d writes + %d reads), n=%d, 8 shards, refresh every %d bursts\n",
		bursts, writesPerBurst, readsPerBurst, n, refreshEvery)
	readIOs := map[string]float64{}
	for _, mode := range []string{"drain", "snapshot"} {
		db := e17Open(base)
		ref, err := core.Open(core.Options{Machine: cfg, Dynamic: true, Shards: 8, Workers: 4}, base)
		if err != nil {
			panic(err)
		}
		var snap *core.Snapshot
		rng := rand.New(rand.NewSource(177))
		ios, reads, pins := uint64(0), 0, 0
		for b, ops := range stream {
			for _, op := range ops {
				dbs := []*core.DB{db, ref}
				for _, d := range dbs {
					if op.del {
						if _, err := d.Delete(op.p); err != nil {
							panic(err)
						}
					} else if err := d.Insert(op.p); err != nil {
						panic(err)
					}
				}
			}
			io0 := db.Stats().IOs()
			refreshed := false
			if mode == "snapshot" && b%refreshEvery == 0 {
				if snap != nil {
					snap.Close()
				}
				var err error
				if snap, err = db.Snapshot(); err != nil {
					panic(err)
				}
				pins++
				refreshed = true
			}
			burstQs := make([]geom.Rect, readsPerBurst)
			for r := range burstQs {
				burstQs[r] = qpool[rng.Intn(len(qpool))]
			}
			for _, q := range burstQs {
				if mode == "snapshot" {
					_ = snap.RangeSkyline(q)
				} else {
					e14Check("E17 drain", q, db.RangeSkyline(q), ref.RangeSkyline(q))
				}
			}
			ios += db.Stats().IOs() - io0
			reads += readsPerBurst
			// At a fresh pin no write separates the view from the live
			// index, so the answers must be byte-identical (the drained
			// live read costs nothing extra: the pin just flushed).
			if refreshed {
				for _, q := range burstQs[:2] {
					e14Check("E17 pin boundary", q, snap.RangeSkyline(q), db.RangeSkyline(q))
				}
			}
		}
		if snap != nil {
			snap.Close()
		}
		if err := db.Flush(); err != nil {
			panic(err)
		}
		if db.Len() != ref.Len() {
			panic(fmt.Sprintf("E17 %s: Len %d, want %d", mode, db.Len(), ref.Len()))
		}
		if got := db.DeferredBlocks(); got != 0 {
			panic(fmt.Sprintf("E17 %s: %d deferred blocks leaked", mode, got))
		}
		ctr := db.QueueCounters()
		perRead := float64(ios) / float64(reads)
		readIOs[mode] = perRead
		fmt.Printf("    mode %-8s  read I/Os/query %8.2f  readdrains %7d  pins %3d\n",
			mode, perRead, ctr.ReadDrains, pins)
		// readdrains prints with a decimal point so benchguard gates
		// it as a metric (like E15's forced), not a label.
		fmt.Printf("E17-METRIC mode=%s n=%d readios=%.2f readdrains=%.1f\n",
			mode, n, perRead, float64(ctr.ReadDrains))
		if mode == "drain" && ctr.ReadDrains == 0 {
			panic("E17 drain: hot stream forced no read drains")
		}
		if err := db.Close(); err != nil {
			panic(err)
		}
	}
	snapcost := readIOs["snapshot"] / readIOs["drain"]
	// Smaller is better, and benchguard's bigger-is-worse gate holds
	// the ratio down; the paper-level claim is >=2x reader throughput,
	// i.e. snapcost <= 0.5.
	fmt.Printf("E17-METRIC n=%d snapcost=%.4f\n", n, snapcost)
	if snapcost > 0.5 {
		panic(fmt.Sprintf("E17: snapshot reads cost %.2fx of drain-on-read, want <= 0.5x", snapcost))
	}

	// Part 2: wall clock. Live goroutines — warn-only numbers, printed
	// as E17-WALL so benchguard's strict gate ignores them.
	readers := 3
	queriesPerReader := sizes([]int{600}, []int{2000})[0]
	fmt.Printf("    part 2: %d readers x %d queries racing a hot writer (wall clock, warn-only)\n",
		readers, queriesPerReader)
	for _, mode := range []string{"drain", "snapshot"} {
		db := e17Open(base)
		stop := make(chan struct{})
		var writes int64
		var wwg sync.WaitGroup
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			// Endless hot stream: Zipf-ranked toggles (insert the point
			// if absent, delete it if live) keep the low-x shards dirty
			// without exhausting the pool.
			rng := rand.New(rand.NewSource(179))
			zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(pool)-1))
			inserted := make([]bool, len(pool))
			for {
				select {
				case <-stop:
					return
				default:
				}
				idx := int(zipf.Uint64())
				if inserted[idx] {
					if _, err := db.Delete(pool[idx]); err != nil {
						panic(err)
					}
				} else if err := db.Insert(pool[idx]); err != nil {
					panic(err)
				}
				inserted[idx] = !inserted[idx]
				writes++
			}
		}()
		lats := make([][]time.Duration, readers)
		start := time.Now()
		var rwg sync.WaitGroup
		for g := 0; g < readers; g++ {
			g := g
			rwg.Add(1)
			go func() {
				defer rwg.Done()
				rng := rand.New(rand.NewSource(181 + int64(g)))
				var snap *core.Snapshot
				if mode == "snapshot" {
					var err error
					if snap, err = db.Snapshot(); err != nil {
						panic(err)
					}
					defer func() { snap.Close() }()
				}
				lat := make([]time.Duration, 0, queriesPerReader)
				for q := 0; q < queriesPerReader; q++ {
					if mode == "snapshot" && q > 0 && q%250 == 0 {
						snap.Close()
						var err error
						if snap, err = db.Snapshot(); err != nil {
							panic(err)
						}
					}
					r := qpool[rng.Intn(len(qpool))]
					t0 := time.Now()
					if mode == "snapshot" {
						_ = snap.RangeSkyline(r)
					} else {
						_ = db.RangeSkyline(r)
					}
					lat = append(lat, time.Since(t0))
				}
				lats[g] = lat
			}()
		}
		rwg.Wait()
		elapsed := time.Since(start)
		close(stop)
		wwg.Wait()
		if err := db.Close(); err != nil {
			panic(err)
		}
		var flat []time.Duration
		for _, l := range lats {
			flat = append(flat, l...)
		}
		sortDurations(flat)
		p99 := flat[len(flat)*99/100]
		qps := float64(len(flat)) / elapsed.Seconds()
		fmt.Printf("E17-WALL mode=%s readers=%d qps=%.0f p99us=%.0f writes=%d\n",
			mode, readers, qps, float64(p99.Microseconds()), writes)
	}
}

// e18 measures the resilience layer (ISSUE PR 8): a steady durable
// ingest with deterministic transient fault bursts injected under the
// pager and WAL through vfs.FaultFS, and a backpressure leg driving the
// async queue into its MaxBuffered cap. Every injection rule is
// count-based (Every/Nth) with a seeded generator and the retry
// policy's Sleep is a no-op, so the injected/retried/shed counters and
// the lost-acknowledgment count are bit-deterministic — benchguard
// gates them strictly. The acceptance bar printed as lostacks: a write
// acknowledged through a fault burst is never lost, so the metric must
// stay exactly 0.
func e18() {
	fmt.Println("E18 fault resilience: injected transient bursts, retried I/O, zero lost acks")
	fmt.Println("    A FaultFS under the pager and WAL fails every k-th write/sync/read with a")
	fmt.Println("    transient error (plus periodic torn writes); the storage stack retries with")
	fmt.Println("    bounded backoff and the workload never sees an error. The shed leg caps the")
	fmt.Println("    async queue's buffers and counts rejected (ErrBackpressure) admissions.")
	fmt.Println("    All counters are seeded and count-based: deterministic across hosts.")
	n := sizes([]int{1 << 11}, []int{1 << 13})[0]
	ops := sizes([]int{1500}, []int{6000})[0]
	span := int64(n) * 16

	all := geom.GenUniform(n+ops, span, 181)
	base := append([]geom.Point(nil), all[:n]...)
	ingest := all[n:]
	geom.SortByX(base)

	tmp, err := os.MkdirTemp("", "skybench-e18-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(tmp)
	noSleep := func(time.Duration) {}

	// Reopen plain (no faults) and count how many acknowledged writes
	// the recovered index is missing; the whole point of the layer is
	// that this is zero even though the ingest ran through fault bursts.
	lostAcks := func(dir string, want int) int {
		re, err := core.Open(core.Options{Machine: cfg, Dynamic: true, Dir: dir}, nil)
		if err != nil {
			panic(fmt.Sprintf("E18 recovery open: %v", err))
		}
		got := re.Len()
		if err := re.Close(); err != nil {
			panic(err)
		}
		return want - got
	}

	fmt.Printf("    ingest %d points over a %d-point seed through the fault schedule below\n", ops, n)
	fmt.Printf("%8s %10s %10s %10s %10s %10s\n",
		"leg", "injected", "retried", "exhausted", "shed", "lostacks")

	// Burst leg: periodic transient failures (and torn writes) on the
	// durable files; sync WAL mode so every op is an acknowledged
	// record. The workload must complete error-free: every fault is
	// absorbed by a retry, none exhausts the budget.
	{
		dir := tmp + "/burst"
		ffs := vfs.NewFaultFS(vfs.OS, 18,
			vfs.Fault{Op: vfs.OpWriteAt, Every: 7},
			vfs.Fault{Op: vfs.OpWriteAt, Every: 97, Short: true},
			vfs.Fault{Op: vfs.OpSync, Every: 5},
			vfs.Fault{Op: vfs.OpReadAt, Every: 3},
		)
		db, err := core.Open(core.Options{Machine: cfg, Dynamic: true, Dir: dir,
			FS: ffs, Retry: vfs.RetryPolicy{Sleep: noSleep}, SyncWAL: true}, base)
		if err != nil {
			panic(fmt.Sprintf("E18 burst open: %v", err))
		}
		for _, p := range ingest {
			if err := db.Insert(p); err != nil {
				panic(fmt.Sprintf("E18 burst insert surfaced a retried fault: %v", err))
			}
		}
		if err := db.Flush(); err != nil {
			panic(fmt.Sprintf("E18 burst checkpoint: %v", err))
		}
		rs := db.Resilience()
		if err := db.Close(); err != nil {
			panic(fmt.Sprintf("E18 burst close: %v", err))
		}
		if rs.Exhausted != 0 || rs.Degraded {
			panic(fmt.Sprintf("E18 burst degraded under a pure-transient schedule: %+v", rs))
		}
		lost := lostAcks(dir, n+len(ingest))
		fmt.Printf("%8s %10d %10d %10d %10d %10d\n",
			"burst", ffs.Injected(), rs.Retried, rs.Exhausted, rs.Shed, lost)
		fmt.Printf("E18-METRIC leg=burst n=%d ops=%d injected=%.1f retried=%.1f exhausted=%.1f lostacks=%.1f\n",
			n, ops, float64(ffs.Injected()), float64(rs.Retried), float64(rs.Exhausted), float64(lost))
	}

	// Shed leg: async writes behind a small MaxBuffered cap with the
	// shed policy and no other drain trigger, so every cap hit is a
	// deterministic ErrBackpressure; the writer flushes and re-submits,
	// losing nothing. The same transient write-fault burst runs
	// underneath to show retry and backpressure compose.
	{
		dir := tmp + "/shed"
		ffs := vfs.NewFaultFS(vfs.OS, 19,
			vfs.Fault{Op: vfs.OpWriteAt, Every: 11},
		)
		db, err := core.Open(core.Options{Machine: cfg, Dynamic: true, Dir: dir,
			FS: ffs, Retry: vfs.RetryPolicy{Sleep: noSleep},
			AsyncWrites: true, FlushPoints: 1 << 20, FlushInterval: -1,
			MaxBuffered: 64, ShedWrites: true}, base)
		if err != nil {
			panic(fmt.Sprintf("E18 shed open: %v", err))
		}
		for _, p := range ingest {
			err := db.Insert(p)
			if errors.Is(err, core.ErrBackpressure) {
				if err := db.Flush(); err != nil {
					panic(fmt.Sprintf("E18 shed flush: %v", err))
				}
				err = db.Insert(p)
			}
			if err != nil {
				panic(fmt.Sprintf("E18 shed insert: %v", err))
			}
		}
		if err := db.Flush(); err != nil {
			panic(fmt.Sprintf("E18 shed checkpoint: %v", err))
		}
		rs := db.Resilience()
		if err := db.Close(); err != nil {
			panic(fmt.Sprintf("E18 shed close: %v", err))
		}
		if rs.Shed == 0 {
			panic("E18 shed leg never hit the cap: the backpressure path went unmeasured")
		}
		if rs.Exhausted != 0 || rs.Degraded {
			panic(fmt.Sprintf("E18 shed degraded under a pure-transient schedule: %+v", rs))
		}
		lost := lostAcks(dir, n+len(ingest))
		fmt.Printf("%8s %10d %10d %10d %10d %10d\n",
			"shed", ffs.Injected(), rs.Retried, rs.Exhausted, rs.Shed, lost)
		fmt.Printf("E18-METRIC leg=shed n=%d ops=%d injected=%.1f retried=%.1f shed=%.1f lostacks=%.1f\n",
			n, ops, float64(ffs.Injected()), float64(rs.Retried), float64(rs.Shed), float64(lost))
	}
}

func sortDurations(d []time.Duration) {
	for i := 1; i < len(d); i++ {
		for j := i; j > 0 && d[j] < d[j-1]; j-- {
			d[j], d[j-1] = d[j-1], d[j]
		}
	}
}
