package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"repro/internal/geom"
	"repro/internal/serve"
)

// Sizes. The full-size numbers are what BENCHMARK.json's run_seconds
// was budgeted for; -quick is the tier-1 smoke size.
//
// n0 is kept away from a power of two times B=256 on purpose. A
// foursided rebuild lays the live points out in ceil(n/B) leaves under a
// fan-out-2 tree, and the live set wanders a few dozen points around n0:
// at n0 = 8192 = 32·B every rebuild landed on 32 or on 33 leaves, five
// levels or six, and mixed_sync.sim_ios_per_op came out 62 or 72
// depending on the seed. At 10 000 (40 leaves) and 2 500 (10) the height
// cannot change during a run.
const (
	fullN0        = 10000
	quickN0       = 2500
	quickOps      = 2000
	coordSpan     = geom.Coord(1 << 24)
	fullSegments  = 50 // equal-op-count slices per timed phase
	quickSegments = 10
	hotRects      = 128 // fat_reads hot set: fits the 256-entry cache
	spareCount    = replayRecords * replayBatch
)

type opKind uint8

const (
	opRead opKind = iota
	opInsert
	opDelete
)

// op is one generated request: what to send (body, pre-encoded so the
// timed loop does no marshalling) and what it means (rect or pt, for
// the model and the oracle).
type op struct {
	kind opKind
	rect geom.Rect
	pt   geom.Point
	body []byte
}

// dist names a preload/pool point distribution.
type dist int

const (
	distUniform dist = iota
	distBand
	distClustered
)

// readMix names a workload's query generator.
type readMix int

const (
	readsTopFamily readMix = iota // top-open, dominance, contour, right-open
	readsTopOpen                  // top-open only
	readsBandHot                  // general-family windows along the band, 80% hot set
	readsAllShapes                // all eight shapes + 4-sided
)

// spec is one workload's definition. The op count is fixed — sized so
// the timed phase lasts about BENCHMARK.json's run_seconds on the
// reference box — because the count, not the duration, is what two
// commits must share: it sets the number of rebuild cycles a run covers
// and with it sim_ios_per_op and every /stats counter.
type spec struct {
	name     string
	ns       serve.NamespaceConfig
	durable  bool // ns.Dir is filled with a temp dir per boot; crash phase runs
	clients  int
	dist     dist
	reads    readMix
	readFrac float64
	ops      int // a multiple of fullSegments × clients
}

// specs are the four workloads, in the order a full run executes them.
// BENCHMARK.json and README.md say why each was chosen.
//
// The two read workloads set rebalance: skylined opens a namespace
// empty, shard.New over no points puts every cut at −∞, and without
// rebalancing the whole preload lands in the last shard — K=1 with
// fan-out overhead and one cache slab. With it the preload's own
// inserts split that shard into real x-slabs (shard.shards reads 5)
// before the timed phase starts, and nothing moves during it.
// write_stream does not: behind the async queue the engine sees each
// slab's 128-point drain as a burst on one shard, the policy reads that
// as skew, splits up to max_shards = 16 and keeps splitting and merging
// during the timed phase — one or two transitions per run, whenever the
// two clients' interleaving has it, and sim_ios_per_op moved 8 % with
// them. Its queue and log, which it is there to measure, do not need
// the cuts.
var specs = []*spec{
	{
		name:    "thin_reads",
		ns:      serve.NamespaceConfig{Shards: 4, Workers: 4, Mirrors: true, Rebalance: true},
		clients: 2, dist: distUniform, reads: readsTopFamily, readFrac: 1,
		ops: 100000,
	},
	{
		name:    "fat_reads",
		ns:      serve.NamespaceConfig{Shards: 4, Workers: 4, CacheEntries: 256, Rebalance: true},
		clients: 2, dist: distBand, reads: readsBandHot, readFrac: 0.95,
		ops: 70000,
	},
	{
		name: "write_stream",
		ns: serve.NamespaceConfig{Shards: 4, Workers: 4, Mirrors: true,
			AsyncWrites: true, FlushPoints: 128, FlushIntervalMS: -1},
		durable: true,
		clients: 2, dist: distUniform, reads: readsTopOpen, readFrac: 0.1,
		ops: 24000,
	},
	{
		name:    "mixed_sync",
		ns:      serve.NamespaceConfig{},
		clients: 1, dist: distClustered, reads: readsAllShapes, readFrac: 0.5,
		ops: 30000,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// workload is one seeded instance of a spec: the points to preload, the
// per-client op streams, and the live set every op leaves behind.
type workload struct {
	spec    *spec
	preload []geom.Point
	streams [][]op // streams[c] is client c's ops
	// final is the model of the server's point set at the quiesce
	// point: preload − deletes + inserts.
	final []geom.Point
	// spare are points no stream uses, in general position with all the
	// others: the traced pass's WAL-replay probe inserts them.
	spare []geom.Point
}

// sizes returns (n0, ops) of a full-size or a -quick run.
func (s *spec) sizes(quick bool) (n0, ops int) {
	if quick {
		return quickN0, quickOps
	}
	return fullN0, s.ops
}

// generate builds the workload for (spec, seed). Generator rules, each
// found by probing the server:
//
//   - every x and every y is distinct across preload + insert pool, and
//     a deleted point is never reinserted — skylined panics on a
//     general-position violation ("dyntop: input not sorted by x");
//   - query anchors come from live points — uniform random rectangles
//     answer k ≈ 0–1 in 40 ns and measure nothing;
//   - each client deletes only its own share of the preload and its own
//     earlier inserts, so with two clients every delete hits whatever
//     order the server sees the streams in.
func generate(s *spec, seed int64, n0, ops int) *workload {
	// Half of the writes are inserts; each client draws its own from a
	// private slice of the pool.
	writes := ops - int(float64(ops)*s.readFrac)
	total := n0 + writes/2 + 8*s.clients + spareCount
	// The points come from a generator seed of the workload's own, not
	// from -seed: the answer to an unbounded query (contour, dominance)
	// is a property of the whole set — the global staircase of a random
	// set has ln n ± √ln n points — so re-drawing the set per seed moved
	// sim_ios_per_op by ±4 % and the latencies with it. -seed draws
	// everything the server is asked to do with the points.
	h := fnv.New64a()
	h.Write([]byte(s.name)) //errlint:ok hash.Hash.Write never fails
	data := rand.New(rand.NewSource(int64(h.Sum64())))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))

	var pts []geom.Point
	var band *bandTables
	switch s.dist {
	case distUniform:
		pts = geom.GenUniform(total, coordSpan, data.Int63())
	case distClustered:
		pts = geom.GenClustered(total, 8, coordSpan, data.Int63())
	case distBand:
		pts, band = genBand(total, total/64, data)
	}
	data.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	w := &workload{spec: s, preload: pts[:n0:n0], spare: pts[total-spareCount:]}
	pool := pts[n0 : total-spareCount]

	var hot []op
	if s.reads == readsBandHot {
		// Like the points, the hot set is the workload's own and not
		// -seed's: four fifths of the reads pay the mean cost of these
		// 128 rectangles, and re-drawing them per seed spread fat_reads'
		// sim_ios_per_op 2.6 % (0.7 % with the set fixed; the same seed
		// repeats to 0.1 %).
		hot = make([]op, hotRects)
		for i := range hot {
			hot[i] = band.query(data)
		}
	}

	live := make(map[geom.Point]struct{}, total)
	for _, p := range w.preload {
		live[p] = struct{}{}
	}
	w.streams = make([][]op, s.clients)
	for c := 0; c < s.clients; c++ {
		g := &clientGen{
			spec: s, band: band, hot: hot,
			rng:  rand.New(rand.NewSource(rng.Int63())),
			pool: pool[c*len(pool)/s.clients : (c+1)*len(pool)/s.clients],
		}
		for i := c; i < n0; i += s.clients {
			g.mine = append(g.mine, w.preload[i])
		}
		w.streams[c] = g.stream(ops/s.clients, s.readFrac)
		for _, o := range w.streams[c] {
			switch o.kind {
			case opInsert:
				live[o.pt] = struct{}{}
			case opDelete:
				delete(live, o.pt)
			}
		}
	}
	w.final = make([]geom.Point, 0, len(live))
	for p := range live {
		w.final = append(w.final, p)
	}
	geom.SortByX(w.final)
	return w
}

// clientGen generates one client's ops. mine is the client's view of
// what is live and its own to delete or anchor a query on: its share of
// the preload plus its own inserts, minus its own deletes.
type clientGen struct {
	spec *spec
	rng  *rand.Rand
	pool []geom.Point
	mine []geom.Point
	band *bandTables
	hot  []op
}

// stream generates n ops: exactly round(n·readFrac) reads, the rest
// writes alternating insert and delete, in seeded random order. Exact
// counts and a live set that stays at its starting size make the run
// cover the same number of structure rebuild cycles whatever the seed.
func (g *clientGen) stream(n int, readFrac float64) []op {
	reads := int(float64(n)*readFrac + 0.5)
	kinds := make([]opKind, n)
	for i := reads; i < n; i++ {
		kinds[i] = opInsert + opKind((i-reads)%2)
	}
	g.rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	out := make([]op, n)
	for i, kind := range kinds {
		switch kind {
		case opRead:
			out[i] = g.read()
		case opDelete:
			j := g.rng.Intn(len(g.mine))
			p := g.mine[j]
			g.mine[j] = g.mine[len(g.mine)-1]
			g.mine = g.mine[:len(g.mine)-1]
			out[i] = writeOp(opDelete, p)
		default:
			p := g.pool[0]
			g.pool = g.pool[1:]
			g.mine = append(g.mine, p)
			out[i] = writeOp(opInsert, p)
		}
	}
	return out
}

func writeOp(kind opKind, p geom.Point) op {
	return op{kind: kind, pt: p, body: fmt.Appendf(nil, `{"point":{"x":%d,"y":%d}}`, p.X, p.Y)}
}

// Shape names on the wire (docs/API.md).
var (
	topFamilyShapes = []string{"top-open", "dominance", "contour", "right-open"}
	allShapes       = []string{"top-open", "right-open", "bottom-open", "left-open",
		"dominance", "anti-dominance", "contour", "skyline", "4-sided"}
)

func (g *clientGen) read() op {
	switch g.spec.reads {
	case readsBandHot:
		if g.rng.Intn(5) > 0 {
			return g.hot[g.rng.Intn(len(g.hot))]
		}
		return g.band.query(g.rng)
	case readsTopOpen:
		return g.anchored("top-open")
	case readsAllShapes:
		return g.anchored(allShapes[g.rng.Intn(len(allShapes))])
	default:
		return g.anchored(topFamilyShapes[g.rng.Intn(len(topFamilyShapes))])
	}
}

// anchored builds a query of the given shape whose rectangle contains a
// live point p, so the answer is never empty. Extents are a small
// random fraction of the universe: the answer is the skyline of a few
// hundred points, a handful of points long.
func (g *clientGen) anchored(shape string) op {
	p := g.mine[g.rng.Intn(len(g.mine))]
	wx := coordSpan/64 + g.rng.Int63n(int64(coordSpan/16))
	hy := coordSpan/64 + g.rng.Int63n(int64(coordSpan/16))
	switch shape {
	case "top-open":
		return readOp(geom.TopOpen(p.X-wx, p.X+wx, p.Y),
			`{"shape":"top-open","x1":%d,"x2":%d,"beta":%d}`, p.X-wx, p.X+wx, p.Y)
	case "dominance":
		return readOp(geom.Dominance(p.X, p.Y), `{"shape":"dominance","x":%d,"y":%d}`, p.X, p.Y)
	case "contour":
		return readOp(geom.Contour(p.X), `{"shape":"contour","x":%d}`, p.X)
	case "right-open":
		return readOp(geom.RightOpen(p.X, p.Y, p.Y+hy),
			`{"shape":"right-open","x":%d,"y1":%d,"y2":%d}`, p.X, p.Y, p.Y+hy)
	case "left-open":
		return readOp(geom.LeftOpen(p.X, p.Y-hy, p.Y),
			`{"shape":"left-open","x":%d,"y1":%d,"y2":%d}`, p.X, p.Y-hy, p.Y)
	case "bottom-open":
		return readOp(geom.BottomOpen(p.X-wx, p.X+wx, p.Y),
			`{"shape":"bottom-open","x1":%d,"x2":%d,"y":%d}`, p.X-wx, p.X+wx, p.Y)
	case "anti-dominance":
		return readOp(geom.AntiDominance(p.X, p.Y), `{"shape":"anti-dominance","x":%d,"y":%d}`, p.X, p.Y)
	case "skyline":
		return readOp(geom.Rect{X1: geom.NegInf, X2: geom.PosInf, Y1: geom.NegInf, Y2: geom.PosInf},
			`{"shape":"skyline"}`)
	default:
		return fourSided(geom.Rect{X1: p.X - wx, X2: p.X + wx, Y1: p.Y - hy, Y2: p.Y + hy})
	}
}

func readOp(r geom.Rect, format string, args ...any) op {
	return op{kind: opRead, rect: r, body: fmt.Appendf(nil, format, args...)}
}

func fourSided(r geom.Rect) op {
	return readOp(r, `{"shape":"4-sided","x1":%d,"x2":%d,"y1":%d,"y2":%d}`, r.X1, r.X2, r.Y1, r.Y2)
}

// bandTables are the sorted coordinate tables of an anti-correlated
// band: the point of x-rank i has y-rank ≈ n−1−i ± jitter. Queries are
// cut in rank space and translated through the tables, so they stay
// anchored on the data whatever the seed drew.
type bandTables struct {
	xs, ys []geom.Coord // strictly increasing
	jitter int
}

// genBand returns n points in general position along a descending
// band. A point is maximal within a window of the band with
// probability ≈ 0.89/√jitter, so an x-window of L ranks answers
// k ≈ 0.89·L/√jitter points — the knob that makes fat answers.
func genBand(n, jitter int, rng *rand.Rand) ([]geom.Point, *bandTables) {
	t := &bandTables{xs: increasing(n, rng), ys: increasing(n, rng), jitter: jitter}
	// y-rank by sorting on the jittered anti-diagonal: a permutation,
	// so no two points share a y.
	key := make([]float64, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
		key[i] = float64(n-1-i) + (rng.Float64()*2-1)*float64(jitter)
	}
	sort.Slice(order, func(a, b int) bool { return key[order[a]] < key[order[b]] })
	pts := make([]geom.Point, n)
	for yRank, i := range order {
		pts[i] = geom.Point{X: t.xs[i], Y: t.ys[yRank]}
	}
	return pts, t
}

// increasing returns n strictly increasing coordinates spread over
// [0, coordSpan).
func increasing(n int, rng *rand.Rand) []geom.Coord {
	step := int64(coordSpan) / int64(n)
	out := make([]geom.Coord, n)
	cur := geom.Coord(0)
	for i := range out {
		cur += 1 + geom.Coord(rng.Int63n(step))
		out[i] = cur
	}
	return out
}

// query cuts a window of about a sixth of the band and frames it with
// one of the four general-family shapes (the ones Theorem 5 pins to
// the Theorem 6 structure). The y bounds clear the band's jitter, so
// the answer is the window's whole staircase.
func (t *bandTables) query(rng *rand.Rand) op {
	n := len(t.xs)
	l := n/8 + rng.Intn(n/16)
	a := rng.Intn(n - l)
	b := a + l
	x1, x2 := t.xs[a], t.xs[b]
	yHi := t.ys[min(n-1, n-1-a+t.jitter)]
	yLo := t.ys[max(0, n-1-b-t.jitter)]
	switch rng.Intn(4) {
	case 0:
		return readOp(geom.LeftOpen(x2, yLo, yHi), `{"shape":"left-open","x":%d,"y1":%d,"y2":%d}`, x2, yLo, yHi)
	case 1:
		return readOp(geom.AntiDominance(x2, yHi), `{"shape":"anti-dominance","x":%d,"y":%d}`, x2, yHi)
	case 2:
		return readOp(geom.BottomOpen(x1, x2, yHi), `{"shape":"bottom-open","x1":%d,"x2":%d,"y":%d}`, x1, x2, yHi)
	default:
		return fourSided(geom.Rect{X1: x1, X2: x2, Y1: yLo, Y2: yHi})
	}
}

// verifyQueries returns n queries over every shape anchored on pts —
// the quiesce-point and post-recovery correctness probes.
func verifyQueries(pts []geom.Point, n int, seed int64) []op {
	g := &clientGen{rng: rand.New(rand.NewSource(seed)), mine: pts}
	out := make([]op, n)
	for i := range out {
		out[i] = g.anchored(allShapes[i%len(allShapes)])
	}
	return out
}

// hash fingerprints the whole workload — preload order and every
// request body of every client — for the seed-determinism tests.
func (w *workload) hash() uint64 {
	h := fnv.New64a()
	for _, p := range w.preload {
		fmt.Fprintf(h, "%d,%d;", p.X, p.Y)
	}
	for _, st := range w.streams {
		for _, o := range st {
			h.Write([]byte{byte(o.kind)}) //errlint:ok hash.Hash.Write never fails
			h.Write(o.body)               //errlint:ok hash.Hash.Write never fails
		}
	}
	return h.Sum64()
}
