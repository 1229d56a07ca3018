package dyntop

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/emio"
	"repro/internal/geom"
)

// Theorem 4 on the served machine (emio.DefaultConfig: B = 256, 64
// frames). A node's representative block covers its children's critical
// records (emio.Disk.Cover), so a refresh pins only the old
// representative span and a query pins nothing: the paper's M = Ω(ℓb)
// has to hold, and the frames left over have to carry the rest of an
// update's working set.

// randomInserts builds a tree over n0 uniform points and inserts n0/4
// more at random x, returning the disk and the mean I/Os per insert.
// Each insert is measured from a cold cache (Disk.Measure), so the mean
// is what one insert's working set costs in the frames it has; whether
// the whole point set fits in memory (at n0 = 10 000 all leaves fit in
// 256 frames but not in 64) does not enter it.
func randomInserts(t *testing.T, cfg emio.Config, eps float64, n0 int, seed int64) (*emio.Disk, *Tree, float64) {
	t.Helper()
	all := geom.GenUniform(n0+n0/4, 1<<40, seed)
	rand.New(rand.NewSource(seed)).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	d, tr := buildTree(t, cfg, eps, all[:n0])
	var ios uint64
	for _, p := range all[n0:] {
		ios += d.Measure(func() { tr.Insert(p) }).IOs()
	}
	return d, tr, float64(ios) / float64(len(all)-n0)
}

// TestServedMachinePins: at every ε the tree pins at most M/B blocks,
// with no frame-table overflow, over a build, random inserts and a cold
// top-open query sweep.
func TestServedMachinePins(t *testing.T) {
	cfg := emio.DefaultConfig()
	for _, eps := range []float64{0, 0.25, 0.5, 0.75, 1} {
		d, tr, _ := randomInserts(t, cfg, eps, 1<<14, 501)
		rng := rand.New(rand.NewSource(502))
		for range 100 {
			x1 := geom.Coord(rng.Int63n(1 << 40))
			d.Measure(func() { tr.Query(x1, x1+1<<38, geom.Coord(rng.Int63n(1<<40))) })
		}
		if peak := d.PeakPinned(); peak > cfg.Frames() {
			t.Errorf("eps=%.2f: %d blocks pinned at once, want <= M/B = %d", eps, peak, cfg.Frames())
		}
		if n := d.PinOverflows(); n != 0 {
			t.Errorf("eps=%.2f: %d admissions overflowed the frame table, want 0", eps, n)
		}
	}
}

// TestServedMachineKnee: random inserts at ε = 0.5 cost about as much
// with the served machine's 64 frames as with 256. Before covers, a
// refresh pinned every child's critical records, and the frames left
// could not hold the rest of the refresh: from n0 = 2^14 on an insert
// cost 31.0–34.1 I/Os at 64 frames against 6.0–6.8 at 256. With covers
// the two columns are equal at every n0 here: 3.91 / 4.94 / 4.94 / 4.92
// at n0 = 10 000 / 2^14 / 2^15 / 2^16 (3.95 / 4.98 / 5.95 / 5.94 with the
// fan-out 2⌈B^ε⌉).
func TestServedMachineKnee(t *testing.T) {
	if testing.Short() {
		t.Skip("builds eight trees of up to 2^16 points")
	}
	small := emio.DefaultConfig()
	large := emio.Config{B: small.B, M: 4 * small.M}
	for _, n0 := range []int{10000, 1 << 14, 1 << 15, 1 << 16} {
		_, _, at64 := randomInserts(t, small, 0.5, n0, 503)
		_, _, at256 := randomInserts(t, large, 0.5, n0, 503)
		t.Logf("n0=%d: %.2f I/Os per insert at %d frames, %.2f at %d", n0, at64, small.Frames(), at256, large.Frames())
		if at64 > 1.5*at256 {
			t.Errorf("n0=%d: %.2f I/Os per insert at %d frames, want within 1.5× of %.2f at %d",
				n0, at64, small.Frames(), at256, large.Frames())
		}
	}
}

// TestWarmStreamCost: at ε = 0.5 on the served machine, a warm stream
// alternating inserts at random x with deletes of random live points
// costs at most 1.51 I/Os per update, from a cold cache through a final
// DropCache that writes back every frame the stream dirtied. Nearly
// every such update is dominated inside its leaf and ends there: it
// reads the parent's representative block, which summarizes the leaf's
// blocks, and the point's block, and rewrites both. The stream measures
// 1.16. With the fan-out 2⌈B^ε⌉ the parent had room for the blocks'
// fences only, and an update read the leaf from the point's block on:
// 1.51. When an insert read its whole leaf and an update wrote from the
// point's block to the end of the span, it cost 2.04; when each update
// re-catenated every queue on its path, 7.16, and when each rewrote its
// whole leaf span to a fresh one, 2.51.
func TestWarmStreamCost(t *testing.T) {
	const n0, updates = 10000, 2000
	all := geom.GenUniform(n0+updates/2, 1<<40, 507)
	rng := rand.New(rand.NewSource(507))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	d, tr := buildTree(t, emio.DefaultConfig(), 0.5, all[:n0])
	live := slices.Clone(all[:n0])
	d.DropCache()
	before := d.Stats()
	for _, p := range all[n0:] {
		tr.Insert(p)
		live = append(live, p)
		i := rng.Intn(len(live))
		if !tr.Delete(live[i]) {
			t.Fatalf("Delete(%v) reported absent", live[i])
		}
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	d.DropCache()
	got := float64(d.Stats().Sub(before).IOs()) / updates
	t.Logf("%.2f I/Os per update", got)
	if got > 1.51 {
		t.Errorf("%.2f I/Os per update, want <= 1.51", got)
	}
}
