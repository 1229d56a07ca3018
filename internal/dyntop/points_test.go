package dyntop

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/emio"
	"repro/internal/geom"
)

// TestPointsMatchOracle: the leaf scan lists exactly the indexed points
// in increasing x, on the live tree after a seeded 3:1 insert/delete
// churn and on a Handle pinned halfway through it, at every ε; and on a
// cold cache it charges one read per block of every leaf span.
func TestPointsMatchOracle(t *testing.T) {
	cfg := emio.Config{B: 16, M: 16 * 32}
	for _, eps := range []float64{0, 0.5, 1} {
		rng := rand.New(rand.NewSource(int64(eps*10) + 7))
		all := permPoints(1500, int64(eps*10)+3)
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		present := slices.Clone(all[:400])
		pool := all[400:]
		geom.SortByX(present)
		d := emio.NewDisk(cfg)
		tr := BuildSABE(d, eps, present)

		const steps = 1200
		var h *Handle
		var pinned []geom.Point
		for u := 0; u < steps; u++ {
			if u == steps/2 {
				ret := d.RetainFrees()
				defer ret.Release()
				h, pinned = tr.Snapshot(), slices.Clone(present)
			}
			if u%4 == 3 {
				i := rng.Intn(len(present))
				if !tr.Delete(present[i]) {
					t.Fatalf("ε=%v: Delete(%v) reported absent", eps, present[i])
				}
				present = slices.Delete(present, i, i+1)
				continue
			}
			p := pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			tr.Insert(p)
			present = append(present, p)
		}

		for _, c := range []struct {
			name string
			root *node
			scan func() []geom.Point
			want []geom.Point
		}{
			{"tree", tr.xt.Root, func() []geom.Point { return tr.Scan(geom.NegInf, geom.PosInf, nil) }, present},
			{"handle", h.root, func() []geom.Point { return h.Scan(geom.NegInf, geom.PosInf, nil) }, pinned},
		} {
			want := slices.Clone(c.want)
			geom.SortByX(want)
			blocks := 0
			for _, l := range leaves(c.root) {
				blocks += len(l.Runs)
			}
			var got []geom.Point
			st := d.Measure(func() { got = c.scan() })
			if !slices.Equal(got, want) {
				t.Fatalf("ε=%v %s: Points lists %d points, want the %d of the oracle in x order", eps, c.name, len(got), len(want))
			}
			if st.Reads != uint64(blocks) || st.Writes != 0 {
				t.Errorf("ε=%v %s: cold scan charged %d reads, %d writes; want one read per leaf block, %d", eps, c.name, st.Reads, st.Writes, blocks)
			}
		}
	}
}
