package engine

import (
	"slices"
	"testing"

	"repro/internal/dyntop"
	"repro/internal/emio"
	"repro/internal/foursided"
	"repro/internal/geom"
)

var cacheCfg = emio.Config{B: 32, M: 32 * 32}

// FuzzCanonicalQuery fuzzes the shape classifier and the cache-key
// canonicalization over arbitrary rectangles. The invariants:
//
//   - Classify is total and agrees with IsTopOpen on the top-open
//     family (the planner's routing predicate);
//   - CanonicalQuery is idempotent;
//   - q and CanonicalQuery(q) contain exactly the same points and have
//     byte-identical range skylines — the property that makes the
//     canonical rectangle a sound cache key.
//
// The seed corpus pins the Theorem-5 counterexample rectangles of
// TestReflectionFallacy (the anti-dominance query whose neg-y and
// anti-transpose images are top-open but answer the wrong staircase):
// exactly the family where a routing or keying bug would silently trade
// correctness for speed.
func FuzzCanonicalQuery(f *testing.F) {
	antiDom := geom.AntiDominance(3, 3)
	add := func(q geom.Rect) { f.Add(q.X1, q.X2, q.Y1, q.Y2) }
	add(antiDom)
	add(geom.ReflectNegY.Rect(antiDom))
	add(geom.ReflectAntiTranspose.Rect(antiDom))
	add(geom.TopOpen(1, 2, 1))
	add(geom.RightOpen(1, 1, 2))
	add(geom.BottomOpen(1, 2, 2))
	add(geom.LeftOpen(2, 1, 2))
	add(geom.Dominance(1, 1))
	add(geom.Contour(2))
	add(geom.Rect{X1: geom.NegInf, X2: geom.PosInf, Y1: geom.NegInf, Y2: geom.PosInf})
	add(geom.Rect{X1: 9, X2: 3, Y1: 0, Y2: 5}) // empty in x
	add(geom.Rect{X1: 0, X2: 5, Y1: 9, Y2: 3}) // empty in y
	add(geom.Rect{X1: 2, X2: 2, Y1: 2, Y2: 2}) // degenerate point
	f.Fuzz(func(t *testing.T, x1, x2, y1, y2 geom.Coord) {
		q := geom.Rect{X1: x1, X2: x2, Y1: y1, Y2: y2}
		if got, want := Classify(q).TopOpenFamily(), q.IsTopOpen(); got != want {
			t.Fatalf("%v: Classify(q).TopOpenFamily() = %t, IsTopOpen = %t", q, got, want)
		}
		c := CanonicalQuery(q)
		if again := CanonicalQuery(c); again != c {
			t.Fatalf("%v: canonicalization not idempotent: %v -> %v", q, c, again)
		}
		if (q.X1 > q.X2 || q.Y1 > q.Y2) != (c == geom.Rect{X1: 0, X2: -1, Y1: 0, Y2: -1}) {
			t.Fatalf("%v: canonical form %v does not match emptiness", q, c)
		}
		// Membership equivalence on a probe set built from the
		// rectangle's own corners (the only places behavior can flip)
		// plus the Theorem-5 counterexample points.
		probes := []geom.Point{
			{X: 1, Y: 1}, {X: 2, Y: 2},
			{X: x1, Y: y1}, {X: x1, Y: y2}, {X: x2, Y: y1}, {X: x2, Y: y2},
			{X: x1/2 + x2/2, Y: y1/2 + y2/2},
			{X: x1 + 1, Y: y1 + 1}, {X: x2 - 1, Y: y2 - 1},
		}
		for _, p := range probes {
			if q.Contains(p) != c.Contains(p) {
				t.Fatalf("%v vs canonical %v disagree on membership of %v", q, c, p)
			}
		}
		// Answer equivalence: the canonical rectangle is only a sound
		// cache key if every point set yields byte-identical skylines.
		got := geom.RangeSkyline(probes, c)
		want := geom.RangeSkyline(probes, q)
		if len(got) != len(want) {
			t.Fatalf("%v vs canonical %v: %d vs %d skyline points", q, c, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v vs canonical %v: skyline point %d = %v, want %v", q, c, i, got[i], want[i])
			}
		}
	})
}

// fuzzQueueRect decodes three bytes into a query rectangle covering
// every Figure-2 shape plus the general 4-sided one, so the fuzzer
// sweeps the whole routing surface behind the queue.
func fuzzQueueRect(a, b, c byte, span geom.Coord) geom.Rect {
	x1 := geom.Coord(a) * span / 256
	y1 := geom.Coord(b) * span / 256
	w := (geom.Coord(c>>4) + 1) * span / 16
	r := geom.Rect{X1: x1, X2: x1 + w, Y1: y1, Y2: y1 + w}
	switch c % 9 {
	case 0:
		r.Y2 = geom.PosInf
	case 1:
		r.X2 = geom.PosInf
	case 2:
		r.Y1 = geom.NegInf
	case 3:
		r.X1 = geom.NegInf
	case 4:
		r.X2, r.Y2 = geom.PosInf, geom.PosInf
	case 5:
		r.X1, r.Y1 = geom.NegInf, geom.NegInf
	case 6:
		r.X1, r.Y1, r.Y2 = geom.NegInf, geom.NegInf, geom.PosInf
	case 7:
		r.X1, r.X2, r.Y1, r.Y2 = geom.NegInf, geom.PosInf, geom.NegInf, geom.PosInf
	}
	return r
}

// FuzzAsyncQueue interleaves enqueues (single writes and mixed
// delete-and-insert Apply batches), drains and queries decoded from the
// fuzz input against a synchronous twin engine and the in-memory
// oracle. The invariants:
//
//   - every query through the queue is byte-identical to the
//     synchronous planner's answer and to geom.RangeSkyline over the
//     reference set (drain-on-read exactness, buffered deletes never
//     visible);
//   - after a final Flush the quiescent counter invariant holds
//     (enqueued == drained + coalesced, nothing buffered) and the
//     whole-plane skylines agree.
//
// FlushPoints is tiny (4) so size-triggered drains interleave with
// reads and coalescing pairs; the background drainer is disabled to
// keep failures replayable.
func FuzzAsyncQueue(f *testing.F) {
	f.Add([]byte{0, 0, 3, 10, 20, 4, 1, 2, 7, 3, 99, 99, 8})
	f.Add([]byte{5, 5, 5, 2, 9, 3, 0, 0, 0, 4, 3, 1, 2, 3})
	f.Add([]byte{2, 4, 0, 1, 3, 200, 100, 50, 5, 2, 8})
	f.Add([]byte{6, 1, 2, 5, 3, 9, 40, 90, 6, 0, 4, 7, 5, 6, 3, 8, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		const nBase, nPool = 48, 160
		span := geom.Coord((nBase + nPool) * 16)
		all := geom.GenUniform(nBase+nPool, int64(span), 4242)
		base := append([]geom.Point(nil), all[:nBase]...)
		geom.SortByX(base)
		pool := all[nBase:]

		build := func() *Planner {
			pl := new(Planner)
			d := emio.NewDisk(cacheCfg)
			pl.RegisterTopOpen(NewDynTop(dyntop.BuildSABE(d, 0.5, base), d))
			d4 := emio.NewDisk(cacheCfg)
			pl.RegisterGeneral(NewFourSided(foursided.Build(d4, 0.5, base), d4))
			return pl
		}
		syncPl := build()
		q, err := NewAsyncQueue(build(), QueueOptions{FlushPoints: 4, FlushInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer q.Close()

		ref := append([]geom.Point(nil), base...)
		check := func(r geom.Rect) {
			want := geom.RangeSkyline(ref, r)
			for name, got := range map[string][]geom.Point{
				"queued": q.RangeSkyline(r), "sync": syncPl.RangeSkyline(r),
			} {
				if len(got) != len(want) {
					t.Fatalf("%s %v: %d points, want %d (%v vs %v)", name, r, len(got), len(want), got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s %v: point %d = %v, want %v", name, r, i, got[i], want[i])
					}
				}
			}
		}

		next, i := 0, 0
		readByte := func() byte {
			if i >= len(data) {
				return 0
			}
			b := data[i]
			i++
			return b
		}
		for i < len(data) {
			switch readByte() % 7 {
			case 0, 1: // insert a fresh point
				if next >= len(pool) {
					continue
				}
				p := pool[next]
				next++
				if err := syncPl.Insert(p); err != nil {
					t.Fatal(err)
				}
				if err := q.Insert(p); err != nil {
					t.Fatal(err)
				}
				ref = append(ref, p)
			case 2: // delete: live, or a guaranteed absentee
				sel := int(readByte())
				if sel%4 == 0 || len(ref) == 0 {
					absent := geom.Point{X: span + geom.Coord(sel) + 1, Y: span + geom.Coord(sel) + 1}
					if ok, err := syncPl.Delete(absent); ok || err != nil {
						t.Fatalf("sync Delete(absent) = %t, %v", ok, err)
					}
					if _, err := q.Delete(absent); err != nil {
						t.Fatal(err)
					}
					continue
				}
				j := sel % len(ref)
				p := ref[j]
				ref = append(ref[:j], ref[j+1:]...)
				if ok, err := syncPl.Delete(p); !ok || err != nil {
					t.Fatalf("sync Delete(%v) = %t, %v", p, ok, err)
				}
				if ok, err := q.Delete(p); !ok || err != nil {
					t.Fatalf("queued Delete(%v) = %t, %v", p, ok, err)
				}
			case 3: // query
				check(fuzzQueueRect(readByte(), readByte(), readByte(), span))
			case 4: // explicit flush
				if err := q.Flush(); err != nil {
					t.Fatal(err)
				}
			case 5: // coalescing pair: insert fresh, delete immediately
				if next >= len(pool) {
					continue
				}
				p := pool[next]
				next++
				if err := q.Insert(p); err != nil {
					t.Fatal(err)
				}
				if err := syncPl.Insert(p); err != nil {
					t.Fatal(err)
				}
				if ok, err := q.Delete(p); !ok || err != nil {
					t.Fatalf("queued Delete(%v) = %t, %v", p, ok, err)
				}
				if ok, err := syncPl.Delete(p); !ok || err != nil {
					t.Fatalf("sync Delete(%v) = %t, %v", p, ok, err)
				}
			case 6: // mixed Apply: two deletes (live or absent), a delete
				// plus re-insert of one live point, and a fresh insert
				var dels, inss, want []geom.Point
				for k := 0; k < 2; k++ {
					sel := int(readByte())
					if sel%3 == 0 || len(ref) == 0 {
						dels = append(dels, geom.Point{X: span + geom.Coord(sel) + 1, Y: span + geom.Coord(sel) + 1})
						continue
					}
					j := sel % len(ref)
					dels = append(dels, ref[j])
					want = append(want, ref[j])
					ref = append(ref[:j], ref[j+1:]...)
				}
				if len(ref) > 0 {
					p := ref[int(readByte())%len(ref)]
					dels = append(dels, p)
					want = append(want, p)
					inss = append(inss, p)
				}
				if next < len(pool) {
					inss = append(inss, pool[next])
					ref = append(ref, pool[next])
					next++
				}
				if removed, err := syncPl.Apply(dels, inss); err != nil || !slices.Equal(removed, want) {
					t.Fatalf("sync Apply(%v, %v) = %v, %v; want %v", dels, inss, removed, err, want)
				}
				if accepted, err := q.Apply(dels, inss); err != nil || !slices.Equal(accepted, dels) {
					t.Fatalf("queued Apply(%v, %v) = %v, %v", dels, inss, accepted, err)
				}
			}
		}
		if err := q.Flush(); err != nil {
			t.Fatal(err)
		}
		check(geom.Rect{X1: geom.NegInf, X2: geom.PosInf, Y1: geom.NegInf, Y2: geom.PosInf})
		ctr := q.Counters()
		if ctr.Enqueued != ctr.Drained+ctr.Coalesced || q.Buffered() != 0 {
			t.Fatalf("quiescent invariant violated: %+v, %d buffered", ctr, q.Buffered())
		}
	})
}
