package engine_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dyntop"
	"repro/internal/emio"
	"repro/internal/engine"
	"repro/internal/foursided"
	"repro/internal/geom"
	"repro/internal/shard"
)

// countLog is an UpdateLog that only counts the records appended.
type countLog struct{ records int }

func (l *countLog) LogBatch(_, _ []geom.Point) error { l.records++; return nil }

// contractLayer is one Backend under the write contract: how to build
// it over pts, which rectangles it answers, and whether it only buffers
// (Apply then reports the deletes it accepted, resolved at Flush).
type contractLayer struct {
	name   string
	build  func(t *testing.T, pts []geom.Point) engine.Backend
	serves func(geom.Rect) bool
}

// contractPlanner assembles a planner the way core.Open does: dyntop
// plus foursided on one shared disk, or one sharded engine in both
// roles, each optionally with a transpose mirror on private storage.
func contractPlanner(t *testing.T, pts []geom.Point, sharded, mirrors bool) *engine.Planner {
	t.Helper()
	pl := new(engine.Planner)
	if sharded {
		eng, err := shard.New(shard.Options{Machine: cacheCfg, Shards: 4, Workers: 2, Dynamic: true}, pts)
		if err != nil {
			t.Fatal(err)
		}
		pl.RegisterTopOpen(eng)
		pl.RegisterGeneral(eng)
	} else {
		d := emio.NewDisk(cacheCfg)
		pl.RegisterTopOpen(engine.NewDynTop(dyntop.BuildSABE(d, 0.5, pts), d))
		pl.RegisterGeneral(engine.NewFourSided(foursided.Build(d, 0.5, pts), d))
	}
	if mirrors {
		pl.RegisterMirror(contractMirror(t, pts, sharded))
	}
	return pl
}

func contractMirror(t *testing.T, pts []geom.Point, sharded bool) *engine.MirrorBackend {
	t.Helper()
	mirrored := geom.ReflectSwapXY.Pts(pts)
	geom.SortByX(mirrored)
	var inner engine.Backend
	if sharded {
		eng, err := shard.New(shard.Options{Machine: cacheCfg, Shards: 4, Workers: 2, Dynamic: true, TopOnly: true}, mirrored)
		if err != nil {
			t.Fatal(err)
		}
		inner = eng
	} else {
		d := emio.NewDisk(cacheCfg)
		inner = engine.NewDynTop(dyntop.BuildSABE(d, 0.5, mirrored), d)
	}
	m, err := engine.NewMirror(geom.ReflectSwapXY, inner)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func contractLayers() []contractLayer {
	all := func(geom.Rect) bool { return true }
	topOpen := func(q geom.Rect) bool { return engine.Classify(q).TopOpenFamily() }
	layers := []contractLayer{
		{"dyntop", func(t *testing.T, pts []geom.Point) engine.Backend {
			d := emio.NewDisk(cacheCfg)
			return engine.NewDynTop(dyntop.BuildSABE(d, 0.5, pts), d)
		}, topOpen},
		{"foursided", func(t *testing.T, pts []geom.Point) engine.Backend {
			d := emio.NewDisk(cacheCfg)
			return engine.NewFourSided(foursided.Build(d, 0.5, pts), d)
		}, all},
		{"shard", func(t *testing.T, pts []geom.Point) engine.Backend {
			eng, err := shard.New(shard.Options{Machine: cacheCfg, Shards: 4, Workers: 2, Dynamic: true}, pts)
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}, all},
		{"mirror", func(t *testing.T, pts []geom.Point) engine.Backend {
			return contractMirror(t, pts, false)
		}, func(q geom.Rect) bool { return topOpen(geom.ReflectSwapXY.Rect(q)) }},
	}
	for _, sharded := range []bool{false, true} {
		for _, mirrors := range []bool{false, true} {
			name := fmt.Sprintf("sharded=%t/mirrors=%t", sharded, mirrors)
			planner := func(t *testing.T, pts []geom.Point) engine.Backend {
				return contractPlanner(t, pts, sharded, mirrors)
			}
			cache := func(t *testing.T, pts []geom.Point) engine.Backend {
				c, err := engine.NewCache(planner(t, pts), 64)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			log := func(t *testing.T, pts []geom.Point) engine.Backend {
				return engine.NewLogBackend(cache(t, pts), &countLog{}, pts)
			}
			queue := func(t *testing.T, pts []geom.Point) engine.Backend {
				q, err := engine.NewAsyncQueue(log(t, pts), noTimer)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { q.Close() })
				return q
			}
			layers = append(layers,
				contractLayer{"planner/" + name, planner, all},
				contractLayer{"cache/" + name, cache, all},
				contractLayer{"log/" + name, log, all},
				contractLayer{"queue/" + name, queue, all})
		}
	}
	return layers
}

// TestWriteContract pins Apply on every Backend layer with one mixed
// batch: deletes of present points in descending-x order (so the batch
// spans every shard against the grain), a delete of a missing point,
// and a delete plus re-insert of the same point, alongside a fresh
// insert. Apply must report the removed subset in dels order (a
// buffering queue reports every delete it accepted), the miss must
// change nothing, the re-insert must land, and every answer must match
// geom.RangeSkyline — after Flush for the queue.
func TestWriteContract(t *testing.T) {
	const n = 240
	span := geom.Coord(n * 16)
	all := geom.GenUniform(n+1, span, 2801)
	pts, fresh := all[:n], all[n]
	geom.SortByX(pts)
	miss := geom.Point{X: span + 7, Y: span + 7}

	// Six present victims, highest x first, with the miss in the
	// middle; the lowest-x victim comes back in the same call.
	var dels, want []geom.Point
	for i := n - 1; i >= 0; i -= n / 6 {
		dels = append(dels, pts[i])
		want = append(want, pts[i])
		if len(dels) == 3 {
			dels = append(dels, miss)
		}
	}
	reins := want[len(want)-1]
	inss := []geom.Point{reins, fresh}
	ref := append([]geom.Point{fresh}, pts...)
	ref = slices.DeleteFunc(ref, func(p geom.Point) bool {
		return p != reins && slices.Contains(want, p)
	})

	for _, l := range contractLayers() {
		t.Run(l.name, func(t *testing.T) {
			b := l.build(t, append([]geom.Point(nil), pts...))
			q, buffered := b.(*engine.AsyncQueue)
			settle := func() {
				if buffered {
					if err := q.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			check := func(ref []geom.Point, what string) {
				t.Helper()
				rng := rand.New(rand.NewSource(2802))
				for i := 0; i < 60; i++ {
					r := randAnyRect(rng, span)
					if !l.serves(r) {
						continue
					}
					got, want := b.RangeSkyline(r), geom.RangeSkyline(ref, r)
					if !slices.Equal(got, want) {
						t.Fatalf("%s: %v = %v, want %v", what, r, got, want)
					}
				}
			}

			removed, err := b.Apply([]geom.Point{miss}, nil)
			settle()
			if err != nil || (!buffered && len(removed) != 0) {
				t.Fatalf("Apply(miss) = %v, %v", removed, err)
			}
			check(pts, "after a missed delete")

			removed, err = b.Apply(dels, inss)
			settle()
			if err != nil {
				t.Fatal(err)
			}
			if buffered {
				if !slices.Equal(removed, dels) {
					t.Fatalf("queued Apply accepted %v, want every delete %v", removed, dels)
				}
			} else if !slices.Equal(removed, want) {
				t.Fatalf("Apply removed %v, want %v in dels order", removed, want)
			}
			check(ref, "after the mixed batch")
		})
	}
}

// randAnyRect draws one rectangle of a random Figure-2 shape (or a
// general 4-sided one) over [0, span)².
func randAnyRect(rng *rand.Rand, span geom.Coord) geom.Rect {
	c := func() geom.Coord { return rng.Int63n(span) }
	x1, y1 := c(), c()
	x2, y2 := x1+rng.Int63n(span-x1)+1, y1+rng.Int63n(span-y1)+1
	switch rng.Intn(8) {
	case 0:
		return geom.TopOpen(x1, x2, y1)
	case 1:
		return geom.LeftOpen(x2, y1, y2)
	case 2:
		return geom.RightOpen(x1, y1, y2)
	case 3:
		return geom.BottomOpen(x1, x2, y2)
	case 4:
		return geom.Dominance(x1, y1)
	case 5:
		return geom.AntiDominance(x2, y2)
	case 6:
		return geom.Rect{X1: geom.NegInf, X2: geom.PosInf, Y1: geom.NegInf, Y2: geom.PosInf}
	}
	return geom.Rect{X1: x1, X2: x2, Y1: y1, Y2: y2}
}
