package engine

import "repro/internal/geom"

// StubBackend is the one embedded base of the engine test fakes: it
// answers nothing, pins an empty view (or fails with SnapErr) and
// reports Cuts as its x-partition. A fake embeds it, binds WriteVerbs to
// its own Apply and overrides only what it exercises, so a method added
// to Backend is stubbed here once. Exported so the external engine_test
// package embeds the same stub.
type StubBackend struct {
	WriteVerbs
	// Cuts is the x-partition Partition reports (nil: one slab).
	Cuts []geom.Coord
	// SnapErr, when non-nil, is the error Snapshot fails with.
	SnapErr error
}

func (*StubBackend) RangeSkyline(geom.Rect) []geom.Point { return nil }

func (s *StubBackend) Partition() (xcuts, ycuts []geom.Coord) { return s.Cuts, nil }

func (s *StubBackend) Snapshot() (View, error) {
	if s.SnapErr != nil {
		return nil, s.SnapErr
	}
	return stubView{}, nil
}

// stubView is the empty pinned view of a StubBackend.
type stubView struct{}

func (stubView) RangeSkyline(geom.Rect) []geom.Point { return nil }
func (stubView) Release()                            {}
