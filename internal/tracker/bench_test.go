package tracker

import (
	"testing"

	"repro/internal/geom"
)

// BenchmarkTrackerObserve is the tracker layer benchmark: one op is one
// steady-state frame, Observe of 12 drifting detections (about a
// KITTI-sim frame's confident refinement output) plus the next frame's
// PredictAppend, with the scenes generated before the timer starts.
func BenchmarkTrackerObserve(b *testing.B) {
	const objects = 12
	trk := New(DefaultConfig(), 1242, 375)
	for f := 0; f < 10; f++ { // establish tracks, warm scratch
		trk.Observe(driftScene(f, objects))
	}
	scenes := make([][]geom.Scored, 100)
	for i := range scenes {
		scenes[i] = driftScene(10+i, objects)
	}
	pred := make([]geom.Scored, 0, 2*objects)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trk.Observe(scenes[i%len(scenes)])
		pred = trk.PredictAppend(pred[:0])
	}
}
