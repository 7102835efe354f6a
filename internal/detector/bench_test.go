package detector

import (
	"testing"

	"repro/internal/geom"
)

// Layer micro-benchmarks of the detector simulation on KITTI-sim
// frames: one op is one frame of a generated 100-frame sequence, taken
// in order. The region benchmark restricts each frame to the cascade's
// mask, the frame's ground-truth boxes expanded by the paper's 30 px
// margin, with one proposal charged per box. One untimed pass over the
// frames first grows the detector's scratch, so allocs/op is the
// steady state's even at one iteration.

const benchFrames = 100

// sinkDetections keeps the compiler from discarding the benchmarked
// calls.
var sinkDetections []Detection

func BenchmarkDetectFull(b *testing.B) {
	frames := kittiFrames(1, benchFrames)
	d := MustNew("resnet10a")
	for _, f := range frames {
		d.DetectFull(f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDetections = d.DetectFull(frames[i%len(frames)]).Detections
	}
}

func BenchmarkDetectRegions(b *testing.B) {
	frames := kittiFrames(1, benchFrames)
	masks := make([]*geom.Mask, len(frames))
	for i, f := range frames {
		masks[i] = geom.NewMask(float64(f.Width), float64(f.Height), geom.DefaultCell)
		for _, o := range f.Objects {
			masks[i].AddBox(o.Box.Expand(30))
		}
	}
	d := MustNew("resnet50")
	for k, f := range frames {
		d.DetectRegions(f, masks[k], len(f.Objects))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(frames)
		sinkDetections = d.DetectRegions(frames[k], masks[k], len(frames[k].Objects)).Detections
	}
}
