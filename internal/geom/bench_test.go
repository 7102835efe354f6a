package geom

import (
	"math/rand"
	"testing"
)

// Layer micro-benchmarks over one KITTI-sized frame's refinement
// regions: 12 detection-sized boxes, each expanded by the paper's 30 px
// margin, which matches the ~11.6 boxes per frame the CaTDet step adds
// to its mask on the KITTI-sim preset. The tail benchmark prices a
// crowded 40-box frame.

const (
	benchW, benchH = 1242, 375
	benchMargin    = 30
	benchBoxes     = 12
	benchTailBoxes = 40
)

// benchRegions returns the seeded frame's n boxes and the same boxes
// expanded by the margin. The seed is fixed, so a longer frame extends
// a shorter one.
func benchRegions(n int) (boxes, regions []Box) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		w, h := 30+rng.Float64()*150, 25+rng.Float64()*100
		x, y := rng.Float64()*(benchW-w), 120+rng.Float64()*(benchH-120-h)
		b := NewBox(x, y, x+w, y+h)
		boxes = append(boxes, b)
		regions = append(regions, b.Expand(benchMargin))
	}
	return boxes, regions
}

// launchCost prices a region like the GPU model's ResNet-50 refinement:
// a 2.5 ms launch overhead plus time proportional to the region's share
// of a 0.16 s full frame.
func launchCost(b Box) float64 { return 2.5e-3 + 0.16*b.Area()/(benchW*benchH) }

// Sinks keep the compiler from discarding the benchmarked calls.
var (
	sinkCoverage float64
	sinkMerged   []Box
)

func BenchmarkMaskAddBox(b *testing.B) {
	_, regions := benchRegions(benchBoxes)
	m := NewMask(benchW, benchH, DefaultCell)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		for _, r := range regions {
			m.AddBox(r)
		}
	}
}

func BenchmarkMaskBoxCoverage(b *testing.B) {
	boxes, regions := benchRegions(benchBoxes)
	m := NewMask(benchW, benchH, DefaultCell)
	m.AddBoxes(regions[:benchBoxes/2], 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bx := range boxes {
			sinkCoverage += m.BoxCoverage(bx)
		}
	}
}

func BenchmarkGreedyMerge(b *testing.B) { benchGreedyMerge(b, benchBoxes) }

func BenchmarkGreedyMergeTail(b *testing.B) { benchGreedyMerge(b, benchTailBoxes) }

// benchGreedyMerge merges n seeded regions per op and reports the cost
// calls per op, a host-independent count of the merge's work.
func benchGreedyMerge(b *testing.B, n int) {
	_, regions := benchRegions(n)
	calls := 0
	cost := func(bx Box) float64 {
		calls++
		return launchCost(bx)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkMerged = GreedyMerge(regions, cost)
	}
	b.ReportMetric(float64(calls)/float64(b.N), "cost_calls/op")
}

// The mask's per-box work allocates nothing.
func TestMaskAllocFree(t *testing.T) {
	boxes, regions := benchRegions(benchBoxes)
	m := NewMask(benchW, benchH, DefaultCell)
	if n := testing.AllocsPerRun(50, func() {
		for _, r := range regions {
			m.AddBox(r)
		}
	}); n != 0 {
		t.Fatalf("AddBox: %v allocs per frame, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		for _, bx := range boxes {
			m.BoxCoverage(bx)
		}
	}); n != 0 {
		t.Fatalf("BoxCoverage: %v allocs per frame, want 0", n)
	}
}

// GreedyMerge allocates its result and nothing else up to 64 boxes; past
// that, the cached costs move to the heap too.
func TestGreedyMergeAllocs(t *testing.T) {
	_, regions := benchRegions(benchBoxes)
	many := make([]Box, 65)
	for i := range many {
		many[i] = NewBox(float64(i*20), 0, float64(i*20+10), 10)
	}
	for _, tc := range []struct {
		boxes []Box
		want  float64
	}{{regions, 1}, {many[:64], 1}, {many, 2}} {
		if n := testing.AllocsPerRun(10, func() { GreedyMerge(tc.boxes, launchCost) }); n != tc.want {
			t.Fatalf("GreedyMerge of %d boxes: %v allocs, want %v", len(tc.boxes), n, tc.want)
		}
	}
}
