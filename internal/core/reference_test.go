package core

// Reference implementation: CaTDet.Step as it was before each region
// box was rasterized once, with the region mask built from both
// sources and the Table 3 attribution re-rasterizing each source alone
// (sourceOps, from the margin-expanded boxes without the frame
// intersection). It is kept verbatim (modulo names) so the differential
// tests below can require bit-identical FrameOutputs from the
// optimised Step. Do not optimise it; its value is that it is the old
// code.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/detector"
	"repro/internal/geom"
	"repro/internal/ops"
	"repro/internal/video"
)

// refStep is the former CaTDet.Step.
func refStep(s *CaTDet, f detector.Frame) FrameOutput {
	if s.trk == nil {
		s.Reset(&dataset.Sequence{Width: f.Width, Height: f.Height})
	}
	tracked := s.trk.PredictAppend(s.tracked[:0])
	s.tracked = tracked

	prop := s.Proposal.DetectFull(f)
	proposals := filterScored(s.props[:0], prop.Detections, s.Cfg.CThresh)
	s.props = proposals

	margin := s.Cfg.margin()
	s.mask = geom.ReuseMask(s.mask, float64(f.Width), float64(f.Height), s.Cfg.MaskCell)
	mask := s.mask
	frame := geom.NewBox(0, 0, float64(f.Width), float64(f.Height))
	regions := s.regions[:0]
	for _, p := range proposals {
		r := p.Box.Expand(margin).Intersect(frame)
		mask.AddBox(r)
		regions = append(regions, r)
	}
	for _, p := range tracked {
		r := p.Box.Expand(margin).Intersect(frame)
		mask.AddBox(r)
		regions = append(regions, r)
	}
	s.regions = regions
	nProps := len(proposals) + len(tracked)
	ref := s.Refinement.DetectRegions(f, mask, nProps)
	dets := scoredOf(ref.Detections)

	fromTracker := refSourceOps(s, f, tracked, margin)
	fromProposal := refSourceOps(s, f, proposals, margin)

	s.trackIn = geom.FilterScoreAppend(s.trackIn[:0], dets, s.Cfg.TrackThresh)
	s.trk.Observe(s.trackIn)

	return FrameOutput{
		Detections: dets,
		Ops: OpsBreakdown{
			Proposal:               prop.Ops,
			Refinement:             ref.Ops,
			RefinementFromTracker:  fromTracker,
			RefinementFromProposal: fromProposal,
		},
		NumProposals: nProps,
		Coverage:     ref.Coverage,
		Regions:      regions,
	}
}

// scoredOf is the former detection copy: a fresh slice per frame.
func scoredOf(dets []detector.Detection) []geom.Scored {
	out := make([]geom.Scored, len(dets))
	for i, d := range dets {
		out[i] = d.Scored
	}
	return out
}

// refSourceOps is the former CaTDet.sourceOps.
func refSourceOps(s *CaTDet, f detector.Frame, boxes []geom.Scored, margin float64) float64 {
	if len(boxes) == 0 {
		return 0
	}
	s.srcMask = geom.ReuseMask(s.srcMask, float64(f.Width), float64(f.Height), s.Cfg.MaskCell)
	m := s.srcMask
	for _, b := range boxes {
		m.AddBox(b.Box.Expand(margin))
	}
	return s.Refinement.Cost.RegionOps(f.Width, f.Height, m.CoveredFraction(), len(boxes))
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameBox(a, b geom.Box) bool {
	return sameBits(a.X1, b.X1) && sameBits(a.Y1, b.Y1) && sameBits(a.X2, b.X2) && sameBits(a.Y2, b.Y2)
}

// outputDiff describes the first bitwise difference between two
// FrameOutputs, or returns "" when they are identical.
func outputDiff(got, want FrameOutput) string {
	g, w := got.Ops, want.Ops
	if !sameBits(g.Proposal, w.Proposal) || !sameBits(g.Refinement, w.Refinement) ||
		!sameBits(g.RefinementFromTracker, w.RefinementFromTracker) ||
		!sameBits(g.RefinementFromProposal, w.RefinementFromProposal) {
		return fmt.Sprintf("Ops %+v, reference %+v", g, w)
	}
	if !sameBits(got.Coverage, want.Coverage) {
		return fmt.Sprintf("Coverage %v, reference %v", got.Coverage, want.Coverage)
	}
	if got.NumProposals != want.NumProposals {
		return fmt.Sprintf("NumProposals %d, reference %d", got.NumProposals, want.NumProposals)
	}
	if len(got.Regions) != len(want.Regions) {
		return fmt.Sprintf("%d regions, reference %d", len(got.Regions), len(want.Regions))
	}
	for i := range got.Regions {
		if !sameBox(got.Regions[i], want.Regions[i]) {
			return fmt.Sprintf("region %d: %v, reference %v", i, got.Regions[i], want.Regions[i])
		}
	}
	if len(got.Detections) != len(want.Detections) {
		return fmt.Sprintf("%d detections, reference %d", len(got.Detections), len(want.Detections))
	}
	for i, gd := range got.Detections {
		wd := want.Detections[i]
		if !sameBox(gd.Box, wd.Box) || !sameBits(gd.Score, wd.Score) || gd.Class != wd.Class {
			return fmt.Sprintf("detection %d: %+v, reference %+v", i, gd, wd)
		}
	}
	return ""
}

// stepPair is a CaTDet under test and an identically built one stepped
// by the reference.
type stepPair struct{ sys, ref *CaTDet }

func newStepPair(proposal, refinement func() *detector.Detector, cfg Config) stepPair {
	return stepPair{NewCaTDet(proposal(), refinement(), cfg), NewCaTDet(proposal(), refinement(), cfg)}
}

func (p stepPair) reset(seq *dataset.Sequence) {
	p.sys.Reset(seq)
	p.ref.Reset(seq)
}

// step advances both systems by one frame and fails on any difference.
func (p stepPair) step(t *testing.T, label string, f detector.Frame) {
	t.Helper()
	want := refStep(p.ref, f)
	got := p.sys.Step(f)
	if diff := outputDiff(got, want); diff != "" {
		t.Fatalf("%s (seq %q frame %d): %s", label, f.SeqID, f.Index, diff)
	}
}

func zooDetector(name string) func() *detector.Detector {
	return func() *detector.Detector { return detector.MustNew(name) }
}

// oracleDetector returns a perfect detector priced as the named model:
// it reproduces hand-made boxes exactly, out-of-frame ones included.
func oracleDetector(name string) func() *detector.Detector {
	return func() *detector.Detector {
		cost, err := ops.NewCostModel(name)
		if err != nil {
			panic(err)
		}
		return detector.NewOracle(cost)
	}
}

// TestStepMatchesReference pins the one-rasterization Step against the
// three-rasterization reference over generated KITTI-sim sequences,
// across margins and mask cells.
func TestStepMatchesReference(t *testing.T) {
	p := video.KITTIPreset()
	p.NumSequences = 2
	p.FramesPerSeq = 120
	ds := video.Generate(p, 5)
	cfgs := []Config{DefaultConfig(), {CThresh: 0.3, TrackThresh: 0.5, Margin: 45, MaskCell: 5}, {CThresh: 0.05, TrackThresh: 0.25, MaskCell: 13}}
	for ci, cfg := range cfgs {
		pair := newStepPair(zooDetector("resnet10a"), zooDetector("resnet50"), cfg)
		tracked := 0
		for si := range ds.Sequences {
			seq := &ds.Sequences[si]
			pair.reset(seq)
			for fi := range seq.Frames {
				pair.step(t, fmt.Sprintf("config %d", ci), frameOf(seq, fi))
				tracked += len(pair.sys.tracked)
			}
		}
		if tracked == 0 {
			t.Fatalf("config %d: the tracker never supplied a region; the test exercises nothing", ci)
		}
	}
}

// Hand-made frames for the edge cases: zero proposals, zero tracks or
// both; boxes partly or fully outside the frame; odd frame sizes and
// mask cells.
func TestStepMatchesReferenceEdges(t *testing.T) {
	sizes := [][2]int{{1242, 375}, {1243, 377}, {37, 21}, {9, 7}}
	cells := []float64{0, 3, 7.5, 13, 64}
	var seen [2][2]bool // [any proposals][any tracks]
	for _, sz := range sizes {
		w, h := float64(sz[0]), float64(sz[1])
		boxes := []geom.Box{
			geom.NewBox(0.3*w, 0.3*h, 0.5*w, 0.7*h),          // inside
			geom.NewBox(-0.1*w, 0.2*h, 0.1*w, 0.6*h),         // across the left edge
			geom.NewBox(0.9*w, 0.8*h, 1.2*w, 1.3*h),          // across the bottom-right corner
			geom.NewBox(1.5*w, 0.2*h, 1.7*w, 0.5*h),          // right of the frame
			geom.NewBox(0.2*w, -0.9*h, 0.4*w, -0.5*h),        // above the frame
			geom.NewBox(-w, -h, 2*w, 2*h),                    // containing the frame
			geom.NewBox(0.5*w-40, 0.5*h-30, 0.5*w, 0.5*h-10), // margin reaches past the edges
		}
		// The object schedule: empty (no proposals, no tracks), objects
		// (proposals, then tracks too), empty again (tracks only), and
		// objects once more.
		var frames []detector.Frame
		for fi := 0; fi < 24; fi++ {
			f := detector.Frame{SeqID: fmt.Sprintf("edges-%dx%d", sz[0], sz[1]), Index: fi, Width: sz[0], Height: sz[1]}
			if (fi >= 2 && fi < 10) || fi >= 16 {
				for k, b := range boxes {
					if (fi+k)%5 != 0 {
						drift := float64(fi%4) * 0.01 * w
						f.Objects = append(f.Objects, dataset.Object{TrackID: k + 1, Class: dataset.Car, Box: b.Translate(drift, 0)})
					}
				}
			}
			frames = append(frames, f)
		}
		for _, cell := range cells {
			for _, cthresh := range []float64{0.1, 2} { // 2: no proposal passes
				cfg := Config{CThresh: cthresh, TrackThresh: 0.25, Margin: 30, MaskCell: cell}
				label := fmt.Sprintf("%dx%d cell %v cthresh %v", sz[0], sz[1], cell, cthresh)
				pair := newStepPair(oracleDetector("resnet10a"), oracleDetector("resnet50"), cfg)
				pair.reset(&dataset.Sequence{ID: frames[0].SeqID, Width: sz[0], Height: sz[1]})
				for _, f := range frames {
					pair.step(t, label, f)
					seen[min(len(pair.sys.props), 1)][min(len(pair.sys.tracked), 1)] = true
				}
			}
		}
	}
	if seen != [2][2]bool{{true, true}, {true, true}} {
		t.Fatalf("source combinations seen %v, want all four", seen)
	}
}

// Step before Reset synthesizes the tracker in both paths.
func TestStepMatchesReferenceBeforeReset(t *testing.T) {
	seq := miniSeq(t)
	pair := newStepPair(zooDetector("resnet10a"), zooDetector("resnet50"), DefaultConfig())
	for fi := 0; fi < 10; fi++ {
		pair.step(t, "no reset", frameOf(seq, fi))
	}
}

// BenchmarkCaTDetStep is the cascade-step layer benchmark: one op is
// one frame of a generated 100-frame KITTI-sim sequence, stepped in
// order by the paper's resnet10a → resnet50 CaTDet, restarting the
// sequence (Reset) when it runs out. One untimed pass first grows the
// system's scratch.
func BenchmarkCaTDetStep(b *testing.B) {
	p := video.KITTIPreset()
	p.NumSequences = 1
	p.FramesPerSeq = 100
	seq := &video.Generate(p, 1).Sequences[0]
	sys := NewCaTDet(detector.MustNew("resnet10a"), detector.MustNew("resnet50"), DefaultConfig())
	sys.Reset(seq)
	for fi := range seq.Frames {
		sys.Step(frameOf(seq, fi))
	}
	sys.Reset(seq)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fi := i % len(seq.Frames)
		if fi == 0 && i > 0 {
			sys.Reset(seq)
		}
		sinkOutput = sys.Step(frameOf(seq, fi))
	}
}

// sinkOutput keeps the compiler from discarding the benchmarked steps.
var sinkOutput FrameOutput
