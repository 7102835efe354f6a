package main

import (
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detector"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/tracker"
)

// replay is a CaTDet system assembled by the benchmark from the public
// functions of each layer, with a span around every call, so the
// traced run can time the layers without touching the program. It
// follows core.CaTDet.Step call for call; checked compares its output
// with the real system's on every frame.
type replay struct {
	prop, ref *detector.Detector
	cfg       core.Config
	tr        *tracer
	frame     int // span id of the frame being stepped, set by the caller

	trk                     *tracker.Tracker
	mask, srcMask           *geom.Mask
	regions                 []geom.Box
	props, tracked, trackIn []geom.Scored

	// Work counters over every stepped frame.
	frames, proposals, detections, boxes, tracks int
	coverage                                     float64
}

// newReplay builds the replay of a CaTDet spec the way
// sim.SystemSpec.Build builds the real system.
func newReplay(spec sim.SystemSpec, classes []dataset.Class, tr *tracer) (*replay, error) {
	newDet := func(name string) (*detector.Detector, error) {
		d, err := detector.New(name)
		if err != nil {
			return nil, err
		}
		d.Classes = classes
		d.Profile = d.Profile.ScaleNoise(spec.NoiseScale)
		return d, nil
	}
	prop, err := newDet(spec.Proposal)
	if err != nil {
		return nil, err
	}
	ref, err := newDet(spec.Refinement)
	if err != nil {
		return nil, err
	}
	return &replay{prop: prop, ref: ref, cfg: spec.Cfg, tr: tr}, nil
}

func (r *replay) Name() string { return "replay" }

func (r *replay) Reset(seq *dataset.Sequence) {
	cfg := tracker.DefaultConfig()
	if r.cfg.Tracker != nil {
		cfg = *r.cfg.Tracker
	}
	r.trk = tracker.New(cfg, float64(seq.Width), float64(seq.Height))
}

func (r *replay) margin() float64 {
	if r.cfg.Margin <= 0 {
		return core.Margin
	}
	return r.cfg.Margin
}

func (r *replay) Step(f detector.Frame) core.FrameOutput {
	tr, id := r.tr, r.frame
	root := tr.begin(spanStep, id, noParent)

	s := tr.begin(spanPredict, id, root)
	tracked := r.trk.PredictAppend(r.tracked[:0])
	r.tracked = tracked
	tr.end(s)

	s = tr.begin(spanDetectFull, id, root)
	prop := r.prop.DetectFull(f)
	proposals := r.props[:0]
	for _, d := range prop.Detections {
		if d.Score >= r.cfg.CThresh {
			proposals = append(proposals, d.Scored)
		}
	}
	r.props = proposals
	tr.end(s)

	s = tr.begin(spanMask, id, root)
	margin := r.margin()
	r.mask = geom.ReuseMask(r.mask, float64(f.Width), float64(f.Height), r.cfg.MaskCell)
	frame := geom.NewBox(0, 0, float64(f.Width), float64(f.Height))
	regions := r.regions[:0]
	for _, src := range [][]geom.Scored{proposals, tracked} {
		for _, p := range src {
			b := p.Box.Expand(margin).Intersect(frame)
			r.mask.AddBox(b)
			regions = append(regions, b)
		}
	}
	r.regions = regions
	tr.end(s)

	s = tr.begin(spanDetectRegions, id, root)
	nProps := len(proposals) + len(tracked)
	refined := r.ref.DetectRegions(f, r.mask, nProps)
	dets := make([]geom.Scored, len(refined.Detections))
	for i, d := range refined.Detections {
		dets[i] = d.Scored
	}
	tr.end(s)

	s = tr.begin(spanAttrib, id, root)
	fromTracker := r.sourceOps(f, tracked, margin)
	fromProposal := r.sourceOps(f, proposals, margin)
	tr.end(s)

	s = tr.begin(spanObserve, id, root)
	r.trackIn = geom.FilterScoreAppend(r.trackIn[:0], dets, r.cfg.TrackThresh)
	r.trk.Observe(r.trackIn)
	tr.end(s)

	tr.end(root)
	r.frames++
	r.proposals += len(proposals)
	r.tracks += len(tracked)
	r.boxes += len(regions)
	r.detections += len(dets)
	r.coverage += refined.Coverage
	return core.FrameOutput{
		Detections: dets,
		Ops: core.OpsBreakdown{
			Proposal:               prop.Ops,
			Refinement:             refined.Ops,
			RefinementFromTracker:  fromTracker,
			RefinementFromProposal: fromProposal,
		},
		NumProposals: nProps,
		Coverage:     refined.Coverage,
		Regions:      regions,
	}
}

// sourceOps prices the refinement work one proposal source would cause
// alone (the Table 3 attribution).
func (r *replay) sourceOps(f detector.Frame, boxes []geom.Scored, margin float64) float64 {
	if len(boxes) == 0 {
		return 0
	}
	r.srcMask = geom.ReuseMask(r.srcMask, float64(f.Width), float64(f.Height), r.cfg.MaskCell)
	for _, b := range boxes {
		r.srcMask.AddBox(b.Box.Expand(margin))
	}
	return r.ref.Cost.RegionOps(f.Width, f.Height, r.srcMask.CoveredFraction(), len(boxes))
}

// sameOutput reports whether two frame outputs are identical, regions
// included.
func sameOutput(a, b core.FrameOutput) bool {
	return a.Ops == b.Ops && a.NumProposals == b.NumProposals && a.Coverage == b.Coverage &&
		slices.Equal(a.Detections, b.Detections) && slices.Equal(a.Regions, b.Regions)
}

// checked steps the replay and the real system on every frame and
// checks that their outputs are identical. Which of the two steps
// first alternates from frame to frame, so neither is favoured by the
// caches the other warms. The real system's step time is measured on
// the tracer's clock without spans, as the base of the tracing
// overhead.
type checked struct {
	replay *replay
	real   core.System
	l      *ledger
	realT  time.Duration
	// seq numbers the sequence being stepped; Reset advances it, and
	// a frame's span id is frameID(seq, frame index).
	seq    int
	frames int
}

func (c *checked) Name() string { return c.real.Name() }

func (c *checked) Reset(seq *dataset.Sequence) {
	c.seq++
	c.replay.Reset(seq)
	c.real.Reset(seq)
}

func (c *checked) Step(f detector.Frame) core.FrameOutput {
	c.replay.frame = frameID(c.seq, f.Index)
	c.frames++
	var out core.FrameOutput
	if c.frames%2 == 0 {
		out = c.replay.Step(f)
	}
	t0 := c.replay.tr.now()
	want := c.real.Step(f)
	c.realT += c.replay.tr.now() - t0
	if c.frames%2 == 1 {
		out = c.replay.Step(f)
	}
	c.l.check(sameOutput(out, want), "replay output differs from %s on %s frame %d", c.real.Name(), f.SeqID, f.Index)
	return out
}
