// Package core implements the paper's detection systems (Figure 1):
// the single-model detector, the two-stage cascaded detector, and
// CaTDet — the cascade with a tracker feeding temporal regions of
// interest back into the refinement network. It also implements the
// operation accounting of Tables 2-3, including the overlapping
// from-tracker / from-proposal-net breakdown of the refinement work.
package core

import (
	"strings"

	"repro/internal/dataset"
	"repro/internal/detector"
	"repro/internal/geom"
	"repro/internal/tracker"
)

// Margin is the pixel margin appended around every proposal before
// feature extraction, "to maintain enough information for the ConvNet"
// (Section 4.3).
const Margin = 30

// OpsBreakdown is the per-frame arithmetic-operation accounting of
// Table 3. RefinementFromTracker and RefinementFromProposal measure the
// refinement cost attributable to each proposal source alone; because
// the sources overlap spatially, they sum to more than Refinement.
type OpsBreakdown struct {
	Proposal               float64
	Refinement             float64
	RefinementFromTracker  float64
	RefinementFromProposal float64
}

// Total returns the system's actual operation count for the frame.
func (b OpsBreakdown) Total() float64 { return b.Proposal + b.Refinement }

// Add accumulates another frame's breakdown.
func (b *OpsBreakdown) Add(o OpsBreakdown) {
	b.Proposal += o.Proposal
	b.Refinement += o.Refinement
	b.RefinementFromTracker += o.RefinementFromTracker
	b.RefinementFromProposal += o.RefinementFromProposal
}

// Scale divides the accumulated breakdown by n (e.g. to report per-frame
// averages).
func (b OpsBreakdown) Scale(n float64) OpsBreakdown {
	if n == 0 {
		return b
	}
	return OpsBreakdown{
		Proposal:               b.Proposal / n,
		Refinement:             b.Refinement / n,
		RefinementFromTracker:  b.RefinementFromTracker / n,
		RefinementFromProposal: b.RefinementFromProposal / n,
	}
}

// FrameOutput is one frame's detections plus cost accounting.
//
// Ownership: Detections and Regions alias the System's per-frame
// scratch and are valid only until the System's next Step, which
// overwrites them. Consumers that keep them longer must copy
// (sim.Run copies Detections into a per-sequence slab).
type FrameOutput struct {
	// Detections is never nil: a frame without detections yields an
	// empty, non-nil slice.
	Detections []geom.Scored
	Ops        OpsBreakdown
	// NumProposals is the number of per-RoI head invocations charged to
	// the refinement network (0 for the single-model system).
	NumProposals int
	// Coverage is the fraction of the frame processed by the refinement
	// network (1 for the single-model system).
	Coverage float64
	// Regions are the margin-expanded boxes handed to the refinement
	// network (nil for the single-model system). The GPU timing model
	// merges these into rectangular launches.
	Regions []geom.Box
}

// System is a causal video detector: Reset begins a sequence, Step
// consumes frames strictly in order.
type System interface {
	Name() string
	Reset(seq *dataset.Sequence)
	Step(f detector.Frame) FrameOutput
}

// scoredInto strips simulation metadata from detector output into buf's
// array, growing it only when it lacks capacity. The result is never
// nil, so an empty frame reads as an empty slice (see FrameOutput).
func scoredInto(buf []geom.Scored, dets []detector.Detection) []geom.Scored {
	if buf == nil || cap(buf) < len(dets) {
		buf = make([]geom.Scored, 0, max(len(dets), 2*cap(buf)))
	}
	out := buf[:0]
	for _, d := range dets {
		out = append(out, d.Scored)
	}
	return out
}

// filterScored appends the Scored views of the detections at or above
// thresh to dst — the fused scoredOf+FilterScore of the cascade hot
// path, so the intermediate copy never materializes.
func filterScored(dst []geom.Scored, dets []detector.Detection, thresh float64) []geom.Scored {
	for _, d := range dets {
		if d.Score >= thresh {
			dst = append(dst, d.Scored)
		}
	}
	return dst
}

// SingleModel runs one detector on every full frame (Figure 1a).
type SingleModel struct {
	Detector *detector.Detector
	name     string
	dets     []geom.Scored // FrameOutput.Detections scratch
}

// NewSingleModel wraps a detector as a System.
func NewSingleModel(d *detector.Detector) *SingleModel {
	family := "Faster R-CNN"
	if strings.HasPrefix(d.Profile.Name, "retinanet") {
		family = "RetinaNet"
	}
	return &SingleModel{Detector: d, name: d.Profile.Name + ", " + family}
}

// Name implements System.
func (s *SingleModel) Name() string { return s.name }

// Reset implements System; the single-model detector is stateless.
func (s *SingleModel) Reset(*dataset.Sequence) {}

// Step implements System.
func (s *SingleModel) Step(f detector.Frame) FrameOutput {
	r := s.Detector.DetectFull(f)
	s.dets = scoredInto(s.dets, r.Detections)
	return FrameOutput{
		Detections: s.dets,
		Ops:        OpsBreakdown{Proposal: 0, Refinement: r.Ops},
		Coverage:   1,
	}
}

// Config holds the cascade hyper-parameters shared by Cascaded and
// CaTDet.
type Config struct {
	// CThresh is the proposal network's output confidence threshold;
	// proposals below it are not forwarded (Section 4.3, Figure 6).
	CThresh float64
	// TrackThresh is the confidence threshold for the tracker's input:
	// only refinement detections at or above it update the tracker.
	TrackThresh float64
	// Margin is the pixel margin around proposals; 0 means the paper's
	// default of 30.
	Margin float64
	// MaskCell overrides the region-mask granularity in pixels (0 =
	// geom.DefaultCell).
	MaskCell float64
	// Tracker configures the CaTDet tracker; zero value means
	// tracker.DefaultConfig().
	Tracker *tracker.Config
}

// DefaultConfig returns the settings used for the paper's main tables.
func DefaultConfig() Config {
	return Config{CThresh: 0.1, TrackThresh: 0.25, Margin: Margin}
}

func (c Config) margin() float64 {
	if c.Margin <= 0 {
		return Margin
	}
	return c.Margin
}

// Cascaded is the two-model cascade without a tracker (Figure 1b). A
// system instance carries per-frame scratch, so it must not be stepped
// from multiple goroutines concurrently (sim.SystemFactory builds one
// instance per worker).
type Cascaded struct {
	Proposal   *detector.Detector
	Refinement *detector.Detector
	Cfg        Config
	name       string

	w, h int

	// Per-frame scratch reused across Steps: the region occupancy mask
	// (word-zeroed between frames), the margin-expanded region list
	// returned via FrameOutput.Regions, the thresholded proposals and
	// the detections returned via FrameOutput.Detections.
	mask    *geom.Mask
	regions []geom.Box
	props   []geom.Scored
	dets    []geom.Scored
}

// NewCascaded builds the cascade system.
func NewCascaded(proposal, refinement *detector.Detector, cfg Config) *Cascaded {
	return &Cascaded{
		Proposal:   proposal,
		Refinement: refinement,
		Cfg:        cfg,
		name:       proposal.Profile.Name + ", " + refinement.Profile.Name + ", Cascaded",
	}
}

// Name implements System.
func (s *Cascaded) Name() string { return s.name }

// Reset implements System.
func (s *Cascaded) Reset(seq *dataset.Sequence) { s.w, s.h = seq.Width, seq.Height }

// Step implements System.
func (s *Cascaded) Step(f detector.Frame) FrameOutput {
	prop := s.Proposal.DetectFull(f)
	proposals := filterScored(s.props[:0], prop.Detections, s.Cfg.CThresh)
	s.props = proposals

	s.mask = geom.ReuseMask(s.mask, float64(f.Width), float64(f.Height), s.Cfg.MaskCell)
	mask := s.mask
	frame := geom.NewBox(0, 0, float64(f.Width), float64(f.Height))
	regions := s.regions[:0]
	for _, p := range proposals {
		r := p.Box.Expand(s.Cfg.margin()).Intersect(frame)
		mask.AddBox(r)
		regions = append(regions, r)
	}
	s.regions = regions
	ref := s.Refinement.DetectRegions(f, mask, len(proposals))
	s.dets = scoredInto(s.dets, ref.Detections)
	return FrameOutput{
		Detections: s.dets,
		Ops: OpsBreakdown{
			Proposal:               prop.Ops,
			Refinement:             ref.Ops,
			RefinementFromProposal: ref.Ops,
		},
		NumProposals: len(proposals),
		Coverage:     ref.Coverage,
		Regions:      regions,
	}
}

// CaTDet is the full system of Figure 1c: the cascade plus a tracker
// that predicts regions of interest from historic detections. A system
// instance carries per-frame scratch, so it must not be stepped from
// multiple goroutines concurrently (sim.SystemFactory builds one
// instance per worker).
type CaTDet struct {
	Proposal   *detector.Detector
	Refinement *detector.Detector
	Cfg        Config
	name       string

	trk *tracker.Tracker
	w   int
	h   int

	// Per-frame scratch reused across Steps: the region occupancy mask
	// and the tracker-only mask that Step ORs into it (both word-zeroed
	// between uses), the region list returned via
	// FrameOutput.Regions, the thresholded proposals, the tracker's
	// predictions, the detections returned via FrameOutput.Detections
	// and the confident ones fed back to the tracker.
	mask    *geom.Mask
	srcMask *geom.Mask
	regions []geom.Box
	props   []geom.Scored
	tracked []geom.Scored
	dets    []geom.Scored
	trackIn []geom.Scored
}

// NewCaTDet builds the full CaTDet system.
func NewCaTDet(proposal, refinement *detector.Detector, cfg Config) *CaTDet {
	return &CaTDet{
		Proposal:   proposal,
		Refinement: refinement,
		Cfg:        cfg,
		name:       proposal.Profile.Name + ", " + refinement.Profile.Name + ", CaTDet",
	}
}

// Name implements System.
func (s *CaTDet) Name() string { return s.name }

// Reset implements System: tracker state never crosses sequences.
func (s *CaTDet) Reset(seq *dataset.Sequence) {
	s.w, s.h = seq.Width, seq.Height
	cfg := tracker.DefaultConfig()
	if s.Cfg.Tracker != nil {
		cfg = *s.Cfg.Tracker
	}
	if s.trk == nil {
		s.trk = tracker.New(cfg, float64(seq.Width), float64(seq.Height))
		return
	}
	s.trk.ResetFor(cfg, float64(seq.Width), float64(seq.Height))
}

// Tracker exposes the live tracker (nil before Reset); tests and the
// GPU-timing model read it.
func (s *CaTDet) Tracker() *tracker.Tracker { return s.trk }

// Step implements System. The execution loop of Figure 2:
//
//  1. the tracker predicts current-frame locations of known objects;
//  2. the proposal network scans the full frame for new candidates;
//  3. the union of both, with margins, forms the refinement regions;
//  4. the refinement network detects inside the regions only;
//  5. its (confident) detections update the tracker for the next frame.
func (s *CaTDet) Step(f detector.Frame) FrameOutput {
	if s.trk == nil {
		// Step before Reset: synthesize a tracker from frame dims.
		s.Reset(&dataset.Sequence{Width: f.Width, Height: f.Height})
	}
	tracked := s.trk.PredictAppend(s.tracked[:0])
	s.tracked = tracked

	prop := s.Proposal.DetectFull(f)
	proposals := filterScored(s.props[:0], prop.Detections, s.Cfg.CThresh)
	s.props = proposals

	// Each source is rasterized once, into its own mask, so the
	// attribution accounting of Table 3 — the cost if that source had
	// been the only supplier of regions; overlap makes the two sum to
	// more than the actual refinement cost — reads its covered fraction
	// directly. The proposals go straight into the region mask, which
	// then takes the tracker's mask by a word-wise OR.
	margin := s.Cfg.margin()
	w, h := float64(f.Width), float64(f.Height)
	s.mask = geom.ReuseMask(s.mask, w, h, s.Cfg.MaskCell)
	mask := s.mask
	frame := geom.NewBox(0, 0, w, h)
	regions := s.regions[:0]
	for _, p := range proposals {
		r := p.Box.Expand(margin).Intersect(frame)
		mask.AddBox(r)
		regions = append(regions, r)
	}
	var fromProposal, fromTracker float64
	if len(proposals) > 0 {
		fromProposal = s.Refinement.Cost.RegionOps(f.Width, f.Height, mask.CoveredFraction(), len(proposals))
	}
	if len(tracked) > 0 {
		s.srcMask = geom.ReuseMask(s.srcMask, w, h, s.Cfg.MaskCell)
		for _, p := range tracked {
			r := p.Box.Expand(margin).Intersect(frame)
			s.srcMask.AddBox(r)
			regions = append(regions, r)
		}
		fromTracker = s.Refinement.Cost.RegionOps(f.Width, f.Height, s.srcMask.CoveredFraction(), len(tracked))
		mask.Or(s.srcMask)
	}
	s.regions = regions
	nProps := len(proposals) + len(tracked)
	ref := s.Refinement.DetectRegions(f, mask, nProps)
	dets := scoredInto(s.dets, ref.Detections)
	s.dets = dets

	// Temporal feedback: confident detections update the tracker.
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
