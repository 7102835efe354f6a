package ops

// NumAnchors is the RPN anchor count per feature-map location: 3 anchor
// types with 4 scales each (Section 4.2 of the paper).
const NumAnchors = 12

// DefaultProposals is the standard Faster R-CNN proposal count after NMS.
const DefaultProposals = 300

// FasterRCNN is the operation cost model of a Faster R-CNN detector. The
// total cost splits into an area-dependent part (trunk + RPN, which scan
// the image or its selected regions) and a proposal-count-dependent part
// (the per-RoI head). featScale and headScale calibrate the two parts to
// the paper's published totals; see Calibrate and zoo.go.
type FasterRCNN struct {
	Backbone     Backbone
	NumProposals int

	featScale float64
	headScale float64

	// rpn is the RPN stack built once against the backbone at
	// construction. FeatureOps sits inside per-frame (and, via region
	// merging, per-candidate-rectangle) pricing loops; rebuilding the
	// net there allocated on every call and dominated the serving heap
	// profile. Precomputed, it is read-only and safe to share across
	// the serving loop's parallel step workers.
	rpn Net

	// stride and headOps are the trunk's OutputStride and the unscaled
	// per-RoI head cost, fixed by the backbone at construction. feat
	// holds the unscaled trunk+RPN sum at the resolution of each of the
	// first len(feat) calibration anchors, the frame sizes the zoo's
	// models are priced at; nfeat counts the filled entries.
	stride  int
	headOps float64
	feat    [2]featSum
	nfeat   int
}

// featSum is the unscaled trunk+RPN operation count at one resolution.
type featSum struct {
	w, h int
	ops  float64
}

// NewFasterRCNN builds an uncalibrated cost model (scales = 1) with the
// default 300-proposal configuration. The Backbone must not be mutated
// after construction (the RPN stack is derived from it here).
func NewFasterRCNN(b Backbone) *FasterRCNN {
	return &FasterRCNN{
		Backbone:     b,
		NumProposals: DefaultProposals,
		featScale:    1,
		headScale:    1,
		rpn:          rpnNet(b),
		stride:       b.Trunk.OutputStride(),
		headOps:      b.Head.Ops(b.RoISize, b.RoISize),
	}
}

// rpnNet returns the RPN stack attached to the trunk output: a 3x3 conv
// preserving channels plus 1x1 objectness and box-regression heads.
func rpnNet(b Backbone) Net {
	c := b.Trunk.OutChannels()
	return Net{Name: b.Name + ".rpn", Layers: []Layer{
		{Name: "rpn.conv", Kind: Conv, Kernel: 3, Stride: 1, InCh: c, OutCh: c},
		{Name: "rpn.cls", Kind: Conv, Kernel: 1, Stride: 1, InCh: c, OutCh: 2 * NumAnchors},
		{Name: "rpn.reg", Kind: Conv, Kernel: 1, Stride: 1, InCh: c, OutCh: 4 * NumAnchors},
	}}
}

// FeatureOps returns the area-dependent operations (trunk + RPN) for a
// full w-by-h frame, after calibration.
func (m *FasterRCNN) FeatureOps(w, h int) float64 {
	return m.featureOps(w, h) * m.featScale
}

// featureOps returns the unscaled trunk+RPN sum, stored for the
// calibration anchors' resolutions and walked layer by layer for any
// other.
func (m *FasterRCNN) featureOps(w, h int) float64 {
	for _, f := range m.feat[:m.nfeat] {
		if f.w == w && f.h == h {
			return f.ops
		}
	}
	trunk := m.Backbone.Trunk.Ops(w, h)
	rpn := m.rpn.Ops((w+m.stride-1)/m.stride, (h+m.stride-1)/m.stride)
	return trunk + rpn
}

// HeadOpsPerProposal returns the per-RoI head cost after calibration.
func (m *FasterRCNN) HeadOpsPerProposal() float64 {
	return m.headOps * m.headScale
}

// HeadOps returns the head cost for n proposals.
func (m *FasterRCNN) HeadOps(n int) float64 {
	if n < 0 {
		n = 0
	}
	return float64(n) * m.HeadOpsPerProposal()
}

// FullFrameOps returns the operations for standard full-frame inference
// with the model's configured proposal count.
func (m *FasterRCNN) FullFrameOps(w, h int) float64 {
	return m.FeatureOps(w, h) + m.HeadOps(m.NumProposals)
}

// RegionOps returns the operations for selected-region inference: the
// trunk and RPN only compute features over the covered fraction of the
// frame, and the head runs once per supplied proposal. This is the
// refinement-network mode of Section 4.3.
func (m *FasterRCNN) RegionOps(w, h int, coveredFrac float64, nProposals int) float64 {
	if coveredFrac < 0 {
		coveredFrac = 0
	}
	if coveredFrac > 1 {
		coveredFrac = 1
	}
	return m.FeatureOps(w, h)*coveredFrac + m.HeadOps(nProposals)
}

// Calibrate fits featScale and headScale so the model's full-frame totals
// reproduce published anchors. With one anchor the two scales are set
// equal (uniform scaling); with two anchors at different resolutions the
// area-dependent and proposal-dependent parts are solved separately,
// which is possible because the head cost does not vary with resolution.
//
// Anchors are expressed in raw operations for full-frame inference at the
// model's configured proposal count. Calibrate also stores the unscaled
// trunk+RPN sum at the first two anchors' resolutions, so FeatureOps at
// those sizes skips the layer walk.
func (m *FasterRCNN) Calibrate(anchors []OpsAnchor) {
	m.nfeat = 0
	for _, a := range anchors[:min(len(anchors), len(m.feat))] {
		m.feat[m.nfeat] = featSum{a.W, a.H, m.featureOps(a.W, a.H)}
		m.nfeat++
	}
	m.fit(anchors)
}

// fit sets featScale and headScale from the anchors; see Calibrate.
func (m *FasterRCNN) fit(anchors []OpsAnchor) {
	m.featScale, m.headScale = 1, 1
	switch len(anchors) {
	case 0:
		return
	case 1:
		a := anchors[0]
		analytic := m.FullFrameOps(a.W, a.H)
		if analytic > 0 {
			s := a.Ops / analytic
			m.featScale, m.headScale = s, s
		}
	default:
		a, b := anchors[0], anchors[1]
		fa := m.FeatureOps(a.W, a.H)
		fb := m.FeatureOps(b.W, b.H)
		head := m.HeadOps(m.NumProposals)
		if fa == fb || head == 0 {
			m.fit(anchors[:1])
			return
		}
		fs := (b.Ops - a.Ops) / (fb - fa)
		hs := (a.Ops - fs*fa) / head
		if fs <= 0 || hs <= 0 {
			m.fit(anchors[:1])
			return
		}
		m.featScale, m.headScale = fs, hs
	}
}

// OpsAnchor is a published full-frame operation count at a resolution.
type OpsAnchor struct {
	W, H int
	Ops  float64
}
