package ops

import (
	"math"
	"testing"
)

// refFasterRCNN is the layer-walking FasterRCNN cost model that the
// stored trunk stride, head cost and per-anchor feature sums replaced,
// kept as a reference: it walks the backbone on every call and
// calibrates from those walks. It shares the model's backbone, RPN
// stack and proposal count.
type refFasterRCNN struct {
	m                    *FasterRCNN
	featScale, headScale float64
}

func (r *refFasterRCNN) FeatureOps(w, h int) float64 {
	trunk := r.m.Backbone.Trunk.Ops(w, h)
	stride := r.m.Backbone.Trunk.OutputStride()
	rpn := r.m.rpn.Ops((w+stride-1)/stride, (h+stride-1)/stride)
	return (trunk + rpn) * r.featScale
}

func (r *refFasterRCNN) HeadOpsPerProposal() float64 {
	return r.m.Backbone.Head.Ops(r.m.Backbone.RoISize, r.m.Backbone.RoISize) * r.headScale
}

func (r *refFasterRCNN) HeadOps(n int) float64 {
	if n < 0 {
		n = 0
	}
	return float64(n) * r.HeadOpsPerProposal()
}

func (r *refFasterRCNN) FullFrameOps(w, h int) float64 {
	return r.FeatureOps(w, h) + r.HeadOps(r.m.NumProposals)
}

func (r *refFasterRCNN) RegionOps(w, h int, coveredFrac float64, nProposals int) float64 {
	if coveredFrac < 0 {
		coveredFrac = 0
	}
	if coveredFrac > 1 {
		coveredFrac = 1
	}
	return r.FeatureOps(w, h)*coveredFrac + r.HeadOps(nProposals)
}

func (r *refFasterRCNN) Calibrate(anchors []OpsAnchor) {
	r.featScale, r.headScale = 1, 1
	switch len(anchors) {
	case 0:
		return
	case 1:
		a := anchors[0]
		analytic := r.FullFrameOps(a.W, a.H)
		if analytic > 0 {
			s := a.Ops / analytic
			r.featScale, r.headScale = s, s
		}
	default:
		a, b := anchors[0], anchors[1]
		fa := r.FeatureOps(a.W, a.H)
		fb := r.FeatureOps(b.W, b.H)
		head := r.HeadOps(r.m.NumProposals)
		if fa == fb || head == 0 {
			r.Calibrate(anchors[:1])
			return
		}
		fs := (b.Ops - a.Ops) / (fb - fa)
		hs := (a.Ops - fs*fa) / head
		if fs <= 0 || hs <= 0 {
			r.Calibrate(anchors[:1])
			return
		}
		r.featScale, r.headScale = fs, hs
	}
}

// checkMatchesReference requires bit-equal costs from m and ref at each
// resolution, over coverages and proposal counts that include the
// clamped ones.
func checkMatchesReference(t *testing.T, label string, m *FasterRCNN, ref *refFasterRCNN) {
	t.Helper()
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: %s = %v, reference %v", label, what, got, want)
		}
	}
	same("HeadOpsPerProposal", m.HeadOpsPerProposal(), ref.HeadOpsPerProposal())
	for _, res := range [][2]int{
		{KITTIWidth, KITTIHeight}, {CityPersonsWidth, CityPersonsHeight},
		{1241, 374}, {640, 480}, {1000, 600}, {17, 3}, {1, 1}, {0, 0},
		// One dimension of an anchor's resolution, not the other.
		{KITTIWidth, KITTIHeight + 1}, {KITTIWidth + 1, KITTIHeight}, {640, 481}, {641, 480},
	} {
		w, h := res[0], res[1]
		same("FeatureOps", m.FeatureOps(w, h), ref.FeatureOps(w, h))
		same("FullFrameOps", m.FullFrameOps(w, h), ref.FullFrameOps(w, h))
		for _, frac := range []float64{-0.5, 0, 0.0123, 0.37, 1, 1.7} {
			for _, n := range []int{-3, 0, 1, 40, DefaultProposals} {
				same("RegionOps", m.RegionOps(w, h, frac, n), ref.RegionOps(w, h, frac, n))
			}
		}
	}
}

// Property: every zoo Faster R-CNN model prices every call bit for bit
// as the layer-walking reference does, at the zoo's anchors and after
// recalibration with other anchor sets (including one at a resolution
// the reference then walks at, repeated sizes and more than two
// anchors). RetinaNet stores no sums and walks its layers as before.
func TestFasterRCNNMatchesReference(t *testing.T) {
	recalibrations := [][]OpsAnchor{
		{{W: 640, H: 480, Ops: 40 * Giga}, {W: 1000, H: 600, Ops: 90 * Giga}},
		{{W: 1241, H: 374, Ops: 100 * Giga}},
		{{W: 640, H: 480, Ops: 40 * Giga}, {W: 640, H: 480, Ops: 50 * Giga}},
		{{W: KITTIWidth, H: KITTIHeight, Ops: 200 * Giga}, {W: 1, H: 1, Ops: 1}, {W: 640, H: 480, Ops: 40 * Giga}},
		nil,
		paperAnchors["resnet50"],
	}
	for _, name := range ModelNames() {
		m, ok := MustCostModel(name).(*FasterRCNN)
		if !ok {
			continue
		}
		ref := &refFasterRCNN{m: m}
		ref.Calibrate(paperAnchors[name])
		checkMatchesReference(t, name, m, ref)
		for i, anchors := range recalibrations {
			m.Calibrate(anchors)
			ref.Calibrate(anchors)
			checkMatchesReference(t, name+" recalibrated "+string(rune('a'+i)), m, ref)
		}
	}
}
