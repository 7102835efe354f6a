package detector

// Reference implementation: perceive as it was before the shared hash
// prefixes and the draw cache, with one full hashKey per draw, the
// per-call math.Log(Midpoint) and the mask's covered fraction
// recomputed for the false-positive rate. It is kept verbatim (modulo
// names) so the differential tests below can require bit-identical
// Results from the optimised path. Do not optimise it; its value is
// that it is the old code.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/ops"
	"repro/internal/video"
)

// refLogit is the former Profile.logitFor.
func refLogit(p Profile, o dataset.Object) float64 {
	h := o.Box.Height()
	if h < 1 {
		h = 1
	}
	z := (math.Log(h) - math.Log(p.Midpoint)) / p.Slope
	z -= p.OccPenalty[clampOcc(o.Occlusion)]
	z -= p.TruncPenalty * o.Truncation
	return z
}

// refJitter is the former Detector.jitter.
func refJitter(p Profile, o dataset.Object, modelH, seqH, frame uint64) (geom.Box, float64) {
	if p.LocNoise == 0 {
		return o.Box, 0
	}
	id := uint64(o.TrackID)
	nx := normal(hashKey(modelH, seqH, frame, id, tagLocX))
	ny := normal(hashKey(modelH, seqH, frame, id, tagLocY))
	nw := normal(hashKey(modelH, seqH, frame, id, tagLocW))
	nh := normal(hashKey(modelH, seqH, frame, id, tagLocH))
	w, h := o.Box.Width(), o.Box.Height()
	cx, cy := o.Box.Center()
	cx += p.LocNoise * w * nx
	cy += p.LocNoise * h * ny
	sw := math.Exp(p.LocNoise * nw)
	sh := math.Exp(p.LocNoise * nh)
	q := (nx*nx + ny*ny + nw*nw + nh*nh) / 4
	return geom.NewBoxCenter(cx, cy, w*sw, h*sh), q
}

// refAppendFalsePositives is the former Detector.appendFalsePositives.
func refAppendFalsePositives(d *Detector, dst []Detection, f Frame, mask *geom.Mask, nProposals int, frameKey uint64) []Detection {
	p := d.Profile
	rate := p.FPRate
	if mask != nil {
		rate = rate*mask.CoveredFraction() + p.RegionFPPerProposal*float64(nProposals)
	}
	n := poissonHash(hashKey(frameKey, tagFP), rate)
	out := dst
	fw, fh := float64(f.Width), float64(f.Height)
	for i := 0; i < n; i++ {
		var box geom.Box
		placed := false
		for attempt := 0; attempt < 8; attempt++ {
			k := hashKey(frameKey, tagFP, uint64(i), uint64(attempt))
			w := 10 + 35*uniform(mix(k, 1))
			h := w * (0.6 + 1.8*uniform(mix(k, 2)))
			cx := fw * uniform(mix(k, 3))
			cy := fh * uniform(mix(k, 4))
			box = geom.NewBoxCenter(cx, cy, w, h).Clip(fw, fh)
			if box.Empty() {
				continue
			}
			if mask == nil || mask.BoxCoverage(box) >= MinCoverage {
				placed = true
				break
			}
		}
		if !placed {
			continue
		}
		k := hashKey(frameKey, tagFP, uint64(i), tagConf)
		conf := sigmoid(p.FPConfCenter + p.ConfNoise*normal(k))
		var class int
		if len(d.Classes) > 0 {
			class = int(d.Classes[uint(mix(k, 5))%uint(len(d.Classes))])
		} else {
			class = int(uint(mix(k, 5)) % uint(dataset.NumClasses))
		}
		out = append(out, Detection{
			Scored:  geom.Scored{Box: box, Score: conf, Class: class},
			TrackID: -1,
		})
	}
	return out
}

// refRaw is the candidate half of the former perceive: every object
// draw and the clutter, before NMS. mask == nil means full frame.
func refRaw(d *Detector, f Frame, mask *geom.Mask, nProposals int) []Detection {
	p := d.Profile
	modelH := hashString(p.Name)
	seqH := hashString(f.SeqID)
	frameKey := hashKey(modelH, seqH, uint64(f.Index))

	var raw []Detection
	for _, o := range f.Objects {
		if mask != nil && mask.BoxCoverage(o.Box) < MinCoverage {
			continue
		}
		z := refLogit(p, o)
		z += p.TrackBias * normal(hashKey(modelH, seqH, uint64(o.TrackID), tagBias))
		if mask != nil {
			z += p.RegionBoost
		}
		prob := p.MaxRecall * sigmoid(z)
		key := hashKey(modelH, seqH, uint64(f.Index), uint64(o.TrackID), tagDetect)
		if uniform(key) >= prob {
			continue
		}
		box, jitterQ := refJitter(p, o, modelH, seqH, uint64(f.Index))
		conf := sigmoid(p.ConfGain*z + p.ConfNoise*normal(hashKey(key, tagConf)) - p.LocConfCoupling*jitterQ)
		raw = append(raw, Detection{
			Scored:  geom.Scored{Box: box, Score: conf, Class: int(o.Class)},
			TrackID: o.TrackID,
		})
	}
	return refAppendFalsePositives(d, raw, f, mask, nProposals, frameKey)
}

// refPerceive is the former perceive: refRaw followed by the
// index-carrying NMS.
func refPerceive(d *Detector, f Frame, mask *geom.Mask, nProposals int) []Detection {
	raw := refRaw(d, f, mask, nProposals)
	scored := make([]geom.Scored, len(raw))
	for i, r := range raw {
		scored[i] = r.Scored
	}
	var nms geom.NMSBuffer
	kept := nms.Indices(scored, NMSIoU)
	if len(kept) == 0 {
		return nil
	}
	out := make([]Detection, len(kept))
	for k, i := range kept {
		out[k] = raw[i]
	}
	return out
}

// refDetect is the former DetectFull (mask == nil) or DetectRegions.
func refDetect(d *Detector, f Frame, mask *geom.Mask, nProposals int) Result {
	if mask == nil {
		return Result{
			Detections:   refPerceive(d, f, nil, 0),
			Ops:          d.Cost.FullFrameOps(f.Width, f.Height),
			Coverage:     1,
			NumProposals: ops.DefaultProposals,
		}
	}
	dets := refPerceive(d, f, mask, nProposals)
	frac := mask.CoveredFraction()
	return Result{
		Detections:   dets,
		Ops:          d.Cost.RegionOps(f.Width, f.Height, frac, nProposals),
		Coverage:     frac,
		NumProposals: nProposals,
	}
}

// detect runs the optimised path in the same mode as refDetect.
func detect(d *Detector, f Frame, mask *geom.Mask, nProposals int) Result {
	if mask == nil {
		return d.DetectFull(f)
	}
	return d.DetectRegions(f, mask, nProposals)
}

// sameBox compares boxes bit for bit, so NaN payloads and signed zeros
// must agree too.
func sameBox(a, b geom.Box) bool {
	return math.Float64bits(a.X1) == math.Float64bits(b.X1) &&
		math.Float64bits(a.Y1) == math.Float64bits(b.Y1) &&
		math.Float64bits(a.X2) == math.Float64bits(b.X2) &&
		math.Float64bits(a.Y2) == math.Float64bits(b.Y2)
}

// resultDiff describes the first bitwise difference between two
// Results, or returns "" when they are identical.
func resultDiff(got, want Result) string {
	if math.Float64bits(got.Ops) != math.Float64bits(want.Ops) {
		return fmt.Sprintf("Ops %v, reference %v", got.Ops, want.Ops)
	}
	if math.Float64bits(got.Coverage) != math.Float64bits(want.Coverage) {
		return fmt.Sprintf("Coverage %v, reference %v", got.Coverage, want.Coverage)
	}
	if got.NumProposals != want.NumProposals {
		return fmt.Sprintf("NumProposals %d, reference %d", got.NumProposals, want.NumProposals)
	}
	if len(got.Detections) != len(want.Detections) {
		return fmt.Sprintf("%d detections, reference %d", len(got.Detections), len(want.Detections))
	}
	for i, g := range got.Detections {
		w := want.Detections[i]
		if !sameBox(g.Box, w.Box) || math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
			g.Class != w.Class || g.TrackID != w.TrackID {
			return fmt.Sprintf("detection %d: %+v, reference %+v", i, g, w)
		}
	}
	return ""
}

// checkDetect runs both paths on one frame and fails on any difference.
func checkDetect(t *testing.T, label string, d *Detector, f Frame, mask *geom.Mask, nProposals int) {
	t.Helper()
	want := refDetect(d, f, mask, nProposals)
	got := detect(d, f, mask, nProposals)
	if diff := resultDiff(got, want); diff != "" {
		t.Fatalf("%s (seq %q frame %d, region mode %v): %s", label, f.SeqID, f.Index, mask != nil, diff)
	}
}

// kittiFrames returns frames of a short generated KITTI-sim sequence.
func kittiFrames(seed int64, n int) []Frame {
	p := video.KITTIPreset()
	p.NumSequences = 1
	p.FramesPerSeq = n
	seq := &video.Generate(p, seed).Sequences[0]
	frames := make([]Frame, len(seq.Frames))
	for fi := range seq.Frames {
		frames[fi] = Frame{SeqID: seq.ID, Index: fi, Width: seq.Width, Height: seq.Height,
			Objects: seq.Frames[fi].Objects}
	}
	return frames
}

// randomMask covers some of the frame's objects with margin-expanded
// boxes, as the cascade does, plus random clutter boxes, at a random
// cell size.
func randomMask(rng *rand.Rand, f Frame) *geom.Mask {
	cells := []float64{geom.DefaultCell, 5, 13, 3.5}
	m := geom.NewMask(float64(f.Width), float64(f.Height), cells[rng.Intn(len(cells))])
	for _, o := range f.Objects {
		if rng.Intn(3) > 0 {
			m.AddBox(o.Box.Expand(30 * rng.Float64()))
		}
	}
	for i := rng.Intn(4); i > 0; i-- {
		x, y := rng.Float64()*float64(f.Width), rng.Float64()*float64(f.Height)
		m.AddBox(geom.NewBox(x, y, x+20+rng.Float64()*300, y+20+rng.Float64()*150))
	}
	return m
}

// testDetectors returns every zoo detector, the oracle, and one
// detector whose clutter draws its class from a restricted vocabulary.
func testDetectors() []*Detector {
	var ds []*Detector
	for _, name := range ProfileNames() {
		ds = append(ds, MustNew(name))
	}
	oracle, _ := ops.NewCostModel("resnet50")
	pedestrians := MustNew("resnet10c")
	pedestrians.Classes = []dataset.Class{dataset.Pedestrian}
	return append(ds, NewOracle(oracle), pedestrians)
}

// TestPerceiveMatchesReference pins the prefix-folded, cached perceive
// against the one-hashKey-per-draw reference on every test detector,
// in full-frame and region mode, over generated KITTI-sim frames and
// the crowded frame.
func TestPerceiveMatchesReference(t *testing.T) {
	frames := append(kittiFrames(3, 60), crowdedFrame(0), crowdedFrame(7))
	for _, d := range testDetectors() {
		rng := rand.New(rand.NewSource(11))
		for _, f := range frames {
			checkDetect(t, d.Profile.Name, d, f, nil, 0)
			checkDetect(t, d.Profile.Name, d, f, randomMask(rng, f), rng.Intn(40))
		}
	}
}

// ScaleNoise keeps the Name, so the cached prefix and bias draws stay
// valid while TrackBias, LocNoise, ConfNoise and FPRate change.
func TestPerceiveMatchesReferenceScaleNoise(t *testing.T) {
	frames := kittiFrames(5, 30)
	for _, name := range []string{"resnet50", "resnet10c"} {
		d := MustNew(name)
		base := d.Profile
		rng := rand.New(rand.NewSource(13))
		for _, k := range []float64{1, 0.5, 1.7, 3, 1} {
			d.Profile = base.ScaleNoise(k)
			for _, f := range frames {
				checkDetect(t, fmt.Sprintf("%s x%v", name, k), d, f, nil, 0)
				checkDetect(t, fmt.Sprintf("%s x%v", name, k), d, f, randomMask(rng, f), rng.Intn(20))
			}
		}
	}
}

// A Profile swapped mid-stream (a new Name, then a new Midpoint under
// the same Name), with the sequence switching back and forth, must
// invalidate exactly the cached values that depend on it.
func TestPerceiveMatchesReferenceProfileSwap(t *testing.T) {
	a, b := kittiFrames(7, 20), kittiFrames(8, 20)
	for i := range b {
		b[i].SeqID = "other"
	}
	d := MustNew("resnet18")
	rng := rand.New(rand.NewSource(17))
	run := func(label string) {
		for i := range a {
			for _, f := range []Frame{a[i], b[i], a[i]} {
				checkDetect(t, label, d, f, nil, 0)
				checkDetect(t, label, d, f, randomMask(rng, f), rng.Intn(20))
			}
		}
	}
	run("resnet18")
	d.Profile = MustProfile("resnet10b")
	run("swapped to resnet10b")
	d.Profile.Midpoint = 25
	run("resnet10b, Midpoint 25")
	d.Profile.Midpoint = 1 // math.Log(1) == 0
	run("resnet10b, Midpoint 1")
	d.Profile = MustProfile("resnet18")
	run("back to resnet18")
}

// A fresh detector's first call must not mistake the empty cache for a
// cached empty Name, empty SeqID or zero Midpoint (math.Log(0) is -Inf).
func TestPerceiveMatchesReferenceZeroKeys(t *testing.T) {
	f := kittiFrames(4, 5)[4]
	f.SeqID = ""
	for _, mutate := range []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.Midpoint = 0 },
		func(p *Profile) { p.Name, p.Midpoint = "", 0 },
	} {
		d := MustNew("resnet10a")
		mutate(&d.Profile)
		checkDetect(t, fmt.Sprintf("%q midpoint %v", d.Profile.Name, d.Profile.Midpoint), d, f, nil, 0)
	}
}

// Track IDs that share a bias slot (id, id+32, id+64) evict each other;
// negative, zero and extreme IDs map to slots through uint wrap-around.
func TestPerceiveMatchesReferenceBiasSlots(t *testing.T) {
	ids := []int{1, 33, 65, 1, 97, 0, -1, -32, -33, 31, 63, math.MaxInt, math.MinInt, math.MaxInt - 31, 1 << 40}
	car := func(id, k int) dataset.Object {
		x := 20 + float64(k%12)*100
		return dataset.Object{TrackID: id, Class: dataset.Car, Box: geom.NewBox(x, 120, x+60, 170)}
	}
	for _, d := range []*Detector{MustNew("resnet10b"), MustNew("resnet50")} {
		for fi := 0; fi < 40; fi++ {
			var objs []dataset.Object
			for k, id := range ids[fi%5:] {
				objs = append(objs, car(id, k))
			}
			f := Frame{SeqID: "slots", Index: fi, Width: 1242, Height: 375, Objects: objs}
			checkDetect(t, d.Profile.Name, d, f, nil, 0)
			f.Objects = objs[:fi%len(objs)+1]
			checkDetect(t, d.Profile.Name, d, f, nil, 0)
		}
	}
}

// FuzzPerceiveMatchesReference explores arbitrary frame indices, track
// IDs, object and mask boxes and profiles against the reference.
func FuzzPerceiveMatchesReference(f *testing.F) {
	f.Add(0, int64(1), int64(33), 400.0, 150.0, 560.0, 250.0, 380.0, 130.0, 600.0, 280.0, uint8(0))
	f.Add(17, int64(-1), int64(0), 600.0, 180.0, 604.0, 190.0, 0.0, 0.0, 1242.0, 375.0, uint8(3))
	f.Add(-5, int64(math.MaxInt64), int64(math.MinInt64), -50.0, -20.0, 40.0, 30.0, -100.0, -100.0, 50.0, 50.0, uint8(7))
	f.Add(1<<30, int64(64), int64(96), 1200.0, 300.0, 1300.0, 400.0, 1250.0, 380.0, 1400.0, 500.0, uint8(5))
	f.Add(3, int64(7), int64(39), math.NaN(), 100.0, 200.0, 150.0, 90.0, 90.0, 210.0, math.Inf(1), uint8(2))
	dets := testDetectors()
	f.Fuzz(func(t *testing.T, index int, id1, id2 int64, x1, y1, x2, y2, mx1, my1, mx2, my2 float64, profile uint8) {
		d := dets[int(profile)%len(dets)]
		box := geom.NewBox(x1, y1, x2, y2)
		fr := Frame{SeqID: "fuzz", Index: index, Width: 1242, Height: 375, Objects: []dataset.Object{
			{TrackID: int(id1), Class: dataset.Car, Box: box},
			{TrackID: int(id2), Class: dataset.Pedestrian, Box: box.Translate(15, 5), Occlusion: int(profile % 4)},
			{TrackID: int(id1) + 32, Class: dataset.Car, Box: box.Scale(0.5, 0.5)},
		}}
		checkDetect(t, d.Profile.Name, d, fr, nil, 0)
		mask := geom.NewMask(1242, 375, float64(profile%16))
		mask.AddBox(geom.NewBox(mx1, my1, mx2, my2))
		checkDetect(t, d.Profile.Name, d, fr, mask, int(profile))
	})
}
