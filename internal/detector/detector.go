package detector

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/ops"
)

// MinCoverage is the fraction of an object's box that must lie inside the
// selected regions for a region-restricted detector to be able to see it.
const MinCoverage = 0.5

// NMSIoU is the suppression threshold detectors apply to their raw
// output, the standard Faster R-CNN value.
const NMSIoU = 0.5

// Frame is the detector-facing view of one video frame: identity for the
// deterministic randomness plus the oracle ground truth.
type Frame struct {
	SeqID  string
	Index  int
	Width  int
	Height int
	// Objects is the frame's ground truth; the simulated detector
	// perceives (a noisy subset of) it.
	Objects []dataset.Object
}

// Detection extends a scored box with the ground-truth track that
// produced it (TrackID < 0 for false positives). The track identity is
// simulation metadata — the evaluation layer never reads it, but tests
// use it to verify detector behaviour directly.
type Detection struct {
	geom.Scored
	TrackID int
}

// Result is the output of one detector invocation.
type Result struct {
	// Detections after NMS, sorted by descending confidence (nil when
	// none survive). The slice is the detector's scratch: it is valid
	// until the next DetectFull or DetectRegions call on the same
	// Detector, which overwrites it. Callers that keep detections
	// longer must copy them.
	Detections []Detection
	// Ops is the arithmetic cost of the invocation, in raw operations.
	Ops float64
	// Coverage is the fraction of the frame processed (1 for full).
	Coverage float64
	// NumProposals is the per-RoI head invocation count charged.
	NumProposals int
}

// Detector pairs an accuracy profile with a cost model.
//
// A Detector carries per-invocation scratch buffers, so one instance
// must not be invoked from multiple goroutines concurrently; build one
// instance per worker (sim.SystemFactory does exactly that).
type Detector struct {
	Profile Profile
	Cost    ops.CostModel
	// Classes restricts the labels of clutter false positives; nil means
	// every known class. Set it to the dataset's vocabulary so Person-only
	// datasets do not receive Car clutter.
	Classes []dataset.Class

	// Per-invocation scratch, reused across frames so the steady-state
	// perceive path allocates nothing; out backs Result.Detections.
	scratch struct {
		raw    []Detection
		scored []geom.Scored
		nms    geom.NMSBuffer
		out    []Detection
	}
	draws drawCache
}

// biasSlots is the size of the direct-mapped per-track bias table.
const biasSlots = 32

// drawCache holds pure values perceive would otherwise recompute for
// every object of every frame. Each is keyed on everything it depends
// on, so a hit returns exactly the value a recomputation would:
//
//   - prefix is hashKey's state after folding hashString(Profile.Name)
//     and hashString(SeqID), keyed on both strings. Profile is an
//     exported field a caller may overwrite after New, so the key is
//     compared on every invocation rather than fixed at construction.
//   - bias holds the unscaled track-bias draw
//     normal(hashKey(modelH, seqH, id, tagBias)) per track ID, slot
//     id mod biasSlots, valid when its biasValid bit is set. It depends
//     on the (model, sequence) pair only, so a new prefix clears it.
//     TrackBias scales the draw outside the table, so ScaleNoise keeps
//     every hit exact.
//   - logMid is math.Log(midpoint), keyed on the Midpoint bits.
type drawCache struct {
	name, seq string
	prefix    uint64
	primed    bool

	biasValid uint32
	biasID    [biasSlots]int
	bias      [biasSlots]float64

	midpoint, logMid float64
	midPrimed        bool
}

// prefixFor returns hashKey's state after folding the model and
// sequence names, recomputing it and clearing the bias table when
// either name differs from the cached pair.
func (c *drawCache) prefixFor(model, seq string) uint64 {
	if !c.primed || c.name != model || c.seq != seq {
		c.name, c.seq, c.primed = model, seq, true
		c.prefix = mix(mix(hashSeed, hashString(model)), hashString(seq))
		c.biasValid = 0
	}
	return c.prefix
}

// biasDraw returns normal(hashKey(modelH, seqH, id, tagBias)) for the
// (model, sequence) pair whose state prefixFor last returned.
func (c *drawCache) biasDraw(prefix uint64, id int) float64 {
	slot := uint(id) % biasSlots
	bit := uint32(1) << slot
	if c.biasValid&bit != 0 && c.biasID[slot] == id {
		return c.bias[slot]
	}
	v := normal(mix(mix(prefix, uint64(id)), tagBias))
	c.biasValid |= bit
	c.biasID[slot], c.bias[slot] = id, v
	return v
}

// logMidpoint returns math.Log(midpoint), recomputing it only when the
// midpoint's bits differ from the cached one.
func (c *drawCache) logMidpoint(midpoint float64) float64 {
	if !c.midPrimed || math.Float64bits(c.midpoint) != math.Float64bits(midpoint) {
		c.midpoint, c.logMid, c.midPrimed = midpoint, math.Log(midpoint), true
	}
	return c.logMid
}

// DetectFull runs the detector over the whole frame, the single-model
// and proposal-network mode.
func (d *Detector) DetectFull(f Frame) Result {
	dets := d.perceive(f, nil, 0, 1)
	return Result{
		Detections:   dets,
		Ops:          d.Cost.FullFrameOps(f.Width, f.Height),
		Coverage:     1,
		NumProposals: ops.DefaultProposals,
	}
}

// DetectRegions runs the detector restricted to the masked regions with
// nProposals per-RoI head invocations, the refinement-network mode of
// Section 4.3. Objects insufficiently covered by the mask cannot be
// detected; false positives only arise inside the covered area.
func (d *Detector) DetectRegions(f Frame, mask *geom.Mask, nProposals int) Result {
	frac := mask.CoveredFraction()
	dets := d.perceive(f, mask, nProposals, frac)
	return Result{
		Detections:   dets,
		Ops:          d.Cost.RegionOps(f.Width, f.Height, frac, nProposals),
		Coverage:     frac,
		NumProposals: nProposals,
	}
}

// perceive produces the raw detections. mask == nil means full frame;
// otherwise frac is the mask's covered fraction. Candidate
// accumulation, NMS ordering and suppression all run on the detector's
// reused scratch, and so does the returned slice (see
// Result.Detections for how long it stays valid).
//
// Every key is the hashKey of its full word sequence, folded from the
// cached shared prefixes (see hash.go): frameKey is
// hashKey(modelH, seqH, frame), objKey is hashKey(modelH, seqH, frame,
// id), and each purpose key is one more mix of objKey with its tag.
func (d *Detector) perceive(f Frame, mask *geom.Mask, nProposals int, frac float64) []Detection {
	p := d.Profile
	c := &d.draws
	prefix := c.prefixFor(p.Name, f.SeqID)
	frameKey := mix(prefix, uint64(f.Index))
	logMid := c.logMidpoint(p.Midpoint)

	raw := d.scratch.raw[:0]
	for _, o := range f.Objects {
		if mask != nil && mask.BoxCoverage(o.Box) < MinCoverage {
			continue
		}
		z := p.logitFor(o, logMid)
		z += p.TrackBias * c.biasDraw(prefix, o.TrackID)
		if mask != nil {
			z += p.RegionBoost
		}
		prob := p.MaxRecall * sigmoid(z)
		objKey := mix(frameKey, uint64(o.TrackID))
		key := mix(objKey, tagDetect)
		if uniform(key) >= prob {
			continue
		}
		box, jitterQ := jitter(p, o, objKey)
		conf := sigmoid(p.ConfGain*z + p.ConfNoise*normal(hashKey(key, tagConf)) - p.LocConfCoupling*jitterQ)
		raw = append(raw, Detection{
			Scored:  geom.Scored{Box: box, Score: conf, Class: int(o.Class)},
			TrackID: o.TrackID,
		})
	}

	raw = d.appendFalsePositives(raw, f, mask, nProposals, frac, frameKey)
	d.scratch.raw = raw

	// NMS over the combined output. The index-carrying variant keeps
	// track identity directly — kept[i] indexes raw — instead of the
	// former O(kept*raw) struct-equality re-match.
	if cap(d.scratch.scored) < len(raw) {
		d.scratch.scored = make([]geom.Scored, len(raw))
	}
	scored := d.scratch.scored[:len(raw)]
	for i, r := range raw {
		scored[i] = r.Scored
	}
	kept := d.scratch.nms.Indices(scored, NMSIoU)
	if len(kept) == 0 {
		return nil
	}
	out := d.scratch.out[:0]
	for _, i := range kept {
		out = append(out, raw[i])
	}
	d.scratch.out = out
	return out
}

// jitter perturbs the ground-truth box by the profile's localization
// noise, deterministically per (model, sequence, frame, track): objKey
// is hashKey(modelH, seqH, frame, id), so each axis's key is
// hashKey(modelH, seqH, frame, id, tag). The second return value is the
// squared jitter magnitude normalized to mean 1, which the confidence
// model uses to score badly localized detections lower.
func jitter(p Profile, o dataset.Object, objKey uint64) (geom.Box, float64) {
	if p.LocNoise == 0 {
		return o.Box, 0
	}
	nx := normal(mix(objKey, tagLocX))
	ny := normal(mix(objKey, tagLocY))
	nw := normal(mix(objKey, tagLocW))
	nh := normal(mix(objKey, tagLocH))
	w, h := o.Box.Width(), o.Box.Height()
	cx, cy := o.Box.Center()
	cx += p.LocNoise * w * nx
	cy += p.LocNoise * h * ny
	sw := math.Exp(p.LocNoise * nw)
	sh := math.Exp(p.LocNoise * nh)
	q := (nx*nx + ny*ny + nw*nw + nh*nh) / 4
	return geom.NewBoxCenter(cx, cy, w*sw, h*sh), q
}

// appendFalsePositives appends the frame's clutter detections to dst
// and returns the extended slice. The count is Poisson with mean FPRate
// scaled by the covered fraction frac; locations are sampled
// deterministically and, in region mode, kept only when they fall
// inside the mask (with resampling). Every key extends
// hashKey(frameKey, tagFP), the Poisson key, folded once per clutter
// index i.
func (d *Detector) appendFalsePositives(dst []Detection, f Frame, mask *geom.Mask, nProposals int, frac float64, frameKey uint64) []Detection {
	p := d.Profile
	rate := p.FPRate
	if mask != nil {
		rate = rate*frac + p.RegionFPPerProposal*float64(nProposals)
	}
	fpKey := hashKey(frameKey, tagFP)
	n := poissonHash(fpKey, rate)
	out := dst
	fw, fh := float64(f.Width), float64(f.Height)
	for i := 0; i < n; i++ {
		iKey := mix(fpKey, uint64(i))
		var box geom.Box
		placed := false
		for attempt := 0; attempt < 8; attempt++ {
			k := mix(iKey, uint64(attempt))
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
		k := mix(iKey, tagConf)
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

// poissonHash draws a Poisson variate from hashed uniforms (Knuth).
func poissonHash(key uint64, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	prod := 1.0
	for i := uint64(0); ; i++ {
		prod *= uniform(mix(key, i+1))
		if prod <= l {
			return k
		}
		k++
		if k > 1000 {
			return k // lambda is tiny in practice; guard regardless
		}
	}
}
