package detector

import (
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// crowdedFrame builds a frame dense enough that NMS does real work:
// many overlapping objects of both classes in a tight area, so the raw
// candidate set is large and suppression survivors are interleaved.
func crowdedFrame(index int) Frame {
	var objs []dataset.Object
	id := 1
	for row := 0; row < 4; row++ {
		for col := 0; col < 10; col++ {
			x := 40 + float64(col)*110 + 13*float64(row)
			y := 60 + float64(row)*70
			class := dataset.Car
			if (row+col)%3 == 0 {
				class = dataset.Pedestrian
			}
			objs = append(objs, dataset.Object{
				TrackID: id,
				Class:   class,
				Box:     geom.NewBox(x, y, x+90, y+65),
			})
			id++
		}
	}
	return Frame{SeqID: "crowd", Index: index, Width: 1242, Height: 375, Objects: objs}
}

// rematchNMS is the pre-optimization perceive tail: value NMS followed
// by the O(kept*raw) struct-equality re-match that recovers track
// identity. The test uses it as the reference the index-carrying path
// must reproduce exactly.
func rematchNMS(raw []Detection) []Detection {
	scored := make([]geom.Scored, len(raw))
	for i, r := range raw {
		scored[i] = r.Scored
	}
	kept := geom.NMS(scored, NMSIoU)
	out := make([]Detection, 0, len(kept))
	for _, k := range kept {
		for _, r := range raw {
			if r.Scored == k {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

// TestPerceiveMatchesRematchOnCrowdedFrame pins the index-carrying NMS
// against the former identity re-match on crowded frames: identical
// detections (boxes, scores, classes and track IDs) in identical order.
func TestPerceiveMatchesRematchOnCrowdedFrame(t *testing.T) {
	d := MustNew("resnet10c") // highest FP rate: densest raw sets
	for fi := 0; fi < 25; fi++ {
		f := crowdedFrame(fi)

		// Rebuild the raw candidate set with the reference arithmetic
		// (reference_test.go): perceive is deterministic per (model,
		// seq, frame), so it sees the same raw candidates.
		got := d.DetectFull(f).Detections
		raw := refRaw(d, f, nil, 0)
		want := rematchNMS(raw)

		if len(got) != len(want) {
			t.Fatalf("frame %d: %d detections, re-match reference has %d", fi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("frame %d detection %d: got %+v, re-match reference %+v", fi, i, got[i], want[i])
			}
		}
	}
}

// TestDetectAllocBudget pins the steady-state allocation budget of the
// full-frame detect path on a crowded frame: once every frame of the
// loop has been seen, the scratch buffers absorb candidate
// accumulation, NMS and the returned Detections, so nothing is
// allocated.
func TestDetectAllocBudget(t *testing.T) {
	d := MustNew("resnet50")
	f := crowdedFrame(0)
	for i := 0; i < 50; i++ { // warm the scratch buffers on every frame
		f.Index = i
		d.DetectFull(f)
	}
	n := testing.AllocsPerRun(100, func() {
		f.Index = (f.Index + 1) % 50
		d.DetectFull(f)
	})
	if n != 0 {
		t.Errorf("DetectFull allocates %v per frame after warm-up, budget is 0", n)
	}
}

// TestDetectRegionsAllocBudget is TestDetectAllocBudget for the
// region-restricted path, with the same budget, on the crowded frame
// under a mask covering most of its objects.
func TestDetectRegionsAllocBudget(t *testing.T) {
	d := MustNew("resnet50")
	f := crowdedFrame(0)
	mask := geom.NewMask(float64(f.Width), float64(f.Height), geom.DefaultCell)
	for i, o := range f.Objects {
		if i%4 != 0 {
			mask.AddBox(o.Box.Expand(30))
		}
	}
	for i := 0; i < 50; i++ { // warm the scratch buffers on every frame
		f.Index = i
		d.DetectRegions(f, mask, 30)
	}
	n := testing.AllocsPerRun(100, func() {
		f.Index = (f.Index + 1) % 50
		d.DetectRegions(f, mask, 30)
	})
	if n != 0 {
		t.Errorf("DetectRegions allocates %v per frame after warm-up, budget is 0", n)
	}
}

// TestDetectResultValidUntilNextCall pins the ownership contract of
// Result.Detections: a result stays intact until the next call on the
// same detector, and a later call repeats it exactly — so a caller
// that copies before calling again sees what a fresh slice per call
// would have held. Detectors do not share scratch: a call on one never
// disturbs another's result.
func TestDetectResultValidUntilNextCall(t *testing.T) {
	d, other := MustNew("resnet50"), MustNew("resnet50")
	for fi := 0; fi < 6; fi++ {
		f := crowdedFrame(fi)
		a := d.DetectFull(f).Detections
		if len(a) == 0 {
			t.Fatalf("frame %d: no detections; the crowded frame should have many", fi)
		}
		snapshot := slices.Clone(a)
		other.DetectFull(crowdedFrame(fi + 1))
		if !slices.Equal(a, snapshot) {
			t.Fatalf("frame %d: another detector's call changed this one's result", fi)
		}
		d.DetectFull(crowdedFrame(fi + 1)) // a is now stale
		if b := d.DetectFull(f).Detections; !slices.Equal(b, snapshot) {
			t.Fatalf("frame %d: repeating the call gave %d detections, first call %d (or different values)",
				fi, len(b), len(snapshot))
		}
	}
}
