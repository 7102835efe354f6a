package metrics

import "repro/internal/dataset"

// CurvePoint is one operating point of the Figure 7 visualization: how
// recall and delay trade against precision for a single class.
type CurvePoint struct {
	Precision float64
	Recall    float64
	Delay     float64
	Threshold float64
}

// DelayRecallCurve reproduces Figure 7 for one class: for each precision
// target, the threshold achieving (at least) that class precision is
// located, and recall and mean entry delay are evaluated there. Targets
// a class precision, not the cross-class mean, matching the per-class
// panels of the figure.
func DelayRecallCurve(ds *dataset.Dataset, dets Detections, diff dataset.Difficulty,
	class dataset.Class, precisionTargets []float64) []CurvePoint {

	records, tracks := pass(ds, dets, diff, 0, true)
	r := records[class]
	if r == nil || len(r.Records) == 0 {
		return nil
	}
	ci := newClassIndex(r)
	var classTracks []*TrackObservation
	for _, tr := range tracks {
		if tr.Class == class && tr.FirstEligible >= 0 {
			classTracks = append(classTracks, tr)
		}
	}

	var out []CurvePoint
	for _, target := range precisionTargets {
		// Smallest threshold achieving the target precision: the
		// candidates are the scores, ascending.
		t, found := 0.0, false
		for i := len(ci.sorted) - 1; i >= 0; i-- {
			if c := ci.sorted[i].Score; ci.precisionAt(c) >= target {
				t, found = c, true
				break
			}
		}
		if !found {
			continue
		}
		delaySum := 0.0
		for _, tr := range classTracks {
			delaySum += tr.DelayAt(t)
		}
		delay := 0.0
		if len(classTracks) > 0 {
			delay = delaySum / float64(len(classTracks))
		}
		out = append(out, CurvePoint{
			Precision: ci.precisionAt(t),
			Recall:    ci.recallAt(t),
			Delay:     delay,
			Threshold: t,
		})
	}
	return out
}
