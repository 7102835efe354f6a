package metrics

import (
	"math"

	"repro/internal/dataset"
)

// Exit delay (Section 5): "the actual exit frame minus the predicted
// exit frame". For a detection system the natural reading is the gap
// between the last frame an object was still detected and the frame it
// actually left the scene: a system that loses an object early reports
// a stale world for that many frames. The paper defines but does not
// evaluate it ("we are focusing on entry delay"); it is provided here
// as the natural extension.

// ExitDelayAt returns the number of frames between the track's last
// matching detection at score >= t and its true exit. A track never
// detected at all is charged its full evaluated lifetime, symmetric
// with the entry-delay convention.
func (tr *TrackObservation) ExitDelayAt(t float64) float64 {
	for f := tr.LastFrame; f >= tr.FirstEligible; f-- {
		if s, ok := tr.FrameScores[f]; ok && s >= t {
			return float64(tr.LastFrame - f)
		}
	}
	return float64(tr.LastFrame - tr.FirstEligible + 1)
}

// MeanExitDelay averages ExitDelayAt(t) per class over the evaluable
// tracks, mirroring MeanDelay.
func MeanExitDelay(tracks []*TrackObservation, classes []dataset.Class, t float64) (float64, map[dataset.Class]float64) {
	sums := map[dataset.Class]float64{}
	counts := map[dataset.Class]int{}
	for _, tr := range tracks {
		if tr.FirstEligible < 0 {
			continue
		}
		sums[tr.Class] += tr.ExitDelayAt(t)
		counts[tr.Class]++
	}
	perClass := map[dataset.Class]float64{}
	total, n := 0.0, 0
	for _, c := range classes {
		if counts[c] == 0 {
			continue
		}
		perClass[c] = sums[c] / float64(counts[c])
		total += perClass[c]
		n++
	}
	if n == 0 {
		return math.NaN(), perClass
	}
	return total / float64(n), perClass
}

// MeanExitDelayAtPrecision computes the exit-delay analogue of mD@beta:
// the threshold is chosen by the same Eq. 5 rule, then per-class mean
// exit delays are averaged.
func MeanExitDelayAtPrecision(ds *dataset.Dataset, dets Detections, diff dataset.Difficulty, beta float64) (float64, map[dataset.Class]float64, float64) {
	t, tracks := delayAtPrecision(ds, dets, diff, beta)
	mean, perClass := MeanExitDelay(tracks, ds.Classes, t)
	return mean, perClass, t
}
