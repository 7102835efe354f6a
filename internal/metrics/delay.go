package metrics

import (
	"math"

	"repro/internal/dataset"
)

// TrackObservation summarizes one ground-truth track for the delay
// metric: when its delay clock starts, when it ends, and the score of
// the best matching detection in each frame of its life.
type TrackObservation struct {
	SeqID   string
	TrackID int
	Class   dataset.Class

	// FirstEligible is the first frame index at which the track passes
	// the difficulty filter; -1 when it never does (excluded from
	// evaluation).
	FirstEligible int
	// LastFrame is the last frame the track appears in.
	LastFrame int

	// FrameScores maps frame index -> best matching detection score.
	FrameScores map[int]float64
}

// DelayAt returns the track's entry delay at detection threshold t: the
// number of frames from FirstEligible to the first frame with a
// matching detection of score >= t. Tracks never detected are charged
// their full remaining lifetime (LastFrame - FirstEligible + 1). The
// paper does not specify the never-detected case; this reproduction
// chooses to penalize permanent misses rather than drop them from the
// mean.
func (tr *TrackObservation) DelayAt(t float64) float64 {
	for f := tr.FirstEligible; f <= tr.LastFrame; f++ {
		if s, ok := tr.FrameScores[f]; ok && s >= t {
			return float64(f - tr.FirstEligible)
		}
	}
	return float64(tr.LastFrame - tr.FirstEligible + 1)
}

// CollectTracks builds the per-track delay observations. Matching
// follows the same per-frame greedy rule as the AP metric; the score of
// the detection matched to each ground-truth object is recorded against
// its track. Eligibility is per-frame: an object currently failing the
// difficulty filter cannot be "detected" yet. Only labeled frames
// contribute (dense labels are required for a meaningful delay;
// CityPersons-style sparse sets are evaluated with mAP only, as in the
// paper).
func CollectTracks(ds *dataset.Dataset, dets Detections, diff dataset.Difficulty) []*TrackObservation {
	_, tracks := pass(ds, dets, diff, 0, true)
	return tracks
}

// MeanDelay averages DelayAt(t) per class over the evaluable tracks.
func MeanDelay(tracks []*TrackObservation, classes []dataset.Class, t float64) (float64, map[dataset.Class]float64) {
	sums := map[dataset.Class]float64{}
	counts := map[dataset.Class]int{}
	for _, tr := range tracks {
		if tr.FirstEligible < 0 {
			continue
		}
		sums[tr.Class] += tr.DelayAt(t)
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

// ThresholdForMeanPrecision solves Eq. 5: the smallest threshold t at
// which the mean precision over classes reaches beta (smallest t gives
// the highest recall at that precision). When no threshold reaches
// beta, the threshold with the highest mean precision is returned.
func ThresholdForMeanPrecision(records map[dataset.Class]*ClassRecords, classes []dataset.Class, beta float64) float64 {
	return threshold(indexClasses(records, classes), beta)
}

// threshold is ThresholdForMeanPrecision over indexed classes.
func threshold(indexes []*classIndex, beta float64) float64 {
	n := 0
	for _, ci := range indexes {
		n += len(ci.sorted)
	}
	if n == 0 {
		return 1
	}
	all := make([]Record, 0, n)
	for _, ci := range indexes {
		all = append(all, ci.sorted...)
	}
	all = sortDesc(all)
	meanPrec := func(t float64) float64 {
		sum := 0.0
		for _, ci := range indexes {
			sum += ci.precisionAt(t)
		}
		return sum / float64(len(indexes))
	}
	// The candidate thresholds are the distinct scores, ascending.
	bestT, bestPrec := all[0].Score, -1.0
	for i := len(all) - 1; i >= 0; i-- {
		t := all[i].Score
		if i+1 < len(all) && all[i+1].Score == t {
			continue
		}
		p := meanPrec(t)
		if p >= beta {
			return t
		}
		if p > bestPrec {
			bestPrec, bestT = p, t
		}
	}
	return bestT
}

// MeanDelayAtPrecision computes mD@beta (Eq. 4-5): the detection
// threshold is chosen so the mean precision over classes equals beta,
// then per-class mean entry delays are averaged. It returns the mean
// delay, the per-class delays and the chosen threshold.
func MeanDelayAtPrecision(ds *dataset.Dataset, dets Detections, diff dataset.Difficulty, beta float64) (float64, map[dataset.Class]float64, float64) {
	t, tracks := delayAtPrecision(ds, dets, diff, beta)
	mean, perClass := MeanDelay(tracks, ds.Classes, t)
	return mean, perClass, t
}

// delayAtPrecision runs one pass for a delay metric at precision beta:
// the Eq. 5 threshold and the track observations it applies to.
func delayAtPrecision(ds *dataset.Dataset, dets Detections, diff dataset.Difficulty, beta float64) (float64, []*TrackObservation) {
	records, tracks := pass(ds, dets, diff, 0, true)
	return threshold(indexClasses(records, ds.Classes), beta), tracks
}
