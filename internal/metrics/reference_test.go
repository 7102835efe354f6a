package metrics_test

// Reference implementations: the three-pass evaluation the single
// matching pass replaced, kept verbatim (modulo names) so the
// differential tests can require ==-equal results from the new code.
// Do not optimise these; their value is that they are the old code.

import (
	"sort"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/metrics"
)

func refMatchFrameIoU(objects []dataset.Object, dets []geom.Scored, class dataset.Class,
	diff dataset.Difficulty, thresh float64, out *metrics.ClassRecords) {

	var eligible, ignored []dataset.Object
	for _, o := range objects {
		if o.Class != class {
			continue
		}
		if diff.Eligible(o) {
			eligible = append(eligible, o)
		} else {
			ignored = append(ignored, o)
		}
	}
	out.NumGT += len(eligible)

	var cls []geom.Scored
	for _, d := range dets {
		if d.Class == int(class) {
			cls = append(cls, d)
		}
	}
	sort.SliceStable(cls, func(i, j int) bool { return cls[i].Score > cls[j].Score })

	matched := make([]bool, len(eligible))
	for _, d := range cls {
		best, bestIoU := -1, 0.0
		for i, o := range eligible {
			if matched[i] {
				continue
			}
			if iou := geom.IoU(d.Box, o.Box); iou > bestIoU {
				best, bestIoU = i, iou
			}
		}
		if best >= 0 && bestIoU >= thresh {
			matched[best] = true
			out.Records = append(out.Records, metrics.Record{Score: d.Score, TP: true})
			continue
		}
		dontCare := false
		for _, o := range ignored {
			if geom.IoU(d.Box, o.Box) >= thresh/2 {
				dontCare = true
				break
			}
		}
		if dontCare {
			continue
		}
		if d.Box.Height() < diff.MinHeight() {
			continue
		}
		out.Records = append(out.Records, metrics.Record{Score: d.Score, TP: false})
	}
}

// refCollectAtIoU is the old Collect (iou <= 0, per-class thresholds)
// and the old CollectAtIoU (iou > 0).
func refCollectAtIoU(ds *dataset.Dataset, dets metrics.Detections, diff dataset.Difficulty, iou float64) map[dataset.Class]*metrics.ClassRecords {
	out := map[dataset.Class]*metrics.ClassRecords{}
	for _, c := range ds.Classes {
		out[c] = &metrics.ClassRecords{Class: c}
	}
	for si := range ds.Sequences {
		seq := &ds.Sequences[si]
		frames := dets[seq.ID]
		for fi := range seq.Frames {
			if !seq.Frames[fi].Labeled {
				continue
			}
			var fd []geom.Scored
			if frames != nil && fi < len(frames) {
				fd = frames[fi]
			}
			for _, c := range ds.Classes {
				thresh := iou
				if thresh <= 0 {
					thresh = c.MatchIoU()
				}
				refMatchFrameIoU(seq.Frames[fi].Objects, fd, c, diff, thresh, out[c])
			}
		}
	}
	return out
}

func refCollectTracks(ds *dataset.Dataset, dets metrics.Detections, diff dataset.Difficulty) []*metrics.TrackObservation {
	var out []*metrics.TrackObservation
	for si := range ds.Sequences {
		seq := &ds.Sequences[si]
		frames := dets[seq.ID]
		byID := map[int]*metrics.TrackObservation{}
		var order []int

		for fi := range seq.Frames {
			if !seq.Frames[fi].Labeled {
				continue
			}
			for _, o := range seq.Frames[fi].Objects {
				tr, ok := byID[o.TrackID]
				if !ok {
					tr = &metrics.TrackObservation{
						SeqID: seq.ID, TrackID: o.TrackID, Class: o.Class,
						FirstEligible: -1, FrameScores: map[int]float64{},
					}
					byID[o.TrackID] = tr
					order = append(order, o.TrackID)
				}
				tr.LastFrame = fi
				if tr.FirstEligible < 0 && diff.Eligible(o) {
					tr.FirstEligible = fi
				}
			}
			var fd []geom.Scored
			if frames != nil && fi < len(frames) {
				fd = frames[fi]
			}
			for _, c := range ds.Classes {
				refMatchTracksInFrame(seq.Frames[fi].Objects, fd, c, diff, fi, byID)
			}
		}
		for _, id := range order {
			out = append(out, byID[id])
		}
	}
	return out
}

func refMatchTracksInFrame(objects []dataset.Object, dets []geom.Scored, class dataset.Class,
	diff dataset.Difficulty, frame int, byID map[int]*metrics.TrackObservation) {

	var eligible []dataset.Object
	for _, o := range objects {
		if o.Class == class && diff.Eligible(o) {
			eligible = append(eligible, o)
		}
	}
	if len(eligible) == 0 {
		return
	}
	var cls []geom.Scored
	for _, d := range dets {
		if d.Class == int(class) {
			cls = append(cls, d)
		}
	}
	sort.SliceStable(cls, func(i, j int) bool { return cls[i].Score > cls[j].Score })
	matched := make([]bool, len(eligible))
	thresh := class.MatchIoU()
	for _, d := range cls {
		best, bestIoU := -1, 0.0
		for i, o := range eligible {
			if matched[i] {
				continue
			}
			if iou := geom.IoU(d.Box, o.Box); iou > bestIoU {
				best, bestIoU = i, iou
			}
		}
		if best >= 0 && bestIoU >= thresh {
			matched[best] = true
			tr := byID[eligible[best].TrackID]
			if s, ok := tr.FrameScores[frame]; !ok || d.Score > s {
				tr.FrameScores[frame] = d.Score
			}
		}
	}
}

func refPRCurve(r *metrics.ClassRecords) []metrics.PRPoint {
	if len(r.Records) == 0 || r.NumGT == 0 {
		return nil
	}
	recs := append([]metrics.Record(nil), r.Records...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Score > recs[j].Score })
	var out []metrics.PRPoint
	tp, fp := 0, 0
	for i, rec := range recs {
		if rec.TP {
			tp++
		} else {
			fp++
		}
		if i+1 < len(recs) && recs[i+1].Score == rec.Score {
			continue
		}
		out = append(out, metrics.PRPoint{
			Threshold: rec.Score,
			Precision: float64(tp) / float64(tp+fp),
			Recall:    float64(tp) / float64(r.NumGT),
		})
	}
	return out
}

func refAP(r *metrics.ClassRecords) float64 {
	curve := refPRCurve(r)
	if curve == nil {
		return 0
	}
	sum := 0.0
	for i := 0; i <= 10; i++ {
		target := float64(i) / 10
		best := 0.0
		for _, p := range curve {
			if p.Recall >= target && p.Precision > best {
				best = p.Precision
			}
		}
		sum += best
	}
	return sum / 11
}

func refMAP(ds *dataset.Dataset, dets metrics.Detections, diff dataset.Difficulty) (float64, map[dataset.Class]float64) {
	records := refCollectAtIoU(ds, dets, diff, 0)
	perClass := map[dataset.Class]float64{}
	sum := 0.0
	for _, c := range ds.Classes {
		ap := refAP(records[c])
		perClass[c] = ap
		sum += ap
	}
	if len(ds.Classes) == 0 {
		return 0, perClass
	}
	return sum / float64(len(ds.Classes)), perClass
}

type refClassIndex struct {
	scores []float64
	cumTP  []int
	numGT  int
}

func refNewClassIndex(r *metrics.ClassRecords) *refClassIndex {
	recs := append([]metrics.Record(nil), r.Records...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Score > recs[j].Score })
	ci := &refClassIndex{numGT: r.NumGT}
	ci.scores = make([]float64, len(recs))
	ci.cumTP = make([]int, len(recs)+1)
	for i, rec := range recs {
		ci.scores[i] = rec.Score
		ci.cumTP[i+1] = ci.cumTP[i]
		if rec.TP {
			ci.cumTP[i+1]++
		}
	}
	return ci
}

func (ci *refClassIndex) precisionAt(t float64) float64 {
	n := sort.Search(len(ci.scores), func(i int) bool { return ci.scores[i] < t })
	if n == 0 {
		return 1
	}
	return float64(ci.cumTP[n]) / float64(n)
}

func (ci *refClassIndex) recallAt(t float64) float64 {
	if ci.numGT == 0 {
		return 0
	}
	n := sort.Search(len(ci.scores), func(i int) bool { return ci.scores[i] < t })
	return float64(ci.cumTP[n]) / float64(ci.numGT)
}

func refThresholdForMeanPrecision(records map[dataset.Class]*metrics.ClassRecords, classes []dataset.Class, beta float64) float64 {
	indexes := make([]*refClassIndex, 0, len(classes))
	var all []float64
	for _, c := range classes {
		r := records[c]
		if r == nil {
			continue
		}
		indexes = append(indexes, refNewClassIndex(r))
		for _, rec := range r.Records {
			all = append(all, rec.Score)
		}
	}
	if len(all) == 0 {
		return 1
	}
	sort.Float64s(all)
	uniq := all[:0]
	for i, s := range all {
		if i == 0 || s != uniq[len(uniq)-1] {
			uniq = append(uniq, s)
		}
	}
	meanPrec := func(t float64) float64 {
		sum := 0.0
		for _, ci := range indexes {
			sum += ci.precisionAt(t)
		}
		return sum / float64(len(indexes))
	}
	bestT, bestPrec := uniq[len(uniq)-1], -1.0
	for _, t := range uniq {
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

func refMeanDelayAtPrecision(ds *dataset.Dataset, dets metrics.Detections, diff dataset.Difficulty, beta float64) (float64, map[dataset.Class]float64, float64) {
	records := refCollectAtIoU(ds, dets, diff, 0)
	t := refThresholdForMeanPrecision(records, ds.Classes, beta)
	tracks := refCollectTracks(ds, dets, diff)
	mean, perClass := metrics.MeanDelay(tracks, ds.Classes, t)
	return mean, perClass, t
}

func refDelayRecallCurve(ds *dataset.Dataset, dets metrics.Detections, diff dataset.Difficulty,
	class dataset.Class, precisionTargets []float64) []metrics.CurvePoint {

	records := refCollectAtIoU(ds, dets, diff, 0)
	r := records[class]
	if r == nil || len(r.Records) == 0 {
		return nil
	}
	ci := refNewClassIndex(r)
	tracks := refCollectTracks(ds, dets, diff)
	var classTracks []*metrics.TrackObservation
	for _, tr := range tracks {
		if tr.Class == class && tr.FirstEligible >= 0 {
			classTracks = append(classTracks, tr)
		}
	}
	cand := append([]float64(nil), ci.scores...)
	sort.Float64s(cand)

	var out []metrics.CurvePoint
	for _, target := range precisionTargets {
		t, found := 0.0, false
		for _, c := range cand {
			if ci.precisionAt(c) >= target {
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
		out = append(out, metrics.CurvePoint{
			Precision: ci.precisionAt(t),
			Recall:    ci.recallAt(t),
			Delay:     delay,
			Threshold: t,
		})
	}
	return out
}
