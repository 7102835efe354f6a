// Package metrics implements the paper's two evaluation metrics: mean
// Average Precision (VOC 11-point protocol with KITTI difficulty
// filtering and per-class IoU thresholds) and mean Delay mD@beta
// (Section 5, Eq. 4-5), plus the precision/recall/delay curves of
// Figure 7.
package metrics

import (
	"slices"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// Detections holds a system's output for a dataset: for each sequence ID,
// one detection list per frame (indexed like Sequence.Frames).
type Detections map[string][][]geom.Scored

// Record is one scored detection's evaluation outcome for a class.
type Record struct {
	Score float64
	TP    bool
}

// ClassRecords accumulates the pooled records and ground-truth count for
// one class at one difficulty.
type ClassRecords struct {
	Class   dataset.Class
	Records []Record
	NumGT   int
}

// matcher is the one greedy matcher behind every metric. Its scratch
// slices are reused across the frames and classes of a pass, so a pass
// allocates only the records and track observations it returns.
type matcher struct {
	eligible, ignored []dataset.Object
	cls               []geom.Scored
	matched           []bool
}

// byScoreDesc orders detections by descending score. It is negative
// exactly when a.Score > b.Score, the only outcome the slices stable
// sort tests, so it orders detections exactly as sort.SliceStable does
// with a ">" less function (NaN included): both run the same
// insertion-sort/symMerge algorithm.
func byScoreDesc(a, b geom.Scored) int {
	if a.Score > b.Score {
		return -1
	}
	if a.Score < b.Score {
		return 1
	}
	return 0
}

// match evaluates one labeled frame for one class following the KITTI
// protocol:
//
//   - ground truth of the class failing the difficulty filter is "don't
//     care": it is never a false negative, and detections overlapping it
//     are dropped rather than counted as false positives;
//   - detections are matched greedily in descending score order to the
//     best-IoU unmatched eligible ground truth, requiring thresh (the
//     class IoU, 0.7 Car / 0.5 Pedestrian, outside the COCO sweep);
//   - unmatched detections shorter than the difficulty's minimum height
//     are ignored, as in the official development kit.
//
// tracks, when non-nil, receives on each matched ground truth's track
// the best matched detection score of this frame (the delay metric).
func (m *matcher) match(objects []dataset.Object, dets []geom.Scored, class dataset.Class,
	diff dataset.Difficulty, thresh float64, out *ClassRecords,
	tracks map[int]*TrackObservation, frame int) {

	m.eligible, m.ignored = m.eligible[:0], m.ignored[:0]
	for _, o := range objects {
		if o.Class != class {
			continue
		}
		if diff.Eligible(o) {
			m.eligible = append(m.eligible, o)
		} else {
			m.ignored = append(m.ignored, o)
		}
	}
	out.NumGT += len(m.eligible)

	m.cls = m.cls[:0]
	for _, d := range dets {
		if d.Class == int(class) {
			m.cls = append(m.cls, d)
		}
	}
	slices.SortStableFunc(m.cls, byScoreDesc)

	if cap(m.matched) < len(m.eligible) {
		m.matched = make([]bool, len(m.eligible))
	}
	matched := m.matched[:len(m.eligible)]
	clear(matched)
	for _, d := range m.cls {
		best, bestIoU := -1, 0.0
		for i, o := range m.eligible {
			if matched[i] {
				continue
			}
			if iou := geom.IoU(d.Box, o.Box); iou > bestIoU {
				best, bestIoU = i, iou
			}
		}
		if best >= 0 && bestIoU >= thresh {
			matched[best] = true
			out.Records = append(out.Records, Record{Score: d.Score, TP: true})
			if tracks != nil {
				tr := tracks[m.eligible[best].TrackID]
				if s, ok := tr.FrameScores[frame]; !ok || d.Score > s {
					tr.FrameScores[frame] = d.Score
				}
			}
			continue
		}
		// Don't-care handling: overlap with an ignored ground truth.
		dontCare := false
		for _, o := range m.ignored {
			if geom.IoU(d.Box, o.Box) >= thresh/2 {
				dontCare = true
				break
			}
		}
		if dontCare {
			continue
		}
		// Too-small detections are ignored, not penalized.
		if d.Box.Height() < diff.MinHeight() {
			continue
		}
		out.Records = append(out.Records, Record{Score: d.Score, TP: false})
	}
}

// pass is the single matching pass every metric reads: each labeled
// frame is matched once per class. iou > 0 replaces the per-class KITTI
// thresholds (the COCO sweep). With withTracks, the same matches also
// build the per-track delay observations, in order of first appearance
// within each sequence. Only labeled frames contribute.
func pass(ds *dataset.Dataset, dets Detections, diff dataset.Difficulty, iou float64,
	withTracks bool) (map[dataset.Class]*ClassRecords, []*TrackObservation) {

	records := make(map[dataset.Class]*ClassRecords, len(ds.Classes))
	for _, c := range ds.Classes {
		records[c] = &ClassRecords{Class: c}
	}
	outs := make([]*ClassRecords, len(ds.Classes))
	for i, c := range ds.Classes {
		outs[i] = records[c]
	}
	var (
		m      matcher
		tracks []*TrackObservation
		byID   map[int]*TrackObservation
	)
	if withTracks {
		byID = map[int]*TrackObservation{}
	}
	for si := range ds.Sequences {
		seq := &ds.Sequences[si]
		frames := dets[seq.ID]
		clear(byID)
		for fi := range seq.Frames {
			frame := &seq.Frames[fi]
			if !frame.Labeled {
				continue
			}
			if withTracks {
				for _, o := range frame.Objects {
					tr, ok := byID[o.TrackID]
					if !ok {
						tr = &TrackObservation{
							SeqID: seq.ID, TrackID: o.TrackID, Class: o.Class,
							FirstEligible: -1, FrameScores: map[int]float64{},
						}
						byID[o.TrackID] = tr
						tracks = append(tracks, tr)
					}
					tr.LastFrame = fi
					if tr.FirstEligible < 0 && diff.Eligible(o) {
						tr.FirstEligible = fi
					}
				}
			}
			var fd []geom.Scored
			if fi < len(frames) {
				fd = frames[fi]
			}
			for i, c := range ds.Classes {
				thresh := iou
				if thresh <= 0 {
					thresh = c.MatchIoU()
				}
				m.match(frame.Objects, fd, c, diff, thresh, outs[i], byID, fi)
			}
		}
	}
	return records, tracks
}

// Collect pools the per-frame evaluation records for every class of the
// dataset at the given difficulty. Only labeled frames contribute.
func Collect(ds *dataset.Dataset, dets Detections, diff dataset.Difficulty) map[dataset.Class]*ClassRecords {
	records, _ := pass(ds, dets, diff, 0, false)
	return records
}
