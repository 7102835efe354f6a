package metrics

import (
	"math"
	"slices"
	"sort"

	"repro/internal/dataset"
)

// PRPoint is one operating point of a precision/recall curve.
type PRPoint struct {
	Threshold float64
	Precision float64
	Recall    float64
}

// classIndex is one class's pooled records sorted once by descending
// score. AP, the Eq. 5 threshold search and the Figure 7 curves all
// read it. The order of records with equal scores changes none of
// them: the curve emits points only at score boundaries, and the
// threshold queries count whole score groups.
type classIndex struct {
	r      *ClassRecords
	sorted []Record // r.Records, descending score
	cumTP  []int    // cumTP[i] = TPs among sorted[:i]
}

func newClassIndex(r *ClassRecords) *classIndex {
	ci := &classIndex{r: r, sorted: sortDesc(r.Records), cumTP: make([]int, len(r.Records)+1)}
	for i, rec := range ci.sorted {
		ci.cumTP[i+1] = ci.cumTP[i]
		if rec.TP {
			ci.cumTP[i+1]++
		}
	}
	return ci
}

// sortDesc returns a copy of recs sorted by descending score. It is a
// stable LSD radix sort, one byte per pass, over descKey: linear in
// len(recs), where a comparison sort of a class's records cost more
// than matching them.
func sortDesc(recs []Record) []Record {
	a, b := slices.Clone(recs), make([]Record, len(recs))
	for shift := 0; shift < 64 && len(a) > 0; shift += 8 {
		var start [257]int
		for _, rec := range a {
			start[descKey(rec.Score)>>shift&0xff+1]++
		}
		if start[descKey(a[0].Score)>>shift&0xff+1] == len(a) {
			continue // every key shares this byte
		}
		for i := 1; i < len(start); i++ {
			start[i] += start[i-1]
		}
		for _, rec := range a {
			d := descKey(rec.Score) >> shift & 0xff
			b[start[d]] = rec
			start[d]++
		}
		a, b = b, a
	}
	return a
}

// descKey maps a score to a key whose ascending unsigned order is the
// score's descending numeric order: the IEEE-754 bits with the sign bit
// set on non-negative values and all bits flipped on negative ones
// order as the numbers do, and the key inverts that. (NaN, which no
// detector emits, orders by its bits, beyond the infinities.)
func descKey(s float64) uint64 {
	k := math.Float64bits(s)
	if k>>63 == 0 {
		k |= 1 << 63
	} else {
		k = ^k
	}
	return ^k
}

// above returns the number of records with score >= t.
func (ci *classIndex) above(t float64) int {
	return sort.Search(len(ci.sorted), func(i int) bool { return ci.sorted[i].Score < t })
}

// precisionAt returns precision over records with score >= t (1.0 when
// none qualify, matching PrecisionRecallAt).
func (ci *classIndex) precisionAt(t float64) float64 {
	n := ci.above(t)
	if n == 0 {
		return 1
	}
	return float64(ci.cumTP[n]) / float64(n)
}

// recallAt returns recall at threshold t.
func (ci *classIndex) recallAt(t float64) float64 {
	if ci.r.NumGT == 0 {
		return 0
	}
	return float64(ci.cumTP[ci.above(t)]) / float64(ci.r.NumGT)
}

// boundary reports whether the i-th highest score ends its score group,
// the only positions where the curve has a point.
func (ci *classIndex) boundary(i int) bool {
	return i+1 == len(ci.sorted) || ci.sorted[i+1].Score != ci.sorted[i].Score
}

// PRCurve computes the precision/recall curve of pooled records, one
// point per distinct score, in descending-score (increasing-recall)
// order. An empty record set yields nil.
func (r *ClassRecords) PRCurve() []PRPoint {
	if len(r.Records) == 0 || r.NumGT == 0 {
		return nil
	}
	ci := newClassIndex(r)
	var out []PRPoint
	for i, rec := range ci.sorted {
		if !ci.boundary(i) {
			continue
		}
		tp := ci.cumTP[i+1]
		out = append(out, PRPoint{
			Threshold: rec.Score,
			Precision: float64(tp) / float64(i+1),
			Recall:    float64(tp) / float64(r.NumGT),
		})
	}
	return out
}

// PrecisionRecallAt returns the operating point at a score threshold:
// precision and recall over detections with Score >= t.
func (r *ClassRecords) PrecisionRecallAt(t float64) (precision, recall float64) {
	tp, fp := 0, 0
	for _, rec := range r.Records {
		if rec.Score < t {
			continue
		}
		if rec.TP {
			tp++
		} else {
			fp++
		}
	}
	if tp+fp == 0 {
		return 1, 0 // no detections above t: vacuous precision
	}
	if r.NumGT == 0 {
		return float64(tp) / float64(tp+fp), 0
	}
	return float64(tp) / float64(tp+fp), float64(tp) / float64(r.NumGT)
}

// AP returns the 11-point interpolated average precision (Pascal VOC
// 2007 protocol, which KITTI's metric follows): the mean over recall
// targets {0, 0.1, ..., 1.0} of the maximum precision at recall >= the
// target.
func (r *ClassRecords) AP() float64 {
	return newClassIndex(r).ap()
}

// ap is AP over the curve's points, walked from the lowest score up.
// Recall only falls along the walk, so a running maximum of precision
// gives each recall target its best precision in one pass.
func (ci *classIndex) ap() float64 {
	if len(ci.sorted) == 0 || ci.r.NumGT == 0 {
		return 0
	}
	var best [11]float64 // best[k]: highest precision at recall >= k/10
	maxP, k := 0.0, 10
	for i := len(ci.sorted) - 1; i >= 0; i-- {
		if !ci.boundary(i) {
			continue
		}
		tp := ci.cumTP[i+1]
		for recall := float64(tp) / float64(ci.r.NumGT); k >= 0 && recall < float64(k)/10; k-- {
			best[k] = maxP
		}
		maxP = max(maxP, float64(tp)/float64(i+1))
	}
	for ; k >= 0; k-- {
		best[k] = maxP
	}
	sum := 0.0
	for _, b := range best {
		sum += b
	}
	return sum / 11
}

// meanAP returns the mean AP over indexes plus the per-class values.
func meanAP(indexes []*classIndex) (float64, map[dataset.Class]float64) {
	perClass := map[dataset.Class]float64{}
	sum := 0.0
	for _, ci := range indexes {
		ap := ci.ap()
		perClass[ci.r.Class] = ap
		sum += ap
	}
	if len(indexes) == 0 {
		return 0, perClass
	}
	return sum / float64(len(indexes)), perClass
}

// MAP evaluates the dataset at a difficulty and returns the mean AP over
// classes plus the per-class values.
func MAP(ds *dataset.Dataset, dets Detections, diff dataset.Difficulty) (float64, map[dataset.Class]float64) {
	records, _ := pass(ds, dets, diff, 0, false)
	return meanAP(indexClasses(records, ds.Classes))
}

// indexClasses indexes the records of each class in classes, skipping
// classes without records.
func indexClasses(records map[dataset.Class]*ClassRecords, classes []dataset.Class) []*classIndex {
	indexes := make([]*classIndex, 0, len(classes))
	for _, c := range classes {
		if r := records[c]; r != nil {
			indexes = append(indexes, newClassIndex(r))
		}
	}
	return indexes
}
