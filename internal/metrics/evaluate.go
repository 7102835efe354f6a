package metrics

import (
	"math"

	"repro/internal/dataset"
)

// Evaluation bundles the metric outcomes the tables report.
type Evaluation struct {
	MAP        float64
	PerClassAP map[dataset.Class]float64

	// MeanDelay is mD@Beta; NaN when the dataset cannot support delay
	// measurement (sparse labels, Section 7.1).
	MeanDelay     float64
	PerClassDelay map[dataset.Class]float64
	Threshold     float64
	Beta          float64
}

// Evaluate computes mAP and, for densely labeled datasets, mD@beta at a
// difficulty from one matching pass: each labeled frame is matched once,
// and each class's records are sorted once for both AP and the Eq. 5
// threshold. The results equal those of MAP and MeanDelayAtPrecision.
func Evaluate(ds *dataset.Dataset, dets Detections, diff dataset.Difficulty, beta float64) Evaluation {
	dense := ds.NumFrames() > 0 && ds.NumLabeledFrames() == ds.NumFrames()
	records, tracks := pass(ds, dets, diff, 0, dense)
	indexes := indexClasses(records, ds.Classes)
	ev := Evaluation{Beta: beta, MeanDelay: math.NaN()}
	ev.MAP, ev.PerClassAP = meanAP(indexes)
	if dense {
		ev.Threshold = threshold(indexes, beta)
		ev.MeanDelay, ev.PerClassDelay = MeanDelay(tracks, ds.Classes, ev.Threshold)
	}
	return ev
}
