package metrics_test

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/video"
)

// fixture is one fixed system run, evaluated by the tests and the
// benchmark below.
type fixture struct {
	ds   *dataset.Dataset
	dets metrics.Detections
}

var (
	fixtureOnce       sync.Once
	kittiRun, cityRun fixture
)

// runs returns a CaTDet run on a reduced KITTI-sim (dense labels) and
// on a reduced CityPersons-sim (one labeled frame in 30, so no delay).
func runs() (kitti, city fixture) {
	fixtureOnce.Do(func() {
		spec := sim.SystemSpec{Kind: sim.CaTDet, Proposal: "resnet10a", Refinement: "resnet50", Cfg: core.DefaultConfig()}
		run := func(p video.Preset) fixture {
			ds := video.Generate(p, 1)
			return fixture{ds: ds, dets: sim.Run(spec.MustBuild(ds.Classes), ds).Detections}
		}
		kp := video.KITTIPreset()
		kp.NumSequences, kp.FramesPerSeq = 4, 250
		kittiRun = run(kp)
		cp := video.CityPersonsPreset()
		cp.NumSequences = 40
		cityRun = run(cp)
	})
	return kittiRun, cityRun
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func samePerClass(a, b map[dataset.Class]float64) bool {
	return maps.EqualFunc(a, b, sameBits)
}

func sameRecords(got, want map[dataset.Class]*metrics.ClassRecords) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d classes, want %d", len(got), len(want))
	}
	for c, w := range want {
		g := got[c]
		if g == nil || g.Class != w.Class || g.NumGT != w.NumGT || !slices.Equal(g.Records, w.Records) {
			return fmt.Errorf("class %v records differ", c)
		}
	}
	return nil
}

func sameTracks(got, want []*metrics.TrackObservation) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d tracks, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.SeqID != w.SeqID || g.TrackID != w.TrackID || g.Class != w.Class ||
			g.FirstEligible != w.FirstEligible || g.LastFrame != w.LastFrame ||
			!maps.EqualFunc(g.FrameScores, w.FrameScores, sameBits) {
			return fmt.Errorf("track %d (%s/%d) differs", i, w.SeqID, w.TrackID)
		}
	}
	return nil
}

// diffReference compares every metric entry point against the
// reference implementations and returns the first difference.
func diffReference(ds *dataset.Dataset, dets metrics.Detections, diff dataset.Difficulty, iou, beta float64) error {
	records := metrics.Collect(ds, dets, diff)
	ref := refCollectAtIoU(ds, dets, diff, 0)
	if err := sameRecords(records, ref); err != nil {
		return fmt.Errorf("Collect: %v", err)
	}
	if err := sameRecords(metrics.CollectAtIoU(ds, dets, diff, iou), refCollectAtIoU(ds, dets, diff, iou)); err != nil {
		return fmt.Errorf("CollectAtIoU(%v): %v", iou, err)
	}
	refTracks := refCollectTracks(ds, dets, diff)
	if err := sameTracks(metrics.CollectTracks(ds, dets, diff), refTracks); err != nil {
		return fmt.Errorf("CollectTracks: %v", err)
	}
	for _, c := range ds.Classes {
		r := records[c]
		if !slices.Equal(r.PRCurve(), refPRCurve(ref[c])) {
			return fmt.Errorf("PRCurve(%v) differs", c)
		}
		if !sameBits(r.AP(), refAP(ref[c])) {
			return fmt.Errorf("AP(%v) = %v, want %v", c, r.AP(), refAP(ref[c]))
		}
		targets := []float64{0.5, 0.7, 0.9, 0.95}
		if !slices.Equal(metrics.DelayRecallCurve(ds, dets, diff, c, targets),
			refDelayRecallCurve(ds, dets, diff, c, targets)) {
			return fmt.Errorf("DelayRecallCurve(%v) differs", c)
		}
	}
	mAP, perClassAP := metrics.MAP(ds, dets, diff)
	refMAPv, refPerClassAP := refMAP(ds, dets, diff)
	if !sameBits(mAP, refMAPv) || !samePerClass(perClassAP, refPerClassAP) {
		return fmt.Errorf("MAP = %v %v, want %v %v", mAP, perClassAP, refMAPv, refPerClassAP)
	}
	refT := refThresholdForMeanPrecision(ref, ds.Classes, beta)
	if t := metrics.ThresholdForMeanPrecision(records, ds.Classes, beta); !sameBits(t, refT) {
		return fmt.Errorf("ThresholdForMeanPrecision = %v, want %v", t, refT)
	}
	md, perClassMD, t := metrics.MeanDelayAtPrecision(ds, dets, diff, beta)
	refMD, refPerClassMD, _ := refMeanDelayAtPrecision(ds, dets, diff, beta)
	if !sameBits(md, refMD) || !samePerClass(perClassMD, refPerClassMD) || !sameBits(t, refT) {
		return fmt.Errorf("MeanDelayAtPrecision = %v %v %v, want %v %v %v", md, perClassMD, t, refMD, refPerClassMD, refT)
	}
	exit, perClassExit, t := metrics.MeanExitDelayAtPrecision(ds, dets, diff, beta)
	refExit, refPerClassExit := metrics.MeanExitDelay(refTracks, ds.Classes, refT)
	if !sameBits(exit, refExit) || !samePerClass(perClassExit, refPerClassExit) || !sameBits(t, refT) {
		return fmt.Errorf("MeanExitDelayAtPrecision = %v %v %v, want %v %v %v", exit, perClassExit, t, refExit, refPerClassExit, refT)
	}

	ev := metrics.Evaluate(ds, dets, diff, beta)
	if !sameBits(ev.MAP, refMAPv) || !samePerClass(ev.PerClassAP, refPerClassAP) || ev.Beta != beta {
		return fmt.Errorf("Evaluate mAP = %v %v, want %v %v", ev.MAP, ev.PerClassAP, refMAPv, refPerClassAP)
	}
	if ds.NumFrames() > 0 && ds.NumLabeledFrames() == ds.NumFrames() {
		if !sameBits(ev.MeanDelay, refMD) || !samePerClass(ev.PerClassDelay, refPerClassMD) || !sameBits(ev.Threshold, refT) {
			return fmt.Errorf("Evaluate mD = %v %v %v, want %v %v %v",
				ev.MeanDelay, ev.PerClassDelay, ev.Threshold, refMD, refPerClassMD, refT)
		}
	} else if !math.IsNaN(ev.MeanDelay) || ev.PerClassDelay != nil || ev.Threshold != 0 {
		return fmt.Errorf("Evaluate on sparse labels reported a delay: %v %v %v", ev.MeanDelay, ev.PerClassDelay, ev.Threshold)
	}
	return nil
}

// The single matching pass reproduces the three-pass evaluation it
// replaced, bit for bit, on full system runs at every difficulty.
func TestPassMatchesReference(t *testing.T) {
	kitti, city := runs()
	for _, fx := range []struct {
		name string
		fixture
	}{{"kitti-sim", kitti}, {"citypersons-sim", city}} {
		for _, diff := range dataset.Difficulties() {
			if err := diffReference(fx.ds, fx.dets, diff, 0.5, 0.8); err != nil {
				t.Errorf("%s %v: %v", fx.name, diff, err)
			}
		}
	}
}

// randomWorld builds a small dataset with moving tracks of both
// classes and a detection set that exercises every branch of the
// matcher: tied scores, detections of classes with no ground truth in
// the frame, detections on don't-care objects, detections below the
// minimum height, frames with no eligible ground truth, unlabeled
// frames, missing detection lists and track IDs that two objects share.
func randomWorld(rng *rand.Rand) (*dataset.Dataset, metrics.Detections) {
	ds := &dataset.Dataset{Name: "quick", Classes: []dataset.Class{dataset.Car, dataset.Pedestrian}}
	if rng.Intn(4) == 0 {
		ds.Classes = []dataset.Class{dataset.Car}
	}
	dets := metrics.Detections{}
	dense := rng.Intn(2) == 0
	// Tied scores, plus scores far outside (0, 1) so that every byte of
	// the radix sort's keys varies.
	scores := []float64{0.2, 0.5, 0.5, 0.8, 0.9, 0.9}
	extremes := []float64{0, 3e-200, 1e-9, 1, 2.5, 1e12, -0.5, -1e-30}
	score := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return extremes[rng.Intn(len(extremes))]
		case 1, 2, 3:
			return scores[rng.Intn(len(scores))]
		}
		return rng.Float64()
	}
	jitter := func(b geom.Box, s float64) geom.Box {
		return b.Translate(s*(rng.Float64()-0.5)*b.Width(), s*(rng.Float64()-0.5)*b.Height())
	}
	for si, nseq := 0, 1+rng.Intn(3); si < nseq; si++ {
		type track struct {
			obj        dataset.Object
			from, to   int
			dx, growth float64
		}
		nframes := 1 + rng.Intn(12)
		var tracks []track
		for id, n := 0, rng.Intn(6); id < n; id++ {
			w, h := 10+rng.Float64()*60, 10+rng.Float64()*70
			x, y := rng.Float64()*400, rng.Float64()*200
			from := rng.Intn(nframes)
			tid := id
			if id > 0 && rng.Intn(5) == 0 {
				tid = rng.Intn(id) // shared with an earlier track
			}
			tracks = append(tracks, track{
				obj: dataset.Object{
					TrackID: tid, Class: dataset.Class(rng.Intn(int(dataset.NumClasses))),
					Box:       geom.NewBox(x, y, x+w, y+h),
					Occlusion: rng.Intn(3), Truncation: rng.Float64() * 0.6,
				},
				from: from, to: from + rng.Intn(nframes-from),
				dx: rng.Float64()*8 - 4, growth: 1 + rng.Float64()*0.1,
			})
		}
		seq := dataset.Sequence{ID: fmt.Sprintf("s%d", si), Width: 600, Height: 400, FPS: 10}
		frames := make([][]geom.Scored, nframes)
		for fi := 0; fi < nframes; fi++ {
			fr := dataset.Frame{Index: fi, Labeled: dense || rng.Intn(3) > 0}
			for _, tr := range tracks {
				if fi < tr.from || fi > tr.to {
					continue
				}
				o := tr.obj
				k := float64(fi - tr.from)
				o.Box = o.Box.Translate(k*tr.dx, 0)
				o.Box.Y2 = o.Box.Y1 + o.Box.Height()*math.Pow(tr.growth, k)
				fr.Objects = append(fr.Objects, o)
				// Near-duplicates and loose localisations of the object,
				// some with the wrong class.
				for n := rng.Intn(3); n > 0; n-- {
					class := int(o.Class)
					if rng.Intn(5) == 0 {
						class = 1 - class
					}
					frames[fi] = append(frames[fi], geom.Scored{Box: jitter(o.Box, 0.4*rng.Float64()), Score: score(), Class: class})
				}
			}
			// Background false positives, some below every minimum height.
			for n := rng.Intn(3); n > 0; n-- {
				x, y := rng.Float64()*500, rng.Float64()*300
				w, h := 8+rng.Float64()*60, 8+rng.Float64()*60
				frames[fi] = append(frames[fi], geom.Scored{
					Box: geom.NewBox(x, y, x+w, y+h), Score: score(), Class: rng.Intn(int(dataset.NumClasses)),
				})
			}
			seq.Frames = append(seq.Frames, fr)
		}
		switch rng.Intn(6) {
		case 0: // no detections for the sequence
		case 1:
			dets[seq.ID] = frames[:rng.Intn(nframes)]
		default:
			dets[seq.ID] = frames
		}
		ds.Sequences = append(ds.Sequences, seq)
	}
	return ds, dets
}

// Property: on random worlds, every metric entry point equals the
// reference at every difficulty.
func TestPassMatchesReferenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds, dets := randomWorld(rng)
		diff := dataset.Difficulties()[rng.Intn(3)]
		iou := []float64{0.5, 0.7, 0.95}[rng.Intn(3)]
		beta := []float64{0.5, 0.8, 0.99}[rng.Intn(3)]
		if err := diffReference(ds, dets, diff, iou, beta); err != nil {
			t.Logf("seed %d, %v: %v", seed, diff, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Evaluate's allocations are the records, indexes and track
// observations it returns: fewer than one per labeled frame.
func TestEvaluateAllocs(t *testing.T) {
	kitti, _ := runs()
	frames := kitti.ds.NumLabeledFrames()
	allocs := testing.AllocsPerRun(3, func() {
		metrics.Evaluate(kitti.ds, kitti.dets, dataset.Hard, 0.8)
	})
	t.Logf("%.0f allocs for %d labeled frames (%.2f per frame)", allocs, frames, allocs/float64(frames))
	if allocs >= float64(frames) {
		t.Fatalf("Evaluate made %.0f allocations for %d labeled frames, want fewer than one per frame", allocs, frames)
	}
}

var evalSink metrics.Evaluation

// BenchmarkEvaluate is mAP plus mD@0.8 at Hard over one fixed KITTI-sim
// run (4 sequences x 250 frames).
func BenchmarkEvaluate(b *testing.B) {
	kitti, _ := runs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evalSink = metrics.Evaluate(kitti.ds, kitti.dets, dataset.Hard, 0.8)
	}
	b.ReportMetric(evalSink.MAP, "mAP")
	b.ReportMetric(evalSink.MeanDelay, "mD_frames")
}
