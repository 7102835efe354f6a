package sim

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/geom"
	"repro/internal/video"
)

// TestParallelMatchesSerial is the engine's determinism contract: the
// sharded parallel runner must reproduce the serial Run bit for bit at
// every worker count, because both paths accumulate per-sequence shards
// and merge them in dataset order.
func TestParallelMatchesSerial(t *testing.T) {
	ds := video.Generate(video.MiniKITTIPreset(), 1)
	spec := SystemSpec{Kind: CaTDet, Proposal: "resnet10a", Refinement: "resnet50", Cfg: core.DefaultConfig()}
	serial := Run(spec.MustBuild(ds.Classes), ds)

	for _, workers := range []int{1, 2, 8} {
		par, err := RunParallel(spec.Factory(ds.Classes), ds, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.SystemName != serial.SystemName || par.Dataset != serial.Dataset {
			t.Errorf("workers=%d: identity mismatch: %q/%q vs %q/%q",
				workers, par.SystemName, par.Dataset, serial.SystemName, serial.Dataset)
		}
		if par.Frames != serial.Frames {
			t.Errorf("workers=%d: frames = %d, want %d", workers, par.Frames, serial.Frames)
		}
		if par.TotalOps != serial.TotalOps {
			t.Errorf("workers=%d: TotalOps = %+v, want %+v", workers, par.TotalOps, serial.TotalOps)
		}
		if par.AvgProposals != serial.AvgProposals {
			t.Errorf("workers=%d: AvgProposals = %v, want %v", workers, par.AvgProposals, serial.AvgProposals)
		}
		if par.AvgCoverage != serial.AvgCoverage {
			t.Errorf("workers=%d: AvgCoverage = %v, want %v", workers, par.AvgCoverage, serial.AvgCoverage)
		}
		if !reflect.DeepEqual(par.Detections, serial.Detections) {
			t.Errorf("workers=%d: detections differ from serial run", workers)
		}
	}
}

// TestParallelStatelessSystems checks the engine on the other two
// architectures too: the single-model detector (stateless) and the
// plain cascade.
func TestParallelStatelessSystems(t *testing.T) {
	ds := video.Generate(video.MiniKITTIPreset(), 1)
	for _, spec := range []SystemSpec{
		{Kind: Single, Refinement: "resnet10b"},
		{Kind: Cascaded, Proposal: "resnet10b", Refinement: "resnet18", Cfg: core.DefaultConfig()},
	} {
		serial := Run(spec.MustBuild(ds.Classes), ds)
		par := Engine{Workers: 4}.MustRun(spec, ds)
		if !reflect.DeepEqual(par, serial) {
			t.Errorf("%s %s: parallel result differs from serial", spec.Kind, spec.Refinement)
		}
	}
}

// TestRunFactoryError verifies that a broken factory surfaces as an
// error before any work is scheduled.
func TestRunFactoryError(t *testing.T) {
	ds := video.Generate(video.MiniKITTIPreset(), 1)
	if _, err := (Engine{Workers: 4}).Run(SystemSpec{Kind: Single, Refinement: "nope"}, ds); err == nil {
		t.Fatal("expected build error for unknown model")
	}
}

// TestEngineTable7MatchesSerial pins the sharded Table 7 path to the
// single-worker result.
func TestEngineTable7MatchesSerial(t *testing.T) {
	ds := video.Generate(video.MiniKITTIPreset(), 1)
	serial := Engine{Workers: 1}.Table7(ds)
	par := Engine{Workers: 8}.Table7(ds)
	if !reflect.DeepEqual(par, serial) {
		t.Errorf("Table7 parallel = %+v, want %+v", par, serial)
	}
}

// freshCopies wraps a System and hands each Step's detections out as a
// freshly allocated slice, nil kept nil: the ownership rule before
// FrameOutput.Detections became per-system scratch.
type freshCopies struct{ core.System }

func (f freshCopies) Step(fr detector.Frame) core.FrameOutput {
	out := f.System.Step(fr)
	if out.Detections != nil {
		out.Detections = append(make([]geom.Scored, 0, len(out.Detections)), out.Detections...)
	}
	return out
}

// TestRunOutputSurvivesLaterSteps pins the other side of the scratch
// ownership rule: Step's detections are valid only until the next
// Step, so Run keeps its own copy. A result must not change when the
// same system steps more frames afterwards, and it must equal the
// result of a system handing out a fresh slice per frame, empty
// frames included.
func TestRunOutputSurvivesLaterSteps(t *testing.T) {
	ds := video.Generate(video.MiniKITTIPreset(), 1)
	for _, spec := range []SystemSpec{
		{Kind: Single, Refinement: "resnet10b"},
		{Kind: Cascaded, Proposal: "resnet10b", Refinement: "resnet18", Cfg: core.DefaultConfig()},
		{Kind: CaTDet, Proposal: "resnet10a", Refinement: "resnet50", Cfg: core.DefaultConfig()},
	} {
		sys := spec.MustBuild(ds.Classes)
		got := Run(sys, ds)
		want := Run(freshCopies{spec.MustBuild(ds.Classes)}, ds)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Run differs from the fresh-slice run", spec.Kind)
		}
		for _, frames := range got.Detections {
			for _, dets := range frames {
				if dets == nil {
					t.Fatalf("%s: a frame's detections are nil; Step never returns nil", spec.Kind)
				}
			}
		}
		Run(sys, video.Generate(video.MiniKITTIPreset(), 2)) // reuses every scratch buffer
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Run's result changed when the system stepped later frames", spec.Kind)
		}
	}
}
