package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/detector"
	"repro/internal/serve"
	"repro/internal/serve/cluster"
	"repro/internal/video"
)

// inputs returns what a workload instance feeds the program.
func inputs(t *testing.T, inst instance) any {
	t.Helper()
	switch in := inst.(type) {
	case *offline:
		return in.ds
	case *online[*serve.Result]:
		defer in.f.Close()
		return in.arrivals
	case *online[*cluster.Result]:
		defer in.f.Close()
		return in.arrivals
	}
	t.Fatalf("unexpected instance %T", inst)
	return nil
}

func TestWorkloadInputsArePureFunctionsOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			l := &ledger{}
			build := func(seed int64, workers int) any {
				inst, err := w.setup(seed, workers, l)
				if err != nil {
					t.Fatal(err)
				}
				return inputs(t, inst)
			}
			a, b := build(7, 2), build(7, 1)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("same seed gave different inputs")
			}
			if reflect.DeepEqual(a, build(8, 2)) {
				t.Fatal("different seeds gave the same inputs")
			}
		})
	}
}

func TestTailLevelHasTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{100, 90, true},
		{999, 95, true},
		{1000, 99, true},
		{8001, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		got, ok := tailLevel(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailLevel(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && tc.n-rank(got, tc.n) < 10 {
			t.Errorf("tailLevel(%d) = p%v leaves %d samples beyond", tc.n, got, tc.n-rank(got, tc.n))
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{50: 3, 20: 1, 21: 2, 99: 5, 100: 5} {
		if got := percentile(xs, q); got != want {
			t.Errorf("percentile(p%v) = %v, want %v", q, got, want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// spin burns CPU on the calling goroutine for about d.
func spin(d time.Duration) {
	start := cpuTime()
	for cpuTime()-start < d {
	}
}

type idle struct{}

func (idle) run(*ledger) (outcome, error) { return outcome{frames: 1, result: 1}, nil }

func TestCPUClockExcludesSetup(t *testing.T) {
	s, _, err := measure(func() (instance, error) {
		spin(200 * time.Millisecond)
		return idle{}, nil
	}, &ledger{})
	if err != nil {
		t.Fatal(err)
	}
	if s.setup < 150*time.Millisecond {
		t.Errorf("set-up measured %v, want about 200ms", s.setup)
	}
	if s.cpu > 50*time.Millisecond {
		t.Errorf("run phase charged %v of CPU; set-up leaked into it", s.cpu)
	}
}

func TestReplayMatchesCaTDet(t *testing.T) {
	ds := video.Generate(video.MiniKITTIPreset(), 3)
	real, err := kittiSpec.Build(ds.Classes)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	rp, err := newReplay(kittiSpec, ds.Classes, tr)
	if err != nil {
		t.Fatal(err)
	}
	l := &ledger{}
	c := &checked{replay: rp, real: real, l: l, seq: -1}
	for si := range ds.Sequences {
		seq := &ds.Sequences[si]
		c.Reset(seq)
		for fi := range seq.Frames {
			c.Step(frameOf(seq, fi))
		}
	}
	attempted, failed := l.totals()
	if attempted != ds.NumFrames() || failed != 0 {
		t.Fatalf("%d of %d frames differ", failed, attempted)
	}
	for _, self := range tr.selfTimes(spanStep) {
		if self < 0 {
			t.Fatalf("negative self time %v", self)
		}
	}
}

// benchmarkFile is the repository's BENCHMARK.json, as far as the
// program must agree with it.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, f.Workloads[i].Name, w.name)
		}
	}
	for _, set := range []struct {
		file []struct{ Name, Unit, Better string }
		prog []metricDef
	}{{f.EndToEnd, endToEnd}, {f.PerLayer, perLayer}} {
		if len(set.file) != len(set.prog) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(set.file), len(set.prog))
		}
		for i, d := range set.prog {
			m := set.file[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
			}
		}
	}
}

func frameOf(seq *dataset.Sequence, fi int) detector.Frame {
	return detector.Frame{
		SeqID: seq.ID, Index: fi, Width: seq.Width, Height: seq.Height,
		Objects: seq.Frames[fi].Objects,
	}
}

// TestRefKernelIsFrozen pins the reference kernel's result: an edit
// that changes its work would silently change what a reference second
// is, and make figures incomparable across commits.
func TestRefKernelIsFrozen(t *testing.T) {
	before := refSink
	refKernel()
	if got, want := refSink-before, 2.846720742874869e+06; got != want {
		t.Fatalf("reference kernel result %v, want %v", got, want)
	}
}
