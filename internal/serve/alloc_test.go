package serve

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/serve/sched"
	"repro/internal/sim"
	"repro/internal/video"
)

// steadyShape is a server shaped like the repo benchmark's serve-steady
// workload: 8 KITTI-sim streams with Poisson arrivals at 10 fps, 12
// executors (utilisation about 0.63, no drops), FIFO, batch 1, every
// frame stepped and priced.
func steadyShape() Config {
	return Config{
		Spec: sim.SystemSpec{
			Kind: sim.CaTDet, Proposal: "resnet10a", Refinement: "resnet50", Cfg: core.DefaultConfig(),
		},
		Preset: video.KITTIPreset(), Seed: 5,
		Streams: 8, FPS: 10, Arrivals: Poisson, Duration: 60,
		Executors: 12, Scheduler: sched.FIFO, BatchSize: 1,
		StepWorkers: 1,
	}
}

// TestSubmitSteadyStateAllocs pins the serving engine's steady state at
// zero allocations per Submit: the arrival's agenda push and pop, the
// scheduler, the world growth, the detection step, the tracker and the
// GPU pricing all reuse memory once the server is warm. What is left
// is amortised growth: a world takes a 32 KiB slab of objects every
// few dozen frames, per-stream frame and latency records double now
// and then, and scratch grows when a frame is more crowded than any
// before. testing.AllocsPerRun reports the integer mean, so the window
// after it is also counted whole: at most one allocation per ten
// submissions.
func TestSubmitSteadyStateAllocs(t *testing.T) {
	srv, err := New(steadyShape())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var arrivals []Arrival
	for src := ScheduleSource(srv.Config()); ; {
		a, ok := src.Next()
		if !ok {
			break
		}
		arrivals = append(arrivals, a)
	}
	const warm, runs = 1500, 1000
	if len(arrivals) < warm+2*runs+1 {
		t.Fatalf("schedule has %d arrivals, want more than %d", len(arrivals), warm+2*runs)
	}
	i := 0
	submit := func() {
		a := arrivals[i]
		i++
		if err := srv.Submit(a.Stream, a.Frame, a.At); err != nil {
			t.Fatal(err)
		}
	}
	for i < warm {
		submit()
	}
	if n := testing.AllocsPerRun(runs, submit); n != 0 {
		t.Errorf("Submit allocates %v per call at steady state, want 0", n)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for k := 0; k < runs; k++ {
		submit()
	}
	runtime.ReadMemStats(&ms)
	if n := ms.Mallocs - before; n > runs/10 {
		t.Errorf("%d steady-state Submits allocate %d times, want at most %d", runs, n, runs/10)
	}
}
