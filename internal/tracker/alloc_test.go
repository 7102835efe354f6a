package tracker

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// driftScene synthesizes one frame of detections for a persistent set
// of objects drifting right, so tracks match frame after frame — the
// steady state the allocation budget is about.
func driftScene(frame int, n int) []geom.Scored {
	rng := rand.New(rand.NewSource(int64(frame)*131 + 7))
	dets := make([]geom.Scored, 0, n)
	for i := 0; i < n; i++ {
		x := 50 + float64(i)*90 + 2*float64(frame) + rng.Float64()
		y := 100 + 20*float64(i%3) + rng.Float64()
		dets = append(dets, geom.Scored{
			Box:   geom.NewBox(x, y, x+60, y+45),
			Score: 0.6 + 0.4*rng.Float64(),
			Class: i % 2,
		})
	}
	return dets
}

// TestObserveAllocBudget pins the steady-state allocation budget of the
// per-frame tracker update: once every object is tracked and the
// scratch buffers are warm, Observe + PredictAppend allocate nothing.
func TestObserveAllocBudget(t *testing.T) {
	trk := New(DefaultConfig(), 1242, 375)
	for f := 0; f < 10; f++ { // establish tracks, warm scratch
		trk.Observe(driftScene(f, 8))
	}
	scenes := make([][]geom.Scored, 101) // pre-generate: only tracker work is measured
	for i := range scenes {
		scenes[i] = driftScene(10+i, 8)
	}
	pred := make([]geom.Scored, 0, 16)
	i := 0
	n := testing.AllocsPerRun(100, func() {
		trk.Observe(scenes[i%len(scenes)])
		pred = trk.PredictAppend(pred[:0])
		i++
	})
	if n > 0 {
		t.Errorf("steady-state Observe+PredictAppend allocates %v per frame, want 0", n)
	}
	if len(pred) == 0 {
		t.Fatal("no predictions in steady state; scene not tracked")
	}
}

// churnScene is driftScene plus one short-lived object: a detection
// in a row of its own, at a new place every frame, so each frame
// spawns a track and the one spawned two frames earlier, missed twice,
// dies.
func churnScene(frame int) []geom.Scored {
	dets := driftScene(frame, 6)
	x := 40 + float64(frame%10)*120
	return append(dets, geom.Scored{Box: geom.NewBox(x, 300, x+50, 340), Score: 0.9, Class: 1})
}

// TestObserveChurnAllocBudget pins spawning at zero allocations: tracks
// spawn and die every frame, and once the population has peaked a
// spawn reuses the memory of a dead track.
func TestObserveChurnAllocBudget(t *testing.T) {
	trk := New(DefaultConfig(), 1242, 375)
	for f := 0; f < 20; f++ { // reach the peak population, warm scratch
		trk.Observe(churnScene(f))
	}
	scenes := make([][]geom.Scored, 101)
	for i := range scenes {
		scenes[i] = churnScene(20 + i)
	}
	pred := make([]geom.Scored, 0, 16)
	firstID, i := trk.nextID, 0
	n := testing.AllocsPerRun(100, func() {
		trk.Observe(scenes[i%len(scenes)])
		pred = trk.PredictAppend(pred[:0])
		i++
	})
	if spawned := trk.nextID - firstID; spawned < 100 {
		t.Fatalf("%d tracks spawned over 101 frames, want one or more per frame", spawned)
	}
	if live := len(trk.Tracks()); live > 12 {
		t.Fatalf("%d live tracks; the short-lived ones are not dying", live)
	}
	if n != 0 {
		t.Errorf("Observe+PredictAppend allocates %v per frame with tracks spawning and dying, want 0", n)
	}
}

// TestTrackReuseMatchesFresh steps two trackers through the churning
// scene, one of them Reset from an earlier run so its spawns reuse dead
// tracks, and requires identical tracks, IDs included, frame by frame.
func TestTrackReuseMatchesFresh(t *testing.T) {
	reused := New(DefaultConfig(), 1242, 375)
	for f := 0; f < 30; f++ {
		reused.Observe(churnScene(f + 7))
	}
	reused.Reset()
	fresh := New(DefaultConfig(), 1242, 375)
	for f := 0; f < 40; f++ {
		reused.Observe(churnScene(f))
		fresh.Observe(churnScene(f))
		a, b := reused.Tracks(), fresh.Tracks()
		if len(a) != len(b) {
			t.Fatalf("frame %d: %d tracks after reuse, %d fresh", f, len(a), len(b))
		}
		for k := range a {
			if *a[k] != *b[k] {
				t.Fatalf("frame %d track %d: %+v after reuse, fresh %+v", f, k, *a[k], *b[k])
			}
		}
	}
}

// TestPredictAppendMatchesPredict pins the append variant against the
// allocating one.
func TestPredictAppendMatchesPredict(t *testing.T) {
	trk := New(DefaultConfig(), 1242, 375)
	for f := 0; f < 6; f++ {
		trk.Observe(driftScene(f, 5))
	}
	want := trk.Predict()
	got := trk.PredictAppend(make([]geom.Scored, 0, 1))
	if len(got) != len(want) {
		t.Fatalf("PredictAppend returned %d predictions, Predict %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prediction %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestObserveMatchesReference replays the same detection stream through
// the optimized tracker and a fresh reference run and requires
// identical track state frame by frame — the flat cost matrix, solver
// reuse and sorted class iteration must not change a single float.
func TestObserveMatchesReference(t *testing.T) {
	run := func() []Track {
		trk := New(DefaultConfig(), 1242, 375)
		for f := 0; f < 40; f++ {
			n := 4 + f%5 // churn the population so tracks spawn and die
			trk.Observe(driftScene(f, n))
		}
		out := make([]Track, 0, len(trk.Tracks()))
		for _, tr := range trk.Tracks() {
			c := *tr
			out = append(out, c)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("track counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("track %d state differs across identical runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}
