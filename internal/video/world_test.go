package video

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

func TestGenerateDeterministic(t *testing.T) {
	p := MiniKITTIPreset()
	a := Generate(p, 42)
	b := Generate(p, 42)
	if a.NumObjects() != b.NumObjects() || a.NumFrames() != b.NumFrames() {
		t.Fatal("same seed produced different datasets")
	}
	for si := range a.Sequences {
		for fi := range a.Sequences[si].Frames {
			fa, fb := a.Sequences[si].Frames[fi], b.Sequences[si].Frames[fi]
			if len(fa.Objects) != len(fb.Objects) {
				t.Fatalf("seq %d frame %d object count differs", si, fi)
			}
			for oi := range fa.Objects {
				if fa.Objects[oi] != fb.Objects[oi] {
					t.Fatalf("seq %d frame %d object %d differs", si, fi, oi)
				}
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	p := MiniKITTIPreset()
	a := Generate(p, 1)
	b := Generate(p, 2)
	if a.NumObjects() == b.NumObjects() {
		// Counts could coincide; compare first non-empty frame contents.
		same := true
	outer:
		for si := range a.Sequences {
			for fi := range a.Sequences[si].Frames {
				fa, fb := a.Sequences[si].Frames[fi], b.Sequences[si].Frames[fi]
				if len(fa.Objects) != len(fb.Objects) {
					same = false
					break outer
				}
				for oi := range fa.Objects {
					if fa.Objects[oi] != fb.Objects[oi] {
						same = false
						break outer
					}
				}
			}
		}
		if same {
			t.Fatal("different seeds produced identical datasets")
		}
	}
}

func TestGeneratedDatasetValidates(t *testing.T) {
	d := Generate(MiniKITTIPreset(), 7)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestKITTIPresetShape(t *testing.T) {
	p := KITTIPreset()
	if p.NumSequences != 21 {
		t.Fatalf("KITTI sequences = %d, want 21", p.NumSequences)
	}
	total := p.NumSequences * p.FramesPerSeq
	if total < 7800 || total > 8200 {
		t.Fatalf("KITTI total frames = %d, want ~8008", total)
	}
	if p.Width != 1242 || p.Height != 375 {
		t.Fatalf("KITTI resolution = %dx%d", p.Width, p.Height)
	}
}

func TestKITTIPopulationStatistics(t *testing.T) {
	p := KITTIPreset()
	p.NumSequences = 4
	d := Generate(p, 3)
	frames, objects := 0, 0
	perClass := map[dataset.Class]int{}
	for si := range d.Sequences {
		for fi := range d.Sequences[si].Frames {
			frames++
			objects += len(d.Sequences[si].Frames[fi].Objects)
			for _, o := range d.Sequences[si].Frames[fi].Objects {
				perClass[o.Class]++
			}
		}
	}
	mean := float64(objects) / float64(frames)
	if mean < 2 || mean > 14 {
		t.Fatalf("mean objects/frame = %.2f, want a busy but plausible street scene", mean)
	}
	if perClass[dataset.Car] <= perClass[dataset.Pedestrian] {
		t.Fatalf("cars (%d) should outnumber pedestrians (%d) in the KITTI world",
			perClass[dataset.Car], perClass[dataset.Pedestrian])
	}
}

func TestObjectsStayWithinFrame(t *testing.T) {
	p := MiniKITTIPreset()
	d := Generate(p, 11)
	frame := geom.NewBox(0, 0, float64(p.Width), float64(p.Height))
	for si := range d.Sequences {
		for fi := range d.Sequences[si].Frames {
			for _, o := range d.Sequences[si].Frames[fi].Objects {
				if !frame.ContainsBox(o.Box) {
					t.Fatalf("seq %d frame %d: box %v outside frame", si, fi, o.Box)
				}
			}
		}
	}
}

// Temporal coherence is what CaTDet exploits: the same track in adjacent
// frames must overlap substantially most of the time.
func TestTemporalCoherence(t *testing.T) {
	p := MiniKITTIPreset()
	d := Generate(p, 5)
	var ious []float64
	for si := range d.Sequences {
		seq := &d.Sequences[si]
		for fi := 1; fi < len(seq.Frames); fi++ {
			prev := map[int]geom.Box{}
			for _, o := range seq.Frames[fi-1].Objects {
				prev[o.TrackID] = o.Box
			}
			for _, o := range seq.Frames[fi].Objects {
				if pb, ok := prev[o.TrackID]; ok {
					ious = append(ious, geom.IoU(pb, o.Box))
				}
			}
		}
	}
	if len(ious) < 100 {
		t.Fatalf("too few adjacent-frame pairs: %d", len(ious))
	}
	sum, positive := 0.0, 0
	for _, v := range ious {
		sum += v
		if v > 0.3 {
			positive++
		}
	}
	meanIoU := sum / float64(len(ious))
	fracCoherent := float64(positive) / float64(len(ious))
	if meanIoU < 0.5 {
		t.Fatalf("mean adjacent-frame IoU = %.3f, want >= 0.5", meanIoU)
	}
	if fracCoherent < 0.85 {
		t.Fatalf("only %.0f%% of adjacent-frame pairs overlap > 0.3", 100*fracCoherent)
	}
}

// Tracks must persist: delay measurement needs multi-frame lifetimes.
func TestTrackLifetimes(t *testing.T) {
	p := MiniKITTIPreset()
	d := Generate(p, 9)
	total, count := 0, 0
	for si := range d.Sequences {
		for _, span := range d.Sequences[si].Tracks() {
			total += span.LastFrame - span.FirstFrame + 1
			count++
		}
	}
	if count == 0 {
		t.Fatal("no tracks generated")
	}
	mean := float64(total) / float64(count)
	if mean < 10 {
		t.Fatalf("mean track lifetime = %.1f frames, too short for delay evaluation", mean)
	}
}

// New tracks must keep appearing mid-sequence (the delay metric measures
// time-to-first-detection of *new* objects).
func TestNewTracksAppearMidSequence(t *testing.T) {
	p := MiniKITTIPreset()
	d := Generate(p, 13)
	lateStarts := 0
	for si := range d.Sequences {
		for _, span := range d.Sequences[si].Tracks() {
			if span.FirstFrame > 10 {
				lateStarts++
			}
		}
	}
	if lateStarts < 10 {
		t.Fatalf("only %d tracks start after frame 10; the world is too static", lateStarts)
	}
}

// Objects entering at the horizon must grow over their lifetime, so that
// weak detectors detect them late — the mechanism behind the paper's
// delay differences.
func TestApproachingObjectsGrow(t *testing.T) {
	p := MiniKITTIPreset()
	d := Generate(p, 21)
	grew, shrank := 0, 0
	for si := range d.Sequences {
		seq := &d.Sequences[si]
		first := map[int]float64{}
		last := map[int]float64{}
		for fi := range seq.Frames {
			for _, o := range seq.Frames[fi].Objects {
				if _, ok := first[o.TrackID]; !ok {
					first[o.TrackID] = o.Box.Height()
				}
				last[o.TrackID] = o.Box.Height()
			}
		}
		for id := range first {
			if last[id] > first[id]*1.2 {
				grew++
			} else if last[id] < first[id]*0.8 {
				shrank++
			}
		}
	}
	if grew == 0 {
		t.Fatal("no tracks grew; horizon-entry growth model broken")
	}
	if grew < shrank {
		t.Fatalf("grew=%d < shrank=%d; forward-driving world should mostly grow", grew, shrank)
	}
}

func TestOcclusionEpisodesOccur(t *testing.T) {
	p := KITTIPreset()
	p.NumSequences = 4
	d := Generate(p, 17)
	occ := map[int]int{}
	for si := range d.Sequences {
		for fi := range d.Sequences[si].Frames {
			for _, o := range d.Sequences[si].Frames[fi].Objects {
				occ[o.Occlusion]++
			}
		}
	}
	if occ[dataset.PartlyOccluded] == 0 || occ[dataset.LargelyOccluded] == 0 {
		t.Fatalf("occlusion histogram %v lacks episodes", occ)
	}
	totalOcc := occ[dataset.PartlyOccluded] + occ[dataset.LargelyOccluded]
	frac := float64(totalOcc) / float64(totalOcc+occ[dataset.FullyVisible])
	if frac < 0.02 || frac > 0.5 {
		t.Fatalf("occluded fraction = %.3f, implausible", frac)
	}
}

func TestTruncationAtBoundary(t *testing.T) {
	p := MiniKITTIPreset()
	d := Generate(p, 23)
	truncated := 0
	for si := range d.Sequences {
		for fi := range d.Sequences[si].Frames {
			for _, o := range d.Sequences[si].Frames[fi].Objects {
				if o.Truncation > 0.05 {
					truncated++
					// A truncated object must touch the boundary.
					b := o.Box
					touches := b.X1 <= 1 || b.Y1 <= 1 ||
						b.X2 >= float64(p.Width)-1 || b.Y2 >= float64(p.Height)-1
					if !touches {
						t.Fatalf("truncated object %v not at boundary", o)
					}
				}
			}
		}
	}
	if truncated == 0 {
		t.Fatal("no truncated objects; edge entries broken")
	}
}

func TestCityPersonsSparseLabeling(t *testing.T) {
	p := CityPersonsPreset()
	p.NumSequences = 5
	d := Generate(p, 31)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	for si := range d.Sequences {
		for fi := range d.Sequences[si].Frames {
			f := d.Sequences[si].Frames[fi]
			wantLabeled := fi == 19
			if f.Labeled != wantLabeled {
				t.Fatalf("seq %d frame %d labeled=%v, want %v", si, fi, f.Labeled, wantLabeled)
			}
		}
	}
	if d.NumLabeledFrames() != 5 {
		t.Fatalf("labeled frames = %d, want 5", d.NumLabeledFrames())
	}
	// Person-only dataset.
	for si := range d.Sequences {
		for fi := range d.Sequences[si].Frames {
			for _, o := range d.Sequences[si].Frames[fi].Objects {
				if o.Class != dataset.Pedestrian {
					t.Fatalf("CityPersons world contains class %v", o.Class)
				}
			}
		}
	}
}

func TestCityPersonsHarderThanKITTI(t *testing.T) {
	kp := KITTIPreset()
	kp.NumSequences = 3
	cp := CityPersonsPreset()
	cp.NumSequences = 40
	kitti := Generate(kp, 1)
	city := Generate(cp, 1)

	smallFrac := func(d *dataset.Dataset, h float64, class dataset.Class) float64 {
		small, total := 0, 0
		for si := range d.Sequences {
			for fi := range d.Sequences[si].Frames {
				for _, o := range d.Sequences[si].Frames[fi].Objects {
					if o.Class != class {
						continue
					}
					total++
					if o.Box.Height() < h {
						small++
					}
				}
			}
		}
		if total == 0 {
			return math.NaN()
		}
		return float64(small) / float64(total)
	}
	// CityPersons pedestrians: denser occlusion (fraction occluded).
	occFrac := func(d *dataset.Dataset) float64 {
		occ, total := 0, 0
		for si := range d.Sequences {
			for fi := range d.Sequences[si].Frames {
				for _, o := range d.Sequences[si].Frames[fi].Objects {
					if o.Class != dataset.Pedestrian {
						continue
					}
					total++
					if o.Occlusion > 0 {
						occ++
					}
				}
			}
		}
		if total == 0 {
			return math.NaN()
		}
		return float64(occ) / float64(total)
	}
	if o1, o2 := occFrac(city), occFrac(kitti); !(o1 > o2) {
		t.Fatalf("CityPersons occlusion %.3f should exceed KITTI %.3f", o1, o2)
	}
	_ = smallFrac
}

func TestPoissonMean(t *testing.T) {
	p := MiniKITTIPreset()
	_ = p
	// poisson() is internal; exercise through spawn statistics instead:
	// expected spawns per frame ~ sum of rates.
	kp := KITTIPreset()
	kp.NumSequences = 6
	d := Generate(kp, 99)
	tracks := 0
	for si := range d.Sequences {
		tracks += len(d.Sequences[si].Tracks())
	}
	frames := d.NumFrames()
	rate := float64(tracks) / float64(frames)
	wantRate := 0.0
	for _, c := range kp.Classes {
		wantRate += c.SpawnRate
	}
	// Warm-up population and boundary deaths blur this; accept 2x band.
	if rate < wantRate/2 || rate > wantRate*2.5 {
		t.Fatalf("observed track birth rate %.3f vs configured %.3f", rate, wantRate)
	}
}

// TestRescaleSameRateIdentical pins the byte-identity contract the
// serving layer relies on: rescaling a preset to its own native rate
// (or to a non-positive one) is a no-op, so same-rate worlds never
// move.
func TestRescaleSameRateIdentical(t *testing.T) {
	p := MiniKITTIPreset()
	a := Generate(p, 7)
	b := Generate(p.Rescale(p.FPS), 7)
	c := Generate(p.Rescale(0), 7)
	for _, other := range []*dataset.Dataset{b, c} {
		for si := range a.Sequences {
			fa, fo := a.Sequences[si].Frames, other.Sequences[si].Frames
			if len(fa) != len(fo) {
				t.Fatalf("seq %d frame count differs", si)
			}
			for fi := range fa {
				if len(fa[fi].Objects) != len(fo[fi].Objects) {
					t.Fatalf("seq %d frame %d differs after no-op rescale", si, fi)
				}
				for oi := range fa[fi].Objects {
					if fa[fi].Objects[oi] != fo[fi].Objects[oi] {
						t.Fatalf("seq %d frame %d object %d differs after no-op rescale", si, fi, oi)
					}
				}
			}
		}
	}
}

// TestGeneratePrefixStable pins the grow-on-demand property of the
// serving layer's lazy worlds: generating a longer sequence keeps every
// earlier frame byte-identical, so a world can be extended mid-run.
func TestGeneratePrefixStable(t *testing.T) {
	p := MiniKITTIPreset()
	short := GenerateSequence(p, 7, 1)
	p.FramesPerSeq *= 3
	long := GenerateSequence(p, 7, 1)
	for fi := range short.Frames {
		fs, fl := short.Frames[fi], long.Frames[fi]
		if len(fs.Objects) != len(fl.Objects) {
			t.Fatalf("frame %d object count changed when the sequence grew", fi)
		}
		for oi := range fs.Objects {
			if fs.Objects[oi] != fl.Objects[oi] {
				t.Fatalf("frame %d object %d changed when the sequence grew", fi, oi)
			}
		}
	}
}

// TestGrowerMatchesGenerate pins incremental growth against
// from-scratch generation: growing a sequence in small irregular
// chunks yields frames byte-identical to GenerateSequence at the final
// length, and Grow never disturbs frames already emitted.
func TestGrowerMatchesGenerate(t *testing.T) {
	p := MiniKITTIPreset()
	const total = 97
	pLong := p
	pLong.FramesPerSeq = total
	want := GenerateSequence(pLong, 7, 1)

	g := NewGrower(p, 7, 1)
	seq := g.Sequence()
	if len(seq.Frames) != 0 {
		t.Fatalf("fresh grower has %d frames, want 0", len(seq.Frames))
	}
	for _, target := range []int{1, 2, 7, 7, 30, 29, 64, total} { // repeats and shrinks are no-ops
		g.Grow(target)
	}
	if g.Sequence() != seq {
		t.Fatal("Grow moved the sequence pointer")
	}
	if len(seq.Frames) != total {
		t.Fatalf("grown to %d frames, want %d", len(seq.Frames), total)
	}
	if seq.ID != want.ID || seq.Width != want.Width || seq.Height != want.Height || seq.FPS != want.FPS {
		t.Fatal("sequence identity differs from GenerateSequence")
	}
	for fi := range want.Frames {
		fw, fg := want.Frames[fi], seq.Frames[fi]
		if fw.Index != fg.Index || fw.Labeled != fg.Labeled || len(fw.Objects) != len(fg.Objects) {
			t.Fatalf("frame %d header/object count differs from from-scratch generation", fi)
		}
		for oi := range fw.Objects {
			if fw.Objects[oi] != fg.Objects[oi] {
				t.Fatalf("frame %d object %d differs from from-scratch generation", fi, oi)
			}
		}
	}
}

// TestRescalePreservesPerSecondStats generates the same world at the
// native rate and at 3x the frame rate and compares per-second
// statistics: object density per frame (a per-instant quantity) and
// mean track lifetime in seconds must agree within sampling noise, and
// per-second displacement of tracked objects must match in scale.
func TestRescalePreservesPerSecondStats(t *testing.T) {
	base := KITTIPreset()
	base.NumSequences = 4
	base.FramesPerSeq = 600
	fast := base.Rescale(3 * base.FPS)
	fast.FramesPerSeq = 3 * base.FramesPerSeq

	type stats struct{ density, lifeSec, speedSec float64 }
	collect := func(p Preset) stats {
		ds := Generate(p, 11)
		var objs, frames int
		first := map[[2]int]int{} // (seq, track) -> first frame
		last := map[[2]int]int{}  // (seq, track) -> last frame
		firstX := map[[2]int]float64{}
		lastX := map[[2]int]float64{}
		for si := range ds.Sequences {
			for fi, fr := range ds.Sequences[si].Frames {
				frames++
				objs += len(fr.Objects)
				for _, o := range fr.Objects {
					key := [2]int{si, o.TrackID}
					if _, ok := first[key]; !ok {
						first[key] = fi
						firstX[key] = centerX(o.Box)
					}
					last[key] = fi
					lastX[key] = centerX(o.Box)
				}
			}
		}
		var lifeFrames, disp float64
		var tracks int
		for key, f0 := range first {
			span := last[key] - f0
			if span < int(p.FPS) { // ignore sub-second flickers
				continue
			}
			lifeFrames += float64(span)
			disp += math.Abs(lastX[key]-firstX[key]) / (float64(span) / p.FPS)
			tracks++
		}
		return stats{
			density:  float64(objs) / float64(frames),
			lifeSec:  lifeFrames / float64(tracks) / p.FPS,
			speedSec: disp / float64(tracks),
		}
	}

	a, b := collect(base), collect(fast)
	within := func(name string, x, y, tol float64) {
		t.Helper()
		if ratio := x / y; ratio < 1-tol || ratio > 1+tol {
			t.Errorf("%s diverged after rescale: native %.3f vs 3x %.3f", name, x, y)
		}
	}
	within("object density", a.density, b.density, 0.25)
	within("mean lifetime (s)", a.lifeSec, b.lifeSec, 0.25)
	within("per-second speed", a.speedSec, b.speedSec, 0.35)
}

func centerX(b geom.Box) float64 { x, _ := b.Center(); return x }

// TestGrowAllocs pins the world's growth at steady state: frames carve
// their objects from a shared 32 KiB slab and spawns reuse dead
// objects, so growing a frame costs a slab only every few dozen frames
// plus the sequence's doubling frame list, not the former per-frame
// doubling of every frame's Objects.
func TestGrowAllocs(t *testing.T) {
	g := NewGrower(KITTIPreset(), 5, 0)
	g.Grow(200) // warm the dead-object free list
	n := len(g.Sequence().Frames)
	const frames = 100
	perRun := testing.AllocsPerRun(10, func() {
		n += frames
		g.Grow(n)
	})
	if perRun > 2 {
		t.Errorf("growing %d frames allocates %v times, budget is 2", frames, perRun)
	}
	objects := 0
	for _, f := range g.Sequence().Frames[200:] {
		objects += len(f.Objects)
	}
	if objects < 2*chunkObjects {
		t.Fatalf("only %d objects grown; the budget needs several slabs' worth", objects)
	}
}

// BenchmarkGrow extends a KITTI-sim world frame by frame, the way the
// serving engine grows each stream's world. Each world is first grown
// by growWarm frames outside the timer, so the dead-object free list
// is warm, and started over every growSpan timed frames, so memory
// stays bounded.
func BenchmarkGrow(b *testing.B) {
	const growWarm, growSpan = 200, 2000
	fresh := func() *Grower {
		g := NewGrower(KITTIPreset(), 5, 0)
		g.Grow(growWarm)
		return g
	}
	g := fresh()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % growSpan
		if k == 0 && i > 0 {
			b.StopTimer()
			g = fresh()
			b.StartTimer()
		}
		g.Grow(growWarm + k + 1)
	}
}
