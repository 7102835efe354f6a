package geom

import (
	"math/rand"
	"testing"
)

func TestMaskEmpty(t *testing.T) {
	m := NewMask(1242, 375, 8)
	if m.CoveredCells() != 0 || m.CoveredFraction() != 0 {
		t.Fatal("fresh mask should be empty")
	}
}

func TestMaskFullFrame(t *testing.T) {
	m := NewMask(100, 100, 10)
	m.AddBox(NewBox(0, 0, 100, 100))
	if got := m.CoveredFraction(); got != 1 {
		t.Fatalf("full-frame coverage = %v, want 1", got)
	}
}

func TestMaskHalfFrame(t *testing.T) {
	m := NewMask(100, 100, 10)
	m.AddBox(NewBox(0, 0, 50, 100))
	if got := m.CoveredFraction(); got != 0.5 {
		t.Fatalf("half coverage = %v, want 0.5", got)
	}
}

func TestMaskOverlapNotDoubleCounted(t *testing.T) {
	m := NewMask(100, 100, 10)
	m.AddBox(NewBox(0, 0, 60, 100))
	m.AddBox(NewBox(40, 0, 100, 100)) // overlaps 20px band
	if got := m.CoveredFraction(); got != 1 {
		t.Fatalf("union coverage = %v, want 1", got)
	}
}

func TestMaskBoxCoverage(t *testing.T) {
	m := NewMask(100, 100, 10)
	m.AddBox(NewBox(0, 0, 50, 100))
	if got := m.BoxCoverage(NewBox(10, 10, 40, 40)); got != 1 {
		t.Fatalf("inside coverage = %v, want 1", got)
	}
	if got := m.BoxCoverage(NewBox(60, 60, 90, 90)); got != 0 {
		t.Fatalf("outside coverage = %v, want 0", got)
	}
	half := m.BoxCoverage(NewBox(30, 0, 70, 100))
	if half <= 0.3 || half >= 0.7 {
		t.Fatalf("straddling coverage = %v, want ~0.5", half)
	}
}

func TestMaskClipsOutOfFrame(t *testing.T) {
	m := NewMask(100, 100, 10)
	m.AddBox(NewBox(-50, -50, -10, -10)) // fully outside
	if m.CoveredCells() != 0 {
		t.Fatal("out-of-frame box marked cells")
	}
	m.AddBox(NewBox(-50, -50, 10, 10)) // partially inside
	if m.CoveredCells() == 0 {
		t.Fatal("partially-inside box marked nothing")
	}
	if got := m.BoxCoverage(NewBox(-10, -10, -1, -1)); got != 0 {
		t.Fatalf("coverage of out-of-frame box = %v", got)
	}
}

func TestMaskReset(t *testing.T) {
	m := NewMask(100, 100, 10)
	m.AddBox(NewBox(0, 0, 100, 100))
	m.Reset()
	if m.CoveredCells() != 0 {
		t.Fatal("reset did not clear")
	}
}

// The grid mask approximates the exact union area from above (cells are
// conservative: any touched cell counts fully).
func TestMaskApproximatesUnionArea(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const W, H = 1242, 375
	for trial := 0; trial < 20; trial++ {
		m := NewMask(W, H, 4)
		var boxes []Box
		for i := 0; i < 15; i++ {
			x := rng.Float64() * (W - 100)
			y := rng.Float64() * (H - 80)
			b := NewBox(x, y, x+30+rng.Float64()*70, y+20+rng.Float64()*60)
			boxes = append(boxes, b)
			m.AddBox(b)
		}
		exact := UnionArea(boxes) / (W * H)
		approx := m.CoveredFraction()
		if approx < exact-1e-9 {
			t.Fatalf("trial %d: mask %.4f under exact %.4f", trial, approx, exact)
		}
		if approx > exact+0.05 {
			t.Fatalf("trial %d: mask %.4f too far above exact %.4f", trial, approx, exact)
		}
	}
}

func TestUnionAreaKnownValues(t *testing.T) {
	if got := UnionArea(nil); got != 0 {
		t.Fatalf("UnionArea(nil) = %v", got)
	}
	a := NewBox(0, 0, 10, 10)
	b := NewBox(5, 0, 15, 10)
	if got := UnionArea([]Box{a, b}); got != 150 {
		t.Fatalf("union area = %v, want 150", got)
	}
	if got := UnionArea([]Box{a, a, a}); got != 100 {
		t.Fatalf("self-union area = %v, want 100", got)
	}
	// Disjoint boxes sum.
	c := NewBox(100, 100, 110, 110)
	if got := UnionArea([]Box{a, c}); got != 200 {
		t.Fatalf("disjoint union = %v, want 200", got)
	}
}

func TestGreedyMergeMergesWhenProfitable(t *testing.T) {
	// Fixed per-region cost makes merging always profitable.
	cost := func(b Box) float64 { return 1 + b.Area()/1e6 }
	boxes := []Box{NewBox(0, 0, 10, 10), NewBox(20, 0, 30, 10), NewBox(0, 20, 10, 30)}
	out := GreedyMerge(nil, boxes, cost)
	if len(out) != 1 {
		t.Fatalf("merged to %d regions, want 1", len(out))
	}
}

func TestGreedyMergeKeepsDistantBoxesSeparate(t *testing.T) {
	// Pure-area cost: merging is never strictly profitable, so distant
	// boxes stay separate.
	cost := func(b Box) float64 { return b.Area() }
	boxes := []Box{NewBox(0, 0, 10, 10), NewBox(500, 500, 510, 510)}
	out := GreedyMerge(nil, boxes, cost)
	if len(out) != 2 {
		t.Fatalf("merged distant boxes: %v", out)
	}
}

func TestGreedyMergeDropsEmptyAndPreservesCoverage(t *testing.T) {
	cost := func(b Box) float64 { return 1 + b.Area()/1e4 }
	boxes := []Box{{}, NewBox(0, 0, 10, 10), NewBox(5, 5, 20, 20)}
	out := GreedyMerge(nil, boxes, cost)
	for _, b := range boxes[1:] {
		covered := false
		for _, o := range out {
			if o.ContainsBox(b) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("input box %v not covered by output %v", b, out)
		}
	}
}

// Or of two masks over one geometry leaves exactly the bits of one mask
// built from both box sets, on odd frame sizes and cell sizes; an empty
// operand is the identity and Or is idempotent.
func TestMaskOr(t *testing.T) {
	frames := append([][2]float64{{37, 21}, {9, 7}}, spanFrames...)
	for _, fr := range frames {
		w, h := fr[0], fr[1]
		for _, cell := range []float64{1, 3, 7.5, DefaultCell, 13, 64} {
			rng := rand.New(rand.NewSource(int64(w*cell) + 1))
			a, b, both := NewMask(w, h, cell), NewMask(w, h, cell), NewMask(w, h, cell)
			for i := 0; i < 6; i++ {
				ba, bb := randSpanBox(rng, w, h, cell), randSpanBox(rng, w, h, cell)
				a.AddBox(ba)
				b.AddBox(bb)
				both.AddBox(ba)
				both.AddBox(bb)
			}
			a.Or(NewMask(w, h, cell))
			a.Or(b)
			a.Or(b)
			for i := range both.bits {
				if a.bits[i] != both.bits[i] {
					t.Fatalf("%gx%g cell %g: word %d = %#x, want %#x", w, h, cell, i, a.bits[i], both.bits[i])
				}
			}
		}
	}
}
