package geom

import (
	"math"
	"math/rand"
	"testing"
)

// The math.Min/math.Max versions of Intersect, Union and Clip that the
// inline fmin/fmax replaced, kept as references: every coordinate must
// match theirs bit for bit.

func refIntersect(b, o Box) Box {
	r := Box{
		X1: math.Max(b.X1, o.X1),
		Y1: math.Max(b.Y1, o.Y1),
		X2: math.Min(b.X2, o.X2),
		Y2: math.Min(b.Y2, o.Y2),
	}
	if r.X1 >= r.X2 || r.Y1 >= r.Y2 {
		return Box{}
	}
	return r
}

func refUnion(b, o Box) Box {
	if b.Empty() {
		return o
	}
	if o.Empty() {
		return b
	}
	return Box{
		X1: math.Min(b.X1, o.X1),
		Y1: math.Min(b.Y1, o.Y1),
		X2: math.Max(b.X2, o.X2),
		Y2: math.Max(b.Y2, o.Y2),
	}
}

func refClip(b Box, w, h float64) Box {
	return Box{
		X1: math.Max(0, math.Min(b.X1, w)),
		Y1: math.Max(0, math.Min(b.Y1, h)),
		X2: math.Max(0, math.Min(b.X2, w)),
		Y2: math.Max(0, math.Min(b.Y2, h)),
	}
}

func sameBits(a, b Box) bool {
	return math.Float64bits(a.X1) == math.Float64bits(b.X1) &&
		math.Float64bits(a.Y1) == math.Float64bits(b.Y1) &&
		math.Float64bits(a.X2) == math.Float64bits(b.X2) &&
		math.Float64bits(a.Y2) == math.Float64bits(b.Y2)
}

// specialFloats are the operands on which min and max disagree across
// implementations: signed zeros, infinities and NaNs of several signs
// and payloads (the builtin min and max return NaN against an infinity
// and flip a propagated NaN's sign), plus ordinary values around them.
var specialFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 375, 1242,
	math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
	math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff8000000000000),
	math.SmallestNonzeroFloat64, math.MaxFloat64,
}

func TestMinMaxMatchMath(t *testing.T) {
	for _, x := range specialFloats {
		for _, y := range specialFloats {
			if got, want := fmin(x, y), math.Min(x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("fmin(%v, %v) = %#x, math.Min %#x", x, y, math.Float64bits(got), math.Float64bits(want))
			}
			if got, want := fmax(x, y), math.Max(x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("fmax(%v, %v) = %#x, math.Max %#x", x, y, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// randCoord draws a special value a quarter of the time and otherwise a
// frame coordinate, so boxes share coordinates, touch and nest.
func randCoord(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return specialFloats[rng.Intn(len(specialFloats))]
	}
	return float64(rng.Intn(64)) * 0.5
}

// Property: Union, Intersect and Clip match the math.Min/math.Max
// references bit for bit, and Union of two non-empty boxes is
// commutative bit for bit, which GreedyMerge's pair cache relies on.
func TestBoxHelpersMatchMath(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	box := func() Box { return Box{randCoord(rng), randCoord(rng), randCoord(rng), randCoord(rng)} }
	for i := 0; i < 200000; i++ {
		a, b := box(), box()
		if got, want := a.Union(b), refUnion(a, b); !sameBits(got, want) {
			t.Fatalf("%v.Union(%v) = %v, reference %v", a, b, got, want)
		}
		if got, want := a.Intersect(b), refIntersect(a, b); !sameBits(got, want) {
			t.Fatalf("%v.Intersect(%v) = %v, reference %v", a, b, got, want)
		}
		w, h := randCoord(rng), randCoord(rng)
		if got, want := a.Clip(w, h), refClip(a, w, h); !sameBits(got, want) {
			t.Fatalf("%v.Clip(%v, %v) = %v, reference %v", a, w, h, got, want)
		}
		if !a.Empty() && !b.Empty() {
			if ab, ba := a.Union(b), b.Union(a); !sameBits(ab, ba) {
				t.Fatalf("%v.Union(%v) = %v, but reversed %v", a, b, ab, ba)
			}
		}
	}
}
